import math

import numpy as np
import pytest

from drpack.feasible import Box, Simplex
from drpack.engine import OnlineInstance
from drpack.generators import GeneratorSpec, generate
from drpack.objectives import LinearObjective, MultilinearObjective, QuadraticObjective, SetFunctionTable
from drpack.penalties import (PenaltyModel, ZeroPenalty, compute_UL,
                              theoretical_cr)

E = math.e


def models(epsilon=0.0):
    return [
        PenaltyModel("multi_constraint", 1.0, 1.0, epsilon),
        PenaltyModel("multi_constraint", 4.0, 0.5, epsilon),
        PenaltyModel("single_constraint", E, 1.0, epsilon),
        PenaltyModel("single_constraint", 7.5, 0.3, epsilon),
    ]


# -------------------------------------------------------------------- values

def test_multi_value_unit_bounds():
    p = PenaltyModel("multi_constraint", 1.0, 1.0)
    assert p.value(1.0) == pytest.approx((2.0 - E) / (E - 1.0), abs=1e-12)


def test_value_zero_at_origin_exact():
    for p in models() + models(0.2):
        assert p.value(0.0) == 0.0


def test_single_branches_agree_at_threshold():
    # U = e L puts the threshold at 1/2 where both branches give -L/2
    L = 0.8
    p = PenaltyModel("single_constraint", E * L, L)
    theta = 1.0 / math.log(E * E)
    assert theta == pytest.approx(0.5)
    assert p.value(theta - 1e-12) == pytest.approx(-L / 2.0, abs=1e-9)
    assert p.value(theta) == pytest.approx(-L / 2.0, abs=1e-12)


def test_value_errors():
    with pytest.raises(ValueError):
        PenaltyModel("multi_constraint", 1.0, 2.0)
    with pytest.raises(ValueError):
        PenaltyModel("bogus", 2.0, 1.0)
    with pytest.raises(ValueError):
        models()[0].value(-0.1)
    with pytest.raises(ValueError):
        PenaltyModel("single_constraint", 1.0, 1.0, epsilon=-0.1)
    for U, L, eps in [(math.inf, 1.0, 0.0), (math.inf, math.inf, 0.0), (math.nan, 1.0, 0.0),
                      (2.0, math.nan, 0.0), (2.0, 1.0, math.inf), (2.0, 1.0, math.nan)]:
        for regime in ("multi_constraint", "single_constraint"):
            with pytest.raises(ValueError):
                PenaltyModel(regime, U, L, eps)


# --------------------------------------------------------------- derivatives

def test_derivative_boundary_is_minus_U():
    for p in models():
        assert p.derivative(1.0) == pytest.approx(-p.U, abs=1e-9)
    for p in models(0.3):
        assert p.derivative(1.3) == pytest.approx(-p.U, abs=1e-9)


def test_multi_derivative_zero_at_origin():
    p = PenaltyModel("multi_constraint", 3.0, 1.0)
    assert p.derivative(0.0) == 0.0


def test_single_derivative_identity_above_threshold():
    for p in models():
        if p.regime != "single_constraint":
            continue
        beta = math.log(p.U * E / p.L)
        theta = 1.0 / beta
        for u in np.linspace(theta, 2.0, 40):
            assert p.derivative(u) == pytest.approx(beta * p.value(u), abs=1e-12)


def test_derivative_matches_finite_differences():
    h = 1e-6
    for p in models() + models(0.25):
        if p.regime == "single_constraint":
            beta = math.log(p.U * E / p.L)
            kink = (1.0 + p.epsilon) / beta
        else:
            kink = None
        for u in np.linspace(0.01, 1.0 + p.epsilon, 57):
            if kink is not None and abs(u - kink) < 10 * h:
                continue
            fd = (p.value(u + h) - p.value(u - h)) / (2 * h)
            assert p.derivative(u) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_derivative_monotone_nonincreasing():
    for p in models() + models(0.1):
        grid = np.linspace(0.0, 1.0 + p.epsilon, 400)
        d = np.array([p.derivative(u) for u in grid])
        assert np.all(np.diff(d) <= 1e-9)


def test_penalty_sign_structure():
    for p in models():
        grid = np.linspace(0.0, 1.5, 100)
        vals = np.array([p.value(u) for u in grid])
        ders = np.array([p.derivative(u) for u in grid])
        assert np.all(vals <= 1e-15)
        if p.regime == "single_constraint":
            assert np.all(ders <= -p.L + 1e-12)
        else:
            assert np.all(ders <= 1e-15)


def test_zero_penalty():
    z = ZeroPenalty()
    assert z.value(3.0) == 0.0 and z.derivative(3.0) == 0.0
    assert math.isinf(z.load_cap)


# ------------------------------------------------------------------- bounds

def test_cr_special_cases():
    multi = theoretical_cr("multi_constraint", [0.0, 0.0], [2.0, 2.0], [2.0, 2.0])
    assert multi.theoretical_cr == pytest.approx(1.0 - 1.0 / E, abs=1e-12)
    single = theoretical_cr("single_constraint", [0.0], [E], [1.0])
    assert single.theoretical_cr == pytest.approx(0.5, abs=1e-12)
    lp = theoretical_cr("multi_constraint", [0.0], [3.0], [1.0])
    expected = (1.0 - 1.0 / E) / math.log1p(3.0 * (E - 1.0))
    assert lp.theoretical_cr == pytest.approx(expected, abs=1e-12)


def test_cr_epsilon_zero_matches_theorem_forms():
    for U, L, a in [(2.0, 1.0, -0.25), (5.0, 0.5, 0.0), (1.0, 1.0, -1.0)]:
        multi = theoretical_cr("multi_constraint", [a], [U], [L], epsilon=0.0)
        theorem = 1.0 / (-a + math.log1p(U * (E - 1.0) / L) * E / (E - 1.0))
        assert multi.theoretical_cr == pytest.approx(theorem, abs=1e-12)
        single = theoretical_cr("single_constraint", [a], [U], [L], epsilon=0.0)
        theorem = 1.0 / (1.0 - a + math.log(U / L))
        assert single.theoretical_cr == pytest.approx(theorem, abs=1e-12)


def test_cr_monotonicity():
    base = theoretical_cr("multi_constraint", [-0.2], [2.0], [1.0]).theoretical_cr
    wider = theoretical_cr("multi_constraint", [-0.2], [4.0], [1.0]).theoretical_cr
    assert wider <= base
    flatter = theoretical_cr("multi_constraint", [0.0], [2.0], [1.0]).theoretical_cr
    assert flatter >= base
    relaxed = theoretical_cr("multi_constraint", [-0.2], [2.0], [1.0], 0.2).theoretical_cr
    assert relaxed >= base
    sbase = theoretical_cr("single_constraint", [-0.2], [2.0], [1.0]).theoretical_cr
    srelaxed = theoretical_cr("single_constraint", [-0.2], [2.0], [1.0], 0.2).theoretical_cr
    assert srelaxed >= sbase


def test_cr_validation():
    with pytest.raises(ValueError):
        theoretical_cr("multi_constraint", [0.5], [1.0], [1.0])
    with pytest.raises(ValueError):
        theoretical_cr("single_constraint", [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        theoretical_cr("multi_constraint", [0.0], [1.0], [2.0])


# --------------------------------------------------------------- U/L bounds

def test_UL_linear_closed_form():
    obj = LinearObjective([2.0, 6.0, 1.0])
    c = np.array([1.0, 2.0, 0.5])
    U, L = compute_UL(obj, c, np.ones(3))
    assert U == pytest.approx(3.0)
    assert L == pytest.approx(2.0 * (1 - 1e-9))


def test_UL_adwords_unit():
    inst = generate(GeneratorSpec("adwords", 3, 8, seed=5))
    boxes = inst.row_boxes()
    for i in range(3):
        U, L = compute_UL(inst.objectives[i], inst.C[i], boxes[i])
        assert U == pytest.approx(1.0, abs=1e-9)
        assert L == pytest.approx(1.0, abs=1e-8)


def test_UL_quadratic_worked_example():
    obj = QuadraticObjective([[-1.0, -1.0], [-1.0, -1.0]], [2.0, 2.0])
    U, L = compute_UL(obj, np.array([1.0, 1.0]), np.ones(2))
    assert U == pytest.approx(1.0, abs=1e-9)
    assert L == pytest.approx(1.0, abs=1e-8)


def test_UL_multilinear_certified_direction():
    tab = SetFunctionTable.concave_of_modular([[1.0, 0.5, 0.8]], [1.0])
    obj = MultilinearObjective(tab)
    c = np.array([0.6, 0.7, 0.8])
    U, L = compute_UL(obj, c, np.ones(3))
    zero, top = np.zeros(3), np.minimum(1.0, 1.0 / c)
    ratios0 = [obj.grad_coord(zero, t) / c[t] for t in range(3)]
    ratios1 = [obj.grad_coord(top, t) / c[t] for t in range(3)]
    assert U == pytest.approx(max(ratios0))
    assert L == pytest.approx(min(ratios1) * (1 - 1e-9))
    assert 0 < L <= U


def test_UL_rejects_flat_objective():
    with pytest.raises(ValueError):
        compute_UL(LinearObjective([0.0, 1.0]), np.array([1.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError):
        compute_UL(LinearObjective([1.0]), np.array([0.0]), np.ones(1))
