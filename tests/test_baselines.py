import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from drpack import baselines
from drpack.baselines import (brute_force_opt, brute_grid_slack,
                              dual_grid_slack, dual_objective, offline_fw,
                              weak_duality_gap)
from drpack.engine import DualPoint, EngineConfig, OnlineInstance, run_online
from drpack.feasible import Box, Simplex
from drpack.generators import GeneratorSpec, generate
from drpack.harness import auto_penalties
from drpack.linops import (polytope_inequalities, polytope_linmax,
                           vertex_is_optimal)
from drpack.objectives import (LinearObjective, MultilinearObjective,
                               QuadraticObjective, SetFunctionTable)

from oracles import grid_max_on_box, reference_offline_fw


def linear_box_instance(seed=0, n=2, m=3):
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.3, 1.0, (n, m))
    objs = [LinearObjective(rng.uniform(0.5, 2.0, m)) for _ in range(n)]
    return OnlineInstance(C, [Box(np.ones(n)) for _ in range(m)], objs)


def coverage_box_instance():
    # two ground elements, per-step caps 0.5, budget x1 + x2 <= 1:
    # the extension x1 + x2 - x1 x2 peaks at (0.5, 0.5) with value 0.75
    table = SetFunctionTable([0.0, 1.0, 1.0, 1.0])
    return OnlineInstance(np.array([[1.0, 1.0]]),
                          [Box([0.5]), Box([0.5])],
                          [MultilinearObjective(table)])


def separable_concave_instance():
    # no active budget row; optimum at the interior stationary point (.6, .8)
    obj = QuadraticObjective([[-1.0, 0.0], [0.0, -1.0]], [0.6, 0.8])
    return OnlineInstance(np.zeros((1, 2)), [Box([1.0]), Box([1.0])], [obj])


def reference_lp_value(instance):
    n, m = instance.n, instance.m
    coeff = np.concatenate([obj.d for obj in instance.objectives])
    A, b = [], []
    for i in range(n):
        row = np.zeros((n, m))
        row[i] = instance.C[i]
        A.append(row.ravel())
        b.append(1.0)
    for t, s in enumerate(instance.sets):
        if isinstance(s, Simplex):
            row = np.zeros((n, m))
            row[:, t] = 1.0
            A.append(row.ravel())
            b.append(s.scale)
    # simplex variables are bounded by their sum row alone
    bounds = [(0.0, float(s.bounds[i]) if isinstance(s, Box) else None)
              for i in range(n) for s in instance.sets]
    res = linprog(-coeff, A_ub=np.array(A), b_ub=np.array(b),
                  bounds=bounds, method="highs")
    assert res.success
    return -res.fun


# -------------------------------------------------------------- Frank-Wolfe

def test_fw_matches_lp_on_linear_instances():
    for seed in range(3):
        inst = linear_box_instance(seed)
        _, value = offline_fw(inst, 500)
        assert value == pytest.approx(reference_lp_value(inst), rel=1e-6)
    # adwords has simplex columns, so FW takes the LP path; its gradient is
    # constant, so FW solves that LP once and steps to the same vertex K
    # times. At m=8 the budget rows bind; at n=5, m=4 the column sums do
    # (optimum below n).
    for (n, m), seed in itertools.product([(3, 8), (5, 4)], range(3)):
        inst = generate(GeneratorSpec("adwords", n, m, seed=seed))
        assert len(polytope_inequalities(inst.C, inst.sets)[1]) > inst.n
        _, value = offline_fw(inst, 50)
        assert value == pytest.approx(reference_lp_value(inst), rel=1e-9)


def test_fw_solves_once_per_distinct_gradient(monkeypatch):
    calls = []

    def counting(region, G):
        calls.append(G)
        return polytope_linmax(region, G)

    monkeypatch.setattr(baselines, "polytope_linmax", counting)
    K = 50
    # adwords is all-linear: one gradient, one LP, and the same X bit for bit
    inst = generate(GeneratorSpec("adwords", 3, 8, seed=0))
    X, value = offline_fw(inst, K)
    assert len(calls) == 1
    X_ref, value_ref = reference_offline_fw(inst, K)
    assert np.array_equal(X, X_ref) and value == value_ref
    # the multilinear gradients of gap and welfare_simplex move at every step,
    # but a KKT certificate keeps the last vertex while it stays optimal. X
    # then differs from re-solving only by HiGHS's last-bit noise on the same
    # vertex, not bit for bit.
    for family, n, m in [("gap", 2, 6), ("welfare_simplex", 3, 5)]:
        inst = generate(GeneratorSpec(family, n, m, seed=0))
        assert len(polytope_inequalities(inst.C, inst.sets)[1]) > inst.n
        calls.clear()
        X, value = offline_fw(inst, K)
        assert 1 <= len(calls) < K
        X_ref, value_ref = reference_offline_fw(inst, K)
        assert np.max(np.abs(X - X_ref)) <= 1e-12
        assert value == pytest.approx(value_ref, rel=1e-12, abs=0.0)


def simplex_pair_region():
    # x = (x00, x01, x10, x11): budget rows 0.5 x_i0 + 0.5 x_i1 <= 1, column
    # sums x_0t + x_1t <= 1, caps 1
    inst = OnlineInstance(np.full((2, 2), 0.5), [Simplex(2, 1.0), Simplex(2, 1.0)],
                          [LinearObjective([1.0, 1.0]) for _ in range(2)])
    return polytope_inequalities(inst.C, inst.sets)


def test_certificate_keeps_a_vertex_only_while_it_stays_optimal():
    region = simplex_pair_region()
    G = np.array([[2.0, 1.0], [1.0, 2.0]])
    v = polytope_linmax(region, G)
    assert np.allclose(v, np.eye(2))
    assert vertex_is_optimal(region, v, G)
    assert vertex_is_optimal(region, v, G + [[0.3, -0.2], [0.1, -0.4]])
    # the rotated gradient prefers the other diagonal; tilting one row is
    # enough too, since row 0 then fills both of its columns
    for moved in (G[:, ::-1], np.array([[1.0, 3.0], [1.0, 2.0]])):
        assert np.sum(moved * polytope_linmax(region, moved)) > np.sum(moved * v) + 0.5
        assert not vertex_is_optimal(region, v, moved)


def test_certificate_is_never_consulted_on_a_box_only_region():
    # all-box regions take the closed form, which is cheaper than the check
    inst = linear_box_instance()
    region = polytope_inequalities(inst.C, inst.sets)
    assert len(region[1]) == inst.n
    G = np.stack([obj.d for obj in inst.objectives])
    assert not vertex_is_optimal(region, polytope_linmax(region, G), G)


def test_certificate_never_accepts_a_suboptimal_vertex():
    rng = np.random.default_rng(5)
    accepted = 0
    for family, n, m in [("gap", 3, 5), ("welfare_simplex", 2, 6), ("adwords", 3, 6)]:
        inst = generate(GeneratorSpec(family, n, m, seed=3))
        region = polytope_inequalities(inst.C, inst.sets)
        for scale in (1e-6, 1e-3, 0.1, 1.0):
            G = rng.uniform(0.1, 1.0, (n, m))
            v = polytope_linmax(region, G)
            moved = G * (1.0 + scale * rng.uniform(-1.0, 1.0, (n, m)))
            if vertex_is_optimal(region, v, moved):
                accepted += 1
                best = polytope_linmax(region, moved)
                assert np.sum(moved * v) >= np.sum(moved * best) * (1.0 - 1e-9)
    assert accepted >= 3  # the small moves keep the vertex


def test_fw_separable_concave_reaches_grid_optimum():
    inst = separable_concave_instance()
    grid_value, grid_arg = grid_max_on_box(lambda u: inst.objectives[0].value(u),
                                           np.ones(2), points=21)
    assert grid_value == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(grid_arg, [0.6, 0.8])
    _, value = offline_fw(inst, 200)
    assert value == pytest.approx(0.5, abs=1e-3)


def test_fw_zero_objective():
    inst = OnlineInstance(np.array([[1.0, 1.0]]), [Box([1.0]), Box([1.0])],
                          [LinearObjective([0.0, 0.0])])
    _, value = offline_fw(inst, 50)
    assert value == 0.0


def polytope_contains(C, sets, X, tol: float = 1e-9) -> bool:
    """Membership in the joint offline region, up to an additive tolerance."""
    A, b, caps = polytope_inequalities(C, sets)
    x = np.asarray(X, dtype=float).ravel()
    return bool(np.all(x >= -tol) and np.all(x <= caps + tol)
                and np.all(A @ x <= b + tol))


def test_fw_output_feasible():
    for family, n, m in [("quadratic_sec5", 2, 10), ("adwords", 3, 8), ("gap", 2, 6)]:
        inst = generate(GeneratorSpec(family, n, m, seed=2))
        X, _ = offline_fw(inst, 60)
        assert polytope_contains(inst.C, inst.sets, X, 1e-9)
        for t, s in enumerate(inst.sets):
            assert s.contains(X[:, t], 1e-9)
        A, b, caps = polytope_inequalities(inst.C, inst.sets)
        assert A.shape[1] == n * m and len(b) == len(A) and len(caps) == n * m
        assert np.all(A @ np.zeros(n * m) <= b)  # contains the origin
        assert polytope_contains(inst.C, inst.sets, X * 0.5, 1e-12)  # down-closed


def test_fw_value_trend_in_iterations():
    ladders = 0
    seeds = 30
    for seed in range(seeds):
        inst = generate(GeneratorSpec("quadratic_sec5", 1, 15, seed=seed))
        _, v1 = offline_fw(inst, 25)
        _, v2 = offline_fw(inst, 100)
        _, v3 = offline_fw(inst, 400)
        ladders += (v2 >= v1 - 1e-9) and (v3 >= v2 - 1e-9)
    print(f"offline value trend: {ladders}/{seeds} monotone ladders")
    assert ladders >= 0.95 * seeds


def test_fw_validates_iterations():
    with pytest.raises(ValueError):
        offline_fw(linear_box_instance(), 0)


# -------------------------------------------------------------- brute force

def test_brute_single_item():
    inst = OnlineInstance(np.array([[1.0]]), [Box([1.0])], [LinearObjective([1.0])])
    X, value = brute_force_opt(inst, grid_points=11)
    assert value == pytest.approx(1.0)
    assert X[0, 0] == pytest.approx(1.0)


def test_brute_coverage_example():
    X, value = brute_force_opt(coverage_box_instance(), grid_points=11)
    assert value == pytest.approx(0.75)
    assert np.allclose(X, [[0.5, 0.5]])


def test_brute_respects_caps():
    inst = generate(GeneratorSpec("quadratic_sec5", 2, 4, seed=0))
    with pytest.raises(ValueError):
        brute_force_opt(inst, grid_points=5)      # 8 variables > cap
    with pytest.raises(ValueError):
        brute_force_opt(coverage_box_instance(), grid_points=40)


def test_brute_handles_simplex_columns():
    rng = np.random.default_rng(4)
    table = SetFunctionTable.concave_of_modular(rng.uniform(0.3, 1.0, (2, 2)),
                                                [1.0, 0.5])
    inst = OnlineInstance(rng.uniform(0.2, 0.6, (2, 2)),
                          [Simplex(2, 1.0), Simplex(2, 1.0)],
                          [MultilinearObjective(table) for _ in range(2)])
    X, value = brute_force_opt(inst, grid_points=11)
    assert np.all(X.sum(axis=0) <= 1.0 + 1e-12)
    assert value > 0


def test_cross_oracle_fw_vs_brute():
    shared = [
        linear_box_instance(1, n=1, m=3),
        coverage_box_instance(),
        separable_concave_instance(),
        generate(GeneratorSpec("quadratic_sec5", 1, 3, seed=7)),
    ]
    for inst in shared:
        _, fw = offline_fw(inst, 400)
        _, brute = brute_force_opt(inst, grid_points=21)
        slack = brute_grid_slack(inst, grid_points=21)
        assert fw <= brute + slack + 1e-9
        assert brute <= fw * (1 + 1e-6) + slack


# --------------------------------------------------------------------- dual

def test_dual_linear_conjugate_vanishes():
    inst = linear_box_instance(3, n=2, m=3)
    Y = np.stack([obj.d for obj in inst.objectives])
    z = np.array([0.5, 0.25])
    val = dual_objective(inst, DualPoint(Y, z), conjugate_grid=9)
    support_sum = sum(
        s.support(Y[:, t] - z * inst.C[:, t]) for t, s in enumerate(inst.sets))
    assert val == pytest.approx(support_sum + z.sum(), abs=1e-9)


def test_dual_at_zero_point_is_sup():
    inst = coverage_box_instance()
    val = dual_objective(inst, DualPoint(np.zeros((1, 2)), np.zeros(1)),
                         conjugate_grid=11)
    sup, _ = grid_max_on_box(lambda u: inst.objectives[0].value(u),
                             [0.5, 0.5], points=11)
    assert val == pytest.approx(sup, abs=1e-12)
    _, opt = brute_force_opt(inst, grid_points=11)
    assert val >= opt - 1e-12


def test_dual_rejects_negative_prices():
    inst = coverage_box_instance()
    with pytest.raises(ValueError):
        dual_objective(inst, DualPoint(np.zeros((1, 2)), np.array([-0.1])))


def test_weak_duality_on_engine_dual_points():
    instances = [
        generate(GeneratorSpec("quadratic_sec5", 1, 3, seed=11)),
        generate(GeneratorSpec("knapsack_single", 1, 4, seed=12)),
        linear_box_instance(13, n=2, m=3),
    ]
    for inst in instances:
        pens = auto_penalties(inst)
        trace = run_online(inst, pens, EngineConfig(K=300))
        gap = weak_duality_gap(inst, trace.dual, grid_points=13)
        assert gap["ok"], gap


def test_dual_grid_slack_positive_and_shrinking():
    inst = coverage_box_instance()
    dual = DualPoint(np.ones((1, 2)), np.zeros(1))
    coarse = dual_grid_slack(inst, dual, conjugate_grid=6)
    fine = dual_grid_slack(inst, dual, conjugate_grid=21)
    assert 0 < fine < coarse
