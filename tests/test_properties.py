"""Property tests of the engine invariants over every generator family.

Hypothesis draws the instance size, the seed, the relaxation epsilon and the
number of micro-steps; each property must hold on every draw.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drpack.baselines import offline_fw
from drpack.engine import EngineConfig, row_loads, run_online
from drpack.generators import FAMILIES, GeneratorSpec, generate
from drpack.harness import auto_penalties

TOL = 1e-12

draws = st.fixed_dictionaries({
    "n": st.integers(1, 3),
    "m": st.integers(1, 6),
    "seed": st.integers(0, 2**32 - 1),
    "epsilon": st.sampled_from([0.0, 0.2]),
    "K": st.integers(1, 20),
})


def p_floor(inst, pens, K, h=1e-6):
    """Lower bound on P - P(0) after a run with K micro-steps per arrival.

    A micro-step moves row i's coordinate t by s_i in [0, cap_it / K]. Its
    first-order gain (g + c G') . s is >= 0, since the linear maximizer over a
    set that contains 0 does at least as well as 0. Its Taylor remainder is at
    least -(|d_tt H_i| + c_it^2 |G_i''|) s_i^2 / 2, where d_tt H_i is constant
    (H[t, t] for a quadratic, 0 for linear and multilinear rows) and |G_i''|
    grows with the load, so the secant slope of G_i' just past the cap bounds
    it on [0, cap]. Summed over the K micro-steps of each arrival: O(1/K).
    """
    caps = inst.row_boxes()
    total = 0.0
    for i, (obj, p) in enumerate(zip(inst.objectives, pens)):
        h_tt = np.abs(np.diag(obj.hessian(np.zeros(inst.m))))
        g2 = (p.derivative(p.load_cap) - p.derivative(p.load_cap + h)) / h
        total += float(np.sum((h_tt + inst.C[i] ** 2 * g2) * caps[i] ** 2))
    return total / (2 * K)


def draw_instance(family, d):
    n = 1 if family == "knapsack_single" else d["n"]
    return generate(GeneratorSpec(family, n, d["m"], seed=d["seed"]))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(d=draws)
def test_online_run_invariants(family, d):
    inst = draw_instance(family, d)
    try:
        pens = auto_penalties(inst, d["epsilon"])
    except ValueError as exc:
        # a quadratic_sec5 row's gradient vanishes at the all-ones corner; when
        # the budget admits that corner, L is 0 and the instance is refused
        assert family == "quadratic_sec5" and "not positive" in str(exc)
        assume(False)
    cfg = EngineConfig(K=d["K"])
    trace = run_online(inst, pens, cfg)
    X = trace.allocations
    for i, p in enumerate(pens):
        assert trace.loads[i] <= p.load_cap + TOL
    for t, s in enumerate(inst.sets):
        assert s.contains(X[:, t], TOL)
    # P >= P(0) holds only up to the O(1/K) remainder: at K = 1, quadratic_sec5
    # n=1 m=5 seed=1 epsilon=0.2 ends at P = -22.9 against a floor of -7.1e3
    p0 = inst.value(np.zeros((inst.n, inst.m)))
    assert trace.p_gseq >= p0 - p_floor(inst, pens, cfg.K)
    again = run_online(inst, pens, cfg)
    assert np.array_equal(again.allocations, X)
    assert np.array_equal(again.loads, trace.loads)
    assert again.alg == trace.alg and again.p_gseq == trace.p_gseq


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None)
@given(d=draws)
def test_offline_fw_stays_in_the_joint_polytope(family, d):
    # {X >= 0 : x_t in F_t, c_i . x_i <= 1}, checked without the LP's matrix
    inst = draw_instance(family, d)
    X, _ = offline_fw(inst, d["K"])
    assert np.all(X >= -TOL)
    for t, s in enumerate(inst.sets):
        assert s.contains(X[:, t], TOL)
    assert np.all(row_loads(inst.C, X) <= 1.0 + 1e-9)
