"""Property tests of the engine invariants, and of the certified curvature
bound, over every generator family.

Hypothesis draws the instance size, the seed, the relaxation epsilon and the
number of micro-steps; each property must hold on every draw.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drpack import serialize
from drpack.baselines import offline_fw
from drpack.engine import EngineConfig, row_loads, run_online
from drpack.generators import FAMILIES, GeneratorSpec, generate
from drpack.harness import auto_penalties, finite_k_slack
from drpack.objectives import VALUE_FLOOR, estimate_alpha
from oracles import strict_json

TOL = 1e-12

draws = st.fixed_dictionaries({
    "n": st.integers(1, 3),
    "m": st.integers(1, 6),
    "seed": st.integers(0, 2**32 - 1),
    "epsilon": st.sampled_from([0.0, 0.2]),
    "K": st.integers(1, 20),
})


def draw_instance(family, d):
    n = 1 if family == "knapsack_single" else d["n"]
    return generate(GeneratorSpec(family, n, d["m"], seed=d["seed"]))


def draw_penalties(family, inst, epsilon):
    """auto_penalties, with the draws it refuses discarded."""
    try:
        return auto_penalties(inst, epsilon)
    except ValueError as exc:
        # a quadratic_sec5 row's gradient vanishes at the all-ones corner; when
        # the budget admits that corner, L is 0 and the instance is refused
        assert family == "quadratic_sec5" and "not positive" in str(exc)
        assume(False)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(d=draws)
def test_online_run_invariants(family, d):
    inst = draw_instance(family, d)
    pens = draw_penalties(family, inst, d["epsilon"])
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
    assert trace.p_gseq >= p0 - finite_k_slack(inst, pens, cfg.K)
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


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(d=draws)
def test_ratio_extremes_lie_within_the_offline_bounds(family, d):
    # at epsilon = 0 every micro-step starts inside the budgeted region that L
    # is taken over, and an anti-tone gradient is largest at the origin
    inst = draw_instance(family, d)
    pens = draw_penalties(family, inst, 0.0)
    trace = run_online(inst, pens, EngineConfig(K=d["K"]))
    for i, obj in enumerate(inst.objectives):
        costed = inst.C[i] > 0.0
        if not np.any(costed):
            continue
        ceiling = np.max(obj.grad(np.zeros(inst.m))[costed] / inst.C[i, costed])
        assert pens[i].L <= trace.ratio_min[i] <= trace.ratio_max[i] <= ceiling


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None)
@given(d=draws)
def test_files_round_trip_losslessly(family, d, tmp_path_factory):
    inst = draw_instance(family, d)
    trace = run_online(inst, draw_penalties(family, inst, d["epsilon"]),
                       EngineConfig(K=d["K"]))
    path = tmp_path_factory.getbasetemp() / f"round_trip_{family}.json"

    def round_trip(payload, read):
        serialize.save_json(path, payload)
        return read(strict_json(path.read_text()))

    inst_payload = serialize.instance_to_json(inst)
    assert serialize.instance_to_json(
        round_trip(inst_payload, serialize.instance_from_json)) == inst_payload
    trace_payload = serialize.trace_to_json(trace)
    back = round_trip(trace_payload, serialize.trace_from_json)
    assert serialize.trace_to_json(back) == trace_payload
    for a, b in [(back.allocations, trace.allocations), (back.loads, trace.loads),
                 (back.dual.Y, trace.dual.Y), (back.dual.z, trace.dual.z),
                 (back.ratio_min, trace.ratio_min), (back.ratio_max, trace.ratio_max)]:
        assert np.array_equal(a, b)
    assert back.alg == trace.alg and back.p_gseq == trace.p_gseq
    assert back.penalties == trace.penalties and back.config == trace.config
    # a row without a costed step has infinite extremes, written as null
    uncosted = (~np.any(inst.C > 0.0, axis=1)).tolist()
    for key in ("ratio_min", "ratio_max"):
        assert [v is None for v in trace_payload[key]] == uncosted


def feasible_points(chat, box, rng, count=256):
    """Uniform points of the box scaled into {chat'u <= 1}, and the same
    points moved onto the face chat'u = 1 where that stays in the box."""
    raw = rng.uniform(0.0, box, size=(count, len(box)))
    budget = raw @ chat
    inside = raw * np.minimum(1.0, 1.0 / np.maximum(budget, 1e-30))[:, None]
    face = raw / np.maximum(budget, 1e-30)[:, None]
    face = face[(budget > 1e-30) & np.all(face <= box + 1e-12, axis=1)]
    return np.vstack([inside, face])


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=8, deadline=None)
@given(d=draws)
def test_certified_alpha_lies_below_every_sampled_ratio(family, d):
    inst = draw_instance(family, d)
    boxes = inst.row_boxes()
    rng = np.random.default_rng(d["seed"])
    for i, obj in enumerate(inst.objectives):
        chat = inst.C[i]
        if not np.any(chat > 0.0):
            continue
        box = np.minimum(boxes[i], obj.domain_cap)
        lower = obj.alpha_lower(chat, box)
        assert -1.0 <= lower <= 0.0
        pts = feasible_points(chat, box, rng)
        vals = obj.value_many(pts)
        keep = vals > VALUE_FLOOR * max(obj.value(box), 0.0)
        if not np.any(keep):
            continue  # the objective vanishes on the region
        ratios = np.einsum("ij,ij->i", obj.grad_many(pts[keep]), pts[keep]) / vals[keep]
        assert lower <= float(np.min(ratios)) - 1.0 + 1e-9
        assert lower <= estimate_alpha(obj, chat, box, refinements=2).alpha + 1e-12
