"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The stochastic checks (table reproduction, bound
sweeps) use fixed seeds and are fully deterministic.
"""

import math

import numpy as np
import pytest

from drpack.baselines import (brute_force_opt, brute_grid_slack, offline_fw,
                              weak_duality_gap)
from drpack.engine import BUDGET_TOL, EngineConfig, OnlineInstance, run_online
from drpack.feasible import Box
from drpack.generators import FAMILIES, GeneratorSpec, generate
from drpack.harness import auto_penalties, reproduce_table1, verify_bounds
from drpack.objectives import (LinearObjective, MultilinearObjective,
                               QuadraticObjective, SetFunctionTable, check_dr,
                               estimate_alpha)
from drpack.penalties import PenaltyModel, ZeroPenalty, theoretical_cr

from oracles import central_diff_grad
from test_baselines import (coverage_box_instance, linear_box_instance,
                            reference_lp_value, separable_concave_instance)

E = math.e


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _zoo():
    rng = np.random.default_rng(2024)
    H = np.tril(rng.uniform(-100.0, 0.0, (8, 8)))
    H = H + np.tril(H, -1).T
    return [
        QuadraticObjective(H, -H.sum(axis=1)),
        LinearObjective(rng.uniform(0.5, 3.0, 6)),
        MultilinearObjective(SetFunctionTable.concave_of_modular(
            rng.uniform(0.2, 1.0, (3, 6)), rng.uniform(0.5, 1.5, 3))),
        MultilinearObjective(SetFunctionTable.coverage(
            [rng.choice(10, size=4, replace=False) for _ in range(5)],
            rng.uniform(0.5, 1.5, 10))),
    ]


def test_criterion_1_table_reproduction():
    res1 = reproduce_table1(n=1, seeds=10, K=50, m=100)
    res5 = reproduce_table1(n=5, seeds=10, K=50, m=100)
    ok = 0.54 <= res1.mean_cr <= 0.74
    ok &= 0.65 <= float(res1.mean_usage[0]) <= 0.85
    ok &= 0.48 <= res5.mean_cr <= 0.68
    ok &= bool(np.all((res5.mean_usage >= 0.48) & (res5.mean_usage <= 0.85)))
    for res in (res1, res5):
        for rec in res.records:
            ok &= 0.0 < rec.competitive_ratio <= 1.0 + 1e-9
            ok &= bool(np.all(rec.budget_usage <= 1.0 + 1e-9))
    detail = (f"n=1 CR {100 * res1.mean_cr:.2f}% usage "
              f"{100 * res1.mean_usage[0]:.2f}% | n=5 CR {100 * res5.mean_cr:.2f}% "
              f"usage {np.round(100 * res5.mean_usage, 2).tolist()}%")
    _report(1, "table reproduction", ok, detail)


def test_criterion_2_exact_bound_values():
    checks = []
    got = theoretical_cr("multi_constraint", [0.0, 0.0], [3.0, 3.0], [3.0, 3.0])
    checks.append(abs(got.theoretical_cr - (1.0 - 1.0 / E)) <= 1e-12)
    for U, L in [(E, 1.0), (10.0, 2.5), (4.0, 4.0)]:
        got = theoretical_cr("single_constraint", [0.0], [U], [L])
        checks.append(abs(got.theoretical_cr - 1.0 / (1.0 + math.log(U / L))) <= 1e-12)
    # the relaxed-penalty formulas at epsilon = 0 equal the exact-feasibility ones
    for U, L, a in [(2.0, 1.0, -0.3), (5.0, 0.25, -1.0), (1.0, 1.0, 0.0)]:
        multi = theoretical_cr("multi_constraint", [a], [U], [L], epsilon=0.0)
        theorem = 1.0 / (-a + math.log1p(U * (E - 1.0) / L) * E / (E - 1.0))
        checks.append(abs(multi.theoretical_cr - theorem) <= 1e-12)
        single = theoretical_cr("single_constraint", [a], [U], [L], epsilon=0.0)
        theorem = 1.0 / (1.0 - a + math.log(U / L))
        checks.append(abs(single.theoretical_cr - theorem) <= 1e-12)
    _report(2, "exact special-case bounds", all(checks),
            f"{sum(checks)}/{len(checks)} identities at 1e-12")


def test_criterion_3_bound_satisfaction_sweep():
    configs = [
        ("adwords", {}),
        ("online_lp", {}),
        ("knapsack_single", {}),
        ("quadratic_sec5", {"n": 1, "m": 24}),
        ("quadratic_sec5", {"n": 5, "m": 24}),
    ]
    worst = np.inf
    total = 0
    ok = True
    for family, kw in configs:
        rep = verify_bounds(family, trials=10, K=1000, seed=0, **kw)
        ok &= rep["ok"]
        for check in rep["checks"]:
            total += 1
            worst = min(worst, check["empirical_cr"] / check["theoretical_cr"])
    _report(3, "bound satisfaction (50 instances, K=1000)", ok and total == 50,
            f"min empirical/theoretical = {worst:.3f} (needs >= 0.95)")


def test_criterion_4_penalty_correctness():
    models = [
        PenaltyModel("multi_constraint", 1.0, 1.0),
        PenaltyModel("multi_constraint", 6.0, 0.75),
        PenaltyModel("single_constraint", E, 1.0),
        PenaltyModel("single_constraint", 9.0, 0.4),
    ]
    ok = True
    for p in models:
        ok &= p.value(0.0) == 0.0
        ok &= abs(p.derivative(1.0) + p.U) <= 1e-9
        if p.regime == "single_constraint":
            beta = math.log(p.U * E / p.L)
            for u in np.linspace(1.0 / beta, 2.0, 101):
                lhs, rhs = p.derivative(u), beta * p.value(u)
                ok &= abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        h = 1e-6
        kink = (1.0 / math.log(p.U * E / p.L)
                if p.regime == "single_constraint" else None)
        for u in np.linspace(0.01, 1.2, 97):
            if kink is not None and abs(u - kink) < 10 * h:
                continue
            fd = (p.value(u + h) - p.value(u - h)) / (2 * h)
            ok &= abs(p.derivative(u) - fd) <= 1e-7 * max(1.0, abs(fd))
        grid = np.linspace(0.0, 1.0, 10_000)
        d = np.array([p.derivative(u) for u in grid])
        ok &= bool(np.all(np.diff(d) <= 1e-9))
    _report(4, "penalty correctness", ok,
            f"{len(models)} designs: origin, boundary, identity, FD, concavity")


def test_criterion_5_objective_correctness():
    ok = True
    rng = np.random.default_rng(99)
    for obj in _zoo():
        for _ in range(100):
            x = rng.uniform(0.05, 0.95, obj.m)
            g = obj.grad(x)
            fd = central_diff_grad(obj.value, x)
            ok &= float(np.max(np.abs(g - fd) / np.maximum(np.abs(g), 1e-3))) <= 1e-6
        ok &= check_dr(obj, trials=1000, rng_seed=7, tol=1e-9).ok
        if obj.kind == "multilinear":
            for mask in range(2**obj.m):
                x = np.array([(mask >> j) & 1 for j in range(obj.m)], dtype=float)
                ok &= obj.value(x) == obj.table.value(mask)
    _report(5, "objective correctness", ok,
            "gradients 1e-6, anti-tone 1000 pairs, integral vertices exact")


def test_criterion_6_curvature_relation():
    rng = np.random.default_rng(606)
    ok = True
    worst_gap = np.inf
    for trial in range(20):
        v = 5 + trial % 4  # ground sets of 5..8 elements
        if trial % 2 == 0:
            tab = SetFunctionTable.concave_of_modular(
                rng.uniform(0.2, 1.0, (3, v)), rng.uniform(0.5, 1.5, 3))
        else:
            tab = SetFunctionTable.coverage(
                [rng.choice(2 * v, size=int(rng.integers(1, v)), replace=False)
                 for _ in range(v)],
                rng.uniform(0.5, 1.5, 2 * v))
        assert tab.is_monotone() and tab.is_submodular()
        rep = estimate_alpha(MultilinearObjective(tab), rng.uniform(0.5, 1.5, v),
                             samples=1024, refinements=6, seed=trial)
        gap = rep.alpha + tab.total_curvature()
        worst_gap = min(worst_gap, gap)
        ok &= gap >= -1e-6
        ok &= -1.0 <= rep.alpha <= 0.0
    cover = MultilinearObjective(SetFunctionTable([0.0, 1.0, 1.0, 1.0]))
    rep = estimate_alpha(cover, [1.0, 1.0])
    ok &= abs(rep.alpha + 1.0 / 3.0) <= 1e-6
    kappa = cover.table.total_curvature()
    ok &= kappa == pytest.approx(1.0)
    _report(6, "curvature relation", ok,
            f"20 tables, min(alpha + kappa) = {worst_gap:.2e}; coverage "
            f"alpha = {rep.alpha:.6f}, kappa = {kappa}")


def test_criterion_7_feasibility_everywhere():
    # Budget caps and set membership are structural (the crossing micro-step
    # is scaled back), so they must hold at every K including the degenerate
    # K=1. The penalized objective is non-negative up to the O(1/K) remainder
    # `finite_k_slack` (objective and penalty curvature); at K=1 that term can
    # dominate (observed only there), so its sign is asserted over the
    # operating range K >= 2.
    ok = True
    runs = 0
    worst_load = 0.0
    worst_p = np.inf
    for family in FAMILIES:
        n = 1 if family == "knapsack_single" else 3
        m = 8 if family in ("welfare_simplex", "gap", "knapsack_single") else 12
        for seed in range(3):
            inst = generate(GeneratorSpec(family, n, m, seed=seed))
            pens = auto_penalties(inst)
            for K in (1, 2, 9, 60, 300):
                trace = run_online(inst, pens, EngineConfig(K=K))
                runs += 1
                budgeted = [i for i, p in enumerate(pens)
                            if not isinstance(p, ZeroPenalty)]
                if budgeted:
                    top = float(np.max(trace.loads[budgeted]))
                    worst_load = max(worst_load, top)
                    ok &= top <= 1.0 + 1e-12
                for t, s in enumerate(inst.sets):
                    ok &= s.contains(trace.allocations[:, t], 1e-12)
                if K >= 2:
                    worst_p = min(worst_p, trace.p_gseq)
                    if inst.n > 1:
                        ok &= trace.p_gseq >= 0.0
                    else:
                        ok &= trace.p_gseq >= -BUDGET_TOL
    _report(7, "feasibility everywhere", ok,
            f"{runs} runs, max budgeted load = {worst_load:.12f}, "
            f"min P = {worst_p:.4g}")


def test_criterion_8_weak_duality():
    tiny = [
        generate(GeneratorSpec("quadratic_sec5", 1, 3, seed=21)),
        generate(GeneratorSpec("quadratic_sec5", 1, 4, seed=22)),
        generate(GeneratorSpec("quadratic_sec5", 2, 3, seed=23)),
        generate(GeneratorSpec("quadratic_sec5", 2, 2, seed=24)),
        generate(GeneratorSpec("knapsack_single", 1, 4, seed=25)),
        generate(GeneratorSpec("knapsack_single", 1, 5,
                               params={"objective": "multilinear"}, seed=26)),
        generate(GeneratorSpec("adwords", 2, 3, seed=27)),
        generate(GeneratorSpec("online_lp", 2, 3, seed=28)),
        generate(GeneratorSpec("welfare_simplex", 2, 3, seed=29)),
        generate(GeneratorSpec("gap", 2, 3, seed=30)),
    ]
    ok = True
    margin = np.inf
    for inst in tiny:
        assert inst.n * inst.m <= 6
        pens = auto_penalties(inst)
        trace = run_online(inst, pens, EngineConfig(K=300))
        grid = 9 if inst.n * inst.m == 6 else 13
        gap = weak_duality_gap(inst, trace.dual, grid_points=grid)
        margin = min(margin,
                     gap["dual_value"] + gap["grid_slack"] - gap["opt_brute"])
        ok &= gap["ok"]
    _report(8, "weak duality (10 tiny instances)", ok,
            f"min dual + slack - opt = {margin:.3e} (needs >= 0)")


def test_criterion_9_baseline_cross_validation():
    ok = True
    # exact LP reference on linear instances
    rel_err = 0.0
    for seed in range(3):
        inst = linear_box_instance(seed)
        _, value = offline_fw(inst, 500)
        ref = reference_lp_value(inst)
        rel_err = max(rel_err, abs(value - ref) / ref)
    ok &= rel_err <= 1e-6
    # grid-resolution agreement on shared tiny instances
    shared = [
        linear_box_instance(31, n=1, m=3),
        coverage_box_instance(),
        separable_concave_instance(),
        generate(GeneratorSpec("quadratic_sec5", 1, 3, seed=32)),
        generate(GeneratorSpec("knapsack_single", 1, 4, seed=33)),
    ]
    for inst in shared:
        _, fw = offline_fw(inst, 400)
        _, brute = brute_force_opt(inst, grid_points=21)
        slack = brute_grid_slack(inst, grid_points=21)
        ok &= fw <= brute + slack + 1e-9
        ok &= brute <= fw * (1 + 1e-6) + slack
    _report(9, "baseline cross-validation", ok,
            f"LP rel err {rel_err:.2e}; {len(shared)} shared instances in "
            f"grid-resolution bounds")
