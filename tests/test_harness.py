import json

import numpy as np
import pytest

from drpack import serialize
from drpack.cli import main
from drpack.engine import EngineConfig, OnlineInstance, evaluate_trace, run_online
from drpack.feasible import Box
from drpack.generators import FAMILIES, GeneratorSpec, generate
from drpack.harness import (auto_penalties, finite_k_slack, reproduce_table1,
                            verify_bounds)
from drpack.objectives import LinearObjective
from drpack.penalties import PenaltyModel, ZeroPenalty
from oracles import strict_json


# ---------------------------------------------------------------- generators

def test_generation_is_deterministic():
    for family in FAMILIES:
        n = 1 if family == "knapsack_single" else 2
        a = generate(GeneratorSpec(family, n, 6, seed=123))
        b = generate(GeneratorSpec(family, n, 6, seed=123))
        assert np.array_equal(a.C, b.C)
        for oa, ob in zip(a.objectives, b.objectives):
            assert oa.kind == ob.kind
        c = generate(GeneratorSpec(family, n, 6, seed=124))
        assert not np.array_equal(a.C, c.C) or family == "welfare_simplex"


def test_quadratic_family_construction():
    inst = generate(GeneratorSpec("quadratic_sec5", 1, 30, seed=0))
    obj = inst.objectives[0]
    assert obj.kind == "quadratic"
    assert np.all(obj.H <= 0.0) and np.all(obj.H >= -100.0)
    assert np.allclose(obj.H, obj.H.T)
    assert np.allclose(obj.h, -obj.H.sum(axis=1))
    assert np.all((inst.C >= 0.0) & (inst.C <= 1.0))
    assert all(s.kind == "scaled_box" for s in inst.sets)
    # gradient H(x - 1) stays non-negative on the unit box
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert np.min(obj.grad(rng.uniform(0, 1, 30))) >= -1e-9


def test_welfare_family_has_no_budget():
    inst = generate(GeneratorSpec("welfare_simplex", 3, 6, seed=1))
    assert np.all(inst.C == 0.0)
    assert all(s.kind == "scaled_simplex" for s in inst.sets)
    pens = auto_penalties(inst)
    assert all(isinstance(p, ZeroPenalty) for p in pens)
    trace = run_online(inst, pens, EngineConfig(K=25))
    assert trace.p_gseq == pytest.approx(trace.alg)
    assert trace.alg > 0


def test_gap_family_shapes():
    inst = generate(GeneratorSpec("gap", 2, 6, seed=3))
    assert all(s.kind == "scaled_simplex" for s in inst.sets)
    assert all(o.kind == "multilinear" for o in inst.objectives)
    assert np.all(inst.C > 0)


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        GeneratorSpec("nope", 1, 5, 0)
    with pytest.raises(ValueError):
        GeneratorSpec("adwords", 0, 5, 0)
    with pytest.raises(ValueError):
        generate(GeneratorSpec("knapsack_single", 2, 5, 0))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("welfare_simplex", 2, 25, 0))


# ------------------------------------------------------------------ penalties

def test_auto_penalties_regimes():
    single = auto_penalties(generate(GeneratorSpec("knapsack_single", 1, 8, 0)))
    assert single[0].regime == "single_constraint"
    multi = auto_penalties(generate(GeneratorSpec("online_lp", 3, 8, 0)))
    assert all(p.regime == "multi_constraint" for p in multi)


def test_finite_k_slack_scales():
    inst = generate(GeneratorSpec("quadratic_sec5", 1, 10, seed=0))
    pens = auto_penalties(inst)
    assert finite_k_slack(inst, pens, 100) == pytest.approx(
        10.0 * finite_k_slack(inst, pens, 1000))


# --------------------------------------------------------------- experiments

def test_reproduce_table_smoke():
    res = reproduce_table1(n=2, seeds=2, K=10, m=8)
    assert len(res.records) == 2
    for rec in res.records:
        assert 0 < rec.competitive_ratio <= 1 + 1e-9
        assert np.all(rec.budget_usage <= 1 + 1e-9)
    rows = res.rows()
    assert rows[-2][0] == "mean" and rows[-1][0] == "std"
    assert len(res.header()) == len(rows[0])


def test_reproduce_table_deterministic():
    a = reproduce_table1(n=1, seeds=2, K=10, m=8)
    b = reproduce_table1(n=1, seeds=2, K=10, m=8)
    assert a.mean_cr == b.mean_cr
    assert np.array_equal(a.mean_usage, b.mean_usage)


def test_verify_bounds_small():
    rep = verify_bounds("adwords", trials=3, K=150, seed=0, n=3, m=10)
    assert rep["ok"]
    assert all(c["passed"] for c in rep["checks"])


def test_verify_bounds_skips_welfare():
    rep = verify_bounds("welfare_simplex", trials=2, K=50, seed=0)
    assert rep["ok"]
    assert all(c.get("skipped") == "no budget rows" for c in rep["checks"])


def test_verify_bounds_gap_family():
    rep = verify_bounds("gap", trials=2, K=300, seed=0)
    assert rep["ok"]
    assert all(c["passed"] for c in rep["checks"])


# -------------------------------------------------------------- serialization

def test_instance_round_trip_lossless(tmp_path):
    for family in ("quadratic_sec5", "adwords", "knapsack_single", "gap"):
        n = 1 if family == "knapsack_single" else 2
        inst = generate(GeneratorSpec(family, n, 5, seed=9))
        path = tmp_path / f"{family}.json"
        serialize.save_json(path, serialize.instance_to_json(inst))
        back = serialize.instance_from_json(serialize.load_json(path))
        assert np.array_equal(back.C, inst.C)
        for sa, sb in zip(inst.sets, back.sets):
            assert sa.kind == sb.kind and sa.radius == sb.radius
        for oa, ob in zip(inst.objectives, back.objectives):
            assert oa.kind == ob.kind
            x = np.full(5, 0.3)
            assert ob.value(x) == oa.value(x)


def test_trace_round_trip_reproduces_values(tmp_path):
    # welfare_simplex traces have rows without a costed step: their ratio
    # extremes are infinite and must round-trip through strict JSON
    specs = [GeneratorSpec("quadratic_sec5", 2, 8, seed=10),
             GeneratorSpec("welfare_simplex", 3, 6, seed=10)]
    uncosted = 0
    for spec in specs:
        inst = generate(spec)
        pens = auto_penalties(inst)
        trace = run_online(inst, pens, EngineConfig(K=20))
        path = tmp_path / f"{spec.family}.json"
        serialize.save_json(path, serialize.trace_to_json(trace))
        strict_json(path.read_text())
        back = serialize.trace_from_json(serialize.load_json(path))
        assert np.array_equal(back.allocations, trace.allocations)
        assert back.alg == trace.alg and back.p_gseq == trace.p_gseq
        assert np.array_equal(back.ratio_min, trace.ratio_min)
        assert np.array_equal(back.ratio_max, trace.ratio_max)
        uncosted += int(np.sum(np.isinf(trace.ratio_min)))
        ev = evaluate_trace(inst, back.penalties, back)
        scale = max(1.0, abs(trace.alg))
        assert abs(ev.alg - back.alg) <= 1e-12 * scale
        assert abs(ev.p_gseq - back.p_gseq) <= 1e-12 * scale
    assert uncosted > 0


def test_files_carry_a_schema_version(tmp_path):
    inst = generate(GeneratorSpec("adwords", 2, 5, seed=3))
    trace = run_online(inst, auto_penalties(inst), EngineConfig(K=10))
    files = [(inst, serialize.instance_to_json, serialize.instance_from_json),
             (trace, serialize.trace_to_json, serialize.trace_from_json)]
    for obj, write, read in files:
        payload = write(obj)
        assert payload["schema"] == serialize.SCHEMA_VERSION == 1
        path = tmp_path / "file.json"
        serialize.save_json(path, payload)
        assert write(read(serialize.load_json(path))) == payload
        for bad in (2, 0, "1", None):
            with pytest.raises(ValueError, match="schema"):
                read({**payload, "schema": bad})
        with pytest.raises(ValueError, match="schema"):
            read({k: v for k, v in payload.items() if k != "schema"})
        with pytest.raises(ValueError, match="schema"):
            read([payload])
    path = tmp_path / "inst.json"
    serialize.save_json(path, {**serialize.instance_to_json(inst), "schema": 2})
    assert main(["run", "--instance", str(path), "--out", str(tmp_path / "t.json")]) == 2


def test_penalty_round_trip():
    for p in (PenaltyModel("multi_constraint", 3.0, 1.0, 0.2), ZeroPenalty()):
        q = serialize.penalty_from_json(serialize.penalty_to_json(p))
        assert type(q) is type(p)
        assert q.value(0.7) == p.value(0.7)


# ----------------------------------------------------------------------- CLI

def test_cli_generate_run_bounds(tmp_path):
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    report = tmp_path / "report.json"
    assert main(["generate", "--family", "quadratic_sec5", "--n", "1",
                 "--m", "8", "--seed", "4", "--out", str(inst)]) == 0
    assert main(["run", "--instance", str(inst), "--K", "25",
                 "--out", str(trace)]) == 0
    assert main(["bounds", "--instance", str(inst), "--trace", str(trace),
                 "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["feasible"]
    assert payload["empirical_cr"] >= payload["theoretical_cr"] * 0.9


def test_cli_penalty_file(tmp_path):
    inst = tmp_path / "inst.json"
    pen = tmp_path / "pen.json"
    trace = tmp_path / "trace.json"
    main(["generate", "--family", "knapsack_single", "--n", "1", "--m", "6",
          "--seed", "1", "--out", str(inst)])
    pen.write_text(json.dumps({"penalties": [
        {"regime": "single_constraint", "U": 4.0, "L": 1.0, "epsilon": 0.0}]}))
    assert main(["run", "--instance", str(inst), "--K", "30",
                 "--penalty", str(pen), "--out", str(trace)]) == 0
    loaded = serialize.trace_from_json(json.loads(trace.read_text()))
    assert loaded.penalties[0].U == 4.0


def test_cli_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["reproduce-table1", "--n", "1", "--seeds", "2", "--K", "10",
                 "--m", "8", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("seed,alg,opt_fw,competitive_ratio,budget_usage_1")
    assert len(lines) == 1 + 2 + 2  # header, two seeds, mean, std


def test_cli_verify_exit_code(tmp_path):
    assert main(["verify", "--family", "online_lp", "--trials", "2",
                 "--K", "150"]) == 0


def test_cli_refuses_an_instance_whose_gradient_vanishes(tmp_path, capsys):
    # quadratic_sec5 has h = -H.1, so its gradient is 0 at the all-ones corner;
    # one column with cost <= 1 always fits the budget there, so L = 0
    inst = tmp_path / "inst.json"
    assert main(["generate", "--family", "quadratic_sec5", "--n", "1", "--m", "1",
                 "--out", str(inst)]) == 0
    assert main(["run", "--instance", str(inst), "--out", str(tmp_path / "t.json")]) == 2
    err = capsys.readouterr().err
    assert "not positive: the gradient vanishes at a feasible point" in err
    assert "data-driven" not in err


def test_cli_bounds_with_a_zero_offline_value(tmp_path, capsys):
    # a zero objective makes the offline value 0, so the empirical CR is
    # undefined: printed as such, written as null, exit code by feasibility
    inst = tmp_path / "inst.json"
    pen = tmp_path / "pen.json"
    trace = tmp_path / "trace.json"
    report = tmp_path / "report.json"
    zero = OnlineInstance(np.array([[1.0, 1.0]]), [Box([1.0]), Box([1.0])],
                          [LinearObjective([0.0, 0.0])])
    serialize.save_json(inst, serialize.instance_to_json(zero))
    pen.write_text(json.dumps({"penalties": [
        {"regime": "single_constraint", "U": 1.0, "L": 1.0, "epsilon": 0.0}]}))
    assert main(["run", "--instance", str(inst), "--K", "5",
                 "--penalty", str(pen), "--out", str(trace)]) == 0
    assert main(["bounds", "--instance", str(inst), "--trace", str(trace),
                 "--out", str(report)]) == 0
    assert "empirical CR=undefined" in capsys.readouterr().out
    payload = strict_json(report.read_text())
    assert payload["empirical_cr"] is None
    assert payload["feasible"]
    assert payload["alpha_used"] == [0.0]


def test_cli_input_error_exit_code(tmp_path):
    assert main(["run", "--instance", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.json")]) == 2
