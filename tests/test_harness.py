import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from drpack import serialize
from drpack.cli import build_parser, main
from drpack.engine import EngineConfig, OnlineInstance, evaluate_trace, run_online
from drpack.feasible import Box
from drpack.generators import FAMILIES, GeneratorSpec, generate
from drpack.harness import (auto_penalties, bound_report, finite_k_slack, reproduce_table1,
                            verify_bounds)
from drpack.objectives import LinearObjective
from drpack.penalties import PenaltyModel, ZeroPenalty, theoretical_cr
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
    # a params key the family does not read (misspelt, or another family's)
    # must not silently build the default instance
    with pytest.raises(ValueError, match="objectve"):
        GeneratorSpec("knapsack_single", 1, 5, 0, params={"objectve": "multilinear"})
    with pytest.raises(ValueError, match="objective"):
        GeneratorSpec("gap", 3, 5, 0, params={"objective": "multilinear"})
    with pytest.raises(ValueError, match="valuations"):
        GeneratorSpec("welfare_simplex", 3, 5, 0, params={"valuations": "coverage"})


# ------------------------------------------------------------------ penalties

def test_auto_penalties_regimes():
    single = auto_penalties(generate(GeneratorSpec("knapsack_single", 1, 8, 0)))
    assert single[0].regime == "single_constraint"
    multi = auto_penalties(generate(GeneratorSpec("online_lp", 3, 8, 0)))
    assert all(p.regime == "multi_constraint" for p in multi)


def test_bound_report_takes_the_regime_from_the_penalties():
    # one row run with the multi-row design: the single-row bound (0.6352
    # here) is not a bound for that run, the multi-row one (0.4518) is
    inst = generate(GeneratorSpec("knapsack_single", 1, 10, 3))
    auto = auto_penalties(inst)[0]
    pens = [PenaltyModel("multi_constraint", auto.U, auto.L)]
    trace = run_online(inst, pens, EngineConfig(K=50))
    report = bound_report(inst, pens, trace)
    assert report.regime == "multi_constraint"
    expected = theoretical_cr("multi_constraint", report.alpha_used, [auto.U], [auto.L])
    assert report.theoretical_cr == expected.theoretical_cr
    assert report.theoretical_cr == pytest.approx(0.4518, abs=1e-4)


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


@pytest.mark.parametrize("dim", ["n", "m"])
def test_verify_bounds_passes_an_explicit_zero_size_to_the_generator(dim):
    # 0 is an invalid size, not "use the family default"
    with pytest.raises(ValueError, match="need n >= 1"):
        verify_bounds("adwords", trials=1, K=10, **{dim: 0})


def test_verify_bounds_gap_family_at_k1000():
    # the `drpack verify` default K: 1000 offline Frank-Wolfe steps per
    # instance, affordable because a certified vertex skips its LP
    rep = verify_bounds("gap", trials=5, K=1000)
    assert rep["ok"], rep["checks"]
    assert [c["passed"] for c in rep["checks"]] == [True] * 5


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
            assert sa.kind == sb.kind
            assert np.array_equal(sa.coordinate_caps(), sb.coordinate_caps())
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


# schema-1 files as written while sets carried a radius and the engine config
# an overshoot policy and a budget tolerance
OLD_INSTANCE = """{"schema": 1, "n": 1, "m": 2, "C": [[1.0, 1.0]],
 "sets": [{"kind": "scaled_box", "bounds": [1.0], "radius": 1.0},
          {"kind": "scaled_simplex", "n": 1, "scale": 1.0, "radius": 1.0}],
 "objectives": [{"kind": "linear", "d": [2.0, 1.0]}]}"""
OLD_TRACE = """{"schema": 1, "allocations": [[1.0, 0.5]], "loads": [1.5],
 "alg": 2.5, "p_gseq": 2.5, "dual": {"Y": [[2.0, 1.0]], "z": [1.0]},
 "ratio_min": [1.0], "ratio_max": [2.0],
 "config": {"K": 2, "overshoot_policy": "allow_raw", "budget_tol": 1e-09},
 "penalties": [{"regime": "single_constraint", "U": 2.0, "L": 1.0, "epsilon": 0.0}]}"""


def test_older_schema_1_files_still_load(tmp_path):
    inst = serialize.instance_from_json(json.loads(OLD_INSTANCE))
    assert serialize.instance_to_json(inst)["sets"] == [
        {"kind": "scaled_box", "bounds": [1.0]},
        {"kind": "scaled_simplex", "n": 1, "scale": 1.0}]
    trace = serialize.trace_from_json(json.loads(OLD_TRACE))
    assert trace.config == EngineConfig(K=2)
    assert serialize.trace_to_json(trace)["config"] == {"K": 2}
    # the old trace overshoots its row's cap of 1: `drpack bounds` says so
    (tmp_path / "inst.json").write_text(OLD_INSTANCE)
    (tmp_path / "trace.json").write_text(OLD_TRACE)
    report = tmp_path / "report.json"
    assert main(["bounds", "--instance", str(tmp_path / "inst.json"),
                 "--trace", str(tmp_path / "trace.json"), "--out", str(report)]) == 1
    payload = strict_json(report.read_text())
    assert not payload["feasible"]
    assert "row 0 load 1.5 exceeds cap 1.0" in payload["violations"]


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


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_cli_verify_refuses_an_empty_sweep(capsys, trials):
    # a sweep that checks nothing must not print "all checks passed"
    assert main(["verify", "--family", "gap", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert "trials must be >= 1" in err
    assert "passed" not in out


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_cli_table_refuses_no_seeds(tmp_path, capsys, seeds):
    out = tmp_path / "table.csv"
    assert main(["reproduce-table1", "--n", "1", "--seeds", seeds,
                 "--out", str(out)]) == 2
    assert "seeds must be >= 1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("k_off", ["0", "-3"])
def test_cli_bounds_refuses_a_nonpositive_k_off(tmp_path, capsys, k_off):
    # 0 is an input error like any other K_off < 1, not "use the run's K"
    inst = tmp_path / "inst.json"
    trace = tmp_path / "trace.json"
    report = tmp_path / "report.json"
    assert main(["generate", "--family", "gap", "--n", "2", "--m", "4",
                 "--out", str(inst)]) == 0
    assert main(["run", "--instance", str(inst), "--K", "20",
                 "--out", str(trace)]) == 0
    assert main(["bounds", "--instance", str(inst), "--trace", str(trace),
                 "--K-off", k_off, "--out", str(report)]) == 2
    assert "K_off must be >= 1" in capsys.readouterr().err
    assert not report.exists()


def test_cli_bounds_refuses_mixed_regimes(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    pen = tmp_path / "pen.json"
    trace = tmp_path / "trace.json"
    report = tmp_path / "report.json"
    assert main(["generate", "--family", "online_lp", "--n", "2", "--m", "5",
                 "--out", str(inst)]) == 0
    pen.write_text(json.dumps({"penalties": [
        {"regime": "multi_constraint", "U": 3.0, "L": 1.0, "epsilon": 0.0},
        {"regime": "single_constraint", "U": 3.0, "L": 1.0, "epsilon": 0.0}]}))
    assert main(["run", "--instance", str(inst), "--K", "10",
                 "--penalty", str(pen), "--out", str(trace)]) == 0
    assert main(["bounds", "--instance", str(inst), "--trace", str(trace),
                 "--out", str(report)]) == 2
    assert "mix penalty regimes" in capsys.readouterr().err
    assert not report.exists()


def test_cli_run_refuses_set_caps_beyond_the_objective_domain(tmp_path, capsys):
    # a multilinear row lives on the unit cube; a box cap of 2 is refused on
    # load, not by the solver partway through the run
    inst = tmp_path / "inst.json"
    assert main(["generate", "--family", "knapsack_single", "--n", "1", "--m", "4",
                 "--out", str(inst)]) == 0
    payload = json.loads(inst.read_text())
    payload["objectives"] = [serialize.objective_to_json(generate(GeneratorSpec(
        "knapsack_single", 1, 4, 0, {"objective": "multilinear"})).objectives[0])]
    payload["sets"][2]["bounds"] = [2.0]
    inst.write_text(json.dumps(payload))
    assert main(["run", "--instance", str(inst), "--out", str(tmp_path / "t.json")]) == 2
    assert "exceed row 0's objective domain" in capsys.readouterr().err



def _multilinear_instance(v, values) -> dict:
    return {"schema": 1, "n": 1, "m": 2, "C": [[0.5, 0.5]],
            "sets": [{"kind": "scaled_box", "bounds": [1.0]}] * 2,
            "objectives": [{"kind": "multilinear", "v": v, "values": values}]}


@pytest.mark.parametrize("v, values, message", [
    pytest.param(40, {"1": 1.0}, "ground set size", id="v-40"),
    pytest.param(-1, {}, "ground set size", id="v-negative"),
    pytest.param(2.5, {}, "ground set size", id="v-fractional"),
    pytest.param(2, {"1": 1.0, "2": 1.0, "7": 1.0}, "distinct subset masks", id="key-beyond-2^v"),
    pytest.param(2, {"1": 1.0, "2": 1.0, "-1": 1.5}, "distinct subset masks", id="key-negative"),
    pytest.param(2, {"1": 1.0, "01": 2.0, "2": 1.0}, "distinct subset masks", id="key-repeated"),
])
def test_cli_run_refuses_malformed_multilinear_tables(tmp_path, capsys, v, values, message):
    # refused on load with an input error, before the 2^v table is allocated
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_multilinear_instance(v, values)))
    assert main(["run", "--instance", str(inst), "--out", str(tmp_path / "t.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_multilinear_table_keys_in_range_load():
    # missing masks read 0; every mask in [0, 2^v) may appear once
    obj = serialize.objective_from_json(
        _multilinear_instance(2, {"0": 0.0, "3": 1.5, "1": 1.0})["objectives"][0])
    assert obj.table.values.tolist() == [0.0, 1.0, 0.0, 1.5]


def test_cli_generate_refuses_a_ground_set_beyond_the_cap(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["generate", "--family", "gap", "--n", "2", "--m", "21",
                 "--out", str(out)]) == 2
    assert "ground set size" in capsys.readouterr().err
    assert not out.exists()

def test_readme_cli_lines_parse():
    # a flag removed from the CLI but left in the README fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("drpack ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_cli_input_error_exit_code(tmp_path):
    assert main(["run", "--instance", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.json")]) == 2
