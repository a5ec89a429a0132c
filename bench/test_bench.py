"""Tests of the benchmark itself, using its smoke mode (tiny instances)."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_predictions_cite_known_names():
    predictions = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for p in predictions:
        assert set(p["layer_metrics"]) <= layer, p["id"]
        assert set(p["moves"]) <= e2e, p["id"]
        for workloads in [*p["moves"].values(), p["unchanged_on"]]:
            assert set(workloads) <= set(WORKLOADS), p["id"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    res = run_bench("--smoke", "--workload", workload, "--seed", "1",
                    "--seconds", "0.5", "--trace", str(trace))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = json.loads(lines[-2])["report"]
    env = report["environment"]
    assert env["seed"] == 1 and env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"python", "numpy", "scipy", "nproc", "git_commit"} <= set(env)
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert report["detail"]["self_check_mismatches"] == []
        if workload == "table1_n5":
            assert values["linops.lp_solves"] == 0
        else:
            assert values["linops.lp_solves"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
