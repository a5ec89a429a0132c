"""JSON persistence for instances, penalties, traces, and reports.

Instance and trace files carry a format version, "schema": 1; reading a file
with any other version, or none (or a file that is not a JSON object),
raises ValueError.

Instance schema (dense row-major arrays; set-function tables keyed by subset
bitmask as decimal strings, each key a distinct mask in [0, 2^v) with v an
integer in [0, MAX_GROUND_SET], checked before the table is allocated; missing
masks read 0):

    {"schema": 1, "n": 2, "m": 3,
     "C": [[...], [...]],
     "sets": [{"kind": "scaled_box", "bounds": [...]} |
              {"kind": "scaled_simplex", "n": 2, "scale": s}, ...],
     "objectives": [{"kind": "quadratic", "H": [[...]], "h": [...], "c0": 0.0} |
                    {"kind": "linear", "d": [...]} |
                    {"kind": "multilinear", "v": 3, "values": {"0": 0.0, ...}}]}

Trace schema: allocations, loads, alg, p_gseq, dual {Y, z}, realized ratio
extremes (null for the +inf min and -inf max of a row without a costed step,
so files are strict JSON), the engine config echo {"K": K}, and the penalty
parameters used. Floats are serialized with full round-trip precision, so
load(save(x)) is lossless.

The readers ignore keys they do not use, so older schema-1 files, whose sets
and engine config carried more keys, still load.
"""

import csv
import json
import math

import numpy as np

from .engine import DualPoint, EngineConfig, OnlineInstance, RunTrace
from .feasible import Box, Simplex
from .objectives import (LinearObjective, MultilinearObjective, QuadraticObjective,
                         SetFunctionTable, check_ground_set)
from .penalties import PenaltyModel, ZeroPenalty

SCHEMA_VERSION = 1


def _check_schema(d) -> None:
    version = d.get("schema") if isinstance(d, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported file schema {version!r}; "
                         f"this version reads schema {SCHEMA_VERSION}")


def set_to_json(s) -> dict:
    if isinstance(s, Box):
        return {"kind": s.kind, "bounds": s.bounds.tolist()}
    return {"kind": s.kind, "n": s.n, "scale": s.scale}


def set_from_json(d):
    if d["kind"] == "scaled_box":
        return Box(d["bounds"])
    if d["kind"] == "scaled_simplex":
        return Simplex(d["n"], d["scale"])
    raise ValueError(f"unknown feasible-set kind {d['kind']!r}")


def objective_to_json(obj) -> dict:
    if obj.kind == "quadratic":
        return {"kind": "quadratic", "H": obj.H.tolist(), "h": obj.h.tolist(),
                "c0": obj.c0}
    if obj.kind == "linear":
        return {"kind": "linear", "d": obj.d.tolist()}
    if obj.kind == "multilinear":
        values = {str(mask): float(v) for mask, v in enumerate(obj.table.values)}
        return {"kind": "multilinear", "v": obj.table.v, "values": values}
    raise ValueError(f"unknown objective kind {obj.kind!r}")


def objective_from_json(d):
    if d["kind"] == "quadratic":
        return QuadraticObjective(d["H"], d["h"], d.get("c0", 0.0))
    if d["kind"] == "linear":
        return LinearObjective(d["d"])
    if d["kind"] == "multilinear":
        v = check_ground_set(d["v"])
        masks = [int(key) for key in d["values"]]
        if len(set(masks)) < len(masks) or not all(0 <= mask < 2**v for mask in masks):
            raise ValueError(f"table keys must be distinct subset masks in [0, 2^{v})")
        values = np.zeros(2**v)
        values[masks] = list(d["values"].values())
        return MultilinearObjective(SetFunctionTable(values))
    raise ValueError(f"unknown objective kind {d['kind']!r}")


def instance_to_json(instance: OnlineInstance) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": instance.n,
        "m": instance.m,
        "C": instance.C.tolist(),
        "sets": [set_to_json(s) for s in instance.sets],
        "objectives": [objective_to_json(o) for o in instance.objectives],
    }


def instance_from_json(d) -> OnlineInstance:
    _check_schema(d)
    return OnlineInstance(
        np.asarray(d["C"], dtype=float),
        [set_from_json(s) for s in d["sets"]],
        [objective_from_json(o) for o in d["objectives"]],
    )


def penalty_to_json(p) -> dict:
    if isinstance(p, ZeroPenalty):
        return {"regime": "zero"}
    return {"regime": p.regime, "U": p.U, "L": p.L, "epsilon": p.epsilon}


def penalty_from_json(d):
    if d["regime"] == "zero":
        return ZeroPenalty()
    return PenaltyModel(d["regime"], d["U"], d["L"], d.get("epsilon", 0.0))


def _extremes_to_json(values) -> list:
    return [v if math.isfinite(v) else None for v in values.tolist()]


def trace_to_json(trace: RunTrace) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "allocations": trace.allocations.tolist(),
        "loads": trace.loads.tolist(),
        "alg": trace.alg,
        "p_gseq": trace.p_gseq,
        "dual": {"Y": trace.dual.Y.tolist(), "z": trace.dual.z.tolist()},
        "ratio_min": _extremes_to_json(trace.ratio_min),
        "ratio_max": _extremes_to_json(trace.ratio_max),
        "config": {"K": trace.config.K},
        "penalties": [penalty_to_json(p) for p in trace.penalties],
    }


def trace_from_json(d) -> RunTrace:
    _check_schema(d)
    return RunTrace(
        allocations=np.asarray(d["allocations"], dtype=float),
        loads=np.asarray(d["loads"], dtype=float),
        alg=d["alg"],
        p_gseq=d["p_gseq"],
        dual=DualPoint(np.asarray(d["dual"]["Y"], dtype=float),
                       np.asarray(d["dual"]["z"], dtype=float)),
        config=EngineConfig(K=d["config"]["K"]),
        penalties=[penalty_from_json(p) for p in d["penalties"]],
        ratio_min=np.array([math.inf if v is None else v for v in d["ratio_min"]], dtype=float),
        ratio_max=np.array([-math.inf if v is None else v for v in d["ratio_max"]], dtype=float),
    )


def bound_report_to_json(report) -> dict:
    return {
        "regime": report.regime,
        "theoretical_cr": report.theoretical_cr,
        "per_row_terms": np.asarray(report.per_row_terms).tolist(),
        "alpha_used": np.asarray(report.alpha_used).tolist(),
        "U": np.asarray(report.U).tolist(),
        "L": np.asarray(report.L).tolist(),
        "epsilon": report.epsilon,
        "finite_k_slack": report.finite_k_slack,
        "empirical_cr": report.empirical_cr,
    }


def save_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_csv(path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
