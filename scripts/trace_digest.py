"""One SHA-256 over everything a run computes, on a fixed set of instances.

For each instance below it runs the default pipeline (auto penalties, the
online solver, offline Frank-Wolfe at the same K, the bound report) and hashes
U, L, alpha_used, the theoretical CR, finite_k_slack, the allocations, loads,
ratio extremes, dual Y and z, ALG, P, and the Frank-Wolfe X and value. A stage
that refuses its input with ValueError is hashed as "refused". Two trees whose
digests agree computed bit-identical numbers on every instance.

The set covers all six generator families; it includes quadratic draws whose
penalties are refused and a family without budget rows.

Usage: PYTHONPATH=src python scripts/trace_digest.py
"""

import hashlib

import numpy as np

from drpack.baselines import offline_fw
from drpack.engine import EngineConfig, run_online
from drpack.generators import GeneratorSpec, generate
from drpack.harness import auto_penalties, bound_report

K = 50
INSTANCES = [
    *(GeneratorSpec("quadratic_sec5", 5, 100, s) for s in (900, 901)),
    *(GeneratorSpec("quadratic_sec5", 1, 24, s) for s in range(3)),
    *(GeneratorSpec("quadratic_sec5", 3, 3, s) for s in range(6)),
    *(GeneratorSpec("online_lp", 3, 15, s) for s in range(2)),
    *(GeneratorSpec("knapsack_single", 1, 25, s) for s in range(2)),
    GeneratorSpec("knapsack_single", 1, 8, 0, {"objective": "multilinear"}),
    GeneratorSpec("adwords", 4, 20, 0),
    GeneratorSpec("welfare_simplex", 3, 8, 0),
    GeneratorSpec("gap", 3, 7, 0),
]


def _feed(h, value) -> None:
    if isinstance(value, str):
        h.update(value.encode())
    else:
        a = np.ascontiguousarray(value, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())


def _outputs(spec):
    """The hashed numbers of one instance, in a fixed order."""
    instance = generate(spec)
    try:
        penalties = auto_penalties(instance)
    except ValueError:
        return ["refused"]
    trace = run_online(instance, penalties, EngineConfig(K=K))
    X_fw, fw_value = offline_fw(instance, K)
    out = [
        [getattr(p, "U", np.nan) for p in penalties],
        [getattr(p, "L", np.nan) for p in penalties],
        trace.allocations, trace.loads, trace.ratio_min, trace.ratio_max,
        trace.dual.Y, trace.dual.z, trace.alg, trace.p_gseq, X_fw, fw_value,
    ]
    try:
        report = bound_report(instance, penalties, trace, fw_value=fw_value)
    except ValueError:
        return out + ["refused"]
    return out + [report.alpha_used, report.theoretical_cr, report.finite_k_slack]


def digest() -> str:
    h = hashlib.sha256()
    for spec in INSTANCES:
        _feed(h, repr(spec))
        for value in _outputs(spec):
            _feed(h, value)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
