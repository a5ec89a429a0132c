"""Benchmark workloads, the per-instance pipeline and its correctness gate.

One instance goes through the same steps as `reproduce_table1` and
`verify_bounds`: generate -> auto_penalties -> run_online (with an on_step
timestamp hook) -> evaluate_trace -> offline_fw -> bound_report. Every call
goes through the `drpack` package attributes, which is where the tracer
wraps the top-level steps.
"""

import math
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import drpack

SLACK_MARGIN = 0.05      # the verify_bounds rule: empirical >= theoretical * 0.95
CR_CEILING = 1.0 + 1e-9
VALUE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    m: int
    K: int
    alpha_refinements: int
    tail_pct: float      # arrival latency percentile reported as the tail
    cr_instances: int    # every run completes these; mean_empirical_cr is over them


# table1_n5 and adwords_k1000 use the reproduce_table1 and verify_bounds
# settings. gap_multilinear is smaller than `drpack verify --family gap`
# (m=8, K=1000): an instance there takes 10-15 s, so a run would see two
# instances and 16 arrivals, too few for a steady median or any tail.
# The tail percentile leaves at least ten arrivals beyond it in a run at the
# default length. On table1_n5 it is p95, not p98: p98 leaves only 14-20
# beyond and spread by 23% across ten seeds. A fixed number of instances,
# about 30 s of work, feeds mean_empirical_cr, so that it depends on the
# seed alone and not on how many instances a run fits in.
WORKLOADS = {
    "table1_n5": Workload("quadratic_sec5", 5, 100, 50, 2, 95.0, 6),
    "adwords_k1000": Workload("adwords", 4, 20, 1000, 12, 90.0, 8),
    "gap_multilinear": Workload("gap", 3, 7, 500, 12, 75.0, 5),
}

# Tiny instances of the same families, for the smoke mode.
SMOKE_WORKLOADS = {
    "table1_n5": Workload("quadratic_sec5", 2, 12, 10, 1, 50.0, 2),
    "adwords_k1000": Workload("adwords", 2, 6, 50, 1, 50.0, 2),
    "gap_multilinear": Workload("gap", 2, 5, 50, 1, 50.0, 2),
}


@dataclass
class Outcome:
    seed: int
    seconds: float
    arrival_s: list          # per-arrival decision latency, in seconds
    alg: float
    fw_value: float
    empirical_cr: float | None
    theoretical_cr: float
    problems: list


def run_instance(wl: Workload, seed: int) -> Outcome:
    """Generate one instance and take it through the full pipeline."""
    t0 = perf_counter()
    instance = drpack.generate(drpack.GeneratorSpec(wl.family, wl.n, wl.m, seed))
    penalties = drpack.auto_penalties(instance)
    stamps = [perf_counter()]
    trace = drpack.run_online(instance, penalties, drpack.EngineConfig(K=wl.K),
                              on_step=lambda t, x: stamps.append(perf_counter()))
    evaluation = drpack.evaluate_trace(instance, penalties, trace)
    _, fw_value = drpack.offline_fw(instance, wl.K)
    report = drpack.bound_report(instance, penalties, trace, K_off=wl.K,
                                 alpha_refinements=wl.alpha_refinements,
                                 fw_value=fw_value)
    seconds = perf_counter() - t0
    return Outcome(
        seed=seed,
        seconds=seconds,
        arrival_s=[b - a for a, b in zip(stamps, stamps[1:])],
        alg=trace.alg,
        fw_value=fw_value,
        empirical_cr=report.empirical_cr,
        theoretical_cr=report.theoretical_cr,
        problems=gate(trace, evaluation, report, fw_value),
    )


def gate(trace, evaluation, report, fw_value) -> list:
    """Reasons the instance's outputs are wrong; empty when they pass."""
    problems = list(evaluation.violations)
    numbers = {"alg": trace.alg, "fw_value": fw_value,
               "theoretical_cr": report.theoretical_cr,
               "evaluated_alg": evaluation.alg}
    problems += [f"{k} is not finite" for k, v in numbers.items() if not math.isfinite(v)]
    if abs(evaluation.alg - trace.alg) > VALUE_RTOL * max(1.0, abs(trace.alg)):
        problems.append(f"recomputed value {evaluation.alg!r} != traced {trace.alg!r}")
    cr = report.empirical_cr
    if cr is None or not math.isfinite(cr):
        problems.append(f"empirical CR undefined ({cr!r})")
    elif not 0.0 < cr <= CR_CEILING:
        problems.append(f"empirical CR {cr!r} outside (0, {CR_CEILING}]")
    elif cr < report.theoretical_cr * (1.0 - SLACK_MARGIN):
        problems.append(f"empirical CR {cr!r} below theoretical "
                        f"{report.theoretical_cr!r} * {1.0 - SLACK_MARGIN}")
    return problems


def attempt(run, wl: Workload, seed: int) -> Outcome:
    """One instance; an exception counts as a failure and is reported."""
    try:
        return run(wl, seed)
    except Exception as exc:
        print(f"instance seed={seed} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return Outcome(seed=seed, seconds=None, arrival_s=[], alg=None, fw_value=None,
                       empirical_cr=None, theoretical_cr=None, problems=[f"raised {exc!r}"])
