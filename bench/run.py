"""drpack benchmark driver.

    python3 bench/run.py --workload table1_n5 --seed 0 --seconds 40 --trace 0

Runs seeded instances of one workload (instance j uses seed + j) through the
full pipeline, one after another in this single-threaded process, for about
--seconds seconds. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1.
The line before it is a JSON report with the environment and the details
behind each number; the same report, and with --trace 1 the raw spans, are
written under bench/out/. --smoke runs tiny instances of the same families.

Exits 1 if any instance fails its correctness gate or the traced self-check
finds a difference, and 2 if drpack cannot be imported from ./src.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_SAMPLES = 3
END_TO_END_UNITS = {
    "setup_s": "s", "instances_per_s": "1/s", "instance_s_p50": "s",
    "arrival_ms_p50": "ms", "arrival_ms_tail": "ms", "mean_empirical_cr": "ratio",
    "success_frac": "ratio", "peak_rss_mb": "MB",
}
# Counts the traced self-check requires to repeat exactly.
EXACT_COUNTS = ("engine.microsteps", "objectives.grad_coord_calls",
                "linops.lp_solves", "objectives.slsqp_calls")


class SetupError(RuntimeError):
    pass


def import_drpack():
    """Pin BLAS to one thread, then import drpack from ./src and scipy.optimize.

    This is everything a first instance needs, so timing it from process
    start gives the set-up time.
    """
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "drpack" / "__init__.py").is_file():
        raise SetupError(f"no drpack sources under {src}")
    sys.path.insert(0, str(src))
    import drpack
    import scipy.optimize  # noqa: F401  (drpack imports it lazily)
    if src.resolve() not in Path(drpack.__file__).resolve().parents:
        raise SetupError(f"drpack was imported from {drpack.__file__}, not {src}")


def setup_seconds(samples: int) -> list:
    """Wall time from spawning a fresh interpreter until it is ready to run."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--probe-setup"],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up probe failed (exit {proc.returncode})")
    return times


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def measure(seconds: float, step, min_steps: int = 1) -> float:
    """Call step(j) for j = 0, 1, ... for about `seconds` of wall time, and
    at least `min_steps` times.

    Another step starts only while it is expected (at the median step time
    so far) to end no later than half a step past the deadline, so the run
    ends as close to the deadline as whole steps allow. Returns the elapsed
    time.
    """
    t0 = perf_counter()
    durations = []
    while True:
        s = perf_counter()
        step(len(durations))
        durations.append(perf_counter() - s)
        elapsed = perf_counter() - t0
        if (len(durations) >= min_steps
                and elapsed + 0.5 * statistics.median(durations) >= seconds):
            return elapsed


def end_to_end(args, wl, setup_samples: int):
    """Untraced run: set-up probes, then whole instances until time is up."""
    import numpy as np
    from workloads import attempt, run_instance

    setup = setup_seconds(setup_samples)
    outcomes = []
    elapsed = measure(args.seconds, lambda j: outcomes.append(
        attempt(run_instance, wl, args.seed + j)), wl.cr_instances)
    good = [o for o in outcomes if not o.problems]
    crs = [o.empirical_cr for o in outcomes[:wl.cr_instances] if not o.problems]
    detail = {"setup_samples_s": setup, "elapsed_s": elapsed}
    if not crs:
        return outcomes, {}, detail
    arrivals_ms = np.array([a for o in good for a in o.arrival_s]) * 1e3
    tail = float(np.percentile(arrivals_ms, wl.tail_pct))
    metrics = {
        "setup_s": statistics.median(setup),
        "instances_per_s": len(good) / elapsed,
        "instance_s_p50": statistics.median(o.seconds for o in good),
        "arrival_ms_p50": float(np.percentile(arrivals_ms, 50)),
        "arrival_ms_tail": tail,
        "mean_empirical_cr": statistics.fmean(crs),
        "success_frac": len(good) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail.update({
        "instance_samples": len(good),
        "cr_instances": len(crs),
        "arrival_samples": int(arrivals_ms.size),
        "arrival_tail_pct": wl.tail_pct,
        "arrival_samples_beyond_tail": int((arrivals_ms > tail).sum()),
    })
    return outcomes, metrics, detail


def traced(args, wl, name: str):
    """Run each instance untraced and then traced until time is up. Instance
    0 is traced a second time by a fresh tracer, and the two traces must give
    the same exact counts and the same empirical CR."""
    from tracer import INSTANCE, Tracer, layer_metrics
    from workloads import attempt, run_instance

    tracer, recheck_tracer = Tracer(), Tracer()
    traced_run = tracer.wrap(INSTANCE, run_instance)
    pairs = []
    rechecks = []

    def step(j):
        untraced = attempt(run_instance, wl, args.seed + j)
        tracer.instance = j
        with tracer.installed():
            pairs.append((untraced, attempt(traced_run, wl, args.seed + j)))
        if j == 0:
            recheck_tracer.instance = 0
            with recheck_tracer.installed():
                rechecks.append(attempt(recheck_tracer.wrap(INSTANCE, run_instance),
                                        wl, args.seed))

    measure(args.seconds, step)
    recheck = rechecks[0]
    outcomes = [o for pair in pairs for o in pair] + [recheck]

    n = len(pairs)
    useful = tracer.slsqp_useful / tracer.slsqp_attempted if tracer.slsqp_attempted else 0.0
    summary = tracer.summary(list(range(n)))
    metrics = layer_metrics(summary, n, useful)
    untraced_s = sum(u.seconds or 0.0 for u, _ in pairs)
    traced_s = sum(t.seconds or 0.0 for _, t in pairs)
    if untraced_s and traced_s:
        metrics.update({
            "tracing.untraced_instances_per_s": n / untraced_s,
            "tracing.traced_instances_per_s": n / traced_s,
            "tracing.overhead_ratio": traced_s / untraced_s - 1.0,
        })

    first = layer_metrics(tracer.summary([0]), 1, useful)
    again = layer_metrics(recheck_tracer.summary([0]), 1, useful)
    mismatches = [f"{k}: {first[k]} then {again[k]}" for k in EXACT_COUNTS
                  if first[k] != again[k]]
    same_instance = pairs + [(pairs[0][1], recheck)]
    mismatches += [f"seed {a.seed}: empirical CR {a.empirical_cr!r} then {b.empirical_cr!r}"
                   for a, b in same_instance
                   if not a.problems and not b.problems and a.empirical_cr != b.empirical_cr]

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{name}-spans.npz"
    tracer.save(spans_path)
    detail = {
        "traced_instances": n,
        "slsqp_attempted": tracer.slsqp_attempted,
        "slsqp_useful": tracer.slsqp_useful,
        "exact_counts_instance0": {k: first[k] for k in EXACT_COUNTS},
        "self_check_mismatches": mismatches,
        "spans_per_instance": {k: {f: v / n for f, v in s.items()}
                               for k, s in summary["spans"].items()},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return outcomes, metrics, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny instances of the same families, for tests")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        import_drpack()
    except (SetupError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print("ready", flush=True)
        return 0

    from tracer import unit_of
    from workloads import SMOKE_WORKLOADS, WORKLOADS
    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    if args.workload not in table:
        p.error(f"--workload must be one of {sorted(table)}")
    wl = table[args.workload]
    name = args.workload + ("-smoke" if args.smoke else "")

    if args.trace:
        outcomes, metrics, detail = traced(args, wl, name)
        units = {k: unit_of(k) for k in metrics}
    else:
        try:
            outcomes, metrics, detail = end_to_end(args, wl, 1 if args.smoke else SETUP_SAMPLES)
        except SetupError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        units = END_TO_END_UNITS

    failed = sum(bool(o.problems) for o in outcomes)
    correct = failed == 0 and not detail.get("self_check_mismatches") and bool(metrics)
    report = {
        "environment": environment(args),
        "workload": {"name": args.workload, **vars(wl)},
        "detail": detail,
        "instances": [{k: v for k, v in vars(o).items() if k != "arrival_s"}
                      for o in outcomes],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
