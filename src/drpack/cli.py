"""Command-line harness.

Subcommands:
    generate          write a seeded instance to JSON
    run               solve an instance online and write the trace
    bounds            bound report for a finished run (JSON)
    reproduce-table1  benchmark table for the random quadratic family (CSV)
    verify            bound-satisfaction sweep over a generator family

Exit codes: 0 when all checks pass, 1 on an assertion/check failure, 2 on
input errors (bad files, bad dimensions, unknown names).
"""

import argparse
import sys

import numpy as np

from . import serialize
from .engine import EngineConfig, evaluate_trace, run_online
from .generators import FAMILIES, GeneratorSpec, generate
from .harness import auto_penalties, bound_report, reproduce_table1, verify_bounds


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(args.family, args.n, args.m, args.seed)
    instance = generate(spec)
    serialize.save_json(args.out, serialize.instance_to_json(instance))
    print(f"wrote {args.family} instance (n={args.n}, m={args.m}, seed={args.seed}) "
          f"to {args.out}")
    return 0


def _cmd_run(args) -> int:
    instance = serialize.instance_from_json(serialize.load_json(args.instance))
    if args.penalty == "auto":
        penalties = auto_penalties(instance, args.epsilon)
    else:
        payload = serialize.load_json(args.penalty)
        penalties = [serialize.penalty_from_json(p) for p in payload["penalties"]]
    trace = run_online(instance, penalties, EngineConfig(K=args.K))
    serialize.save_json(args.out, serialize.trace_to_json(trace))
    print(f"ALG={trace.alg:.6g}  P={trace.p_gseq:.6g}  "
          f"max load={np.max(trace.loads):.6g}  -> {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    instance = serialize.instance_from_json(serialize.load_json(args.instance))
    trace = serialize.trace_from_json(serialize.load_json(args.trace))
    evaluation = evaluate_trace(instance, trace.penalties, trace)
    report = bound_report(instance, trace.penalties, trace, K_off=args.K_off)
    payload = serialize.bound_report_to_json(report)
    payload["feasible"] = evaluation.budget_ok and evaluation.sets_ok
    payload["violations"] = evaluation.violations
    serialize.save_json(args.out, payload)
    # the empirical CR is undefined (None, written as null) when the offline
    # value is 0
    empirical = ("undefined" if report.empirical_cr is None
                 else f"{report.empirical_cr:.4f}")
    print(f"theoretical CR={report.theoretical_cr:.4f}  "
          f"empirical CR={empirical}  "
          f"finite-K slack={report.finite_k_slack:.4g}  -> {args.out}")
    return 0 if payload["feasible"] else 1


def _cmd_table1(args) -> int:
    result = reproduce_table1(args.n, seeds=args.seeds, K=args.K, m=args.m,
                              base_seed=args.base_seed)
    serialize.write_csv(args.out, result.header(), result.rows())
    print(f"n={args.n}, m={args.m}, K={args.K}, {args.seeds} seeds")
    print(f"mean competitive ratio: {100 * result.mean_cr:.2f}%")
    for i, usage in enumerate(result.mean_usage):
        print(f"mean budget {i + 1} usage: {100 * usage:.2f}%")
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    report = verify_bounds(args.family, trials=args.trials, K=args.K,
                           seed=args.seed)
    for check in report["checks"]:
        if "skipped" in check:
            print(f"seed {check['seed']}: skipped ({check['skipped']})")
            continue
        status = "ok" if check["passed"] else "FAIL"
        print(f"seed {check['seed']}: empirical {check['empirical_cr']:.4f} "
              f">= theoretical {check['theoretical_cr']:.4f} ... {status}")
    print("all checks passed" if report["ok"] else "bound check FAILED")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drpack",
        description="Online DR-submodular maximization under packing constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded instance to JSON")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="solve an instance online, write the trace")
    p.add_argument("--instance", required=True)
    p.add_argument("--K", type=int, default=50)
    p.add_argument("--penalty", default="auto",
                   help="'auto' or a penalty JSON file")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bounds", help="bound report for a finished run")
    p.add_argument("--instance", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--K-off", type=int, default=None,
                   help="offline Frank-Wolfe iterations (default: the run's K)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("reproduce-table1",
                       help="benchmark table for the random quadratic family")
    p.add_argument("--n", type=int, required=True, choices=(1, 5))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--K", type=int, default=50)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("verify", help="bound-satisfaction sweep over a family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--K", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
