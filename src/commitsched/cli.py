"""Command-line front end.

Exit codes: 0 when every checked invariant and bound held, 1 when a
violation was observed, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .harness import (
    ExperimentConfig,
    oracle_job_limit,
    random_instance,
    run,
    stress_run,
    theoretical_bounds,
    write_bound_curves,
    write_outputs,
)
from .model import ASSERT_LEVELS, InvariantError, write_instance
from .policy import ALGORITHMS, stress_algorithms


def _add_common(parser: argparse.ArgumentParser, out: bool = True) -> None:
    parser.add_argument("--m", type=int, default=1, help="machine count")
    parser.add_argument("--epsilon", type=float, default=1.0, help="slack factor")
    if out:
        parser.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commitsched",
        description="Online deadline scheduling with admission commitment: "
        "simulators, stress generators, oracles, and ratio experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a policy over random or file instances")
    p_run.add_argument("--alg", choices=ALGORITHMS, required=True)
    _add_common(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--n", type=int, default=8, help="jobs per random instance")
    p_run.add_argument("--count", type=int, default=1, help="number of random instances")
    p_run.add_argument("--release-span", type=float, default=10.0)
    p_run.add_argument("--slack-mix", type=float, default=0.5)
    p_run.add_argument("--instance-file", default=None, help="run on a JSON-lines instance file")
    p_run.add_argument("--oracle", action="store_true", help="compute exact optima where possible")
    p_run.add_argument("--assert-level", type=int, default=0, choices=ASSERT_LEVELS)

    p_bounds = sub.add_parser("bounds", help="print the closed-form bound table")
    _add_common(p_bounds)
    p_bounds.add_argument("--max-m", type=int, default=16, help="curve length for --out")

    p_gen = sub.add_parser("gen", help="write a random instance file")
    _add_common(p_gen, out=False)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--release-span", type=float, default=10.0)
    p_gen.add_argument("--slack-mix", type=float, default=0.5)
    p_gen.add_argument("--file", required=True, help="output path")

    p_adv = sub.add_parser("adversary", help="replay an adaptive stress generator")
    p_adv.add_argument("--alg", choices=stress_algorithms(True) + stress_algorithms(False), required=True)
    _add_common(p_adv)
    p_adv.add_argument("--delta", type=float, default=1.0 / 64)
    p_adv.add_argument("--assert-level", type=int, default=0, choices=ASSERT_LEVELS)
    p_adv.add_argument("--export", default=None, help="write the realised sequence to this file")

    p_verify = sub.add_parser("verify", help="validate an instance file and check a policy run on it")
    p_verify.add_argument("--instance-file", required=True)
    p_verify.add_argument("--alg", choices=ALGORITHMS, default="alg1+2")
    p_verify.add_argument("--assert-level", type=int, default=1, choices=ASSERT_LEVELS)
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        algorithm=args.alg,
        m=args.m,
        epsilon=args.epsilon,
        n=args.n,
        count=args.count,
        seed=args.seed,
        release_span=args.release_span,
        slack_mix=args.slack_mix,
        instance_file=args.instance_file,
        oracle=args.oracle,
        assert_level=args.assert_level,
    )
    rows, ok = run(config)
    if args.out:
        # On a file run the rows carry the file's slack, not --epsilon.
        write_outputs(rows, args.out, rows[0].epsilon)
    finite = [r.ratio for r in rows if r.ratio is not None and math.isfinite(r.ratio)]
    print(f"instances: {len(rows)}")
    unsolved = sum(r.opt_volume is None for r in rows)
    if args.oracle and unsolved:
        print(
            f"no optimum for {unsolved} of {len(rows)} instances: the {args.alg} oracle "
            f"enumerates at most {oracle_job_limit(args.alg)} jobs"
        )
    if finite:
        print(f"max ratio: {max(finite):.6f}")
        if rows[0].bound is not None:
            print(f"bound [{rows[0].bound_name}]: {rows[0].bound:.6f}")
    if args.out:
        print(f"wrote {args.out}/ratios.csv")
    if not ok:
        print("BOUND VIOLATION")
    elif any(r.margin is not None for r in rows):
        print("all bounds held")
    else:
        print("no bound checked")
    return 0 if ok else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    table = theoretical_bounds(args.m, args.epsilon)
    if args.out:
        # Written before the table is printed, so a bad --max-m prints nothing.
        path = os.path.join(args.out, "bounds_vs_m.txt")
        write_bound_curves(path, args.epsilon, max_m=args.max_m)
    width = max(len(k) for k in table)
    print(f"bounds for m={args.m}, epsilon={args.epsilon}:")
    for key, value in table.items():
        shown = "n/a" if value is None else f"{value:.9f}"
        print(f"  {key:<{width}}  {shown}")
    if args.out:
        print(f"wrote {path}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = random_instance(
        args.n,
        args.m,
        args.epsilon,
        seed=args.seed,
        release_span=args.release_span,
        slack_mix=args.slack_mix,
    )
    write_instance(inst, args.file)
    print(f"wrote {args.file} ({len(inst)} jobs, m={args.m}, epsilon={args.epsilon})")
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    rows, ok, outcome = stress_run(args.alg, args.m, args.epsilon, args.delta, args.assert_level)
    if args.out:
        write_outputs(rows, args.out, args.epsilon)
    row = rows[0]
    print(f"accepted volume: {row.alg_volume:.6f}")
    print(f"certificate optimum: {row.opt_volume:.6f}")
    ratio = "unbounded" if row.ratio is not None and math.isinf(row.ratio) else f"{row.ratio:.6f}"
    print(f"measured ratio: {ratio}")
    print(f"target lower bound: {row.bound:.6f}")
    if args.export:
        write_instance(outcome.instance, args.export)
        print(f"wrote {args.export}")
    print("lower bound reached" if ok else "LOWER BOUND MISSED")
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    # A file run; ``run`` raises InvariantError when the schedule fails verification.
    config = ExperimentConfig(
        args.alg, instance_file=args.instance_file, assert_level=args.assert_level, seed=args.seed
    )
    rows, _ = run(config)
    print(f"accepted volume: {rows[0].alg_volume:.6f}")
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "bounds": _cmd_bounds,
        "gen": _cmd_gen,
        "adversary": _cmd_adversary,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
