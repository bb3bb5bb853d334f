"""Command-line front end.

Exit codes: 0 when every checked invariant and bound held, 1 when a
violation was observed, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .harness import (
    ExperimentConfig,
    bound_for_algorithm,
    random_instance,
    run,
    stress_run,
    theoretical_bounds,
    write_bound_curves,
)
from .model import InvariantError, read_instance, verify_schedule, write_instance
from .nonpreemptive import committed_schedule
from .policy import ALGORITHMS, drive, make_policy
from .preemptive import SimulationResult


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=1, help="machine count")
    parser.add_argument("--epsilon", type=float, default=1.0, help="slack factor")
    parser.add_argument("--seed", type=int, default=0)
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
    p_run.add_argument("--n", type=int, default=8, help="jobs per random instance")
    p_run.add_argument("--count", type=int, default=1, help="number of random instances")
    p_run.add_argument("--release-span", type=float, default=10.0)
    p_run.add_argument("--slack-mix", type=float, default=0.5)
    p_run.add_argument("--instance-file", default=None, help="run on a JSON-lines instance file")
    p_run.add_argument("--oracle", action="store_true", help="compute exact optima where possible")
    p_run.add_argument("--assert-level", type=int, default=0, choices=(0, 1, 2))

    p_bounds = sub.add_parser("bounds", help="print the closed-form bound table")
    _add_common(p_bounds)
    p_bounds.add_argument("--max-m", type=int, default=16, help="curve length for --out")

    p_gen = sub.add_parser("gen", help="write a random instance file")
    _add_common(p_gen)
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--release-span", type=float, default=10.0)
    p_gen.add_argument("--slack-mix", type=float, default=0.5)
    p_gen.add_argument("--file", required=True, help="output path")

    p_adv = sub.add_parser("adversary", help="replay an adaptive stress generator")
    p_adv.add_argument("--family", choices=("preemptive", "nonpreemptive"), required=True)
    p_adv.add_argument("--alg", choices=("alg1+2", "greedy-p", "alg3", "greedy-np"), required=True)
    _add_common(p_adv)
    p_adv.add_argument("--delta", type=float, default=1.0 / 64)
    p_adv.add_argument("--assert-level", type=int, default=0, choices=(0, 1, 2))
    p_adv.add_argument("--export", default=None, help="write the realised sequence to this file")

    p_verify = sub.add_parser("verify", help="validate an instance file and check a policy run on it")
    p_verify.add_argument("--instance-file", required=True)
    p_verify.add_argument("--alg", choices=ALGORITHMS, default="alg1+2")
    p_verify.add_argument("--assert-level", type=int, default=1, choices=(0, 1, 2))
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        algorithm=args.alg,
        m=args.m,
        epsilon=args.epsilon,
        source="file" if args.instance_file else "random",
        n=args.n,
        count=args.count,
        seed=args.seed,
        release_span=args.release_span,
        slack_mix=args.slack_mix,
        instance_file=args.instance_file,
        oracle=args.oracle,
        assert_level=args.assert_level,
        out_dir=args.out,
    )
    rows, ok = run(config)
    finite = [r.ratio for r in rows if r.ratio is not None and math.isfinite(r.ratio)]
    print(f"instances: {len(rows)}")
    if finite:
        print(f"max ratio: {max(finite):.6f}")
        bound, name = bound_for_algorithm(config.algorithm, config.m, config.epsilon)
        if bound is not None:
            print(f"bound [{name}]: {bound:.6f}")
    if args.out:
        print(f"wrote {args.out}/ratios.csv")
    print("all bounds held" if ok else "BOUND VIOLATION")
    return 0 if ok else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    table = theoretical_bounds(args.m, args.epsilon)
    width = max(len(k) for k in table)
    print(f"bounds for m={args.m}, epsilon={args.epsilon}:")
    for key, value in table.items():
        shown = "n/a" if value is None else f"{value:.9f}"
        print(f"  {key:<{width}}  {shown}")
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "bounds_vs_m.txt")
        write_bound_curves(path, args.epsilon, max_m=args.max_m)
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
    config = ExperimentConfig(
        algorithm=args.alg,
        m=args.m,
        epsilon=args.epsilon,
        source="adversary",
        adversary_family=args.family,
        delta=args.delta,
        assert_level=args.assert_level,
        out_dir=args.out,
    )
    rows, ok, outcome = stress_run(config)
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
    instance = read_instance(args.instance_file)
    policy = make_policy(args.alg, instance.machines, instance.epsilon, args.assert_level, args.seed)
    result = drive(policy, instance)
    if isinstance(result, SimulationResult):
        schedule = result.schedule
    else:
        schedule = committed_schedule(result, instance)
    accepted = {j.id: j for j in instance.jobs if result.decisions[j.id].accepted}
    violations = verify_schedule(schedule, accepted)
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    print(f"accepted volume: {result.accepted_volume:.6f}")
    print("ok" if not violations else f"{len(violations)} violations")
    return 0 if not violations else 1


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
