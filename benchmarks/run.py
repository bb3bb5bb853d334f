"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload preemptive-stream --seed 0 --seconds 25 --trace 0

Prints one line per metric (name, value, unit, sample count), a JSON line
with the machine and run settings, and, as the last line, the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
half of the time is measured untraced and one more set-up and pass run
with every layer function wrapped in timing spans, and the metrics are the
per-layer ones (the table shows both).  Spans of a traced run are written
to ``benchmarks/out/``.

``--record-fingerprints`` runs one pass and stores its decision
fingerprints as the reference for the workload and seed.

The package is imported from ``src/`` of the checkout that holds this
file; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("preemptive-stream", "nonpreemptive-stream", "oracle-sweep", "stress-checked"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=_positive, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "commitsched" / "__init__.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'commitsched'}", file=sys.stderr)
        return 2
    import bench
    from spans import Tracer

    workload = bench.WORKLOADS[args.workload](args.seed)
    stats = bench.Stats()
    if args.record_fingerprints:
        bench.measure(workload, workload.setup(0), 0.0, {}, stats)
        if stats.failed:
            print(f"{stats.failed} operations failed; nothing recorded", file=sys.stderr)
            return 1
        bench.record_references(args.workload, args.seed, stats.fingerprints)
        print(f"recorded {len(stats.fingerprints)} fingerprints for {args.workload} seed {args.seed}")
        return 0

    references = bench.load_references(args.workload, args.seed)
    import_times = bench.time_import()
    ops, setup_times = bench.time_setup(workload)
    budget = args.seconds / 2 if args.trace else args.seconds
    bench.measure(workload, ops, budget, references, stats)
    e2e = bench.end_to_end(stats, import_times, setup_times)
    rows = [(name, value, bench.END_TO_END[name], n) for name, (value, n) in e2e.items()]
    reported = {name: (value, unit) for name, value, unit, _ in rows}
    if args.trace:
        tracer = Tracer()
        traced_wall, factor = bench.traced_pass(workload, stats, references, tracer)
        layers = bench.per_layer(tracer, stats, traced_wall, factor)
        layer_rows = [(name, value, bench.layer_unit(name), n) for name, (value, n) in layers.items()]
        rows += layer_rows
        reported = {name: (value, unit) for name, value, unit, _ in layer_rows}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(str(spans_path))
        print(f"spans written to {spans_path.relative_to(ROOT)}")

    width = max(len(name) for name, *_ in rows)
    for name, value, unit, n in rows:
        print(f"{name:<{width}}  {value:>16.6g} {unit:<6} n={n}")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": bench.machine(),
        "speed_factors": stats.pass_factors,
        "samples": {name: n for name, _, _, n in rows},
    }
    print(json.dumps(context))
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
