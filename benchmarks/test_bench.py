"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest benchmarks
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import bench
import spans
from commitsched import Segment

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run_small(name: str, references: dict[str, str] | None = None, corrupt=None):
    workload = bench.WORKLOADS[name](seed=3, small=True)
    ops = workload.setup(0)
    if corrupt is not None:
        ops[0].run = corrupt(ops[0].run)
    stats = bench.Stats()
    bench.measure(workload, ops, 0.0, references or {}, stats)
    return workload, stats


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_emits_every_metric(name):
    workload, stats = _run_small(name)
    assert stats.failed == 0 and stats.attempted > 0
    e2e = bench.end_to_end(stats, [0.1], [0.01])
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert set(e2e) == set(bench.END_TO_END)
    assert all(math.isfinite(value) and value > 0 for value, _ in e2e.values())

    tracer = spans.Tracer()
    traced_wall, factor = bench.traced_pass(workload, stats, {}, tracer)
    layers = bench.per_layer(tracer, stats, traced_wall, factor)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {key: bench.layer_unit(key) for key in layers} == expected
    assert stats.failed == 0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_self_times_add_up_to_traced_wall(name):
    workload, stats = _run_small(name)
    tracer = spans.Tracer()
    traced_wall, factor = bench.traced_pass(workload, stats, {}, tracer)
    layers = bench.per_layer(tracer, stats, traced_wall, factor)
    self_total = sum(value for key, (value, _) in layers.items() if key.endswith(".self_s"))
    traced_total = layers["trace.setup_s"][0] + layers["trace.wall_s"][0]
    assert self_total + layers["trace.unwrapped_s"][0] == pytest.approx(traced_total, rel=1e-9)
    # The root spans open just outside the per-operation timer.
    assert traced_wall <= layers["trace.wall_s"][0] <= traced_wall * 1.01 + 1e-3 * factor
    wrapped_calls = sum(value for key, (value, _) in layers.items() if key.endswith(".calls"))
    assert wrapped_calls > 0


def _bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every commitsched module and simulator class."""
    out = {}
    for module in spans._package_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("commitsched"):
                for attr, member in vars(value).items():
                    out[(f"{module.__name__}.{key}", attr)] = member
    return out


def test_traced_run_restores_every_wrapped_function():
    import commitsched.preemptive as preemptive
    import commitsched.vmin as vmin

    before = _bindings()
    original = vmin.v_min_curve
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            assert preemptive.v_min_curve is not original
            assert vmin.v_min_curve is not original
            assert preemptive.PreemptiveSimulator.__dict__["active_jobs"] is not before[
                ("commitsched.preemptive.PreemptiveSimulator", "active_jobs")
            ]
            raise RuntimeError("inside")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    workload, stats = _run_small("stress-checked")
    bench.traced_pass(workload, stats, {}, spans.Tracer())
    changed = [key for key, value in _bindings().items() if before.get(key, value) is not value]
    assert changed == []


def _stretch_first_segment(run):
    def corrupted():
        result, decided, latencies = run()
        seg = result.schedule.segments[0]
        result.schedule.segments[0] = Segment(seg.machine, seg.job, seg.start, seg.end + 100.0)
        return result, decided, latencies

    return corrupted


def _shift_first_start(run):
    def corrupted():
        result, decided, latencies = run()
        first = result.starts[0]
        result.starts[0] = type(first)(first.job, first.machine, first.start + 100.0)
        return result, decided, latencies

    return corrupted


def _inflate_alg_volume(run):
    def corrupted():
        results, decided, latencies = run()
        rows, _ = results[0]
        rows[0].alg_volume = rows[0].opt_volume + 1.0
        return results, decided, latencies

    return corrupted


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("preemptive-stream", _stretch_first_segment),
        ("nonpreemptive-stream", _shift_first_start),
        ("oracle-sweep", _inflate_alg_volume),
    ],
)
def test_corrupted_output_fails_the_operation(name, corrupt):
    _, stats = _run_small(name, corrupt=corrupt)
    assert stats.failed >= 1
    assert stats.failed / stats.attempted > 0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_wrong_fingerprint_fails_the_operation(name):
    workload = bench.WORKLOADS[name](seed=3, small=True)
    key = workload.setup(0)[0].fingerprint_key
    _, stats = _run_small(name, references={key: "0" * 16})
    assert stats.failed == 1


def test_fingerprint_covers_decisions_and_volume_only():
    base = bench.fingerprint([True, False, True], 3.25)
    assert bench.fingerprint([True, False, True], 3.25 * (1 + 1e-15)) == base
    assert bench.fingerprint([True, True, False], 3.25) != base
    assert bench.fingerprint([True, False, True], 3.5) != base


def test_stored_fingerprints_cover_every_workload():
    data = json.loads(bench.FINGERPRINTS.read_text())
    assert set(data) == set(bench.WORKLOADS)
    for name, by_seed in data.items():
        keys = {op.fingerprint_key for op in bench.WORKLOADS[name](seed=0).setup(0)}
        assert set(by_seed["0"]) == keys


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(bench.ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "oracle-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_machine_record_is_complete():
    info = bench.machine()
    assert set(info) == {"nproc", "cpu", "python", "numpy", "commit"}
    assert info["nproc"] >= 1
