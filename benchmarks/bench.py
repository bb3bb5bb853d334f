"""Workloads, output checks and metrics of the commitsched benchmark.

Each workload is a closed loop of operations (one policy run, or one sweep
step of two ratio rows on ``oracle-sweep``) built from seeded instances.  A run repeats the
whole list of operations, one *pass* at a time, until its time is up, and
checks every output after the timed part of each operation.  The program
sees only the generated ``Instance`` objects; the seed never reaches it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import commitsched  # noqa: E402
from commitsched import adversary, harness, model, nonpreemptive, preemptive  # noqa: E402

from spans import Tracer  # noqa: E402

EPSILON = 0.5
#: Release span of the oracle-sweep rows (the harness default).
ROW_RELEASE_SPAN = 10.0
#: Repetitions of the package import and of input generation per run;
#: set-up time is the sum of their medians.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
#: Volume comparisons in the output checks.
VOLUME_TOL = 1e-6
#: Duration of ``reference_loop`` at nominal speed.  Every reported time is
#: scaled by REFERENCE_S / (the loop's median time measured alongside it).
REFERENCE_S = 0.02
#: Work between two timings of the reference loop inside a pass.
PROBE_INTERVAL_S = 0.25

#: name -> unit of the metrics a run reports without tracing.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


# -- operations ---------------------------------------------------------


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``run`` returns (output, arrivals decided, per-decision latencies or
    None); ``check`` returns (fingerprint, problems) for that output.
    """

    label: str
    run: Callable[[], tuple[object, int, list[float] | None]]
    check: Callable[[object], tuple[str, list[str]]]
    #: Operations sharing a group are fingerprinted together, in order.
    group: str | None = None

    @property
    def fingerprint_key(self) -> str:
        return self.group or self.label


@dataclass
class Workload:
    """``setup(k)`` generates and validates the inputs of pass ``k``."""

    name: str
    setup: Callable[[int], list[Op]]
    #: True when one operation is the latency sample (a sweep step) rather
    #: than each submit() inside it.
    op_latency: bool = False
    #: True when every pass gets new inputs; otherwise passes repeat pass 0.
    fresh_inputs: bool = False


def fingerprint(accepted: list[bool], volume: float) -> str:
    """Hash of the accept/reject sequence and the accepted volume.

    Thresholds are left out, and the volume is rounded to 12 significant
    digits, so a last-digit change in arithmetic does not change it.
    """
    bits = "".join("1" if a else "0" for a in accepted)
    return hashlib.sha256(f"{bits}|{volume:.12g}".encode()).hexdigest()[:16]


def _instance(n: int, m: int, seed: int, release_span: float) -> commitsched.Instance:
    inst = harness.random_instance(n, m, EPSILON, seed=seed, release_span=release_span)
    problems = model.validate_instance(inst)
    if problems:
        raise ValueError(f"generated instance invalid: {problems[0]}")
    return inst


def _overload_span(n: int, m: int) -> float:
    # Mean processing time is 7/ln 8 ~ 3.37, so this offers about 1.7 times
    # the machines' capacity and alg3 accepts about 37% of arrivals.  The
    # median decision is then a rejection and the 90th percentile an
    # acceptance; near 50% accepted, the median would flip between the two.
    return n * 2.0 / m


def _accepted_jobs(inst: commitsched.Instance, decisions: commitsched.DecisionLog) -> dict[int, commitsched.Job]:
    return {job.id: job for job in inst.jobs if decisions[job.id].accepted}


def _check_decisions(inst, decisions, volume: float) -> tuple[list[bool], list[str]]:
    problems = []
    if [r.job for r in decisions] != [job.id for job in inst.jobs]:
        problems.append("decision log does not cover every arrival in order")
        return [], problems
    accepted = [r.accepted for r in decisions]
    expected = sum(job.processing for job, a in zip(inst.jobs, accepted) if a)
    if abs(expected - volume) > VOLUME_TOL * max(1.0, expected):
        problems.append(f"accepted volume {volume!r} != sum of accepted processing {expected!r}")
    return accepted, problems


def check_preemptive(inst, result: preemptive.SimulationResult) -> tuple[str, list[str]]:
    """The schedule passes ``verify_schedule`` and matches the decisions."""
    accepted, problems = _check_decisions(inst, result.decisions, result.accepted_volume)
    if not problems:
        schedule = commitsched.Schedule(inst.machines, result.schedule.segments)
        jobs = _accepted_jobs(inst, result.decisions)
        problems += [str(v) for v in model.verify_schedule(schedule, jobs)]
    return fingerprint(accepted, result.accepted_volume), problems


def check_nonpreemptive(inst, result: nonpreemptive.NonpreemptiveResult) -> tuple[str, list[str]]:
    """The committed starts, as a schedule on the instance's machines,
    pass ``verify_schedule`` and match the decisions."""
    accepted, problems = _check_decisions(inst, result.decisions, result.accepted_volume)
    if not problems:
        segments = nonpreemptive.committed_schedule(result, inst).segments
        schedule = commitsched.Schedule(inst.machines, segments)
        jobs = _accepted_jobs(inst, result.decisions)
        problems += [str(v) for v in model.verify_schedule(schedule, jobs)]
    return fingerprint(accepted, result.accepted_volume), problems


def _submit_preemptive(inst, policy: str, assert_level: int):
    sim = preemptive.PreemptiveSimulator(
        inst.machines, inst.epsilon, assert_level=assert_level, policy=policy
    )
    latencies = []
    for job in inst.jobs:
        t0 = perf_counter()
        sim.submit(job)
        latencies.append(perf_counter() - t0)
    return sim.finish(), len(inst.jobs), latencies


def _submit_nonpreemptive(inst):
    sim = nonpreemptive.NonpreemptiveSimulator(inst.machines, inst.epsilon)
    latencies = []
    for job in inst.jobs:
        t0 = perf_counter()
        sim.submit(job)
        latencies.append(perf_counter() - t0)
    result = nonpreemptive.NonpreemptiveResult(sim.decisions, sim.starts, sim.accepted_volume())
    return result, len(inst.jobs), latencies


def _preemptive_op(label: str, inst, policy: str, assert_level: int) -> Op:
    return Op(
        label,
        lambda: _submit_preemptive(inst, policy, assert_level),
        lambda result: check_preemptive(inst, result),
    )


def _nonpreemptive_op(label: str, inst, simulate: Callable | None) -> Op:
    """``simulate`` is a whole-instance policy; None drives the threshold
    allocator through ``submit`` so that each decision is timed."""
    if simulate is None:
        run = lambda: _submit_nonpreemptive(inst)  # noqa: E731
    else:
        run = lambda: (simulate(inst), len(inst.jobs), None)  # noqa: E731
    return Op(label, run, lambda result: check_nonpreemptive(inst, result))


# -- workloads ----------------------------------------------------------


def preemptive_stream(seed: int, small: bool = False) -> Workload:
    n = 60 if small else 2500

    def setup(_pass: int) -> list[Op]:
        # Two instances halve the share of one instance's draw in the timings.
        ops = []
        for k in range(2):
            inst = _instance(n, 8, seed * 1000 + 1 + 10 * k, release_span=n / 2)
            ops.append(_preemptive_op(f"alg1+2/{k}", inst, "lazy", 0))
            ops.append(_preemptive_op(f"greedy-p/{k}", inst, "greedy", 0))
        return ops

    return Workload("preemptive-stream", setup)


def nonpreemptive_stream(seed: int, small: bool = False) -> Workload:
    n = 200 if small else 20000

    def setup(_pass: int) -> list[Op]:
        multi = _instance(n, 16, seed * 1000 + 2, _overload_span(n, 16))
        single = _instance(n, 1, seed * 1000 + 3, _overload_span(n, 1))
        # Resolved at call time, so a traced run sees the patched functions.
        partitioned = lambda inst: nonpreemptive.simulate_partitioned(inst)  # noqa: E731
        greedy = lambda inst: nonpreemptive.greedy_nonpreemptive(inst)  # noqa: E731
        randomized = lambda inst: nonpreemptive.simulate_randomized_single(inst, seed)  # noqa: E731
        return [
            _nonpreemptive_op("alg3", multi, None),
            _nonpreemptive_op("alg3-partitioned", multi, partitioned),
            _nonpreemptive_op("greedy-np", multi, greedy),
            _nonpreemptive_op("alg3-randomized", single, randomized),
        ]

    return Workload("nonpreemptive-stream", setup)


def _ratio_rows(configs: list[harness.ExperimentConfig]):
    return [harness.run(config) for config in configs], sum(c.n for c in configs), None


def check_rows(results) -> tuple[str, list[str]]:
    fps, problems = [], []
    for result in results:
        fp, row_problems = check_row(result)
        fps.append(fp)
        problems += row_problems
    return hashlib.sha256("|".join(fps).encode()).hexdigest()[:16], problems


def check_row(result) -> tuple[str, list[str]]:
    """The row meets its bound and the optimum is at least the policy's volume."""
    rows, ok = result
    if len(rows) != 1:
        return "", [f"expected one ratio row, got {len(rows)}"]
    row = rows[0]
    problems = [] if ok else [f"ratio {row.ratio!r} exceeds bound {row.bound!r}"]
    if row.opt_volume is None:
        return "", problems + ["row has no oracle volume"]
    if row.opt_volume < row.alg_volume - VOLUME_TOL:
        problems.append(f"opt volume {row.opt_volume!r} below alg volume {row.alg_volume!r}")
    digest = hashlib.sha256(f"{row.alg_volume:.12g}|{row.opt_volume:.12g}".encode())
    return digest.hexdigest()[:16], problems


def oracle_sweep(seed: int, small: bool = False) -> Workload:
    """One operation is a sweep step: the alg3 row and the alg1+2 row of
    one seeded index.  (Timed alone, the two row kinds form two latency
    modes, and a median between them moves with every seed.)"""
    count = 3 if small else 150
    sizes = (("alg3", 5 if small else 10), ("alg1+2", 6 if small else 14))

    def setup(pass_index: int) -> list[Op]:
        ops = []
        for i in range(pass_index * count, (pass_index + 1) * count):
            row_seed = seed * 1_000_000 + i
            configs = []
            for algorithm, n in sizes:
                _instance(n, 2, row_seed, ROW_RELEASE_SPAN)
                configs.append(
                    harness.ExperimentConfig(
                        algorithm=algorithm,
                        m=2,
                        epsilon=EPSILON,
                        n=n,
                        count=1,
                        seed=row_seed,
                        release_span=ROW_RELEASE_SPAN,
                        oracle=True,
                    )
                )
            run = lambda c=configs: _ratio_rows(c)  # noqa: E731
            ops.append(Op(f"rows/{i}", run, check_rows, group=f"rows#{pass_index}"))
        return ops

    # Row cost is heavy-tailed (exponential oracles), so each pass draws new
    # rows: a run then averages over many instances instead of repeating a few.
    return Workload("oracle-sweep", setup, op_latency=True, fresh_inputs=True)


def _replay_preemptive(m: int, delta: float, algorithm: str):
    outcome = adversary.replay_preemptive(m, EPSILON, delta=delta, algorithm=algorithm, assert_level=2)
    return outcome, len(outcome.instance), None


def _replay_nonpreemptive(m: int, delta: float, algorithm: str):
    outcome = adversary.replay_nonpreemptive(m, EPSILON, delta=delta, algorithm=algorithm)
    return outcome, len(outcome.instance), None


def check_replay(algorithm: str, outcome: adversary.StressOutcome) -> tuple[str, list[str]]:
    """Re-run the realised sequence offline: the decisions must repeat and
    the schedule must verify; the paper's policies must reach the bound."""
    inst = outcome.instance
    accepted, problems = _check_decisions(inst, outcome.decisions, outcome.alg_volume)
    rerun = {
        "alg1+2": lambda: check_preemptive(inst, preemptive.simulate_preemptive(inst)),
        "greedy-p": lambda: check_preemptive(inst, preemptive.greedy_preemptive(inst)),
        "alg3": lambda: check_nonpreemptive(inst, nonpreemptive.simulate_nonpreemptive(inst)),
        "greedy-np": lambda: check_nonpreemptive(inst, nonpreemptive.greedy_nonpreemptive(inst)),
    }[algorithm]
    fp = fingerprint(accepted, outcome.alg_volume)
    rerun_fp, rerun_problems = rerun()
    problems += rerun_problems
    if rerun_fp != fp:
        problems.append("offline re-run decided differently from the replay")
    slack = {"alg1+2": 10.0 * outcome.delta, "alg3": 5.0 * outcome.delta * inst.machines}
    if algorithm in slack and outcome.ratio < outcome.lower_bound - slack[algorithm]:
        problems.append(f"ratio {outcome.ratio!r} below lower bound {outcome.lower_bound!r}")
    return fp, problems


def stress_checked(seed: int, small: bool = False) -> Workload:
    m, delta, n = (2, 1.0 / 8, 40) if small else (8, 1.0 / 64, 1000)

    def setup(_pass: int) -> list[Op]:
        ops = [
            Op(f"replay-{a}", lambda a=a: _replay_preemptive(m, delta, a), lambda o, a=a: check_replay(a, o))
            for a in ("alg1+2", "greedy-p")
        ]
        ops += [
            Op(f"replay-{a}", lambda a=a: _replay_nonpreemptive(m, delta, a), lambda o, a=a: check_replay(a, o))
            for a in ("alg3", "greedy-np")
        ]
        # Three random runs, so that the decision latencies do not hang on
        # the live-set pattern of a single seeded instance.
        for k in range(3):
            inst = _instance(n, m, seed * 1000 + 4 + 10 * k, release_span=n / 2)
            ops.append(_preemptive_op(f"alg1+2-checked/{k}", inst, "lazy", 2))
        return ops

    return Workload("stress-checked", setup)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "preemptive-stream": preemptive_stream,
    "nonpreemptive-stream": nonpreemptive_stream,
    "oracle-sweep": oracle_sweep,
    "stress-checked": stress_checked,
}


# -- measurement --------------------------------------------------------


class _Item:
    __slots__ = ("key", "x", "y")

    def __init__(self, key: int, x: float, y: float) -> None:
        self.key, self.x, self.y = key, x, y


def reference_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work.

    The host's speed drifts by up to 2x over minutes, because other tenants
    share its cores, and this loop (object creation, keyed sorting, dict
    updates and float arithmetic, like the simulators) slows with it.  It
    is benchmark code, so a change to the package never moves it.
    """
    rng = random.Random(7)
    t0 = perf_counter()
    for _ in range(4):
        items = [_Item(i, rng.random(), 3.0 * rng.random()) for i in range(3000)]
        items.sort(key=lambda it: (it.x, it.key))
        sums: dict[int, float] = {}
        for it in items:
            sums[it.key % 97] = sums.get(it.key % 97, 0.0) + max(0.0, min(it.x, it.y - it.x))
        sum(v for _, v in sorted(sums.items()))
    return perf_counter() - t0


class SpeedProbe:
    """Times ``reference_loop`` between operations to track the host's speed."""

    def __init__(self) -> None:
        self._window: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if force or perf_counter() - self._last >= PROBE_INTERVAL_S:
            self._window.append(reference_loop())
            self._last = perf_counter()

    def factor(self) -> float:
        """Scale to nominal speed for the samples since the last call."""
        self.sample(force=True)
        window, self._window = self._window, []
        return REFERENCE_S / statistics.median(window)


@dataclass
class Stats:
    """What the passes of one run measured."""

    pass_walls: list[float] = field(default_factory=list)
    pass_arrivals: list[int] = field(default_factory=list)
    #: REFERENCE_S / reference loop time, per pass: raw time = time / factor.
    pass_factors: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    growth: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    fingerprints: dict[str, str] = field(default_factory=dict)


def _growth(latencies: list[float]) -> float | None:
    q = len(latencies) // 4
    if q == 0:
        return None
    return statistics.median(latencies[-q:]) / statistics.median(latencies[:q])


def run_pass(
    workload: Workload, ops: list[Op], stats: Stats, probe: SpeedProbe, tracer: Tracer | None = None
) -> list[tuple[Op, object]]:
    """Run every operation once, timing each; return the outputs to check.

    Times are recorded at nominal speed (see ``REFERENCE_S``).
    """
    outputs = []
    wall = 0.0
    arrivals = 0
    samples: list[float] = []
    growth: list[float] = []
    probe.sample(force=True)
    for i, op in enumerate(ops):
        probe.sample()
        stats.attempted += 1
        try:
            if tracer is None:
                t0 = perf_counter()
                output, decided, latencies = op.run()
                elapsed = perf_counter() - t0
            else:
                with tracer.root("bench.op", run_id=i + 1):
                    t0 = perf_counter()
                    output, decided, latencies = op.run()
                    elapsed = perf_counter() - t0
        except Exception:  # noqa: BLE001 - an operation that raises is a failed operation
            stats.failed += 1
            print(f"{workload.name}: {op.label} raised", file=sys.stderr)
            traceback.print_exc()
            continue
        wall += elapsed
        arrivals += decided
        if workload.op_latency:
            samples.append(elapsed)
        elif latencies is not None:
            samples.extend(latencies)
            ratio = _growth(latencies)
            if ratio is not None:
                growth.append(ratio)
        outputs.append((op, output))
    factor = probe.factor()
    stats.pass_walls.append(wall * factor)
    stats.pass_arrivals.append(arrivals)
    stats.pass_factors.append(factor)
    stats.latencies.extend(x * factor for x in samples)
    stats.growth.extend(growth)
    return outputs


def check_outputs(outputs: list[tuple[Op, object]], stats: Stats, references: dict[str, str]) -> None:
    """Check every output; each problem or changed fingerprint is a failed operation.

    A group's fingerprint must match ``references`` (the stored decisions
    for this workload and seed) when it holds the group, and must repeat
    exactly whenever a run meets the group again.
    """
    groups: dict[str, list[str]] = {}
    for op, output in outputs:
        try:
            fp, problems = op.check(output)
        except Exception:  # noqa: BLE001 - a checker that raises fails the operation
            fp, problems = "", [traceback.format_exc()]
        groups.setdefault(op.fingerprint_key, []).append(fp)
        if problems:
            stats.failed += 1
            print(f"{op.label}: " + "; ".join(problems[:5]), file=sys.stderr)
    for key, fps in groups.items():
        fp = fps[0] if len(fps) == 1 else hashlib.sha256("|".join(fps).encode()).hexdigest()[:16]
        expected = references.get(key, stats.fingerprints.get(key))
        if expected is not None and fp != expected:
            stats.failed += 1
            print(f"{key}: decision fingerprint {fp} != expected {expected}", file=sys.stderr)
        stats.fingerprints.setdefault(key, fp)


def measure(workload: Workload, ops: list[Op], seconds: float, references: dict[str, str], stats: Stats) -> None:
    """Run passes, each with its checks, while the next one is expected to
    end within ``seconds``; always at least one."""
    probe = SpeedProbe()
    start = perf_counter()
    pass_index = 0
    while True:
        began = perf_counter()
        # Outputs are dropped after their checks, so the peak memory is one
        # pass's, whatever the number of passes.
        check_outputs(run_pass(workload, ops, stats, probe), stats, references)
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return
        pass_index += 1
        if workload.fresh_inputs:
            ops = workload.setup(pass_index)


def time_import(repeats: int = IMPORT_REPEATS) -> list[float]:
    """Seconds, at nominal speed, to import commitsched in each of
    ``repeats`` fresh interpreters.

    NumPy is imported before the clock starts: its import loads shared
    libraries, is the same for every version of the package, and its time
    does not follow the host-speed reference.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; t = time.perf_counter(); "
        "import commitsched; print(time.perf_counter() - t)"
    )
    probe = SpeedProbe()
    times = []
    for _ in range(repeats):
        probe.sample(force=True)
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(done.stdout.strip()))
    factor = probe.factor()
    return [t * factor for t in times]


def time_setup(workload: Workload, repeats: int = SETUP_REPEATS) -> tuple[list[Op], list[float]]:
    """The inputs of pass 0 and the seconds, at nominal speed, each of
    ``repeats`` generations of them took."""
    probe = SpeedProbe()
    times = []
    ops: list[Op] = []
    for _ in range(repeats):
        probe.sample(force=True)
        t0 = perf_counter()
        ops = workload.setup(0)
        times.append(perf_counter() - t0)
    factor = probe.factor()
    return ops, [t * factor for t in times]


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def end_to_end(stats: Stats, import_times: list[float], setup_times: list[float]) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count)."""
    lat = stats.latencies
    total = sum(stats.pass_walls)
    return {
        "setup_s": (statistics.median(import_times) + statistics.median(setup_times), len(setup_times)),
        "wall_s": (total / len(stats.pass_walls), len(stats.pass_walls)),
        "jobs_per_s": (sum(stats.pass_arrivals) / total if total > 0 else 0.0, sum(stats.pass_arrivals)),
        "latency_ms_p50": (1e3 * _quantile(lat, 0.5) if lat else 0.0, len(lat)),
        "latency_ms_p90": (1e3 * _quantile(lat, 0.9) if lat else 0.0, len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def per_layer(tracer: Tracer, stats: Stats, traced_wall: float, factor: float) -> dict[str, tuple[float, int]]:
    """name -> (value, sample count) from the traced set-up and pass.

    ``factor`` scales the traced times to nominal speed, like ``traced_wall``.
    """
    summary = tracer.summary()
    for row in summary.values():
        row["self_s"] *= factor
        row["total_s"] *= factor
    out: dict[str, tuple[float, int]] = {}
    for name, row in summary.items():
        if name.startswith("bench."):
            continue
        out[f"{name}.calls"] = (float(row["calls"]), row["calls"])
        out[f"{name}.self_s"] = (row["self_s"], row["calls"])
    for name, true_calls in tracer.true_calls.items():
        calls = summary[name]["calls"]
        out[f"{name}.true_share"] = (true_calls / calls if calls else 0.0, calls)
    live = tracer.live_samples
    out["preemptive.live_share"] = (statistics.fmean(live) if live else 0.0, len(live))
    growth = stats.growth
    out["decision_growth"] = (statistics.median(growth) if growth else 0.0, len(growth))
    setup_root, op_root = summary["bench.setup"], summary["bench.op"]
    out["trace.setup_s"] = (setup_root["total_s"], setup_root["calls"])
    out["trace.wall_s"] = (op_root["total_s"], op_root["calls"])
    out["trace.unwrapped_s"] = (setup_root["self_s"] + op_root["self_s"], setup_root["calls"] + op_root["calls"])
    untraced = statistics.fmean(stats.pass_walls)
    out["trace.overhead"] = (traced_wall / untraced - 1.0, len(stats.pass_walls))
    return out


def traced_pass(workload: Workload, stats: Stats, references: dict[str, str], tracer: Tracer) -> tuple[float, float]:
    """One traced set-up and pass; returns the traced pass wall time at
    nominal speed and the factor that scaled it there."""
    probe = SpeedProbe()
    traced = Stats()
    with tracer.installed():
        with tracer.root("bench.setup", run_id=0):
            ops = workload.setup(0)
        outputs = run_pass(workload, ops, traced, probe, tracer)
    stats.attempted += traced.attempted
    stats.failed += traced.failed
    check_outputs(outputs, stats, references)
    return traced.pass_walls[0], traced.pass_factors[0]


def load_references(workload: str, seed: int) -> dict[str, str]:
    if not FINGERPRINTS.is_file():
        return {}
    data = json.loads(FINGERPRINTS.read_text())
    return data.get(workload, {}).get(str(seed), {})


def record_references(workload: str, seed: int, fingerprints: dict[str, str]) -> None:
    data = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = fingerprints
    FINGERPRINTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def machine() -> dict[str, object]:
    """The host and software a result was measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name == "decision_growth":
        return "ratio"
    return "frac"
