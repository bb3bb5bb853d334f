"""Experiment runner: generate instances, run policies, compare to oracles.

Every run produces CSV rows (one per instance) plus plain columnar text
files with bound curves and a ratio histogram, so results can be plotted
with any external tool.  Ratios follow the convention 0/0 = 1 so that
vacuous instances never poison a max-ratio summary.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .adversary import (
    StressOutcome,
    preemptive_lower_bound,
    replay_nonpreemptive,
    replay_preemptive,
    solve_c_lower,
    strengthened_preemptive_bound,
)
from .model import (
    BOUND_SLACK,
    TOL,
    Instance,
    InvariantError,
    Job,
    check_instance,
    check_policy_args,
    check_schedule,
    drive,
    read_instance,
    rho,
    volume_ratio,
)
from .nonpreemptive import committed_schedule, partition_group_size, randomized_virtual_machines
from .oracle import (
    MAX_NONPREEMPTIVE_JOBS,
    MAX_PREEMPTIVE_JOBS,
    opt_nonpreemptive,
    opt_preemptive,
)
from .policy import ALGORITHM_TABLE, ALGORITHMS, make_policy


def theoretical_bounds(m: int, epsilon: float) -> dict[str, float | None]:
    """Closed-form ratio guarantees and lower bounds for (m, epsilon).

    Entries are None when a bound's hypotheses do not apply (randomized
    and greedy bounds need one machine; the partitioned bound needs an
    integral group log that divides m; the non-preemptive lower bound
    needs epsilon <= 1).
    """
    check_policy_args(m, epsilon)
    r = rho(epsilon)
    root = r ** (1.0 / m)
    log_rho = math.log(r)
    g = partition_group_size(epsilon)
    bounds: dict[str, float | None] = {
        "preemptive_upper": m * (1.0 + epsilon) * (root - 1.0),
        "preemptive_upper_asymptote": (1.0 + epsilon) * log_rho,
        "preemptive_lower": preemptive_lower_bound(m, epsilon),
        "preemptive_lower_strengthened": strengthened_preemptive_bound(m, epsilon) * (root - 1.0),
        "nonpreemptive_upper": m * root + 1.0,
        "nonpreemptive_lower": solve_c_lower(m, epsilon) if epsilon <= 1.0 else None,
        "partitioned_upper": None,
        "randomized_single_upper": None,
        "greedy_p_single_upper": None,
        "greedy_np_single_upper": None,
    }
    if abs(log_rho - round(log_rho)) < TOL and round(log_rho) >= 1 and m % g == 0:
        bounds["partitioned_upper"] = math.e * log_rho + 1.0
    if m == 1:
        k = randomized_virtual_machines(epsilon)
        bounds["randomized_single_upper"] = k * k * r ** (1.0 / k) + k
        bounds["greedy_p_single_upper"] = r
        bounds["greedy_np_single_upper"] = 2.0 + 1.0 / epsilon
    return bounds


def bound_for_algorithm(algorithm: str, m: int, epsilon: float) -> tuple[float | None, str]:
    """The guarantee that applies to a policy's measured ratio, if any."""
    key = ALGORITHM_TABLE[algorithm].guarantee
    bound = None if key is None else theoretical_bounds(m, epsilon)[key]
    return (None, "none") if bound is None else (bound, key)


def random_instance(
    n: int,
    m: int,
    epsilon: float,
    seed: int,
    release_span: float = 10.0,
    slack_mix: float = 0.5,
) -> Instance:
    """Seeded random instance: releases uniform on [0, span], processing
    log-uniform on [1, 8], deadlines tight with probability ``slack_mix``
    and otherwise stretched by a uniform factor from [1, 3]."""
    check_policy_args(m, epsilon)
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    if not (0.0 <= release_span < math.inf):
        raise ValueError(f"release_span={release_span} must be finite and >= 0")
    if not (0.0 <= slack_mix <= 1.0):
        raise ValueError(f"slack_mix={slack_mix} must lie in [0, 1]")
    rng = random.Random(seed)
    releases = sorted(rng.uniform(0.0, release_span) for _ in range(n))
    jobs = []
    for i, r in enumerate(releases):
        p = math.exp(rng.uniform(0.0, math.log(8.0)))
        stretch = 1.0 if rng.random() < slack_mix else rng.uniform(1.0, 3.0)
        jobs.append(Job(i, r, p, r + (1.0 + epsilon) * p * stretch))
    inst = Instance(epsilon=epsilon, machines=m, jobs=tuple(jobs))
    return check_instance(inst, InvariantError, "generated an invalid instance")


@dataclass
class ExperimentConfig:
    algorithm: str
    m: int = 1
    epsilon: float = 1.0
    n: int = 8
    count: int = 1
    seed: int = 0
    release_span: float = 10.0
    slack_mix: float = 0.5
    instance_file: str | None = None  # set: run on this file instead of random instances
    oracle: bool = False
    assert_level: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if not self.instance_file and self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")


@dataclass
class RatioRow:
    """One experiment outcome; ``ratio`` uses the 0/0 = 1 convention."""

    instance_id: int
    algorithm: str
    m: int
    epsilon: float
    alg_volume: float
    opt_volume: float | None
    ratio: float | None
    bound: float | None
    bound_name: str
    margin: float | None

    def as_record(self) -> dict[str, object]:
        return {
            "instance_id": self.instance_id,
            "algorithm": self.algorithm,
            "m": self.m,
            "epsilon": self.epsilon,
            "alg_volume": f"{self.alg_volume:.12g}",
            "opt_volume": "" if self.opt_volume is None else f"{self.opt_volume:.12g}",
            "ratio": "" if self.ratio is None else f"{self.ratio:.12g}",
            "bound": "" if self.bound is None else f"{self.bound:.12g}",
            "bound_name": self.bound_name,
            "margin": "" if self.margin is None else f"{self.margin:.12g}",
        }


CSV_COLUMNS = [f.name for f in fields(RatioRow)]


def oracle_job_limit(algorithm: str) -> int:
    """Most jobs the exact oracle of ``algorithm``'s family enumerates."""
    return MAX_PREEMPTIVE_JOBS if ALGORITHM_TABLE[algorithm].preemptive else MAX_NONPREEMPTIVE_JOBS


def _oracle_volume(algorithm: str, instance: Instance) -> float | None:
    # Both oracles return None above their enumeration limit.
    return (opt_preemptive if ALGORITHM_TABLE[algorithm].preemptive else opt_nonpreemptive)(instance)


def _instances(config: ExperimentConfig) -> Iterable[tuple[int, Instance, int]]:
    """Each instance with its id and its policy's seed: ``config.seed`` for a
    file, and for sweep instance i, which ``Random(seed + i)`` draws, a seed
    from a stream apart from every instance's generator."""
    if config.instance_file:
        yield 0, read_instance(config.instance_file), config.seed
        return
    policy_seeds = random.Random(f"policy seeds {config.seed}")
    for i in range(config.count):
        instance = random_instance(
            config.n,
            config.m,
            config.epsilon,
            seed=config.seed + i,
            release_span=config.release_span,
            slack_mix=config.slack_mix,
        )
        yield i, instance, policy_seeds.getrandbits(64)


def run(config: ExperimentConfig) -> tuple[list[RatioRow], bool]:
    """Run the configured policy over each instance and verify its schedule.

    Returns the rows and a flag that is False when a ratio, infinite ones
    too, exceeded its bound by more than ``BOUND_SLACK``.  A failed invariant,
    or a schedule that ``verify_schedule`` rejects, raises ``InvariantError``.
    """
    preemptive = ALGORITHM_TABLE[config.algorithm].preemptive
    rows: list[RatioRow] = []
    ok = True
    for instance_id, instance, policy_seed in _instances(config):
        policy = make_policy(config.algorithm, instance.machines, instance.epsilon, config.assert_level, policy_seed)
        result = drive(policy, instance)
        schedule = result.schedule if preemptive else committed_schedule(result, instance)
        accepted = {j.id: j for j in instance.jobs if result.decisions[j.id].accepted}
        where = config.instance_file or f"instance {instance_id}"
        check_schedule(schedule, accepted, f"{where}: the {config.algorithm} schedule fails verification")
        alg_volume = result.accepted_volume
        opt_volume = _oracle_volume(config.algorithm, instance) if config.oracle else None
        ratio = None if opt_volume is None else volume_ratio(opt_volume, alg_volume)
        bound, bound_name = bound_for_algorithm(config.algorithm, instance.machines, instance.epsilon)
        margin = None
        if ratio is not None and bound is not None:
            margin = bound - ratio
            if ratio > bound + BOUND_SLACK:
                ok = False
        rows.append(
            RatioRow(
                instance_id=instance_id,
                algorithm=config.algorithm,
                m=instance.machines,
                epsilon=instance.epsilon,
                alg_volume=alg_volume,
                opt_volume=opt_volume,
                ratio=ratio,
                bound=bound,
                bound_name=bound_name,
                margin=margin,
            )
        )
    return rows, ok


def stress_run(
    algorithm: str, m: int, epsilon: float, delta: float = 1.0 / 64, assert_level: int = 0
) -> tuple[list[RatioRow], bool, StressOutcome]:
    """Replay the stress generator of ``algorithm``'s family.

    Returns the ratio row, a flag that is False when the measured ratio
    falls short of what the game proves, and the replay itself.  The
    preemptive game proves lb * (1 - delta), delta its block-1 job size,
    checked up to ``BOUND_SLACK``; the non-preemptive one is checked
    against its bound less 5 * delta * m.
    """
    if ALGORITHM_TABLE[algorithm].preemptive:
        outcome = replay_preemptive(m, epsilon, delta, algorithm, assert_level)
        floor = outcome.lower_bound * (1.0 - outcome.delta) - BOUND_SLACK
    else:
        outcome = replay_nonpreemptive(m, epsilon, delta, algorithm)
        floor = outcome.lower_bound - 5.0 * outcome.delta * m
    ratio = outcome.ratio
    bound = outcome.lower_bound
    rows = [
        RatioRow(
            instance_id=0,
            algorithm=algorithm,
            m=m,
            epsilon=epsilon,
            alg_volume=outcome.alg_volume,
            opt_volume=outcome.opt_volume,
            ratio=ratio,
            bound=bound,
            bound_name="stress_lower_bound",
            margin=None if math.isinf(ratio) else ratio - bound,
        )
    ]
    ok = math.isinf(ratio) or ratio >= floor
    return rows, ok, outcome


def write_outputs(rows: Sequence[RatioRow], out_dir: str, epsilon: float) -> None:
    """Write ``ratios.csv``, ``ratio_hist.txt`` and the bound curves at ``epsilon`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "ratios.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in sorted(rows, key=lambda r: r.instance_id):
            writer.writerow(row.as_record())
    write_bound_curves(os.path.join(out_dir, "bounds_vs_m.txt"), epsilon)
    write_ratio_histogram(os.path.join(out_dir, "ratio_hist.txt"), rows)


def write_bound_curves(path: str, epsilon: float, max_m: int = 16) -> None:
    """Columnar bound-vs-machine-count table for external plotting, one row
    per m = 1..max_m.

    A bound that is undefined at (m, epsilon) reads nan, and so does every
    bound of an m that fails the slack gate (rho^(1/m) rounds to 1 for a
    large enough m), so the file always has max_m rows.  Makes the file's
    directory if needed.  Raises ValueError, before anything is made, when
    max_m < 1 or epsilon fails the gate at m = 1.
    """
    if type(max_m) is not int or max_m < 1:
        raise ValueError(f"max_m={max_m!r} must be an integer >= 1")
    check_policy_args(1, epsilon)
    columns = ("preemptive_upper", "preemptive_lower", "nonpreemptive_upper", "nonpreemptive_lower")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# m {' '.join(columns)}\n")
        for m in range(1, max_m + 1):
            try:
                check_policy_args(m, epsilon)
            except ValueError:  # rho^(1/m) rounds to 1; epsilon passed the gate at m = 1
                bounds = {}
            else:
                bounds = theoretical_bounds(m, epsilon)
            values = [math.nan if bounds.get(key) is None else bounds[key] for key in columns]
            fh.write(" ".join([str(m)] + [f"{value:.9g}" for value in values]) + "\n")


def write_ratio_histogram(path: str, rows: Sequence[RatioRow], bins: int = 20) -> None:
    ratios = [r.ratio for r in rows if r.ratio is not None and math.isfinite(r.ratio)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# bin_left bin_right count\n")
        if not ratios:
            return
        lo, hi = min(ratios), max(ratios)
        if hi <= lo:
            hi = lo + 1.0
        width = (hi - lo) / bins
        counts = [0] * bins
        for r in ratios:
            idx = min(int((r - lo) / width), bins - 1)
            counts[idx] += 1
        for i, c in enumerate(counts):
            fh.write(f"{lo + i * width:.9g} {lo + (i + 1) * width:.9g} {c}\n")
