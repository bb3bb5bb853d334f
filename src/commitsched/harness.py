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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .adversary import (
    StressOutcome,
    preemptive_lower_bound,
    replay_nonpreemptive,
    replay_preemptive,
    solve_c_lower,
    strengthened_preemptive_bound,
)
from .model import Instance, Job, read_instance, validate_instance
from .nonpreemptive import partition_group_size, randomized_virtual_machines
from .oracle import (
    MAX_NONPREEMPTIVE_JOBS,
    MAX_PREEMPTIVE_JOBS,
    opt_nonpreemptive,
    opt_preemptive,
)
from .policy import ALGORITHMS, drive, make_policy

#: Policies whose accepted jobs form a non-preemptive schedule, so the
#: non-preemptive oracle bounds them; the preemptive oracle bounds everything.
NONPREEMPTIVE_ALGS = ("alg3", "alg3-partitioned", "alg3-randomized", "greedy-np")


def theoretical_bounds(m: int, epsilon: float) -> dict[str, float | None]:
    """Closed-form ratio guarantees and lower bounds for (m, epsilon).

    Entries are None when a bound's hypotheses do not apply (randomized
    bounds need one machine; the partitioned bound needs an integral group
    log that divides m).
    """
    rho = (1.0 + epsilon) / epsilon
    root = rho ** (1.0 / m)
    log_rho = math.log(rho)
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
    }
    if abs(log_rho - round(log_rho)) < 1e-9 and round(log_rho) >= 1 and m % g == 0:
        bounds["partitioned_upper"] = math.e * log_rho + 1.0
    if m == 1:
        k = randomized_virtual_machines(epsilon)
        bounds["randomized_single_upper"] = k * k * rho ** (1.0 / k) + k
    return bounds


def bound_for_algorithm(algorithm: str, m: int, epsilon: float) -> tuple[float | None, str]:
    """The guarantee that applies to a policy's measured ratio, if any."""
    bounds = theoretical_bounds(m, epsilon)
    if algorithm == "alg1+2":
        return bounds["preemptive_upper"], "preemptive_upper"
    if algorithm == "alg3":
        return bounds["nonpreemptive_upper"], "nonpreemptive_upper"
    if algorithm == "alg3-partitioned":
        if bounds["partitioned_upper"] is not None:
            return bounds["partitioned_upper"], "partitioned_upper"
        return None, "none"
    if algorithm == "greedy-p" and m == 1:
        return (1.0 + epsilon) / epsilon, "greedy_single_machine"
    if algorithm == "greedy-np" and m == 1:
        return 2.0 + 1.0 / epsilon, "greedy_single_machine"
    # Randomized guarantee holds in expectation only; not per run.
    return None, "none"


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
    rng = random.Random(seed)
    releases = sorted(rng.uniform(0.0, release_span) for _ in range(n))
    jobs = []
    for i, r in enumerate(releases):
        p = math.exp(rng.uniform(0.0, math.log(8.0)))
        stretch = 1.0 if rng.random() < slack_mix else rng.uniform(1.0, 3.0)
        jobs.append(Job(i, r, p, r + (1.0 + epsilon) * p * stretch))
    inst = Instance(epsilon=epsilon, machines=m, jobs=tuple(jobs))
    assert validate_instance(inst) == []
    return inst


@dataclass
class ExperimentConfig:
    algorithm: str
    m: int = 1
    epsilon: float = 1.0
    source: str = "random"  # random | file | adversary
    n: int = 8
    count: int = 1
    seed: int = 0
    release_span: float = 10.0
    slack_mix: float = 0.5
    instance_file: str | None = None
    adversary_family: str | None = None  # preemptive | nonpreemptive
    delta: float = 1.0 / 64
    oracle: bool = False
    assert_level: int = 0
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if self.source not in ("random", "file", "adversary"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == "file" and not self.instance_file:
            raise ValueError("file source needs instance_file")
        if self.source == "adversary" and self.adversary_family not in ("preemptive", "nonpreemptive"):
            raise ValueError("adversary source needs adversary_family 'preemptive' or 'nonpreemptive'")
        if self.algorithm == "alg3-randomized" and self.m != 1:
            raise ValueError("alg3-randomized runs on a single machine")


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


CSV_COLUMNS = [
    "instance_id",
    "algorithm",
    "m",
    "epsilon",
    "alg_volume",
    "opt_volume",
    "ratio",
    "bound",
    "bound_name",
    "margin",
]


def run_algorithm(algorithm: str, instance: Instance, assert_level: int = 0, seed: int = 0) -> float:
    """Run one policy over one instance; returns the accepted volume."""
    policy = make_policy(algorithm, instance.machines, instance.epsilon, assert_level, seed)
    return drive(policy, instance).accepted_volume


def _ratio(opt_volume: float | None, alg_volume: float) -> float | None:
    if opt_volume is None:
        return None
    if opt_volume <= 0.0 and alg_volume <= 0.0:
        return 1.0
    if alg_volume <= 0.0:
        return math.inf
    return opt_volume / alg_volume


def _oracle_volume(algorithm: str, instance: Instance) -> float | None:
    if algorithm in NONPREEMPTIVE_ALGS:
        if len(instance) > MAX_NONPREEMPTIVE_JOBS:
            return None
        return opt_nonpreemptive(instance)
    if len(instance) > MAX_PREEMPTIVE_JOBS:
        return None
    return opt_preemptive(instance)


def _instances(config: ExperimentConfig) -> Iterable[tuple[int, Instance]]:
    if config.source == "file":
        yield 0, read_instance(config.instance_file)
        return
    for i in range(config.count):
        yield i, random_instance(
            config.n,
            config.m,
            config.epsilon,
            seed=config.seed + i,
            release_span=config.release_span,
            slack_mix=config.slack_mix,
        )


def run(config: ExperimentConfig) -> tuple[list[RatioRow], bool]:
    """Execute the configured experiment.

    Returns the rows and a flag that is False when any applicable bound
    was exceeded by more than 1e-6 or an invariant failed.
    """
    if config.source == "adversary":
        rows, ok, _ = stress_run(config)
        return rows, ok
    rows: list[RatioRow] = []
    ok = True
    for instance_id, instance in _instances(config):
        alg_volume = run_algorithm(
            config.algorithm, instance, assert_level=config.assert_level, seed=config.seed
        )
        opt_volume = _oracle_volume(config.algorithm, instance) if config.oracle else None
        ratio = _ratio(opt_volume, alg_volume)
        bound, bound_name = bound_for_algorithm(config.algorithm, config.m, config.epsilon)
        margin = None
        if ratio is not None and bound is not None and not math.isinf(ratio):
            margin = bound - ratio
            if ratio > bound + 1e-6:
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
    if config.out_dir:
        write_outputs(rows, config)
    return rows, ok


def stress_run(config: ExperimentConfig) -> tuple[list[RatioRow], bool, StressOutcome]:
    """Replay the configured stress generator.

    Returns the ratio row, a flag that is False when the measured ratio
    falls short of the lower bound by more than the delta slack, and the
    replay itself.
    """
    if config.adversary_family == "preemptive":
        if config.algorithm not in ("alg1+2", "greedy-p"):
            raise ValueError("preemptive adversary drives alg1+2 or greedy-p")
        outcome = replay_preemptive(
            config.m,
            config.epsilon,
            delta=config.delta,
            algorithm=config.algorithm,
            assert_level=config.assert_level,
        )
        lb_slack = 10.0 * outcome.delta
    else:
        if config.algorithm not in ("alg3", "greedy-np"):
            raise ValueError("nonpreemptive adversary drives alg3 or greedy-np")
        outcome = replay_nonpreemptive(
            config.m, config.epsilon, delta=config.delta, algorithm=config.algorithm
        )
        lb_slack = 5.0 * outcome.delta * config.m
    ratio = outcome.ratio
    bound = outcome.lower_bound
    rows = [
        RatioRow(
            instance_id=0,
            algorithm=config.algorithm,
            m=config.m,
            epsilon=config.epsilon,
            alg_volume=outcome.alg_volume,
            opt_volume=outcome.opt_volume,
            ratio=ratio,
            bound=bound,
            bound_name="stress_lower_bound",
            margin=None if math.isinf(ratio) else ratio - bound,
        )
    ]
    ok = math.isinf(ratio) or ratio >= bound - lb_slack
    if config.out_dir:
        write_outputs(rows, config)
    return rows, ok, outcome


def write_outputs(rows: Sequence[RatioRow], config: ExperimentConfig) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "ratios.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in sorted(rows, key=lambda r: r.instance_id):
            writer.writerow(row.as_record())
    write_bound_curves(os.path.join(config.out_dir, "bounds_vs_m.txt"), config.epsilon)
    write_ratio_histogram(os.path.join(config.out_dir, "ratio_hist.txt"), rows)


def write_bound_curves(path: str, epsilon: float, max_m: int = 16) -> None:
    """Columnar bound-vs-machine-count table for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "# m preemptive_upper preemptive_lower nonpreemptive_upper nonpreemptive_lower\n"
        )
        for m in range(1, max_m + 1):
            b = theoretical_bounds(m, epsilon)
            lower = b["nonpreemptive_lower"]
            fh.write(
                f"{m} {b['preemptive_upper']:.9g} {b['preemptive_lower']:.9g} "
                f"{b['nonpreemptive_upper']:.9g} {lower if lower is None else format(lower, '.9g')}\n"
            )


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
