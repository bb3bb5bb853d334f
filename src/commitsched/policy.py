"""The algorithm table: each name's factory, family, guarantee and stress-game
support, and ``make_policy``, which builds a fresh ``model.Policy`` for a name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import nonpreemptive, preemptive
from .model import Policy, check_policy_args


@dataclass(frozen=True)
class Algorithm:
    """One row of the algorithm table."""

    factory: Callable[[int, float, int, int], Policy]  # (machines, epsilon, assert_level, seed)
    preemptive: bool  # the family; it picks the exact oracle and the stress generator
    guarantee: str | None  # the ``harness.theoretical_bounds`` key of a per-run guarantee
    stress: bool  # whether the family's stress generator plays it


#: Everything the package knows about an algorithm name, one row each.
ALGORITHM_TABLE: dict[str, Algorithm] = {
    "alg1+2": Algorithm(
        lambda m, eps, level, seed: preemptive.PreemptiveSimulator(m, eps, level, "lazy"),
        preemptive=True, guarantee="preemptive_upper", stress=True,
    ),
    "alg3": Algorithm(
        lambda m, eps, level, seed: nonpreemptive.NonpreemptiveSimulator(m, eps),
        preemptive=False, guarantee="nonpreemptive_upper", stress=True,
    ),
    "alg3-partitioned": Algorithm(
        lambda m, eps, level, seed: nonpreemptive.PartitionedAllocator(m, eps),
        preemptive=False, guarantee="partitioned_upper", stress=False,
    ),
    # Its guarantee holds in expectation only, not per run.
    "alg3-randomized": Algorithm(
        lambda m, eps, level, seed: nonpreemptive.RandomizedAllocator(m, eps, seed),
        preemptive=False, guarantee=None, stress=False,
    ),
    "greedy-p": Algorithm(
        lambda m, eps, level, seed: preemptive.PreemptiveSimulator(m, eps, level, "greedy"),
        preemptive=True, guarantee="greedy_p_single_upper", stress=True,
    ),
    "greedy-np": Algorithm(
        lambda m, eps, level, seed: nonpreemptive.GreedyAllocator(m, eps),
        preemptive=False, guarantee="greedy_np_single_upper", stress=True,
    ),
}

ALGORITHMS = tuple(ALGORITHM_TABLE)


def stress_algorithms(preemptive: bool) -> tuple[str, ...]:
    """The algorithms of one family that the family's stress generator plays."""
    return tuple(name for name, row in ALGORITHM_TABLE.items() if row.stress and row.preemptive == preemptive)


def make_policy(algorithm: str, machines: int, epsilon: float, assert_level: int = 0, seed: int = 0) -> Policy:
    """A fresh online object for ``algorithm``.  ``assert_level``, one of
    ``model.ASSERT_LEVELS`` for every algorithm, applies to the preemptive
    policies, ``seed`` to the randomized one."""
    if algorithm not in ALGORITHM_TABLE:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    check_policy_args(machines, epsilon, assert_level)
    return ALGORITHM_TABLE[algorithm].factory(machines, epsilon, assert_level, seed)

