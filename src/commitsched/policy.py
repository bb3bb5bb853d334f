"""One interface and one driver loop for every admission policy.

Each policy is an online object: ``submit(job)`` decides the job at its
release, returning a truthy placement (True, or the committed start) on
acceptance and a falsy value on rejection, and ``finish()`` returns the
run's result.  ``drive`` feeds a whole instance through such an object.
"""

from __future__ import annotations

from typing import IO, Callable, Protocol

from . import nonpreemptive, preemptive
from .model import DecisionLog, Instance, Job, validate_instance


class Policy(Protocol):
    """An online admission policy; ``decisions`` holds one record per
    submitted job."""

    decisions: DecisionLog

    def submit(self, job: Job) -> bool | nonpreemptive.CommittedStart | None: ...

    def finish(self) -> preemptive.SimulationResult | nonpreemptive.NonpreemptiveResult: ...


#: name -> factory(machines, epsilon, assert_level, seed).
_FACTORIES: dict[str, Callable[[int, float, int, int], Policy]] = {
    "alg1+2": lambda m, eps, level, seed: preemptive.PreemptiveSimulator(m, eps, level, "lazy"),
    "alg3": lambda m, eps, level, seed: nonpreemptive.NonpreemptiveSimulator(m, eps),
    "alg3-partitioned": lambda m, eps, level, seed: nonpreemptive.PartitionedAllocator(m, eps),
    "alg3-randomized": lambda m, eps, level, seed: nonpreemptive.RandomizedAllocator(m, eps, seed),
    "greedy-p": lambda m, eps, level, seed: preemptive.PreemptiveSimulator(m, eps, level, "greedy"),
    "greedy-np": lambda m, eps, level, seed: nonpreemptive.GreedyAllocator(m),
}

ALGORITHMS = tuple(_FACTORIES)


def make_policy(algorithm: str, machines: int, epsilon: float, assert_level: int = 0, seed: int = 0) -> Policy:
    """A fresh online object for ``algorithm``.  ``assert_level`` applies to
    the preemptive policies, ``seed`` to the randomized one."""
    if algorithm not in _FACTORIES:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    return _FACTORIES[algorithm](machines, epsilon, assert_level, seed)


def drive(
    policy: Policy, instance: Instance, trace: IO[str] | None = None
) -> preemptive.SimulationResult | nonpreemptive.NonpreemptiveResult:
    """Validate ``instance``, submit its jobs in order and return
    ``policy.finish()``.  With ``trace``, write one line per decision:
    time, job, outcome and threshold (``none`` for the greedy baselines)."""
    problems = validate_instance(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(str(v) for v in problems))
    for job in instance.jobs:
        policy.submit(job)
        if trace is not None:
            r = policy.decisions[job.id]
            threshold = "none" if r.threshold is None else f"{r.threshold:.9g}"
            trace.write(f"{r.time:.9g} job={r.job} {'accept' if r.accepted else 'reject'} threshold={threshold}\n")
    return policy.finish()
