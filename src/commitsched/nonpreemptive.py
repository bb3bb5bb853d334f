"""Non-preemptive online allocation with machine and start-time commitment.

A job accepted at its release is bound immediately to one machine and
starts as soon as that machine's outstanding load drains, so only the
per-machine loads matter.  Admission compares the job's deadline against
the load threshold ``d_lim``: the maximum over machines, ranked by
decreasing load, of ``load * ((1+eps)/eps)^(rank/m) + t``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from . import policy as driver  # a module import: policy imports this module
from .model import (
    TOL,
    DecisionLog,
    DecisionRecord,
    Instance,
    InvariantError,
    Job,
    Schedule,
    Segment,
)


class CommitmentError(InvariantError):
    """A committed start would miss its deadline; the policy forbids this."""


@dataclass(frozen=True)
class CommittedStart:
    """The irrevocable placement handed out at acceptance time."""

    job: int
    machine: int
    start: float


@dataclass
class NonpreemptiveResult:
    decisions: DecisionLog
    starts: list[CommittedStart]
    accepted_volume: float


def d_lim(loads: Iterable[float], t: float, m: int, epsilon: float) -> float:
    """Load threshold: max over load ranks of load * rho^(rank/m) + t.

    Ranks are 1-based over loads sorted in nonincreasing order; zero loads
    contribute exactly t.
    """
    rho = (1.0 + epsilon) / epsilon
    ranked = sorted(loads, reverse=True)
    if len(ranked) != m:
        raise ValueError(f"expected {m} loads, got {len(ranked)}")
    best = t
    for i, load in enumerate(ranked, start=1):
        best = max(best, load * rho ** (i / m) + t)
    return best


class _Commitments:
    """Decision log, committed starts and accepted volume of one
    non-preemptive policy run."""

    def __init__(self) -> None:
        self.decisions = DecisionLog()
        self.starts: list[CommittedStart] = []
        self._volume = 0.0

    def _record(
        self, job: Job, time: float, threshold: float | None, placed: CommittedStart | None
    ) -> CommittedStart | None:
        self.decisions.add(DecisionRecord(job.id, placed is not None, time, threshold))
        if placed is not None:
            self.starts.append(placed)
            self._volume += job.processing
        return placed

    def accepted_volume(self) -> float:
        return self._volume

    def finish(self) -> NonpreemptiveResult:
        return NonpreemptiveResult(self.decisions, self.starts, self._volume)


class NonpreemptiveSimulator(_Commitments):
    """Threshold-based online allocation on ``machines`` identical machines.

    ``limit`` is ``d_lim`` of the current loads and clock.  It is computed
    once per state: after each clock advance, and after each acceptance,
    where the winning trial placement already evaluated it.
    """

    def __init__(self, machines: int, epsilon: float) -> None:
        super().__init__()
        self.machines = machines
        self.epsilon = epsilon
        self.clock = 0.0
        self.loads = [0.0] * machines  # outstanding work per stable machine id
        self.limit = 0.0  # d_lim of zero loads at time 0

    def advance_to(self, t: float) -> None:
        """Decay every load by the elapsed time, floored at zero."""
        if t < self.clock - TOL:
            raise ValueError(f"time moves backwards: {self.clock} -> {t}")
        dt = max(0.0, t - self.clock)
        self.loads = [max(0.0, load - dt) for load in self.loads]
        self.clock = max(self.clock, t)
        self.limit = d_lim(self.loads, self.clock, self.machines, self.epsilon)
        self._check_load_sum()

    def submit(self, job: Job) -> CommittedStart | None:
        self.advance_to(job.release)
        return self.on_arrival(job)

    def on_arrival(self, job: Job) -> CommittedStart | None:
        limit, placed = self.place(job)
        return self._record(job, self.clock, limit, placed)

    def place(self, job: Job) -> tuple[float, CommittedStart | None]:
        """Decide ``job`` at the current clock without recording it: the
        threshold it was compared against and its placement, or None on
        rejection."""
        if abs(job.release - self.clock) > TOL:
            raise RuntimeError(
                f"arrival handled at clock {self.clock} != release {job.release}; advance first"
            )
        limit = self.limit
        if job.deadline < limit - TOL:
            self._check_usable_interval(job)
            return limit, None
        # Try every placement; keep the one minimising the post-acceptance
        # threshold, breaking ties by smaller pre-load then machine id.
        best: tuple[float, float, int] | None = None
        for i in range(self.machines):
            trial = list(self.loads)
            trial[i] += job.processing
            cand = d_lim(trial, self.clock, self.machines, self.epsilon)
            key = (cand, self.loads[i], i)
            if best is None or key < best:
                best = key
        assert best is not None
        after, pre_load, machine = best
        start = self.clock + pre_load
        if start + job.processing > job.deadline + TOL:
            raise CommitmentError(
                f"job {job.id} placed at {start} would finish {start + job.processing} "
                f"past deadline {job.deadline}"
            )
        # The winning trial is these loads, so ``after`` is their d_lim.
        self.loads[machine] += job.processing
        self.limit = after
        self._check_load_sum()
        return limit, CommittedStart(job.id, machine, start)

    # -- invariants -------------------------------------------------------

    def _top_two_and_rho(self) -> tuple[float, float]:
        # The two largest loads summed (for m=1 the second reads as zero), and rho.
        ranked = sorted(self.loads, reverse=True)
        return ranked[0] + (ranked[1] if len(ranked) > 1 else 0.0), (1.0 + self.epsilon) / self.epsilon

    def _check_load_sum(self) -> None:
        # The two largest loads always cover the threshold scaled back by rho^(-1/m).
        top_two, rho = self._top_two_and_rho()
        need = (self.limit - self.clock) * rho ** (-1.0 / self.machines)
        if top_two < need - 1e-7:
            raise InvariantError(
                f"load-sum invariant violated at t={self.clock}: {top_two} < {need}"
            )

    def _check_usable_interval(self, job: Job) -> None:
        top_two, rho = self._top_two_and_rho()
        if job.deadline - job.release > top_two * rho ** (1.0 / self.machines) + 1e-7:
            raise InvariantError(
                f"rejected job {job.id} has window {job.deadline - job.release} beyond "
                f"the usable bound {top_two * rho ** (1.0 / self.machines)}"
            )


def simulate_nonpreemptive(instance: Instance) -> NonpreemptiveResult:
    """Run the threshold policy over a full instance."""
    return driver.drive(NonpreemptiveSimulator(instance.machines, instance.epsilon), instance)


def partition_group_size(epsilon: float) -> int:
    """Group size for the partitioned variant: round(ln((1+eps)/eps)), >= 1."""
    return max(1, round(math.log((1.0 + epsilon) / epsilon)))


class PartitionedAllocator(_Commitments):
    """Partition the machines into near-log-sized groups and cascade offers.

    Every job is offered to the first group's allocator; a rejection there
    passes the job to the next group, and so on.  Remainder machines (when
    the group size does not divide m) form a final smaller group.
    """

    def __init__(self, machines: int, epsilon: float) -> None:
        super().__init__()
        g = partition_group_size(epsilon)
        if machines < g:
            raise ValueError(f"need at least {g} machines for the partitioned variant, got {machines}")
        sizes = [g] * (machines // g)
        if machines % g:
            sizes.append(machines % g)
        self.groups = [(g * i, NonpreemptiveSimulator(size, epsilon)) for i, size in enumerate(sizes)]

    def submit(self, job: Job) -> CommittedStart | None:
        for base, group in self.groups:
            group.advance_to(job.release)
            limit, placed = group.place(job)
            if placed is not None:
                placed = CommittedStart(job.id, base + placed.machine, placed.start)
                break
        # The threshold of the group that accepted, or of the last one offered.
        return self._record(job, job.release, limit, placed)


def simulate_partitioned(instance: Instance) -> NonpreemptiveResult:
    """Run the partitioned threshold policy over a full instance."""
    return driver.drive(PartitionedAllocator(instance.machines, instance.epsilon), instance)


def randomized_virtual_machines(epsilon: float) -> int:
    """Virtual machine count minimising m^2 * rho^(1/m) + m over the two
    integers bracketing ln(rho)."""
    rho = (1.0 + epsilon) / epsilon
    log = math.log(rho)
    candidates = sorted({max(1, math.floor(log)), max(1, math.ceil(log))})
    return min(candidates, key=lambda m: (m * m * rho ** (1.0 / m) + m, m))


class RandomizedAllocator(_Commitments):
    """Randomized single-machine policy: the threshold allocator runs on
    virtual machines, and only the jobs it places on one of them, drawn
    uniformly from the seed before the first job, are accepted."""

    def __init__(self, machines: int, epsilon: float, seed: int) -> None:
        super().__init__()
        if machines != 1:
            raise ValueError("randomized wrapper is defined for single-machine instances")
        self.virtual = NonpreemptiveSimulator(randomized_virtual_machines(epsilon), epsilon)
        self.pick = random.Random(seed).randrange(self.virtual.machines)

    def submit(self, job: Job) -> CommittedStart | None:
        self.virtual.advance_to(job.release)
        limit, placed = self.virtual.place(job)
        if placed is not None:
            placed = CommittedStart(job.id, 0, placed.start) if placed.machine == self.pick else None
        return self._record(job, job.release, limit, placed)


def randomized_single_parts(instance: Instance) -> tuple[int, list[list[CommittedStart]]]:
    """The virtual-machine decomposition behind the randomized policy.

    Runs the threshold allocator on the virtual machine count and splits
    the committed starts by virtual machine; the randomized policy keeps
    exactly one of these parts.
    """
    if instance.machines != 1:
        raise ValueError("randomized wrapper is defined for single-machine instances")
    mv = randomized_virtual_machines(instance.epsilon)
    result = driver.drive(NonpreemptiveSimulator(mv, instance.epsilon), instance)
    parts: list[list[CommittedStart]] = [[] for _ in range(mv)]
    for cs in result.starts:
        parts[cs.machine].append(cs)
    return mv, parts


def simulate_randomized_single(instance: Instance, seed: int) -> NonpreemptiveResult:
    """Run the randomized single-machine policy over a full instance."""
    return driver.drive(RandomizedAllocator(instance.machines, instance.epsilon, seed), instance)


class GreedyAllocator(_Commitments):
    """Baseline: accept whenever some machine can still meet the deadline,
    placing the job for the earliest completion (ties to the lowest id)."""

    def __init__(self, machines: int) -> None:
        super().__init__()
        self.free = [0.0] * machines  # absolute time each machine frees up

    def submit(self, job: Job) -> CommittedStart | None:
        options = []
        for i, f_time in enumerate(self.free):
            start = max(job.release, f_time)
            if start + job.processing <= job.deadline + TOL:
                options.append((start + job.processing, i, start))
        placed = None
        if options:
            _, machine, start = min(options)
            self.free[machine] = start + job.processing
            placed = CommittedStart(job.id, machine, start)
        return self._record(job, job.release, None, placed)


def greedy_nonpreemptive(instance: Instance) -> NonpreemptiveResult:
    """Run the greedy baseline over a full instance."""
    return driver.drive(GreedyAllocator(instance.machines), instance)


def committed_schedule(result: NonpreemptiveResult, instance: Instance) -> Schedule:
    """Materialise committed starts as segments on the instance's machines,
    for verification."""
    by_id = {j.id: j for j in instance.jobs}
    return Schedule(
        instance.machines,
        [Segment(cs.machine, cs.job, cs.start, cs.start + by_id[cs.job].processing) for cs in result.starts],
    )
