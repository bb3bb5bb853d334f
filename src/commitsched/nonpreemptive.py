"""Non-preemptive online allocation with machine and start-time commitment.

A job accepted at its release is bound immediately to one machine and
starts as soon as that machine frees up, so only the machine free times
matter.  Admission compares the job's deadline against the load threshold
``d_lim``: the maximum over the m machines of a group, ranked by
decreasing load, of ``load * ((1+eps)/eps)^(rank/m) + t``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, NoReturn

from .model import (
    CHECK_SLACK,
    TOL,
    CommittedStart,
    DecisionLog,
    DecisionRecord,
    Instance,
    InvariantError,
    Job,
    NonpreemptiveResult,
    Schedule,
    Segment,
    check_policy_args,
    drive,
    rho,
)


class CommitmentError(InvariantError):
    """A committed start would miss its deadline; the policy forbids this."""


def d_lim(loads: Iterable[float], t: float, m: int, epsilon: float) -> float:
    """Load threshold: max over load ranks of load * rho^(rank/m) + t.

    Ranks are 1-based over loads sorted in nonincreasing order; zero loads
    contribute exactly t.
    """
    r = rho(epsilon)
    ranked = sorted(loads, reverse=True)
    if len(ranked) != m:
        raise ValueError(f"expected {m} loads, got {len(ranked)}")
    best = t
    for i, load in enumerate(ranked, start=1):
        best = max(best, load * r ** (i / m) + t)
    return best


class _Commitments:
    """Decision log, committed starts and accepted volume of one
    non-preemptive policy run."""

    def __init__(self) -> None:
        self.decisions = DecisionLog()
        self.starts: list[CommittedStart] = []
        self._volume = 0.0

    def _record(self, job: Job, threshold: float | None, placed: CommittedStart | None) -> CommittedStart | None:
        self.decisions.add(DecisionRecord(job.id, placed is not None, job.release, threshold))
        if placed is not None:
            self.starts.append(placed)
            self._volume += job.processing
        return placed

    def accepted_volume(self) -> float:
        return self._volume

    def finish(self) -> NonpreemptiveResult:
        return NonpreemptiveResult(self.decisions, self.starts, self._volume)


def _weights(machines: int, r: float) -> list[float]:
    """Weight of ascending load position j, which is load rank machines - j:
    the floats ``d_lim`` uses."""
    return [r ** ((machines - j) / machines) for j in range(machines)]


def _peak_top_two(
    ascending: list[float], weights: list[float], lo: int, hi: int, t: float
) -> tuple[float, float]:
    """One pass over the ascending free times ``ascending[lo:hi]`` at clock ``t``.

    A load max(f - t, 0) ascends with its free time f, so position j holds
    the same load as the sorted loads do, and ``weights[j]`` is its weight.
    Returns the weighted peak max(load * weight) and the two largest loads
    summed (for one machine the second reads as zero).  The threshold is
    peak + t, which equals d_lim's max(t, load * weight + t) bit for bit:
    the terms are >= 0 and adding t rounds monotonically.
    """
    peak = 0.0
    for j in range(lo, hi):
        f = ascending[j]
        if f > t:  # an idle machine's term is zero
            term = (f - t) * weights[j]
            if term > peak:
                peak = term
    f = ascending[hi - 1]
    top_two = f - t if f > t else 0.0
    if hi - lo > 1:
        f = ascending[hi - 2]
        top_two += f - t if f > t else 0.0
    return peak, top_two


def _check_load_sum(peak: float, top_two: float, rho_down: float, t: float) -> NoReturn:
    """Raise the load-sum breach that ``place`` found: the two largest loads
    always cover the weighted peak scaled back by rho^(-1/m)."""
    raise InvariantError(f"load-sum invariant violated at t={t}: {top_two} < {peak * rho_down}")


def _check_usable_interval(job: Job, top_two: float, rho_up: float) -> NoReturn:
    """Raise the usable-interval breach that ``place`` found: a rejected
    job's window is at most the two largest loads scaled up by rho^(1/m)."""
    raise InvariantError(
        f"rejected job {job.id} has window {job.deadline - job.release} beyond "
        f"the usable bound {top_two * rho_up}"
    )


def _best_trial(asc: list[float], w: list[float], t: float, p: float) -> int:
    """Ascending position of the machine whose trial placement of ``p``
    minimises (d_lim after it, pre-load, machine id), given the ascending
    loads ``asc`` at clock ``t`` and their weights ``w``.

    Adding p at position j moves that load up to position k >= j; only
    positions j+1..k shift down by one, and each of them takes the
    weight one rank lower.  So a trial's threshold is the max of the
    unchanged terms below j and above k, the moved load's term at k,
    and the shifted terms, plus t: the same floats as d_lim of the
    trial loads.  Equal loads give equal trials, so only the first of
    them is scored, and the position returned is the first of its equal
    loads.

    The scan keeps the best score and its pre-load as two floats and takes
    the max of the four terms by comparisons, the shifted slice's only when
    it is not empty: every term is a float >= 0 and never -0.0, so each
    score is the float the four-way ``max`` gives.
    """
    terms = [load * weight for load, weight in zip(asc, w)]
    # below[j]: max of terms[:j]; above[k]: max of terms[k:]; shifted[i - 1]:
    # the term of asc[i] one rank lower.
    below = list(accumulate(terms, max, initial=0.0))
    above = list(accumulate(reversed(terms), max, initial=0.0))[::-1]
    shifted = [load * weight for load, weight in zip(asc[1:], w)]
    best_score = best_load = math.inf
    position = 0
    for j, load in enumerate(asc):
        low = below[j]
        if low + t > best_score:
            break  # below[] only grows and bounds every later trial from below
        if j and load == asc[j - 1]:
            continue
        moved = load + p
        k = bisect_left(asc, moved, j + 1) - 1
        score = moved * w[k]
        if low > score:
            score = low
        high = above[k + 1]
        if high > score:
            score = high
        if k > j:
            high = max(shifted[j:k])
            if high > score:
                score = high
        score += t
        if score < best_score or (score == best_score and load < best_load):
            best_score, best_load, position = score, load, j
    return position


def _commit(free: list[float], weights: list[float], lo: int, hi: int, t: float, job: Job) -> CommittedStart:
    """The full ranking, built only for an accepted ``job``: place it at
    clock ``t`` on the machine of ``lo..hi-1`` whose trial placement scores
    best, and move that machine's free time.  ``weights[lo:hi]`` are the
    group's ascending-position weights.

    The ranking is read from ``free`` itself.  ``_best_trial`` returns the
    first position of its load, and the placement ties to the lowest id,
    so the machine is the lowest id that holds that load: no sort of the
    ids is needed."""
    loads = [f - t if f > t else 0.0 for f in free[lo:hi]]
    ranked = sorted(loads)
    position = _best_trial(ranked, weights[lo:hi], t, job.processing)
    machine = lo + loads.index(ranked[position])
    start = max(t, free[machine])
    if start + job.processing > job.deadline + TOL:
        raise CommitmentError(
            f"job {job.id} placed at {start} would finish {start + job.processing} "
            f"past deadline {job.deadline}"
        )
    free[machine] = start + job.processing
    return CommittedStart(job.id, machine, start)


class NonpreemptiveSimulator(_Commitments):
    """Threshold-based online allocation on ``machines`` identical machines.

    The machines form groups, each a slice ``base:end`` of one flat
    free-time vector ``free`` with its own ascending copy and clock (the
    latest release offered to it).  Algorithm 3 is one group of all m
    machines; ``PartitionedAllocator`` cuts smaller ones.  A job is offered
    to the groups in order until one accepts it.  An offer is one pass over
    the group's ascending free times (``_peak_top_two``): it gives the
    threshold (``d_lim`` of the group's loads and clock) and the two
    largest loads the checks read.  Only the group that accepts builds the
    full ranking, which scores its trial placements (``_commit``), and
    re-sorts its ascending slice.
    """

    def __init__(self, machines: int, epsilon: float) -> None:
        check_policy_args(machines, epsilon)
        super().__init__()
        self.machines = machines
        self.epsilon = epsilon
        g = self._group_size(machines, epsilon)
        r = rho(epsilon)
        self.free = [0.0] * machines  # absolute time each machine frees up, by machine id
        self._ascending = [0.0] * machines  # each group's free times, ascending within its slice
        self._weights: list[float] = []  # each slice's ascending-position weights
        # (base, end, rho^(-1/size), rho^(1/size)): the group's slice and its checks' factors.
        self.groups: list[tuple[int, int, float, float]] = []
        for base in range(0, machines, g):
            size = min(g, machines - base)
            self.groups.append((base, base + size, r ** (-1.0 / size), r ** (1.0 / size)))
            self._weights += _weights(size, r)
        self._clocks = [0.0] * len(self.groups)

    def _group_size(self, machines: int, epsilon: float) -> int:
        """Machines per group: all of them, so Algorithm 3 has one group."""
        return machines

    @property
    def clock(self) -> float:
        """The first group's clock: every job is offered to it, so it is
        the latest release."""
        return self._clocks[0]

    @property
    def loads(self) -> list[float]:
        """Each machine's remaining work at the clock, by id."""
        t = self.clock
        return [f - t if f > t else 0.0 for f in self.free]

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``."""
        clock = self._clocks[0]
        if t < clock - TOL:
            raise ValueError(f"time moves backwards: {clock} -> {t}")
        if t > clock:
            self._clocks[0] = t

    def submit(self, job: Job) -> CommittedStart | None:
        self.advance_to(job.release)
        return self.on_arrival(job)

    def on_arrival(self, job: Job) -> CommittedStart | None:
        limit, placed = self.place(job)
        return self._record(job, limit, placed)

    def place(self, job: Job) -> tuple[float, CommittedStart | None]:
        """Decide ``job`` at the current clock without recording it: the
        threshold of the group that accepted it, or of the last group
        offered it, and its placement, or None on rejection.

        Every offer runs both checks on its pass: the load-sum invariant
        before the admission test (and again after an acceptance), and the
        usable-interval bound after a rejection.  Each condition is tested
        here; its helper is called only to raise the breach."""
        release = job.release
        deadline = job.deadline
        window = deadline - release
        clocks = self._clocks
        if abs(release - clocks[0]) > TOL:
            raise ValueError(f"arrival handled at clock {clocks[0]} != release {release}; advance first")
        asc, weights = self._ascending, self._weights
        placed = None
        for k, (base, end, rho_down, rho_up) in enumerate(self.groups):
            t = clocks[k]
            if release > t:
                clocks[k] = t = release
            peak, top_two = _peak_top_two(asc, weights, base, end, t)
            if top_two < peak * rho_down - CHECK_SLACK:
                _check_load_sum(peak, top_two, rho_down, t)
            limit = peak + t
            if deadline >= limit - TOL:
                placed = _commit(self.free, weights, base, end, t, job)
                asc[base:end] = sorted(self.free[base:end])
                peak, top_two = _peak_top_two(asc, weights, base, end, t)
                if top_two < peak * rho_down - CHECK_SLACK:
                    _check_load_sum(peak, top_two, rho_down, t)
                break
            if window > top_two * rho_up + CHECK_SLACK:
                _check_usable_interval(job, top_two, rho_up)
        return limit, placed


def simulate_nonpreemptive(instance: Instance) -> NonpreemptiveResult:
    """Run the threshold policy over a full instance."""
    return drive(NonpreemptiveSimulator(instance.machines, instance.epsilon), instance)


def partition_group_size(epsilon: float) -> int:
    """Group size for the partitioned variant: round(ln((1+eps)/eps)), >= 1."""
    return max(1, round(math.log(rho(epsilon))))


class PartitionedAllocator(NonpreemptiveSimulator):
    """The threshold allocator over near-log-sized groups: a job rejected
    by one group cascades to the next.  Remainder machines (when the group
    size does not divide m) form a final smaller group."""

    def _group_size(self, machines: int, epsilon: float) -> int:
        g = partition_group_size(epsilon)
        if machines < g:
            raise ValueError(f"need at least {g} machines for the partitioned variant, got {machines}")
        return g


def simulate_partitioned(instance: Instance) -> NonpreemptiveResult:
    """Run the partitioned threshold policy over a full instance."""
    return drive(PartitionedAllocator(instance.machines, instance.epsilon), instance)


def randomized_virtual_machines(epsilon: float) -> int:
    """Virtual machine count minimising m^2 * rho^(1/m) + m over the two
    integers bracketing ln(rho)."""
    r = rho(epsilon)
    log = math.log(r)
    candidates = sorted({max(1, math.floor(log)), max(1, math.ceil(log))})
    return min(candidates, key=lambda m: (m * m * r ** (1.0 / m) + m, m))


class RandomizedAllocator(_Commitments):
    """Randomized single-machine policy: the threshold allocator runs on
    virtual machines, and only the jobs it places on one of them, drawn
    uniformly from the seed before the first job, are accepted."""

    def __init__(self, machines: int, epsilon: float, seed: int) -> None:
        check_policy_args(machines, epsilon)
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
        return self._record(job, limit, placed)


def randomized_single_parts(instance: Instance) -> tuple[int, list[list[CommittedStart]]]:
    """The virtual-machine decomposition behind the randomized policy.

    Runs the threshold allocator on the virtual machine count and splits
    the committed starts by virtual machine; the randomized policy keeps
    exactly one of these parts.
    """
    virtual = RandomizedAllocator(instance.machines, instance.epsilon, 0).virtual
    parts: list[list[CommittedStart]] = [[] for _ in range(virtual.machines)]
    for cs in drive(virtual, instance).starts:
        parts[cs.machine].append(cs)
    return virtual.machines, parts


def simulate_randomized_single(instance: Instance, seed: int) -> NonpreemptiveResult:
    """Run the randomized single-machine policy over a full instance."""
    return drive(RandomizedAllocator(instance.machines, instance.epsilon, seed), instance)


class GreedyAllocator(_Commitments):
    """Baseline: accept whenever some machine can still meet the deadline, that
    is, when the earliest completion does, and place the job there (ties to the lowest id).

    A machine's completion is its free time or the release, whichever is
    later, plus the processing time, taken by one comparison per machine."""

    def __init__(self, machines: int) -> None:
        check_policy_args(machines)
        super().__init__()
        self.clock = 0.0
        self.free = [0.0] * machines  # absolute time each machine frees up

    def submit(self, job: Job) -> CommittedStart | None:
        if job.release < self.clock - TOL:
            raise ValueError(f"job {job.id} released at {job.release} before clock {self.clock}")
        self.clock = max(self.clock, job.release)
        r, p = job.release, job.processing
        ends = [(f if f > r else r) + p for f in self.free]
        machine = ends.index(min(ends))
        if ends[machine] > job.deadline + TOL:
            return self._record(job, None, None)
        start = max(job.release, self.free[machine])
        self.free[machine] = ends[machine]
        return self._record(job, None, CommittedStart(job.id, machine, start))


def greedy_nonpreemptive(instance: Instance) -> NonpreemptiveResult:
    """Run the greedy baseline over a full instance."""
    return drive(GreedyAllocator(instance.machines), instance)


def committed_schedule(result: NonpreemptiveResult, instance: Instance) -> Schedule:
    """Materialise committed starts as segments on the instance's machines,
    for verification."""
    by_id = {j.id: j for j in instance.jobs}
    return Schedule(
        instance.machines,
        [Segment(cs.machine, cs.job, cs.start, cs.start + by_id[cs.job].processing) for cs in result.starts],
    )
