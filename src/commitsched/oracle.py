"""Exact offline optima for small instances.

Preemptive feasibility with release dates reduces to a max-flow problem:
source -> job (capacity = processing), job -> interval between consecutive
event points inside the job's window (capacity = interval length), and
interval -> sink (capacity = machines * length).  The job set is feasible
iff the max flow equals the total processing time; with a common release
this coincides with the breakpoint capacity test in :mod:`commitsched.vmin`.
The most work that fits before a cut is the max flow of the same network
with the cut as one more event point and sink arcs only before it.  One
builder makes each network as a list of (u, v, capacity) arcs, and each
flow runs once on a solver built from that list.  Event points ascend, so
the intervals inside a job's window are one run, found by bisection.  The
flow is Dinic's algorithm: every source-to-sink path of Horn's network has
three arcs, so its level graphs are shallow and few (on a random 100-job
network, 5 level graphs where Edmonds-Karp runs 861 breadth-first
searches, one per augmenting path).

Optima are found by enumerating job subsets in decreasing-volume order and
returning the first feasible one.  The order is sorted lazily: a batch of
the largest remaining volumes at a time (ties kept whole), starting at 1024
masks and growing fourfold, since most scans stop within the first few
hundred.  A vectorised necessary condition (forced work per interval pair
must fit aggregate capacity) discards most infeasible subsets before any
flow or search runs.  It tests chunks of 64 subsets with one matrix
product; a subset with some pair within the product's rounding bound of
capacity + TOL is re-summed one job row at a time, so every verdict is
that of the row-by-row sum.  The condition ignores that a job runs on one
machine at a time, so some infeasible sets pass it and reach the flow.
Non-preemptive feasibility is a depth-first search over job orders, each
job starting on the machine that is free first.  It prunes a state when
some prefix of its remaining jobs in deadline order, with work W, largest
deadline D and smallest release rmin, holds more work than the machines
can still run in time: W > sum_i max(0, D + TOL - max(free_i, rmin)) + TOL,
with free_i the time machine i becomes free.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import COMMIT_TOL, DUST, TOL, Instance, Job

#: Subset-enumeration limits; beyond these the oracles report "unavailable".
MAX_PREEMPTIVE_JOBS = 16
MAX_NONPREEMPTIVE_JOBS = 10

#: Masks per vectorised step of the subset pre-filter.
_FILTER_CHUNK = 64


class _MaxFlow:
    """Dinic's blocking-flow max-flow (Dinic 1970) on a sparse residual graph.

    ``cap[u]`` maps each neighbour of u, in either arc direction, to the
    residual capacity of u -> v, summed over the (u, v, capacity) arcs it is
    built from; an arc with residual at most ``DUST`` counts as saturated.
    Each round builds the level graph by breadth-first search, then
    saturates it with depth-first augmenting paths that keep a current-arc
    pointer per node, so no arc is rescanned within a round, and drop a
    node from the round once no path to the sink leaves it.  Both searches
    scan neighbours in ascending node order, and the flow is the sum of the
    path bottlenecks in the order they are found.  ``max_flow`` runs once;
    it leaves the residual graph of a maximum flow in ``cap``.
    """

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, float]]) -> None:
        self.n = n
        self.cap: list[dict[int, float]] = [{} for _ in range(n)]
        cap = self.cap
        for u, v, capacity in arcs:
            row = cap[u]
            row[v] = row.get(v, 0.0) + capacity
            cap[v].setdefault(u, 0.0)

    def _levels(self, s: int, t: int, neighbours: list[list[int]]) -> list[int]:
        """Breadth-first distance from s over unsaturated arcs, or -1.

        The search stops at t's distance.  Nodes at that distance other than
        t get -1 too: they lie on no shortest path to t."""
        level = [-1] * self.n
        level[s] = 0
        frontier = [s]
        while frontier and level[t] == -1:
            reached = []
            for u in frontier:
                row, next_level = self.cap[u], level[u] + 1
                for v in neighbours[u]:
                    if level[v] == -1 and row[v] > DUST:
                        level[v] = next_level
                        reached.append(v)
            frontier = reached
        for v in frontier:
            if v != t:
                level[v] = -1
        return level

    def max_flow(self) -> float:
        """The max flow from node 0 to node ``n - 1``."""
        cap, s, t = self.cap, 0, self.n - 1
        neighbours = [sorted(row) for row in cap]
        total = 0.0
        while True:
            level = self._levels(s, t, neighbours)
            if level[t] == -1:
                return total
            arc = [0] * self.n
            path = [s]
            u = s
            while True:
                if u == t:
                    # Augment, then retreat to the tail of the first arc the
                    # path saturated: the loop runs backwards, so ``keep``
                    # ends at the smallest saturated k.
                    bottleneck = min(cap[a][b] for a, b in zip(path, path[1:]))
                    keep = 0
                    for k in range(len(path) - 1, 0, -1):
                        a, b = path[k - 1], path[k]
                        cap[a][b] -= bottleneck
                        cap[b][a] += bottleneck
                        if cap[a][b] <= DUST:
                            keep = k
                    total += bottleneck
                    del path[keep:]
                    u = path[-1]
                    continue
                row, adj, want = cap[u], neighbours[u], level[u] + 1
                i, end = arc[u], len(adj)
                while i < end:
                    v = adj[i]
                    if level[v] == want and row[v] > DUST:
                        break
                    i += 1
                arc[u] = i
                if i < end:
                    path.append(v)
                    u = v
                else:
                    # A dead end: no path to t through u in this level graph,
                    # so no parent descends into u again.
                    level[u] = -1
                    path.pop()
                    if not path:
                        break
                    u = path[-1]
                    arc[u] += 1


def _event_points(jobs: Sequence[Job], cut: float = math.inf) -> list[float]:
    """The releases, the deadlines and a finite ``cut``, ascending."""
    return sorted({j.release for j in jobs} | {j.deadline for j in jobs} | ({cut} - {math.inf}))


def _network(jobs: Sequence[Job], m: int, cut: float = math.inf) -> tuple[int, list[tuple[int, int, float]], float]:
    """Horn's flow network for the jobs on m machines, as an arc list.

    Node 0 is the source and the last node the sink.  The intervals between
    consecutive event points (``cut`` among them when finite) are the nodes
    just before the sink, in time order, and only those that start before
    ``cut - TOL`` have a sink arc, of capacity m * length.  Returns the node
    count, the (u, v, capacity) arcs and the total processing time.
    """
    points = _event_points(jobs, cut)
    intervals = [(a, b) for a, b in zip(points, points[1:]) if b - a > TOL]
    starts = [a for a, _ in intervals]
    ends = [b for _, b in intervals]
    n = len(jobs)
    arcs = []
    total = 0.0
    for ji, job in enumerate(jobs):
        arcs.append((0, 1 + ji, job.processing))
        total += job.processing
        # Starts and ends both ascend, so the intervals inside the window
        # (a >= release - TOL and b <= deadline + TOL) are one run.
        first = bisect_left(starts, job.release - TOL)
        for ii in range(first, bisect_right(ends, job.deadline + TOL)):
            arcs.append((1 + ji, 1 + n + ii, ends[ii] - starts[ii]))
    sink = 1 + n + len(intervals)
    arcs += [(1 + n + ii, sink, m * (b - a)) for ii, (a, b) in enumerate(intervals) if a < cut - TOL]
    return sink + 1, arcs, total


def flow_feasible(jobs: Sequence[Job], m: int) -> bool:
    """Whether the jobs admit a valid preemptive schedule on m machines."""
    jobs = list(jobs)
    if not jobs:
        return True
    for job in jobs:
        if job.deadline - job.release < job.processing - TOL:
            return False
    n, arcs, total = _network(jobs, m)
    return _MaxFlow(n, arcs).max_flow() >= total - TOL * max(1.0, total)


def max_prefix_work(jobs: Sequence[Job], m: int, cut: float) -> float:
    """Largest volume any valid schedule of *all* jobs can place in [0, cut).

    Requires the full set to be feasible, which one flow on the whole
    network checks.  The answer is the max flow of the network with
    ``cut`` as an event point and sink arcs only before it.  The pre-cut
    part of any feasible flow is a flow of that network, so no schedule
    places more work before the cut; and a max flow of it extends to a
    complete schedule, since augmenting paths on the full network end at
    the sink and never lower the flow on a sink arc.
    """
    jobs = list(jobs)
    if not jobs or cut <= min(j.release for j in jobs):
        return 0.0
    n, arcs, total = _network(jobs, m)
    if _MaxFlow(n, arcs).max_flow() < total - COMMIT_TOL * max(1.0, total):
        raise ValueError("job set is infeasible; prefix-work oracle needs a feasible set")
    n, arcs, _ = _network(jobs, m, cut)
    return _MaxFlow(n, arcs).max_flow()


def _forced_work_table(jobs: Sequence[Job]) -> tuple[np.ndarray, np.ndarray]:
    """Per-job forced work inside every event-point interval pair.

    ``F[j, q]`` is a lower bound on the work of job j that any schedule
    must place inside the q-th interval [x, y); ``cap_unit[q] = y - x``.
    Used only as a necessary condition to prune infeasible subsets.
    """
    points = np.array(_event_points(jobs))
    first, second = np.triu_indices(len(points), 1)
    xs, ys = points[first], points[second]
    # One row per job, broadcast against the pairs: the per-job formulas.
    r = np.array([job.release for job in jobs])[:, None]
    p = np.array([job.processing for job in jobs])[:, None]
    d = np.array([job.deadline for job in jobs])[:, None]
    before = np.maximum(0.0, np.minimum(xs, d) - r)
    after = np.maximum(0.0, d - np.maximum(ys, r))
    return np.asarray(np.maximum(0.0, p - before - after), dtype=float), ys - xs


def _subset_volumes(processing: Sequence[float]) -> np.ndarray:
    """Total processing of every job mask (bit j set: job j is in)."""
    n = len(processing)
    vols = np.zeros(1 << n)
    for j in range(n):
        bit = 1 << j
        vols[bit : bit << 1] = vols[: bit] + processing[j]
    return vols


def _descending_blocks(vols: np.ndarray) -> Iterator[np.ndarray]:
    """All masks in decreasing-volume order, ties in ascending mask order
    (``np.argsort(-vols, kind="stable")``), in chunks of _FILTER_CHUNK.

    The order is sorted one batch at a time, when the scan reaches it.  A
    batch is every remaining mask whose volume is at or above the size-th
    largest remaining volume, ties included, so it is exactly the next
    stretch of the full order.  The remaining masks stay in ascending
    order, so the stable sort of the batch breaks its ties as the full sort
    does.  Batches grow fourfold; most scans end inside the first one.
    """
    rest = np.arange(len(vols))
    size = 16 * _FILTER_CHUNK
    while len(rest):
        left = vols[rest]
        if size < len(rest):
            take = left >= np.partition(left, len(rest) - size)[len(rest) - size]
            batch, left, rest = rest[take], left[take], rest[~take]
        else:
            batch, rest = rest, rest[:0]
        batch = batch[np.argsort(-left, kind="stable")]
        for begin in range(0, len(batch), _FILTER_CHUNK):
            yield batch[begin : begin + _FILTER_CHUNK]
        size *= 4


def _member_sums(bits: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Row i is the sum of the rows ``F[j]`` with ``bits[i, j]`` set, added
    one at a time in ascending j: the floats of the row-by-row sum."""
    demand = np.zeros((len(bits), F.shape[1]))
    for ji, row in enumerate(F):
        np.add(demand, row, out=demand, where=bits[:, ji : ji + 1])
    return demand


def _passing_masks(chunks: Iterable[np.ndarray], F: np.ndarray, caps: np.ndarray) -> Iterator[int]:
    """The masks of ``chunks``, in order, whose members' summed forced work
    ``F[members].sum(axis=0)``, added row by row in ascending job order,
    fits ``caps`` (up to TOL) in every interval pair; ``F`` is non-negative.

    Each chunk is first screened with one matrix product, ``bits @ F``.
    Added in any order, n non-negative floats round to within about
    (n - 1) 2^-53 times their exact sum, so the product and the row-by-row
    sum of a subset differ by less than ``margin = 4 (n + 1) 2^-53 whole``,
    where ``whole``, the sum of all rows, bounds every subset's sum.  A
    pair further than ``margin`` from ``caps + TOL`` is decided by the
    product alone.  A mask with no pair decided over and some pair within
    ``margin`` is summed row by row, which gives its exact verdict.
    """
    # With non-negative rows no subset outgrows the whole set, so a pair the
    # whole set fits can be dropped.
    whole = np.zeros(F.shape[1])
    for row in F:
        whole += row
    live = whole > caps + TOL
    F, limit = F[:, live], caps[live] + TOL
    margin = 4 * (F.shape[0] + 1) * 2.0**-53 * whole[live]
    low, high = limit - margin, limit + margin
    shifts = np.arange(F.shape[0])
    for chunk in chunks:
        bits = (chunk[:, None] >> shifts) & 1 == 1
        approx = bits @ F
        fits = ~np.any(approx > high, axis=1)
        unsure = fits & np.any(approx >= low, axis=1)
        if unsure.any():
            fits[unsure] = ~np.any(_member_sums(bits[unsure], F) > limit, axis=1)
        yield from chunk[fits].tolist()


def _best_subset(
    instance: Instance, max_jobs: int, feasible: Callable[[list[Job], int], bool]
) -> float | None:
    """Volume of the largest job subset that passes the forced-work filter
    and ``feasible``, or None when the instance exceeds ``max_jobs``."""
    jobs = list(instance.jobs)
    if len(jobs) > max_jobs:
        return None
    if not jobs:
        return 0.0
    m = instance.machines
    vols = _subset_volumes([j.processing for j in jobs])
    F, widths = _forced_work_table(jobs)
    for mask in _passing_masks(_descending_blocks(vols), F, m * widths):
        if feasible([job for ji, job in enumerate(jobs) if mask >> ji & 1], m):
            return float(vols[mask])
    return 0.0


def opt_preemptive(instance: Instance) -> float | None:
    """Exact preemptive optimum by subset enumeration, or None when the
    instance exceeds the enumeration limit."""
    return _best_subset(instance, MAX_PREEMPTIVE_JOBS, flow_feasible)


def _np_search(jobs: Sequence[Job], m: int) -> bool:
    """Depth-first feasibility for a fixed job set without preemption.

    Branches on which job starts next; it starts at max(release, f) on the
    machine that is free first, at f, and must end by deadline + TOL.  That
    loses no schedule: take the jobs of a feasible one by start time and
    place each in turn on the machine free first.  By induction each starts
    no later than before, since if all m machines were still busy at job
    k's old start, m + 1 jobs would overlap there.  Identical jobs are
    collapsed.  A state is dead when some remaining job cannot end in time,
    or when a prefix of the remaining jobs in deadline order, with work W,
    largest deadline D and smallest release rmin, breaks the capacity bound

        W <= sum_i max(0, D + TOL - max(free_i, rmin)) + TOL.

    States are memoised exactly, on (remaining set, machine free times),
    once each, when the search enters them: a True answer ends the search,
    so every state met again has already failed.
    """
    order = sorted(range(len(jobs)), key=lambda ji: (jobs[ji].deadline, jobs[ji].release, ji))
    # (bit, release, processing, latest end), in deadline order.
    items = [(1 << ji, jobs[ji].release, jobs[ji].processing, jobs[ji].deadline + TOL) for ji in order]
    seen: set[tuple[int, tuple[float, ...]]] = set()

    def rec(mask: int, free: tuple[float, ...]) -> bool:
        if mask == 0:
            return True
        state = (mask, free)
        if state in seen:
            return False
        seen.add(state)
        min_free = free[0]
        # The two dead-state tests of the docstring, one deadline prefix at a time.
        work = 0.0
        rmin = math.inf
        for bit, r, p, end in items:
            if mask & bit:
                # max(r, min_free), written out like the sum below.
                if (r if r > min_free else min_free) + p > end:
                    return False
                work += p
                if r < rmin:
                    rmin = r
                # sum_i max(0, end - max(free_i, rmin)), written out: this
                # loop runs at every node of the search.
                room = 0.0
                for f in free:
                    gap = end - (f if f > rmin else rmin)
                    if gap > 0.0:
                        room += gap
                if work > room + TOL:
                    return False
        seen_jobs: set[tuple[float, float, float]] = set()
        rest = free[1:]
        for bit, r, p, end in items:
            if not mask & bit or (r, p, end) in seen_jobs:
                continue
            seen_jobs.add((r, p, end))
            start = r if r > min_free else min_free
            if rec(mask & ~bit, tuple(sorted((start + p,) + rest))):
                return True
        return False

    return rec((1 << len(jobs)) - 1, tuple([0.0] * m))


def opt_nonpreemptive(instance: Instance) -> float | None:
    """Exact non-preemptive optimum by subset enumeration, or None when the
    instance exceeds the enumeration limit.  Each subset that passes the
    forced-work filter goes straight to :func:`_np_search`, whose capacity
    bound prunes faster than a preemptive flow test would screen."""
    return _best_subset(instance, MAX_NONPREEMPTIVE_JOBS, _np_search)
