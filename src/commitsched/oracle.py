"""Exact offline optima for small instances.

Preemptive feasibility with release dates reduces to a max-flow problem:
source -> job (capacity = processing), job -> interval between consecutive
event points inside the job's window (capacity = interval length), and
interval -> sink (capacity = machines * length).  The job set is feasible
iff the max flow equals the total processing time; with a common release
this coincides with the breakpoint capacity test in :mod:`commitsched.vmin`.
The most work that fits before a cut is a max flow on the same network.

Optima are found by enumerating job subsets in decreasing-volume order and
returning the first feasible one.  A vectorised necessary condition (forced
work per interval pair must fit aggregate capacity) discards most
infeasible subsets before any flow or search runs.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import TOL, Instance, Job

#: Subset-enumeration limits; beyond these the oracles report "unavailable".
MAX_PREEMPTIVE_JOBS = 16
MAX_NONPREEMPTIVE_JOBS = 10
MAX_FLOW_JOBS = 24

_FLOW_EPS = 1e-12


class _MaxFlow:
    """Plain breadth-first augmenting max-flow on a dense adjacency matrix."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.cap = [[0.0] * n for _ in range(n)]

    def add(self, u: int, v: int, capacity: float) -> None:
        self.cap[u][v] += capacity

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while True:
            parent = [-1] * self.n
            parent[s] = s
            queue = deque([s])
            while queue and parent[t] == -1:
                u = queue.popleft()
                row = self.cap[u]
                for v in range(self.n):
                    if parent[v] == -1 and row[v] > _FLOW_EPS:
                        parent[v] = u
                        queue.append(v)
            if parent[t] == -1:
                return total
            bottleneck = math.inf
            v = t
            while v != s:
                u = parent[v]
                bottleneck = min(bottleneck, self.cap[u][v])
                v = u
            v = t
            while v != s:
                u = parent[v]
                self.cap[u][v] -= bottleneck
                self.cap[v][u] += bottleneck
                v = u
            total += bottleneck


def _event_points(jobs: Sequence[Job], extra: Iterable[float] = ()) -> list[float]:
    pts = {j.release for j in jobs} | {j.deadline for j in jobs} | set(extra)
    return sorted(pts)


def _network(
    jobs: Sequence[Job], extra: Iterable[float] = ()
) -> tuple[_MaxFlow, list[tuple[float, float]], float]:
    """Horn's flow network for the jobs, without its interval -> sink arcs.

    Node 0 is the source, node ``net.n - 1`` the sink, and the intervals
    between consecutive event points (plus ``extra``) are the nodes just
    before the sink, in time order.  Returns the network, the intervals and
    the total processing time.
    """
    points = _event_points(jobs, extra)
    intervals = [(a, b) for a, b in zip(points, points[1:]) if b - a > TOL]
    n = len(jobs)
    net = _MaxFlow(2 + n + len(intervals))
    total = 0.0
    for ji, job in enumerate(jobs):
        net.add(0, 1 + ji, job.processing)
        total += job.processing
        for ii, (a, b) in enumerate(intervals):
            if a >= job.release - TOL and b <= job.deadline + TOL:
                net.add(1 + ji, 1 + n + ii, b - a)
    return net, intervals, total


def _add_sink_arcs(
    net: _MaxFlow, intervals: list[tuple[float, float]], m: int, start: int = 0, stop: int | None = None
) -> None:
    """Add the sink arc, of capacity m * length, of each interval in
    ``intervals[start:stop]``."""
    sink = net.n - 1
    first = sink - len(intervals) + start
    for node, (a, b) in enumerate(intervals[start:stop], start=first):
        net.add(node, sink, m * (b - a))


def flow_feasible(jobs: Sequence[Job], m: int) -> bool:
    """Whether the jobs admit a valid preemptive schedule on m machines."""
    jobs = list(jobs)
    if not jobs:
        return True
    if len(jobs) > MAX_FLOW_JOBS:
        raise ValueError(f"flow feasibility limited to {MAX_FLOW_JOBS} jobs")
    for job in jobs:
        if job.deadline - job.release < job.processing - TOL:
            return False
    net, intervals, total = _network(jobs)
    _add_sink_arcs(net, intervals, m)
    flow = net.max_flow(0, net.n - 1)
    return flow >= total - 1e-9 * max(1.0, total)


def max_prefix_work(jobs: Sequence[Job], m: int, cut: float) -> float:
    """Largest volume any valid schedule of *all* jobs can place in [0, cut).

    Requires the full set to be feasible.  Solved as two phases of one max
    flow on Horn's network, with ``cut`` as an extra event point.  The first
    phase has sink arcs only for the intervals before the cut; its max flow
    is the answer.  The second adds the remaining sink arcs and continues
    augmenting, to check that all the work fits.  The answer is exact:

    - an augmenting path ends at the sink and never leaves it, so it never
      lowers the flow on a sink arc, and the saturating flow that the second
      phase reaches keeps all of the first phase's pre-cut work;
    - the pre-cut part of any feasible flow is itself a flow of the
      first-phase network, so no schedule places more work before the cut.
    """
    jobs = list(jobs)
    if not jobs or cut <= min(j.release for j in jobs):
        return 0.0
    net, intervals, total = _network(jobs, extra=[cut])
    sink = net.n - 1
    split = sum(a < cut - TOL for a, _ in intervals)
    _add_sink_arcs(net, intervals, m, stop=split)
    prefix = net.max_flow(0, sink)
    _add_sink_arcs(net, intervals, m, start=split)
    if prefix + net.max_flow(0, sink) < total - 1e-6 * max(1.0, total):
        raise ValueError("job set is infeasible; prefix-work oracle needs a feasible set")
    return prefix


def _forced_work_table(jobs: Sequence[Job]) -> tuple[np.ndarray, np.ndarray]:
    """Per-job forced work inside every event-point interval pair.

    ``F[j, q]`` is a lower bound on the work of job j that any schedule
    must place inside the q-th interval [x, y); ``cap_unit[q] = y - x``.
    Used only as a necessary condition to prune infeasible subsets.
    """
    points = _event_points(jobs)
    pairs = [(x, y) for i, x in enumerate(points) for y in points[i + 1 :]]
    if not pairs:
        return np.zeros((len(jobs), 0)), np.zeros(0)
    xs = np.array([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    F = np.zeros((len(jobs), len(pairs)))
    for ji, job in enumerate(jobs):
        before = np.maximum(0.0, np.minimum(xs, job.deadline) - job.release)
        after = np.maximum(0.0, job.deadline - np.maximum(ys, job.release))
        F[ji] = np.maximum(0.0, job.processing - before - after)
    return F, ys - xs


def _descending_subsets(processing: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    n = len(processing)
    vols = np.zeros(1 << n)
    for j in range(n):
        bit = 1 << j
        vols[bit : bit << 1] = vols[: bit] + processing[j]
    order = np.argsort(-vols, kind="stable")
    return order, vols


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
    order, vols = _descending_subsets([j.processing for j in jobs])
    F, widths = _forced_work_table(jobs)
    caps = m * widths
    for mask in order:
        mask = int(mask)
        members = [ji for ji in range(len(jobs)) if mask >> ji & 1]
        if members:
            demand = F[members].sum(axis=0)
            if np.any(demand > caps + 1e-9):
                continue
        if feasible([jobs[ji] for ji in members], m):
            return float(vols[mask])
    return 0.0


def opt_preemptive(instance: Instance) -> float | None:
    """Exact preemptive optimum by subset enumeration, or None when the
    instance exceeds the enumeration limit."""
    return _best_subset(instance, MAX_PREEMPTIVE_JOBS, flow_feasible)


def _np_search(jobs: Sequence[Job], m: int) -> bool:
    """Depth-first feasibility for a fixed job set without preemption.

    Branches on which job starts next and on which distinct machine load it
    lands; identical machines and identical jobs are collapsed, dead states
    are memoised on (remaining set, rounded machine free times).
    """
    n = len(jobs)
    order = sorted(range(n), key=lambda ji: (jobs[ji].deadline, jobs[ji].release, ji))
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def key(mask: int, free: tuple[float, ...]) -> tuple[int, tuple[int, ...]]:
        return mask, tuple(int(round(f / TOL)) for f in free)

    def rec(mask: int, free: tuple[float, ...]) -> bool:
        if mask == 0:
            return True
        k = key(mask, free)
        if k in failed:
            return False
        min_free = free[0]
        # Dead-state prune: some job can no longer meet its deadline anywhere.
        for ji in order:
            if mask >> ji & 1:
                job = jobs[ji]
                if max(job.release, min_free) + job.processing > job.deadline + TOL:
                    failed.add(k)
                    return False
        seen_jobs: set[tuple[float, float, float]] = set()
        for ji in order:
            if not (mask >> ji & 1):
                continue
            job = jobs[ji]
            sig = (job.release, job.processing, job.deadline)
            if sig in seen_jobs:
                continue
            seen_jobs.add(sig)
            seen_loads: set[float] = set()
            for slot, f_time in enumerate(free):
                if f_time in seen_loads:
                    continue
                seen_loads.add(f_time)
                start = max(job.release, f_time)
                if start + job.processing > job.deadline + TOL:
                    break  # free times sorted ascending; later slots only worse
                nxt = tuple(sorted(free[:slot] + (start + job.processing,) + free[slot + 1 :]))
                if rec(mask & ~(1 << ji), nxt):
                    return True
        failed.add(k)
        return False

    return rec((1 << n) - 1, tuple([0.0] * m))


def opt_nonpreemptive(instance: Instance) -> float | None:
    """Exact non-preemptive optimum by subset enumeration, or None when the
    instance exceeds the enumeration limit.  Preemption relaxes the
    problem, so the cheaper flow test screens each subset first."""
    return _best_subset(
        instance, MAX_NONPREEMPTIVE_JOBS, lambda jobs, m: flow_feasible(jobs, m) and _np_search(jobs, m)
    )
