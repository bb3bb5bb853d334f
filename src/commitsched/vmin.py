"""Mandatory-volume aggregation and the feasibility/threshold machinery.

``v_min(active, t, tau)`` is the minimum volume that any valid preemptive
schedule of the active jobs must execute inside [t, tau).  It is piecewise
linear and nondecreasing in tau, with slope changes only at job deadlines
and at "latest start" points (deadline minus remaining work), which makes
exact breakpoint reasoning possible throughout the package.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from .model import TOL


@dataclass(frozen=True)
class ActiveJob:
    """An accepted, uncompleted job: what is left of it and when it is due."""

    id: int
    remaining: float
    deadline: float


def contribution(remaining: float, deadline: float, tau: float) -> float:
    """Mandatory volume of one job inside [now, tau): the part of its
    remaining work that cannot run after tau."""
    latest_start = deadline - remaining
    if latest_start >= tau:
        return 0.0
    if tau >= deadline:
        return remaining
    return tau - latest_start


def v_min(active: Iterable[ActiveJob], t: float, tau: float) -> float:
    """Minimum total volume that must run in [t, tau).

    Per job the mandatory amount is 0 before its latest-start point, grows
    linearly with slope 1, and saturates at the remaining work once tau
    passes the deadline.
    """
    if tau < t - TOL:
        raise ValueError(f"tau={tau} precedes t={t}")
    return sum(contribution(j.remaining, j.deadline, tau) for j in active)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous nondecreasing piecewise-linear curve on [start, inf).

    ``breakpoints[0] == start``; ``slopes[i]`` applies on
    [breakpoints[i], breakpoints[i+1]), and ``slopes[-1]`` beyond the last
    breakpoint.  ``values[i]`` is the curve value at ``breakpoints[i]``.
    """

    start: float
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...]

    def value(self, tau: float) -> float:
        if tau < self.start - TOL:
            raise ValueError(f"tau={tau} precedes curve start {self.start}")
        i = bisect_right(self.breakpoints, tau) - 1
        i = max(i, 0)
        return self.values[i] + self.slopes[i] * (tau - self.breakpoints[i])

    @property
    def final_value(self) -> float:
        return self.values[-1]


def v_min_curve(active: Iterable[ActiveJob], t: float) -> PiecewiseLinear:
    """Exact curve of tau -> v_min(active, t, tau) for tau >= t.

    Breakpoints are the deadlines and latest-start points of the active
    jobs, clipped to [t, inf); slopes count the jobs whose mandatory volume
    is still growing.
    """
    deltas: dict[float, int] = {}
    base = 0.0
    for job in active:
        lo = max(t, job.deadline - job.remaining)
        hi = max(t, job.deadline)
        base += contribution(job.remaining, job.deadline, t)
        if hi > lo:
            deltas[lo] = deltas.get(lo, 0) + 1
            deltas[hi] = deltas.get(hi, 0) - 1
    points = sorted(deltas)
    if not points or points[0] > t:
        points.insert(0, t)
    breakpoints = [points[0]]
    for p in points[1:]:
        if p > breakpoints[-1]:
            breakpoints.append(p)
    slopes: list[float] = []
    values: list[float] = [base]
    running = 0
    for i, bp in enumerate(breakpoints):
        running += deltas.get(bp, 0)
        slopes.append(float(running))
        if i + 1 < len(breakpoints):
            values.append(values[-1] + running * (breakpoints[i + 1] - bp))
    return PiecewiseLinear(t, tuple(breakpoints), tuple(values), tuple(slopes))


def horn_feasible(active: Iterable[ActiveJob], t: float, m: int) -> bool:
    """Whether a valid preemptive schedule of the active jobs exists from t.

    Requires every job to fit its own window (deadline >= t + remaining)
    and the mandatory volume to stay within aggregate capacity,
    v_min(tau) <= (tau - t) * m, at every tau.  Both sides are piecewise
    linear, so checking at breakpoints is exact.
    """
    jobs = list(active)
    for job in jobs:
        if job.deadline < t + job.remaining - TOL:
            return False
    curve = v_min_curve(jobs, t)
    for bp, val in zip(curve.breakpoints, curve.values):
        if val > (bp - t) * m + TOL:
            return False
    return True


def f_threshold(m: int, epsilon: float) -> float:
    """Growth rate of the lazy acceptance threshold.

    Equals 1 / ((1+eps) * (((1+eps)/eps)^(1/m) - 1)); the equivalent
    geometric-sum form (eps/(1+eps)) * sum_{j<m} ((1+eps)/eps)^(j/m) is
    used as an independent cross-check in the tests.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rho = (1.0 + epsilon) / epsilon
    return 1.0 / ((1.0 + epsilon) * (rho ** (1.0 / m) - 1.0))


def v_shape(x: float, m: int, epsilon: float) -> float:
    """Piecewise-linear envelope used by the preemptive invariant checks.

    Three regimes: slope m up to eps/(1+eps), a staircase of decreasing
    slopes m-1, ..., 0 up to 1, and slope f_threshold(m, eps) beyond.  The
    middle regime is parameterised by writing
    x = y * (eps/(1+eps))^((m-h)/m) with h in {0..m-1} and
    1 <= y <= ((1+eps)/eps)^(1/m).
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    rho = (1.0 + epsilon) / epsilon
    lo = 1.0 / rho  # eps/(1+eps)
    if x <= lo:
        return x * m
    if x >= 1.0:
        return x * f_threshold(m, epsilon)

    def branch(h: int) -> float:
        tail = sum(lo ** ((m - i) / m) for i in range(h + 1))
        return tail + x * (m - h - 1)

    # h from the segment index; near segment joins float error makes the
    # index ambiguous, so evaluate the neighbouring branches that admit a
    # valid y and keep the largest (they agree analytically at the joins).
    h0 = math.floor(m * (1.0 + math.log(x) / math.log(rho)))
    y_hi = rho ** (1.0 / m)
    candidates = []
    for h in (h0 - 1, h0, h0 + 1):
        if 0 <= h <= m - 1:
            y = x * rho ** ((m - h) / m)
            if 1.0 - 1e-9 <= y <= y_hi + 1e-9:
                candidates.append(branch(h))
    if not candidates:
        # Only reachable through float dust at the outer joins.
        return max(x * m if x <= lo + 1e-9 else 0.0, x * f_threshold(m, epsilon))
    return max(candidates)


def v_shape_corners(m: int, epsilon: float) -> list[float]:
    """The x positions where the envelope's slope changes, in (0, 1]."""
    lo = 1.0 / ((1.0 + epsilon) / epsilon)
    return [lo ** ((m - h) / m) for h in range(m + 1)]
