"""Mandatory-volume aggregation and the feasibility/threshold machinery.

``v_min(active, t, tau)`` is the minimum volume that any valid preemptive
schedule of the active jobs must execute inside [t, tau).  It is piecewise
linear and nondecreasing in tau, with slope changes only at job deadlines
and at "latest start" points (deadline minus remaining work), which makes
exact breakpoint reasoning possible throughout the package.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple

from .model import TOL, check_policy_args, rho


class ActiveJob(NamedTuple):
    """An accepted, uncompleted job: what is left of it and when it is due.

    A named tuple, so jobs with distinct ids sort by id.
    """

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
    # ``ordered_sum`` of ``contribution`` over the jobs, inline: a job with
    # none would add 0.0, which leaves a sum that starts at 0.0 unchanged.
    total = 0.0
    for _, remaining, deadline in active:
        latest_start = deadline - remaining
        if latest_start >= tau:
            continue
        total += remaining if tau >= deadline else tau - latest_start
    return total


class PiecewiseLinear(NamedTuple):
    """Continuous nondecreasing piecewise-linear curve on [breakpoints[0], inf).

    ``slopes[i]`` applies on [breakpoints[i], breakpoints[i+1]), and
    ``slopes[-1]`` beyond the last breakpoint.  ``values[i]`` is the curve
    value at ``breakpoints[i]``.  A named tuple, so a walk unpacks it.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...]

    def value(self, tau: float) -> float:
        if tau < self.breakpoints[0] - TOL:
            raise ValueError(f"tau={tau} precedes curve start {self.breakpoints[0]}")
        i = max(bisect_right(self.breakpoints, tau) - 1, 0)
        return self.values[i] + self.slopes[i] * (tau - self.breakpoints[i])


def _sweep(
    active: Iterable[ActiveJob], t: float, m: int | None = None
) -> tuple[list[float], list[float], list[float]] | None:
    """Breakpoints, values and slopes of tau -> v_min(active, t, tau) for
    tau >= t, or, when ``m`` is given, None as soon as a value exceeds the
    capacity (bp - t) * m + TOL.

    Breakpoints are the deadlines and latest-start points of the active
    jobs, clipped to [t, inf); slopes count the jobs whose mandatory volume
    is still growing.
    """
    deltas: dict[float, int] = {}
    get = deltas.get
    base = 0.0
    for _, remaining, deadline in active:
        # contribution(remaining, deadline, t), and its clipped breakpoints
        latest_start = deadline - remaining
        if latest_start < t:
            base += remaining if t >= deadline else t - latest_start
            lo = t
        else:
            lo = latest_start
        hi = deadline if deadline > t else t
        if hi > lo:
            deltas[lo] = get(lo, 0) + 1
            deltas[hi] = get(hi, 0) - 1
    # Every point is >= t and dict keys are distinct, so the sorted keys
    # are strictly increasing, and the first breakpoint is t (or a job's
    # point equal to it, which the dict keeps).
    deltas.setdefault(t, 0)
    breakpoints = sorted(deltas)
    values: list[float] = []
    slopes: list[float] = []
    # At t the step adds 0.0 * 0.0 and the capacity is TOL.  The slope is
    # counted in a float: the counts are small integers, which add exactly.
    value, running, prev = base, 0.0, t
    for bp in breakpoints:
        value += running * (bp - prev)
        if m is not None and value > (bp - t) * m + TOL:
            return None
        values.append(value)
        running += deltas[bp]
        slopes.append(running)
        prev = bp
    return breakpoints, values, slopes


def v_min_curve(active: Iterable[ActiveJob], t: float) -> PiecewiseLinear:
    """Exact curve of tau -> v_min(active, t, tau) for tau >= t."""
    breakpoints, values, slopes = _sweep(active, t)
    return PiecewiseLinear(tuple(breakpoints), tuple(values), tuple(slopes))


def extend_curve(curve: PiecewiseLinear, remaining: float, deadline: float) -> PiecewiseLinear | None:
    """``v_min_curve(active + [job], t)`` from ``curve == v_min_curve(active,
    t)``, t being the curve's first breakpoint, bit for bit, or None when the
    job has mandatory volume at t.

    Such a job adds nothing to the curve's value at t, so the sweep's
    result does not depend on where it sits among the jobs.  Its latest
    start and deadline are inserted as breakpoints, the prefix before the
    first of them is copied, and from there on values and slopes are
    recomputed with the sweep's float operations.
    """
    bps, values, slopes = curve
    lo = deadline - remaining
    if lo < bps[0]:
        return None
    if deadline <= lo:  # no breakpoint, as in the sweep
        return curve
    k = bisect_left(bps, lo)
    tail = list(bps[k:])
    if not tail or tail[0] != lo:
        tail.insert(0, lo)
    j = bisect_left(tail, deadline)
    if j == len(tail) or tail[j] != deadline:
        tail.insert(j, deadline)
    new_bps, new_values, new_slopes = list(bps[:k]), list(values[:k]), list(slopes[:k])
    # The old segment holding lo.  lo >= t == bps[0], so k == 0 only when
    # lo == t, where the value stays the curve's first.
    i = max(k - 1, 0)
    value = values[i]
    for bp in tail:
        if new_bps:
            value += new_slopes[-1] * (bp - new_bps[-1])
        while i + 1 < len(bps) and bps[i + 1] <= bp:
            i += 1
        new_bps.append(bp)
        new_values.append(value)
        new_slopes.append(slopes[i] + 1.0 if bp < deadline else slopes[i])
    return PiecewiseLinear(tuple(new_bps), tuple(new_values), tuple(new_slopes))


def horn_feasible(active: list[ActiveJob], t: float, m: int, curve: PiecewiseLinear | None = None) -> bool:
    """Whether a valid preemptive schedule of the active jobs exists from t.

    Requires every job to fit its own window (deadline >= t + remaining)
    and the mandatory volume to stay within aggregate capacity,
    v_min(tau) <= (tau - t) * m, at every tau.  Both sides are piecewise
    linear, so checking at breakpoints is exact.  ``curve``, when given,
    must equal ``v_min_curve(active, t)`` bit for bit, and the verdict is
    then the sweep's; otherwise no curve is built, and the breakpoint sweep
    stops at the first breach.
    """
    for _, remaining, deadline in active:
        if deadline < t + remaining - TOL:
            return False
    if curve is None:
        return _sweep(active, t, m) is not None
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
    check_policy_args(m, epsilon)
    return 1.0 / ((1.0 + epsilon) * (rho(epsilon) ** (1.0 / m) - 1.0))


def v_shape_curve(m: int, epsilon: float) -> PiecewiseLinear:
    """Piecewise-linear envelope used by the preemptive invariant checks:
    slope m up to the first corner eps/(1+eps), slopes m-1, ..., 0 between
    the corners up to x = 1, where it equals f = f_threshold(m, eps), and
    slope f beyond."""
    breakpoints = [0.0] + v_shape_corners(m, epsilon)
    slopes = [float(m - h) for h in range(m + 1)] + [f_threshold(m, epsilon)]
    values = [0.0]
    for a, b, slope in zip(breakpoints, breakpoints[1:], slopes):
        values.append(values[-1] + slope * (b - a))
    return PiecewiseLinear(tuple(breakpoints), tuple(values), tuple(slopes))


def v_shape_corners(m: int, epsilon: float) -> list[float]:
    """The x positions where the envelope's slope changes, in (0, 1]."""
    lo = 1.0 / rho(epsilon)
    return [lo ** ((m - h) / m) for h in range(m + 1)]
