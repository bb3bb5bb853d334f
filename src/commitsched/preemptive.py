"""Preemptive online scheduling with a lazy deadline threshold.

The simulator alternates two phases.  On each arrival it applies the lazy
admission rule: a job is accepted only if its deadline clears the current
threshold ``d_min``, and an acceptance pushes ``d_min`` to the largest time
at which the threshold line ``(tau - r) * f`` meets the mandatory-volume
curve (plus the compensation term ``v_delta`` that accounts for work with
far deadlines executed early).  Between arrivals it runs the plan produced
by ``generate_plan``: urgent deadline classes are pre-allocated one job per
machine, and remaining machines run the longest-remaining-contribution rule
with wrap-around splitting of tied groups.  No decision reads the plan, so
it is built only when the clock next moves: arrivals at one instant build
one plan, not one each.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import NamedTuple, Sequence

from .model import (
    CHECK_SLACK,
    DUST,
    SLOPE_TOL,
    TOL,
    DecisionLog,
    DecisionRecord,
    Instance,
    InvariantError,
    Job,
    Schedule,
    Segment,
    SimulationResult,
    check_job,
    check_policy_args,
    drive,
)
from .vmin import (
    ActiveJob,
    PiecewiseLinear,
    contribution,
    extend_curve,
    f_threshold,
    horn_feasible,
    v_min,
    v_min_curve,
    v_shape_curve,
)


#: Builds a record from the tuple of its fields without the class call, which
#: parses its arguments in Python: ``_record(Segment, (machine, job, start, end))``.
_record = tuple.__new__

#: An active job's deadline, read without the attribute lookup: ``_deadline(ActiveJob(id, remaining, deadline))``.
_deadline = itemgetter(2)

#: The volume of an (id, volume) item of ``lrpt_assign``'s remaining volumes.
_volume = itemgetter(1)


class PlanWindow(NamedTuple):
    """A committed execution plan over [start, end).

    A named tuple, so it equals the plain tuple of its fields.
    """

    start: float
    end: float
    segments: tuple[Segment, ...]


def solve_dmin(curve: PiecewiseLinear, f: float, v_delta: float, r: float) -> float:
    """Largest tau with (tau - r) * f == curve(tau) + v_delta.

    The curve is nondecreasing and eventually flat while the left side
    grows with slope f > 0, so a largest crossing always exists.  Segments
    are scanned from the largest breakpoint downward and the per-segment
    linear equation is solved in closed form.
    """
    bps, vals, slopes = curve
    rf = r * f
    b = math.inf  # the right end of the segment [a, b)
    for a, v_a, s in zip(reversed(bps), reversed(vals), reversed(slopes)):
        closing = f - s
        if abs(closing) < SLOPE_TOL:
            # Parallel: a crossing exists only if the lines coincide, in
            # which case the right end of the segment is the largest point.
            if abs((a - r) * f - v_a - v_delta) <= TOL and b < math.inf:
                return b
        else:
            tau = (v_a - s * a + v_delta + rf) / closing
            if a - TOL <= tau <= b + TOL:
                return min(max(tau, a), b)
        b = a
    raise InvariantError(
        f"threshold equation has no crossing: f={f}, v_delta={v_delta}, r={r}, curve={curve}"
    )


def wrap_fill(
    amounts: list[tuple[int, float]],
    lanes: list[int],
    start: float,
    span: float,
) -> list[Segment]:
    """Lay the amounts end to end across lanes of equal span (wrap-around).

    Each amount must be at most the span, so a wrapped item never overlaps
    itself.  Lane boundaries are crossed with explicit float guards: a
    residue below the event resolution is skipped rather than looped on.
    """
    last = len(lanes) - 1
    segments: list[Segment] = []
    offset = 0.0
    full = len(lanes) * span - DUST
    for item, amount in amounts:
        left = amount
        while left > DUST:
            if offset >= full:
                break  # float dust beyond total capacity
            lane = int((offset + DUST) // span)
            if lane > last:
                lane = last
            pos = offset - lane * span
            room = span - pos
            if room <= DUST:
                offset = (lane + 1) * span
                continue
            take = room if room < left else left
            begin = start + pos
            segments.append(_record(Segment, (lanes[lane], item, begin, begin + take)))
            offset += take
            left -= take
    return segments


def lrpt_assign(
    volumes: dict[int, float],
    machines: list[int],
    start: float,
    end: float,
) -> tuple[list[Segment], float | None]:
    """Longest-remaining-first schedule of the given volumes on the machines.

    At every instant the largest remaining volumes run; groups tied within
    tolerance share evenly, realised by wrap-around splitting so that no
    job overlaps itself and at most one job is split per machine boundary.
    It stops at the first idle instant, the end of the first sub-step after
    which fewer volumes are left than machines, if that precedes end - DUST
    (machines idle from the start do not count), and returns the segments up
    to it and the instant; otherwise the segments over [start, end) and None.
    """
    m = len(machines)
    if m == 0 or end <= start + DUST:
        return [], None
    # In id order, which a stable sort keeps among equal volumes.
    rem = {j: volumes[j] for j in sorted(volumes) if volumes[j] > TOL}
    segments: list[Segment] = []
    cur = start
    while cur < end - DUST and rem:
        # Group jobs by (tolerance-equal) remaining volume, largest first:
        # each group's jobs and the volume of its first.
        groups: list[tuple[list[int], float]] = []
        for j, volume in sorted(rem.items(), key=_volume, reverse=True):
            if groups and abs(lead - volume) <= TOL:
                group.append(j)
            else:
                lead, group = volume, [j]
                groups.append((group, lead))
        # Assign machines to groups greedily from the largest volume.  Next
        # event: window end, a running group exhausting, or a group catching
        # up with the one below it; groups past the first idle one neither
        # run nor close a gap.
        delta = end - cur
        avail = m
        running: list[tuple[list[int], int, float]] = []
        for g, volume in groups:
            size = len(g)
            q = avail if avail < size else size
            avail -= q
            rate = q / size
            if rate > 0 and (step := volume / rate) < delta:
                delta = step
            if running:
                gap = above - volume
                closing = running[-1][2] - rate
                if closing > SLOPE_TOL and gap > 0 and (step := gap / closing) < delta:
                    delta = step
            if q == 0:
                break
            running.append((g, q, rate))
            above = volume
        nxt = cur + delta
        if nxt > end:
            nxt = end
        if nxt <= cur:
            raise InvariantError(f"LRPT sub-step of {delta} cannot advance t={cur} (float spacing)")
        span = nxt - cur
        # Realise this sub-interval: full machines for untied capacity,
        # wrap-around for shared groups.
        machine_idx = 0
        for g, q, rate in running:
            chunk = rate * span
            if q == len(g):
                for j in g:
                    segments.append(_record(Segment, (machines[machine_idx], j, cur, nxt)))
                    machine_idx += 1
            else:
                lanes = machines[machine_idx : machine_idx + q]
                machine_idx += q
                segments.extend(
                    wrap_fill([(j, chunk) for j in sorted(g)], lanes, cur, span)
                )
            for j in g:
                left = rem[j] - chunk
                if left > TOL:
                    rem[j] = left
                else:
                    del rem[j]
        cur = nxt
        if len(rem) < m and cur < end - DUST:
            return segments, cur
    return segments, None


def generate_plan(jobs: Sequence[ActiveJob], t: float, m: int) -> PlanWindow:
    """Build the execution plan from time t for the active jobs, given in
    id order as the simulator keeps them.

    The latest deadline class whose mandatory volume involves at most m
    jobs is pre-allocated one job per machine; the window extends by the
    smallest of those mandatory contributions.  Idle machines then run the
    longest-remaining rule on the next deadline class, and the window
    shrinks to the first idle instant of that sub-schedule.

    A job contributes to class d when contribution(remaining, deadline, d)
    > TOL.  That count is nondecreasing in the class, so with n <= m jobs
    the last class is pre-allocated without a search, and otherwise a
    bisection finds it, each probe counting only until the count passes m.
    """
    if not jobs:
        return PlanWindow(t, float("inf"), ())
    deadlines = sorted(set(map(_deadline, jobs)))
    if deadlines[0] <= t + TOL and any(remaining > TOL for _, remaining, _ in jobs):
        if not horn_feasible(jobs, t, m):
            raise InvariantError(f"plan requested for an infeasible active set at t={t}")
    if len(jobs) <= m:
        # The last class: every job whose latest start precedes it and whose
        # remaining work exceeds TOL, each contributing all of that work.
        # Each runs over [t, run) with run <= end, so none is clipped, and
        # all are kept while t < end - DUST, the test of the general path.
        d = deadlines[-1]
        pre_ids: list[int] = []
        least = math.inf
        for job_id, remaining, deadline in jobs:
            if deadline - remaining < d and remaining > TOL:
                pre_ids.append(job_id)
                if remaining < least:
                    least = remaining
        run = t + least if pre_ids else deadlines[0]
        end = max(run, t + DUST)
        if not pre_ids or t >= end - DUST:
            return _record(PlanWindow, (t, end, ()))
        segments = tuple([_record(Segment, (machine, job_id, t, run)) for machine, job_id in enumerate(pre_ids)])
        return _record(PlanWindow, (t, end, segments))

    # (id, latest start, remaining, deadline)
    rows = [(job_id, deadline - remaining, remaining, deadline) for job_id, remaining, deadline in jobs]

    def crowded(d: float) -> bool:
        count = 0
        for _, ls, rem, dl in rows:
            if ls < d and (rem if d >= dl else d - ls) > TOL:
                count += 1
                if count > m:
                    return True
        return False

    # With no class of at most m contributors, k = -1: nothing is
    # pre-allocated and longest-remaining runs over the first class on
    # every machine.
    k = bisect_left(deadlines, True, key=crowded) - 1
    d = deadlines[k] if k >= 0 else -math.inf
    d_next = deadlines[k + 1] if k + 1 < len(deadlines) else -math.inf
    # One scan: the contributors to class d are pre-allocated, the window
    # extends by the least of their contributions, and the other
    # contributors to the next class get longest-remaining volumes.
    pre_ids: list[int] = []
    least = math.inf
    volumes: dict[int, float] = {}
    for job_id, ls, rem, dl in rows:
        if ls < d and (volume := rem if d >= dl else d - ls) > TOL:
            pre_ids.append(job_id)
            if volume < least:
                least = volume
        elif ls < d_next and (volume := rem if d_next >= dl else d_next - ls) > TOL:
            volumes[job_id] = volume
    end = t + least if pre_ids else deadlines[0]
    segments = [_record(Segment, (machine, job_id, t, end)) for machine, job_id in enumerate(pre_ids)]
    # The window's end drops the pieces that start at end - DUST or later
    # and cuts those that run past it.  The pre-allocated pieces start at t
    # and end by the window's first end, so only the longest-remaining
    # pieces go through that filter, unless the window shrinks to an idle
    # instant or is no longer than DUST.
    clip: list[Segment] = []
    if k < len(deadlines) - 1 and len(pre_ids) < m:
        clip, idle = lrpt_assign(volumes, list(range(len(pre_ids), m)), t, end)
        if idle is not None:
            end, segments, clip = idle, [], segments + clip
    end = max(end, t + DUST)
    cut = end - DUST
    if t >= cut:
        segments = []
    segments.extend([s if s.end <= end else _record(Segment, (s.machine, s.job, s.start, end)) for s in clip if s.start < cut])
    return _record(PlanWindow, (t, end, tuple(segments)))


class PreemptiveSimulator:
    """Event-driven simulator for the preemptive admission policies.

    ``policy`` selects the admission rule: "lazy" uses the deadline
    threshold described in the module docstring, "greedy" accepts whenever
    the active set plus the new job stays feasible.  ``assert_level`` >= 1
    re-checks the threshold envelope and feasibility after every event;
    level >= 2 additionally checks the volume-decay inequality between
    consecutive events.

    The live jobs are one table: ``live`` holds an (id, processing,
    deadline) row per unfinished job in id order, and ``committed_work``
    the work committed to each.  An acceptance inserts a row, an
    acceptance or a window end drops the rows of finished jobs, and
    ``active_jobs`` reads the remainders ``processing - committed`` off the
    table.

    Every event leaves through one step, ``_settle``, which keeps the live
    list the event leaves, with the instant, that list's mandatory-volume
    curve if it built one, and the lazy compensation sum ``v_min(active, t,
    tau)`` with its tau if it has one.  After an acceptance or a window end
    the plan is pending, and ``plan`` and ``advance_to`` build it from that
    list.  The list changes only at an event or when the clock moves, so an
    arrival at the same instant works on it instead of rebuilding it, and
    adds its job to the kept curve with ``extend_curve``: the lazy threshold
    update, the greedy decision and the invariant check then read that
    curve.  Greedy builds the curve there if none was kept.  The lazy
    arrival reuses the kept sum while the threshold stays at its tau, and an
    acceptance of the job last in id order adds that job's term to it.

    The invariant checks compare curves at the breakpoints of both in one
    merged walk, ``_pointwise``, over their breakpoint, value and slope
    tuples.
    """

    def __init__(
        self,
        machines: int,
        epsilon: float,
        assert_level: int = 0,
        policy: str = "lazy",
    ) -> None:
        if policy not in ("lazy", "greedy"):
            raise ValueError(f"unknown policy {policy!r}")
        self.machines = machines
        self.epsilon = epsilon
        self.policy = policy
        check_policy_args(machines, epsilon, assert_level)
        self.assert_level = assert_level
        self.f = f_threshold(machines, epsilon)
        self._shape = v_shape_curve(machines, epsilon)
        self.clock = 0.0
        self.d_min = 0.0
        self.v_delta = 0.0
        self.jobs: dict[int, Job] = {}  # every accepted job
        self._volume = 0.0  # their processing, added in acceptance order
        self.live: list[tuple[int, float, float]] = []  # unfinished jobs only
        self.committed_work: dict[int, float] = {}  # unfinished jobs only
        self.schedule = Schedule(machines=machines)
        # machine -> index in schedule.segments of its last committed segment, or None
        self._last_piece: list[int | None] = [None] * machines
        self.decisions = DecisionLog()
        # The plan for the current state, or None while it is pending: then
        # ``plan`` builds it at the clock from the live set of ``_instant``.
        self._plan: PlanWindow | None = PlanWindow(0.0, math.inf, ())  # the plan of an empty active set
        # (instant, live set, its mandatory-volume curve or None, (tau, its
        # mandatory volume before tau) or None) as the last event at that
        # instant left them.  The live set changes only at an event or when
        # the clock moves, so it holds while the clock stays.
        self._instant: tuple[float, list[ActiveJob], PiecewiseLinear | None, tuple[float, float] | None]
        self._instant = (0.0, [], None, None)
        self.event_times: list[float] = [0.0]
        # Reference state for the volume-decay check: the last plan-aligned
        # instant (acceptance or window end).  Between such instants
        # the realised schedule matches the fluid sharing trajectory, so
        # the decay inequality is exact there; at interior instants the
        # wrap-around realisation may front-load one tied job's share.
        self._decay_curve: PiecewiseLinear | None = None
        self._decay_clock = 0.0

    # -- state views ----------------------------------------------------

    def active_jobs(self) -> list[ActiveJob]:
        work = self.committed_work
        return [
            _record(ActiveJob, (job_id, rem, deadline))
            for job_id, processing, deadline in self.live
            if (rem := processing - work[job_id]) > TOL
        ]

    def accepted_volume(self) -> float:
        return self._volume

    @property
    def plan(self) -> PlanWindow:
        """The plan for the current state, built first if one is pending."""
        if self._plan is None:
            self._plan = generate_plan(self._instant[1], self.clock, self.machines)
        return self._plan

    # -- event loop -----------------------------------------------------

    def submit(self, job: Job) -> bool:
        """Advance to the job's release and run the admission rule."""
        check_job(job, self.epsilon)
        if job.release < self.clock - TOL:
            raise ValueError(f"job {job.id} released at {job.release} before clock {self.clock}")
        self.advance_to(job.release)
        return self.on_arrival(job)

    def on_arrival(self, job: Job) -> bool:
        if abs(job.release - self.clock) > TOL:
            raise ValueError(
                f"arrival handled at clock {self.clock} != release {job.release}; advance first"
            )
        r = job.release
        # The live set at the arrival, which every step of this event reads,
        # its mandatory-volume curve at r once built, and its mandatory
        # volume before some tau once summed: at the instant of the last
        # event, the ones that event left (an acceptance inserts into that
        # list, which nothing else holds).
        instant, active, curve, mandatory = self._instant
        burst = instant == r == self.clock
        if not burst:
            active, curve, mandatory = self.active_jobs(), None, None
        row = (job.id, job.processing, job.deadline)
        if self.policy == "lazy":
            self.d_min = tau = max(self.d_min, r)
            if mandatory is None or mandatory[0] != tau:
                mandatory = (tau, v_min(active, r, tau))
            self.v_delta = (tau - r) * self.f - mandatory[1]
            if self.v_delta < -CHECK_SLACK:
                raise InvariantError(f"negative compensation volume {self.v_delta} at t={r}")
            self.v_delta = max(self.v_delta, 0.0)
            threshold = self.d_min
            accept = job.deadline >= threshold - TOL
        else:
            # Live jobs first, then the new one: horn_feasible's sums run in
            # this order.  With the live set's curve at hand, the candidate's
            # is that curve extended, and the sweep's verdict is read off it.
            # At the instant of the last event the live set's curve is built
            # if none was kept, and later arrivals there extend it; an
            # arrival at a moved clock builds none.
            candidate = active + [_record(ActiveJob, row)]
            if curve is None and burst:
                curve = v_min_curve(active, r)
            grown = None if curve is None else extend_curve(curve, job.processing, job.deadline)
            threshold = None
            accept = horn_feasible(candidate, self.clock, self.machines, grown)
        self.decisions.add(DecisionRecord(job.id, accept, r, threshold))
        if accept:
            self.jobs[job.id] = job
            self._volume += job.processing
            self.committed_work[job.id] = 0.0
            insort(self.live, row)  # rows and records order by id first
            if job.processing > TOL:  # the filter active_jobs applies
                if mandatory is not None:
                    # v_min adds left to right in id order, so the job's term
                    # extends the sum only when it comes last.
                    last = not active or active[-1].id < job.id
                    mandatory = (tau, mandatory[1] + contribution(job.processing, job.deadline, tau)) if last else None
                insort(active, _record(ActiveJob, row))
                if self.policy == "greedy":
                    curve = grown
                elif curve is not None:
                    curve = extend_curve(curve, job.processing, job.deadline)
            if self.policy == "lazy":
                if curve is None:
                    curve = v_min_curve(active, r)
                new_dmin = solve_dmin(curve, self.f, self.v_delta, r)
                if new_dmin < self.d_min - CHECK_SLACK:
                    raise InvariantError(
                        f"threshold moved backwards: {self.d_min} -> {new_dmin} at t={r}"
                    )
                self.d_min = max(self.d_min, new_dmin)
        if r != self.clock:
            curve = None  # built at r, a hair off the clock
        self._settle(active, curve, accept, mandatory=mandatory)
        return accept

    def advance_to(self, target: float) -> None:
        """Run the plan forward to ``target``, building it first if an event
        left it pending, and again after each window that expires.  With no
        job left the clock jumps to ``target`` if it is finite."""
        while self.clock < target - TOL:
            plan = self.plan
            if not plan.segments:
                # The plan was built for the current state, so an empty one
                # means either no job is left or a broken plan.
                if self.active_jobs():
                    raise InvariantError(
                        f"plan for a nonempty active set has no work at t={self.clock}"
                    )
                if target < math.inf:
                    self.clock = target
                break
            step_end = plan.end if plan.end < target else target
            if step_end <= self.clock:
                raise InvariantError(f"plan window ends at the clock t={self.clock} (float spacing)")
            self._commit_window(self.clock, step_end)
            self.clock = step_end
            if step_end >= plan.end - TOL:
                self.event_times.append(self.clock)
                self._settle(self._drop_finished(), None, True, window_end=True)

    def finish(self) -> SimulationResult:
        """Run the remaining plan to completion and return the outcome."""
        self.advance_to(math.inf)
        return SimulationResult(
            decisions=self.decisions,
            schedule=self.schedule,
            accepted_volume=self.accepted_volume(),
            event_times=list(self.event_times),
        )

    # -- internals ------------------------------------------------------

    def _settle(
        self,
        active: list[ActiveJob],
        curve: PiecewiseLinear | None,
        changed: bool,
        window_end: bool = False,
        mandatory: tuple[float, float] | None = None,
    ) -> None:
        """The one exit of every event.  ``active`` is the live set the event
        leaves at the clock, ``curve`` its mandatory-volume curve or None and
        ``mandatory`` a pair (tau, ``v_min(active, clock, tau)``) or None;
        ``changed`` marks an acceptance or a window end."""
        if changed:
            # Finished jobs leave the live table here, where the old plan is
            # dropped, not when a segment commits: a plan window can still
            # hold a dust segment for a job whose remaining work is already
            # down to TOL.  The new plan is built from ``active`` only when
            # the clock is about to move: a later arrival at this instant
            # changes the set first.
            if len(active) < len(self.live):
                work = self.committed_work
                self.committed_work = {job.id: work[job.id] for job in active}
                self.live = [row for row in self.live if row[0] in self.committed_work]
            self._plan = None
        if self.assert_level >= 1:
            curve = self.check_invariants(active, curve)
            if self.assert_level >= 2:
                if window_end:
                    self._check_progression(curve)
                if changed:
                    self._decay_curve, self._decay_clock = curve, self.clock
        self._instant = (self.clock, active, curve, mandatory)

    def _drop_finished(self) -> list[ActiveJob]:
        """``active_jobs()`` at a window end, where the rows of finished jobs
        leave the live table in the same pass."""
        work = self.committed_work
        active: list[ActiveJob] = []
        live: list[tuple[int, float, float]] = []
        for row in self.live:
            job_id, processing, deadline = row
            if (rem := processing - work[job_id]) > TOL:
                active.append(_record(ActiveJob, (job_id, rem, deadline)))
                live.append(row)
            else:
                del work[job_id]
        self.live = live
        return active

    def _commit_window(self, t0: float, t1: float) -> None:
        """Commit the plan's work inside [t0, t1).  A piece that continues
        the machine's last committed segment, same job and ending exactly
        where the piece starts, extends that segment instead of adding one."""
        if t1 <= t0 + DUST:
            return
        segments, last, work = self.schedule.segments, self._last_piece, self.committed_work
        for seg in self._plan.segments:
            machine, job, start, end = seg
            s = t0 if start < t0 else start
            e = t1 if end > t1 else end
            if e <= s + DUST:
                continue
            i = last[machine]
            if i is not None and (prev := segments[i])[1] == job and prev[3] == s:
                segments[i] = _record(Segment, (machine, job, prev[2], e))
            else:
                last[machine] = len(segments)
                segments.append(seg if s == start and e == end else _record(Segment, (machine, job, s, e)))
            work[job] += e - s

    def check_invariants(
        self, active: list[ActiveJob] | None = None, curve: PiecewiseLinear | None = None
    ) -> PiecewiseLinear:
        """Envelope and feasibility conditions that must hold at every event.

        ``active`` is the live set at the clock, ``active_jobs()`` when
        omitted; ``curve`` is its mandatory-volume curve at the clock, built
        here when omitted.  Returns that curve, which the volume-decay check
        reuses.
        """
        if active is None:
            active = self.active_jobs()
        t = self.clock
        if curve is None:
            curve = v_min_curve(active, t)
        if not horn_feasible(active, t, self.machines, curve):
            raise InvariantError(f"active set infeasible at t={t}")
        if self.policy != "lazy":
            return curve
        # The curve grows at most at rate f beyond d_eff (a line, compared at
        # the curve's breakpoints), and stays under the envelope stretched to
        # span * shape((tau - t) / span) on [t, d_eff).
        d_eff = max(self.d_min, t)
        bps, values, base = curve.breakpoints, curve.values, curve.value(d_eff)
        for i in range(bisect_right(bps, d_eff), len(bps)):
            if values[i] > (bound := base + self.f * (bps[i] - d_eff)) + CHECK_SLACK:
                raise InvariantError(f"growth cap breached at tau={bps[i]}, t={t}: {values[i]} > {bound}")
        if d_eff > t + TOL:
            span, shape = d_eff - t, self._shape
            stretched = [t + x * span for x in shape.breakpoints], [span * v for v in shape.values], shape.slopes
            for tau, value, bound in _pointwise(curve, stretched, -math.inf, d_eff):
                if value > bound + CHECK_SLACK:
                    raise InvariantError(f"shape envelope breached at tau={tau}, t={t}: {value} > {bound}")
        return curve

    def _check_progression(self, now: PiecewiseLinear) -> None:
        # Volume decay across a plan window with no acceptance inside:
        # v_now(tau) <= ((tau - t') / (tau - t)) * v_ref(tau), where ``now``
        # is the curve at the clock and the reference was set at t.
        assert self._decay_curve is not None
        t_old, t_new = self._decay_clock, self.clock
        if t_new <= t_old + TOL:
            return
        for tau, value, ref in _pointwise(now, self._decay_curve, t_new + TOL, math.inf):
            allowed = (tau - t_new) / (tau - t_old) * ref
            if value > allowed + CHECK_SLACK:
                raise InvariantError(f"volume decay violated at tau={tau}: {value} > {allowed}")


#: A curve as (breakpoints, values, slopes), as a ``PiecewiseLinear`` holds it.
Curve = tuple[Sequence[float], Sequence[float], Sequence[float]]


def _pointwise(a: Curve, b: Curve, lo: float, hi: float) -> list[tuple[float, float, float]]:
    """(tau, a(tau), b(tau)) at every breakpoint of either curve with
    lo < tau < hi, ascending, each tau once.

    ``a``'s breakpoints ascend strictly, ``b``'s may repeat.  One merged
    walk over both: a curve's value at tau is ``values[i] + slopes[i] *
    (tau - bps[i])`` with i its last breakpoint <= tau, or i = 0 below the
    first.  A tau both curves hold is ``a``'s float.
    """
    a_bps, a_values, a_slopes = a
    b_bps, b_values, b_slopes = b
    na, nb = len(a_bps), len(b_bps)
    # The breakpoints of each curve read so far: all those <= the last tau.
    i, j = bisect_right(a_bps, lo), bisect_right(b_bps, lo)
    out: list[tuple[float, float, float]] = []
    while i < na or j < nb:
        if j == nb or (i < na and a_bps[i] <= b_bps[j]):
            tau = a_bps[i]
            i += 1
        else:
            tau = b_bps[j]
        if tau >= hi:
            break
        while j < nb and b_bps[j] <= tau:
            j += 1
        k, n = i - 1 if i else 0, j - 1 if j else 0
        out.append(
            (tau, a_values[k] + a_slopes[k] * (tau - a_bps[k]), b_values[n] + b_slopes[n] * (tau - b_bps[n]))
        )
    return out


def simulate_preemptive(instance: Instance, assert_level: int = 0) -> SimulationResult:
    """Run the lazy-threshold policy over a full instance."""
    sim = PreemptiveSimulator(instance.machines, instance.epsilon, assert_level, "lazy")
    return drive(sim, instance)


def greedy_preemptive(instance: Instance, assert_level: int = 0) -> SimulationResult:
    """Baseline: accept whenever the active set plus the job stays feasible."""
    sim = PreemptiveSimulator(instance.machines, instance.epsilon, assert_level, "greedy")
    return drive(sim, instance)
