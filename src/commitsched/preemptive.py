"""Preemptive online scheduling with a lazy deadline threshold.

The simulator alternates two phases.  On each arrival it applies the lazy
admission rule: a job is accepted only if its deadline clears the current
threshold ``d_min``, and an acceptance pushes ``d_min`` to the largest time
at which the threshold line ``(tau - r) * f`` meets the mandatory-volume
curve (plus the compensation term ``v_delta`` that accounts for work with
far deadlines executed early).  Between arrivals it runs the plan produced
by ``generate_plan``: urgent deadline classes are pre-allocated one job per
machine, and remaining machines run the longest-remaining-contribution rule
with wrap-around splitting of tied groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable

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
from .vmin import (
    ActiveJob,
    PiecewiseLinear,
    contribution,
    f_threshold,
    horn_feasible,
    v_min,
    v_min_curve,
    v_shape,
    v_shape_corners,
)

_EVENT_EPS = 1e-12


@dataclass(frozen=True)
class PlanWindow:
    """A committed execution plan over [start, end)."""

    start: float
    end: float
    segments: tuple[Segment, ...]


@dataclass
class SimulationResult:
    decisions: DecisionLog
    schedule: Schedule
    accepted_volume: float
    event_times: list[float] = field(default_factory=list)


def solve_dmin(curve: PiecewiseLinear, f: float, v_delta: float, r: float) -> float:
    """Largest tau with (tau - r) * f == curve(tau) + v_delta.

    The curve is nondecreasing and eventually flat while the left side
    grows with slope f > 0, so a largest crossing always exists.  Segments
    are scanned from the largest breakpoint downward and the per-segment
    linear equation is solved in closed form.
    """
    bps, vals, slopes = curve.breakpoints, curve.values, curve.slopes
    for i in range(len(bps) - 1, -1, -1):
        a = bps[i]
        b = bps[i + 1] if i + 1 < len(bps) else None
        v_a = vals[i]
        s = slopes[i]
        if abs(f - s) < 1e-15:
            # Parallel: a crossing exists only if the lines coincide, in
            # which case the right end of the segment is the largest point.
            if abs((a - r) * f - v_a - v_delta) <= TOL and b is not None:
                return b
            continue
        tau = (v_a - s * a + v_delta + r * f) / (f - s)
        lo, hi = a - TOL, (b + TOL) if b is not None else float("inf")
        if lo <= tau <= hi:
            if b is not None:
                tau = min(max(tau, a), b)
            else:
                tau = max(tau, a)
            return tau
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
    q = len(lanes)
    segments: list[Segment] = []
    offset = 0.0
    capacity = q * span
    for item, amount in amounts:
        left = amount
        while left > _EVENT_EPS:
            if offset >= capacity - _EVENT_EPS:
                break  # float dust beyond total capacity
            lane = min(int((offset + _EVENT_EPS) // span), q - 1)
            pos = offset - lane * span
            room = span - pos
            if room <= _EVENT_EPS:
                offset = (lane + 1) * span
                continue
            take = min(left, room)
            segments.append(Segment(lanes[lane], item, start + pos, start + pos + take))
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
    Returns the segments over [start, end) and the earliest instant after
    the start at which a machine sits idle (None when every machine that
    had work stays busy to the end; machines idle from the very start do
    not count, since no later event will change their situation).
    """
    m = len(machines)
    if m == 0 or end <= start + _EVENT_EPS:
        return [], None
    rem = {j: v for j, v in volumes.items() if v > TOL}
    segments: list[Segment] = []
    cur = start
    first_idle: float | None = None
    while cur < end - _EVENT_EPS and rem:
        # Group jobs by (tolerance-equal) remaining volume, largest first.
        order = sorted(rem, key=lambda j: (-rem[j], j))
        groups: list[list[int]] = []
        for j in order:
            if groups and abs(rem[groups[-1][0]] - rem[j]) <= 1e-9:
                groups[-1].append(j)
            else:
                groups.append([j])
        # Assign machines to groups greedily from the largest volume.
        avail = m
        alloc: list[int] = []
        for g in groups:
            q = min(avail, len(g))
            alloc.append(q)
            avail -= q
        rates = [q / len(g) for g, q in zip(groups, alloc)]
        # Next event: window end, a running group exhausting, or a group
        # catching up with the one below it.
        delta = end - cur
        for g, q, rate in zip(groups, alloc, rates):
            if rate > 0:
                delta = min(delta, rem[g[0]] / rate)
        for i in range(len(groups) - 1):
            gap = rem[groups[i][0]] - rem[groups[i + 1][0]]
            closing = rates[i] - rates[i + 1]
            if closing > 1e-15 and gap > 0:
                delta = min(delta, gap / closing)
        delta = max(delta, _EVENT_EPS)
        nxt = min(end, cur + delta)
        span = nxt - cur
        # Realise this sub-interval: full machines for untied capacity,
        # wrap-around for shared groups.
        machine_idx = 0
        for g, q, rate in zip(groups, alloc, rates):
            if q == 0:
                continue
            chunk = rate * span
            if q == len(g):
                for j in g:
                    segments.append(Segment(machines[machine_idx], j, cur, nxt))
                    machine_idx += 1
            else:
                lanes = machines[machine_idx : machine_idx + q]
                machine_idx += q
                segments.extend(
                    wrap_fill([(j, chunk) for j in sorted(g)], lanes, cur, span)
                )
            for j in g:
                rem[j] = rem[j] - rate * span
        for j in [j for j, v in rem.items() if v <= TOL]:
            del rem[j]
        cur = nxt
        if first_idle is None and len(rem) < m and cur < end - _EVENT_EPS:
            first_idle = cur
    return segments, first_idle


def generate_plan(active: Iterable[ActiveJob], t: float, m: int) -> PlanWindow:
    """Build the execution plan from time t for the active jobs.

    The latest deadline class whose mandatory volume involves at most m
    jobs is pre-allocated one job per machine; the window extends by the
    smallest of those mandatory contributions.  Idle machines then run the
    longest-remaining rule on the next deadline class, and the window
    shrinks to the first idle instant of that sub-schedule.
    """
    jobs = sorted(active, key=lambda j: j.id)
    if not jobs:
        return PlanWindow(t, float("inf"), ())
    deadlines = sorted({j.deadline for j in jobs})
    if deadlines[0] <= t + TOL and any(j.remaining > TOL for j in jobs):
        if not horn_feasible(jobs, t, m):
            raise InvariantError(f"plan requested for an infeasible active set at t={t}")

    def contributors(d: float) -> list[ActiveJob]:
        return [j for j in jobs if contribution(j.remaining, j.deadline, d) > TOL]

    chosen_k = None
    for k in range(len(deadlines) - 1, -1, -1):
        if len(contributors(deadlines[k])) <= m:
            chosen_k = k
            break

    segments: list[Segment] = []
    if chosen_k is None:
        # Every deadline class already involves more than m jobs: pure
        # longest-remaining over the first class.
        d1 = deadlines[0]
        end = d1
        lrpt_jobs = contributors(d1)
        volumes = {j.id: contribution(j.remaining, j.deadline, d1) for j in lrpt_jobs}
        segs, first_idle = lrpt_assign(volumes, list(range(m)), t, end)
        if first_idle is not None:
            end = min(end, first_idle)
        segments.extend(segs)
    else:
        d_k = deadlines[chosen_k]
        pre = contributors(d_k)
        end = t + min(contribution(j.remaining, j.deadline, d_k) for j in pre) if pre else deadlines[0]
        for machine, job in enumerate(pre):
            segments.append(Segment(machine, job.id, t, end))
        m_rest = m - len(pre)
        if chosen_k < len(deadlines) - 1 and m_rest > 0:
            d_next = deadlines[chosen_k + 1]
            pre_ids = {j.id for j in pre}
            extra = [j for j in contributors(d_next) if j.id not in pre_ids]
            volumes = {j.id: contribution(j.remaining, j.deadline, d_next) for j in extra}
            segs, first_idle = lrpt_assign(
                volumes, list(range(len(pre), m)), t, end
            )
            if first_idle is not None and first_idle < end:
                end = first_idle
            segments.extend(segs)

    end = max(end, t + _EVENT_EPS)
    clipped = tuple(
        Segment(s.machine, s.job, s.start, min(s.end, end))
        for s in segments
        if s.start < end - _EVENT_EPS
    )
    return PlanWindow(t, end, clipped)


class PreemptiveSimulator:
    """Event-driven simulator for the preemptive admission policies.

    ``policy`` selects the admission rule: "lazy" uses the deadline
    threshold described in the module docstring, "greedy" accepts whenever
    the active set plus the new job stays feasible.  ``assert_level`` >= 1
    re-checks the threshold envelope and feasibility after every event;
    level >= 2 additionally checks the volume-decay inequality between
    consecutive events.
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
        self.assert_level = assert_level
        self.f = f_threshold(machines, epsilon)
        self.clock = 0.0
        self.d_min = 0.0
        self.v_delta = 0.0
        self.jobs: dict[int, Job] = {}
        self.committed_work: dict[int, float] = {}
        self.schedule = Schedule(machines=machines)
        self.decisions = DecisionLog()
        self.plan: PlanWindow | None = None
        self.event_times: list[float] = [0.0]
        # Reference state for the volume-decay check: the last plan-aligned
        # instant (plan generation or window end).  Between such instants
        # the realised schedule matches the fluid sharing trajectory, so
        # the decay inequality is exact there; at interior instants the
        # wrap-around realisation may front-load one tied job's share.
        self._decay_curve: PiecewiseLinear | None = None
        self._decay_clock = 0.0

    # -- state views ----------------------------------------------------

    def active_jobs(self) -> list[ActiveJob]:
        out = []
        for job_id in sorted(self.committed_work):
            job = self.jobs[job_id]
            rem = job.processing - self.committed_work[job_id]
            if rem > TOL:
                out.append(ActiveJob(job_id, rem, job.deadline))
        return out

    def accepted_volume(self) -> float:
        return sum(self.jobs[j].processing for j in self.decisions.accepted_ids())

    # -- event loop -----------------------------------------------------

    def submit(self, job: Job) -> bool:
        """Advance to the job's release and run the admission rule."""
        if job.release < self.clock - TOL:
            raise ValueError(f"job {job.id} released at {job.release} before clock {self.clock}")
        self.advance_to(job.release)
        return self.on_arrival(job)

    def on_arrival(self, job: Job) -> bool:
        if abs(job.release - self.clock) > TOL:
            raise RuntimeError(
                f"arrival handled at clock {self.clock} != release {job.release}; advance first"
            )
        r = job.release
        if self.policy == "lazy":
            self.d_min = max(self.d_min, r)
            active = self.active_jobs()
            self.v_delta = (self.d_min - r) * self.f - v_min(active, r, self.d_min)
            if self.v_delta < -1e-7:
                raise InvariantError(f"negative compensation volume {self.v_delta} at t={r}")
            self.v_delta = max(self.v_delta, 0.0)
            threshold = self.d_min
            accept = job.deadline >= threshold - TOL
        else:
            candidate = self.active_jobs() + [ActiveJob(job.id, job.processing, job.deadline)]
            threshold = None
            accept = horn_feasible(candidate, self.clock, self.machines)
        self.decisions.add(DecisionRecord(job.id, accept, r, threshold))
        if accept:
            self.jobs[job.id] = job
            self.committed_work[job.id] = 0.0
            if self.policy == "lazy":
                curve = v_min_curve(self.active_jobs(), r)
                new_dmin = solve_dmin(curve, self.f, self.v_delta, r)
                if new_dmin < self.d_min - 1e-7:
                    raise InvariantError(
                        f"threshold moved backwards: {self.d_min} -> {new_dmin} at t={r}"
                    )
                self.d_min = max(self.d_min, new_dmin)
            self._regenerate_plan()
            self._reset_decay_reference()
        if self.assert_level >= 1:
            self.check_invariants()
        return accept

    def advance_to(self, target: float) -> None:
        """Run the current plan forward to ``target``, regenerating at expiry."""
        while self.clock < target - TOL:
            if self.plan is None or not self.plan.segments:
                if not self.active_jobs():
                    self.clock = target
                    break
                self._regenerate_plan()
                if not self.plan.segments:
                    raise InvariantError(
                        f"plan for a nonempty active set has no work at t={self.clock}"
                    )
                continue
            step_end = min(target, self.plan.end)
            self._commit_window(self.clock, step_end)
            self.clock = step_end
            if step_end >= self.plan.end - TOL:
                self.plan = None
                self.event_times.append(self.clock)
                if self.active_jobs():
                    self._regenerate_plan()
                self._window_checkpoint()

    def finish(self) -> SimulationResult:
        """Run the remaining plan to completion and return the outcome."""
        while self.active_jobs():
            if self.plan is None:
                self._regenerate_plan()
            assert self.plan is not None
            horizon = self.plan.end
            self._commit_window(self.clock, horizon)
            self.clock = horizon
            self.plan = None
            self.event_times.append(self.clock)
            self._window_checkpoint()
        return SimulationResult(
            decisions=self.decisions,
            schedule=self.schedule,
            accepted_volume=self.accepted_volume(),
            event_times=sorted(set(self.event_times)),
        )

    # -- internals ------------------------------------------------------

    def _regenerate_plan(self) -> None:
        self.plan = generate_plan(self.active_jobs(), self.clock, self.machines)

    def _commit_window(self, t0: float, t1: float) -> None:
        if t1 <= t0 + _EVENT_EPS or self.plan is None:
            return
        for seg in self.plan.segments:
            s, e = max(seg.start, t0), min(seg.end, t1)
            if e > s + _EVENT_EPS:
                self.schedule.segments.append(Segment(seg.machine, seg.job, s, e))
                self.committed_work[seg.job] += e - s

    def _reset_decay_reference(self) -> None:
        if self.assert_level >= 2:
            self._decay_curve = v_min_curve(self.active_jobs(), self.clock)
            self._decay_clock = self.clock

    def _window_checkpoint(self) -> None:
        if self.assert_level >= 1:
            self.check_invariants()
            if self.assert_level >= 2 and self._decay_curve is not None:
                self._check_progression()
        self._reset_decay_reference()

    def check_invariants(self) -> None:
        """Envelope and feasibility conditions that must hold at every event."""
        active = self.active_jobs()
        t = self.clock
        if not horn_feasible(active, t, self.machines):
            raise InvariantError(f"active set infeasible at t={t}")
        if self.policy != "lazy":
            return
        curve = v_min_curve(active, t)
        d_eff = max(self.d_min, t)
        slack = 1e-7
        v_at_dmin = curve.value(d_eff)
        for tau in curve.breakpoints:
            if tau >= d_eff:
                bound = v_at_dmin + (tau - d_eff) * self.f
                if curve.value(tau) > bound + slack:
                    raise InvariantError(
                        f"growth cap breached at tau={tau}, t={t}: {curve.value(tau)} > {bound}"
                    )
        if d_eff > t + TOL:
            span = d_eff - t
            taus = [bp for bp in curve.breakpoints if t <= bp < d_eff]
            taus += [t + x * span for x in v_shape_corners(self.machines, self.epsilon)]
            for tau in taus:
                if not (t <= tau < d_eff):
                    continue
                bound = span * v_shape((tau - t) / span, self.machines, self.epsilon)
                if curve.value(tau) > bound + slack:
                    raise InvariantError(
                        f"shape envelope breached at tau={tau}, t={t}: "
                        f"{curve.value(tau)} > {bound}"
                    )

    def _check_progression(self) -> None:
        # Volume decay across a plan window with no acceptance inside:
        # v_now(tau) <= ((tau - t') / (tau - t)) * v_ref(tau).
        assert self._decay_curve is not None
        t_old, t_new = self._decay_clock, self.clock
        if t_new <= t_old + TOL:
            return
        now = v_min_curve(self.active_jobs(), t_new)
        taus = sorted(set(now.breakpoints) | {bp for bp in self._decay_curve.breakpoints if bp > t_new})
        for tau in taus:
            if tau <= t_new + TOL:
                continue
            allowed = (tau - t_new) / (tau - t_old) * self._decay_curve.value(tau)
            if now.value(tau) > allowed + 1e-7:
                raise InvariantError(
                    f"volume decay violated at tau={tau}: {now.value(tau)} > {allowed}"
                )


def simulate_preemptive(
    instance: Instance, assert_level: int = 0, trace: IO[str] | None = None
) -> SimulationResult:
    """Run the lazy-threshold policy over a full instance."""
    sim = PreemptiveSimulator(instance.machines, instance.epsilon, assert_level, "lazy")
    return driver.drive(sim, instance, trace)


def greedy_preemptive(
    instance: Instance, assert_level: int = 0, trace: IO[str] | None = None
) -> SimulationResult:
    """Baseline: accept whenever the active set plus the job stays feasible."""
    sim = PreemptiveSimulator(instance.machines, instance.epsilon, assert_level, "greedy")
    return driver.drive(sim, instance, trace)
