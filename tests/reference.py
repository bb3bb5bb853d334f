"""The preemptive policies written for clarity, as a reference for
``commitsched.preemptive``.  Every float the simulator computes is computed
here with the same operations in the same order, so each output equals the
simulator's by ``repr``."""

import math
from functools import reduce
from operator import add

from commitsched.model import (
    CHECK_SLACK, DUST, TOL, DecisionLog, DecisionRecord, InvariantError, Schedule, Segment, SimulationResult, check_job, ordered_sum
)
from commitsched.preemptive import PlanWindow, lrpt_assign, solve_dmin
from commitsched.vmin import ActiveJob, contribution, f_threshold, horn_feasible, v_min, v_min_curve, v_shape_corners, v_shape_curve


def reference_generate_plan(active, t, m):
    """``generate_plan``'s plan, found by scanning every deadline class from
    the latest down with contribution()."""
    jobs = sorted(active, key=lambda j: j.id)
    if not jobs:
        return PlanWindow(t, float("inf"), ())
    deadlines = sorted({j.deadline for j in jobs})
    if deadlines[0] <= t + TOL and any(j.remaining > TOL for j in jobs):
        if not horn_feasible(jobs, t, m):
            raise InvariantError(f"plan requested for an infeasible active set at t={t}")

    def contributors(d):
        return [j for j in jobs if contribution(j.remaining, j.deadline, d) > TOL]

    chosen_k, pre = -1, []
    for k in range(len(deadlines) - 1, -1, -1):
        found = contributors(deadlines[k])
        if len(found) <= m:
            chosen_k, pre = k, found
            break

    end = t + min(contribution(j.remaining, j.deadline, deadlines[chosen_k]) for j in pre) if pre else deadlines[0]
    segments = [Segment(machine, job.id, t, end) for machine, job in enumerate(pre)]
    if chosen_k < len(deadlines) - 1 and len(pre) < m:
        d_next = deadlines[chosen_k + 1]
        pre_ids = {j.id for j in pre}
        extra = [j for j in contributors(d_next) if j.id not in pre_ids]
        volumes = {j.id: contribution(j.remaining, j.deadline, d_next) for j in extra}
        segs, first_idle = lrpt_assign(volumes, list(range(len(pre), m)), t, end)
        if first_idle is not None and first_idle < end:
            end = first_idle
        segments.extend(segs)

    end = max(end, t + DUST)
    clipped = tuple(s if s.end <= end else Segment(s.machine, s.job, s.start, end) for s in segments if s.start < end - DUST)
    return PlanWindow(t, end, clipped)


def reference_check_invariants(sim, active):
    """``check_invariants`` for any ``sim`` with a clock, machines, epsilon,
    policy, d_min and f: its own feasibility test and curve, and the shape
    envelope evaluated at the curve's breakpoints plus the stretched
    corners, re-filtered to [t, d_eff).  Returns the curve."""
    t = sim.clock
    if not horn_feasible(active, t, sim.machines):
        raise InvariantError(f"active set infeasible at t={t}")
    curve = v_min_curve(active, t)
    if sim.policy != "lazy":
        return curve
    d_eff = max(sim.d_min, t)
    v_at_dmin = curve.value(d_eff)
    for tau, value in zip(curve.breakpoints, curve.values):
        if tau >= d_eff:
            bound = v_at_dmin + (tau - d_eff) * sim.f
            if value > bound + CHECK_SLACK:
                raise InvariantError(f"growth cap breached at tau={tau}, t={t}: {value} > {bound}")
    if d_eff > t + TOL:
        span = d_eff - t
        taus = [bp for bp in curve.breakpoints if t <= bp < d_eff]
        taus += [t + x * span for x in v_shape_corners(sim.machines, sim.epsilon)]
        shape = v_shape_curve(sim.machines, sim.epsilon)
        for tau in taus:
            if not (t <= tau < d_eff):
                continue
            bound = span * shape.value((tau - t) / span)
            if curve.value(tau) > bound + CHECK_SLACK:
                raise InvariantError(f"shape envelope breached at tau={tau}, t={t}: {curve.value(tau)} > {bound}")
    return curve


def reference_check_progression(t_old, ref, t_new, now):
    """``_check_progression`` from the curve ``ref`` at t_old to the curve
    ``now`` at t_new: a hand-built tau list and a ``value`` lookup per curve
    and tau."""
    if t_new <= t_old + TOL:
        return
    for tau in sorted(set(now.breakpoints) | {bp for bp in ref.breakpoints if bp > t_new}):
        if tau <= t_new + TOL:
            continue
        allowed = (tau - t_new) / (tau - t_old) * ref.value(tau)
        if now.value(tau) > allowed + CHECK_SLACK:
            raise InvariantError(f"volume decay violated at tau={tau}: {now.value(tau)} > {allowed}")


class ReferenceSimulator:
    """The preemptive event loop with the history as its only state: the
    accepted jobs and every piece of work committed to them.  Every event
    rebuilds the live set, every arrival its curve and compensation sum, and
    every acceptance and window end its plan.  Its interface is the simulator's."""

    def __init__(self, machines, epsilon, assert_level=0, policy="lazy"):
        self.machines, self.epsilon, self.assert_level, self.policy = machines, epsilon, assert_level, policy
        self.f = f_threshold(machines, epsilon)
        self.clock = self.d_min = self.v_delta = 0.0
        self.accepted = {}  # id -> job, in acceptance order
        self.pieces = []  # every piece of work committed, in commit order
        self.work = {}  # id -> the length of each piece committed to the job, in commit order
        self.decisions = DecisionLog()
        self.event_times = [0.0]
        self.plan = reference_generate_plan([], 0.0, machines)
        self.decay = None  # (clock, curve) at the last acceptance or window end, at assert level 2

    def active_jobs(self):
        """The accepted jobs with more than TOL of work left, in id order."""
        # Each job's work adds left to right from 0.0, as the simulator's does.
        return [
            ActiveJob(job.id, rem, job.deadline)
            for job in map(self.accepted.get, sorted(self.accepted))
            if (rem := job.processing - reduce(add, self.work[job.id], 0.0)) > TOL
        ]

    def accepted_volume(self):
        return ordered_sum(job.processing for job in self.accepted.values())

    @property
    def schedule(self):
        """The pieces, each one that continues its machine's last segment
        with the same job merged into that segment."""
        segments, last = [], {}
        for machine, job, start, end in self.pieces:
            i = last.get(machine)
            if i is not None and segments[i].job == job and segments[i].end == start:
                segments[i] = Segment(machine, job, segments[i].start, end)
            else:
                last[machine] = len(segments)
                segments.append(Segment(machine, job, start, end))
        return Schedule(self.machines, segments)

    def submit(self, job):
        check_job(job, self.epsilon)
        if job.release < self.clock - TOL:
            raise ValueError(f"job {job.id} released at {job.release} before clock {self.clock}")
        self.advance_to(job.release)
        if abs(job.release - self.clock) > TOL:
            raise ValueError(f"arrival handled at clock {self.clock} != release {job.release}; advance first")
        r, active = job.release, self.active_jobs()
        if self.policy == "lazy":
            # Admit up to the threshold d_min; v_delta is the volume the
            # threshold line from r holds above the mandatory volume before it.
            self.d_min = threshold = max(self.d_min, r)
            self.v_delta = max((threshold - r) * self.f - v_min(active, r, threshold), 0.0)
            accept = job.deadline >= threshold - TOL
        else:
            threshold = None
            accept = horn_feasible(active + [ActiveJob(job.id, job.processing, job.deadline)], self.clock, self.machines)
        self.decisions.add(DecisionRecord(job.id, accept, r, threshold))
        if accept:
            self.accepted[job.id], self.work[job.id] = job, []
            active = self.active_jobs()
            if self.policy == "lazy":
                self.d_min = max(self.d_min, solve_dmin(v_min_curve(active, r), self.f, self.v_delta, r))
        self._settle(active, accept)
        return accept

    def advance_to(self, target):
        while self.clock < target - TOL:
            if not self.plan.segments:
                if target < math.inf:
                    self.clock = target
                break
            t0, t1 = self.clock, min(target, self.plan.end)
            if t1 <= t0:
                raise InvariantError(f"plan window ends at the clock t={t0} (float spacing)")
            if t1 > t0 + DUST:
                for machine, job, start, end in self.plan.segments:
                    s, e = t0 if start < t0 else start, t1 if end > t1 else end
                    if e > s + DUST:
                        self.pieces.append(Segment(machine, job, s, e))
                        self.work[job].append(e - s)
            self.clock = t1
            if t1 >= self.plan.end - TOL:
                self.event_times.append(t1)
                self._settle(self.active_jobs(), True, window_end=True)

    def finish(self):
        self.advance_to(math.inf)
        return SimulationResult(self.decisions, self.schedule, self.accepted_volume(), list(self.event_times))

    def _settle(self, active, changed, window_end=False):
        """Check the live set ``active`` an event leaves at the assert level,
        and plan after an acceptance or a window end."""
        if self.assert_level >= 1:
            curve = reference_check_invariants(self, active)
            if self.assert_level >= 2:
                if window_end:
                    reference_check_progression(*self.decay, self.clock, curve)
                if changed:
                    self.decay = (self.clock, curve)
        if changed:
            self.plan = reference_generate_plan(active, self.clock, self.machines)
