"""Adaptive stress generators that realise the worst-case lower bounds.

Both generators emit jobs one at a time and adapt to the tested policy's
accept/reject decisions, so a replay is a pure function of the decision
history.  Alongside each realised sequence they build an explicit
certificate schedule whose volume lower-bounds the offline optimum; the
measured ratio is certificate volume over accepted volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    DecisionLog,
    Instance,
    Job,
    Schedule,
    Segment,
    validate_instance,
    verify_schedule,
)
from .nonpreemptive import CommittedStart
from .policy import Policy, make_policy
from .preemptive import wrap_fill

_BISECT_REL = 1e-12


def solve_c_lower(m: int, epsilon: float) -> float:
    """Root of c/m == (m / ((c-1) * eps))^(1/(m-1)) - 1, the non-preemptive
    lower-bound constant.  For m == 1 the closed form 1 + 1/eps applies.

    The left side increases and the right side decreases in c, so the root
    is unique; it is bracketed and bisected to 1e-12 relative precision.

    Writing c = m*x turns the equation into x^m * (1 + 1/x)^(m-1) ~ 1/eps,
    so the asymptote c/m -> (1/eps)^(1/m) holds as eps -> 0 at fixed m,
    where x >> 1.  At fixed eps, c grows only logarithmically in m: at
    m=50, eps=0.1 the root is ~5.139, not 50 * 10^(1/50) ~ 52.4.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0 < epsilon <= 1):
        raise ValueError("epsilon must lie in (0, 1]")
    if m == 1:
        return 1.0 + 1.0 / epsilon

    def gap(c: float) -> float:
        return c / m - ((m / ((c - 1.0) * epsilon)) ** (1.0 / (m - 1)) - 1.0)

    lo = 1.0 + 1e-12
    hi = 2.0 * m * (1.0 / epsilon) ** (1.0 / m)
    if gap(hi) <= 0:
        hi *= 8.0
        if gap(hi) <= 0:
            raise ArithmeticError(f"failed to bracket the lower-bound constant for m={m}, eps={epsilon}")
    while gap(lo) >= 0:
        lo = 1.0 + (lo - 1.0) / 2.0
    while hi - lo > _BISECT_REL * hi:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def strengthened_preemptive_bound(m: int, epsilon: float) -> float:
    """Sharpened numerator for the preemptive lower bound at non-integral
    m*(1+eps): max of m*(1+eps) and floor(m*(1+eps)) + (eps/(1+eps)) * rho^(1/m).

    Reported alongside the plain bound; multiplied by (rho^(1/m) - 1) it
    gives the sharpened ratio.
    """
    rho = (1.0 + epsilon) / epsilon
    return max(
        m * (1.0 + epsilon),
        math.floor(m * (1.0 + epsilon)) + (epsilon / (1.0 + epsilon)) * rho ** (1.0 / m),
    )


def preemptive_lower_bound(m: int, epsilon: float) -> float:
    rho = (1.0 + epsilon) / epsilon
    return math.floor(m * (1.0 + epsilon)) * (rho ** (1.0 / m) - 1.0)


def group_processing_times(m: int, epsilon: float) -> list[float]:
    """Escalating sizes p_2..p_{m+1} used by the non-preemptive generator.

    p_2 = (c-1)/m and each later size grows by the factor c/m + 1; the last
    entry equals 1/eps by construction of c.
    """
    c = solve_c_lower(m, epsilon)
    if m == 1:
        return [1.0 / epsilon]
    sizes = [(c - 1.0) / m]
    for _ in range(3, m + 2):
        sizes.append(sizes[-1] * (c / m + 1.0))
    return sizes


def _mcnaughton(jobs: list[Job], m: int, start: float, end: float) -> Schedule:
    """Wrap-around schedule of equal-window jobs across m machines."""
    sched = Schedule(machines=m)
    sched.segments.extend(
        wrap_fill([(job.id, job.processing) for job in jobs], list(range(m)), start, end - start)
    )
    return sched


@dataclass
class StressOutcome:
    """Result of replaying a generator against one policy."""

    instance: Instance
    decisions: DecisionLog
    alg_volume: float
    opt_volume: float
    opt_schedule: Schedule
    lower_bound: float
    delta: float
    stopped_at_block: int

    @property
    def ratio(self) -> float:
        if self.alg_volume <= 0.0:
            return math.inf if self.opt_volume > 0.0 else 1.0
        return self.opt_volume / self.alg_volume

    @property
    def unbounded(self) -> bool:
        return self.alg_volume <= 0.0 < self.opt_volume


class PreemptiveAdversary:
    """Block-structured generator for the preemptive game; all releases 0.

    Block 1 floods tiny jobs with deadline 1+eps until a target volume is
    accepted; blocks 2..m+1 escalate tight-slack sizes by rho^(1/m) and
    each advances after a single acceptance; the final block offers
    floor(m*(1+eps)) tight-slack jobs that no compliant policy can take.

    The generator is universal: it never offers a policy more than it needs
    to meet a block's acceptance target, so every policy that meets every
    target (the lazy and the greedy one alike) sees the same sequence and
    makes the same decisions.  It pins each such policy to the same lower
    bound and cannot rank policies.
    """

    def __init__(self, m: int, epsilon: float, delta: float = 1.0 / 64) -> None:
        if not (0 < epsilon <= 1):
            raise ValueError("epsilon must lie in (0, 1]")
        if not (0 < delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        self.m = m
        self.epsilon = epsilon
        rho = (1.0 + epsilon) / epsilon
        self.rho = rho
        target_volume = epsilon * sum(rho ** (i / m) for i in range(m))
        # Shrink delta so the block-1 target is an exact multiple of it.
        self.target_count = math.ceil(target_volume / delta - 1e-12)
        self.delta = target_volume / self.target_count
        self.block1_max = math.floor(m * (1.0 + epsilon) / self.delta + 1e-12)
        self.block_cap = math.floor(m * (1.0 + epsilon) + 1e-12)
        self.block = 1
        self.submitted_in_block = 0
        self.accepted_in_block = 0
        self.done = False
        self.next_id = 0
        self.jobs: list[Job] = []
        self.block_of: dict[int, int] = {}

    def block_processing(self, block: int) -> float:
        if block == 1:
            return self.delta
        if block <= self.m + 1:
            return self.rho ** ((block - 2) / self.m)
        return self.rho * (1.0 - self.delta)

    def block_deadline(self, block: int) -> float:
        if block == 1:
            return 1.0 + self.epsilon
        return (1.0 + self.epsilon) * self.block_processing(block)

    def next_job(self) -> Job | None:
        while True:
            if self.done:
                return None
            if self.block == self.m + 2:
                if self.submitted_in_block >= self.block_cap:
                    self.done = True
                    return None
                break
            target = self.target_count if self.block == 1 else 1
            cap = self.block1_max if self.block == 1 else self.block_cap
            if self.accepted_in_block >= target:
                self.block += 1
                self.submitted_in_block = 0
                self.accepted_in_block = 0
                continue
            if self.submitted_in_block >= cap:
                self.done = True
                return None
            break
        job = Job(
            self.next_id,
            0.0,
            self.block_processing(self.block),
            self.block_deadline(self.block),
        )
        self.next_id += 1
        self.submitted_in_block += 1
        self.jobs.append(job)
        self.block_of[job.id] = self.block
        return job

    def record(self, job_id: int, accepted: bool) -> None:
        if accepted:
            self.accepted_in_block += 1

    def certificate(self) -> tuple[float, Schedule, int]:
        """Volume and schedule of the explicit offline certificate: every
        job of the last block reached, packed wrap-around."""
        last = self.block
        members = [j for j in self.jobs if self.block_of[j.id] == last]
        if not members:
            return 0.0, Schedule(machines=self.m), last
        sched = _mcnaughton(members, self.m, 0.0, self.block_deadline(last))
        return sum(j.processing for j in members), sched, last


class NonpreemptiveAdversary:
    """Start-time-probing generator for the non-preemptive game.

    First a lone unit job with a roomy deadline; its committed start t
    anchors everything else.  Then up to m-1 escalating tight-slack groups
    released at t, each advancing on one acceptance, and finally m jobs of
    size 1/eps - delta that cannot start in time on any machine that
    honoured the earlier commitments.
    """

    def __init__(self, m: int, epsilon: float, delta: float = 1.0 / 64) -> None:
        if not (0 < epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1) for this generator")
        if not (0 < delta < 1.0 / epsilon):
            raise ValueError("delta must lie in (0, 1/epsilon)")
        self.m = m
        self.epsilon = epsilon
        self.delta = delta
        self.c = solve_c_lower(m, epsilon)
        self.group_sizes = group_processing_times(m, epsilon)  # p_2..p_{m+1}
        self.first_deadline = 1.0 + (1.0 + epsilon) * (1.0 + 1.0 / epsilon)
        self.t: float | None = None
        self.group = 0  # 0 = the probe job; 1..m-1 = escalation; m = final
        self.submitted_in_group = 0
        self.accepted_in_group = 0
        self.done = False
        self.next_id = 0
        self.jobs: list[Job] = []
        self.group_of: dict[int, int] = {}

    def _group_processing(self, group: int) -> float:
        if group == self.m:
            return 1.0 / self.epsilon - self.delta
        return self.group_sizes[group - 1]

    def next_job(self) -> Job | None:
        while True:
            if self.done:
                return None
            if self.group == 0:
                if self.submitted_in_group:
                    return None  # waiting for record() of the probe job
                job = Job(self.next_id, 0.0, 1.0, self.first_deadline)
                break
            if self.group == self.m:
                if self.submitted_in_group >= self.m:
                    self.done = True
                    return None
            else:
                if self.accepted_in_group >= 1:
                    self.group += 1
                    self.submitted_in_group = 0
                    self.accepted_in_group = 0
                    continue
                if self.submitted_in_group >= self.m:
                    self.done = True
                    return None
            assert self.t is not None
            p = self._group_processing(self.group)
            job = Job(self.next_id, self.t, p, self.t + (1.0 + self.epsilon) * p)
            break
        self.next_id += 1
        self.submitted_in_group += 1
        self.jobs.append(job)
        self.group_of[job.id] = self.group
        return job

    def record(self, job_id: int, placement: CommittedStart | None) -> None:
        """Note the policy's answer: None (or any falsy value) on rejection,
        the committed start on acceptance."""
        if self.group == 0:
            if not placement:
                self.done = True
                return
            if not isinstance(placement, CommittedStart):
                raise ValueError("the probe job's committed start is required")
            self.t = placement.start
            self.group = 1 if self.m > 1 else self.m
            self.submitted_in_group = 0
            self.accepted_in_group = 0
            return
        if placement:
            self.accepted_in_group += 1

    def certificate(self) -> tuple[float, Schedule, int]:
        """Certificate: the probe job run clear of [t, t + 1/eps) plus every
        job of the last offered group, one per machine at t."""
        probe = self.jobs[0]
        if self.t is None:
            sched = Schedule(machines=self.m)
            sched.segments.append(Segment(0, probe.id, 0.0, 1.0))
            return 1.0, sched, 0
        last = self.group
        members = [j for j in self.jobs if self.group_of[j.id] == last]
        sched = Schedule(machines=self.m)
        for lane, job in enumerate(members):
            sched.segments.append(Segment(lane, job.id, job.release, job.release + job.processing))
        p_last = members[0].processing if members else 0.0
        if self.t >= 1.0:
            sched.segments.append(Segment(0, probe.id, self.t - 1.0, self.t))
        else:
            sched.segments.append(
                Segment(0, probe.id, self.t + p_last, self.t + p_last + 1.0)
            )
        return 1.0 + sum(j.processing for j in members), sched, last


def _realized_instance(m: int, epsilon: float, jobs: list[Job]) -> Instance:
    renumbered = tuple(
        Job(i, j.release, j.processing, j.deadline) for i, j in enumerate(jobs)
    )
    inst = Instance(epsilon=epsilon, machines=m, jobs=renumbered)
    problems = validate_instance(inst)
    if problems:
        raise AssertionError("generator emitted an invalid sequence: " + "; ".join(map(str, problems)))
    return inst


def _play(adv: PreemptiveAdversary | NonpreemptiveAdversary, policy: Policy):
    """Offer the generator's jobs to the policy, one decision at a time."""
    while (job := adv.next_job()) is not None:
        adv.record(job.id, policy.submit(job))
    return policy.finish()


def replay_preemptive(
    m: int,
    epsilon: float,
    delta: float = 1.0 / 64,
    algorithm: str = "alg1+2",
    assert_level: int = 0,
) -> StressOutcome:
    """Drive the preemptive generator against a lazy or greedy policy.

    Both policies meet every block's acceptance target, so they replay the
    same sequence with the same admissions and the same ratio; see
    ``PreemptiveAdversary``.
    """
    if algorithm not in ("alg1+2", "greedy-p"):
        raise ValueError(f"unsupported preemptive algorithm {algorithm!r}")
    adv = PreemptiveAdversary(m, epsilon, delta)
    result = _play(adv, make_policy(algorithm, m, epsilon, assert_level))
    opt_volume, opt_schedule, last_block = adv.certificate()
    cert_jobs = {j.id: j for j in adv.jobs if adv.block_of[j.id] == last_block}
    problems = verify_schedule(opt_schedule, cert_jobs)
    if problems:
        raise AssertionError("certificate schedule invalid: " + "; ".join(map(str, problems)))
    return StressOutcome(
        instance=_realized_instance(m, epsilon, adv.jobs),
        decisions=result.decisions,
        alg_volume=result.accepted_volume,
        opt_volume=opt_volume,
        opt_schedule=opt_schedule,
        lower_bound=preemptive_lower_bound(m, epsilon),
        delta=adv.delta,
        stopped_at_block=last_block,
    )


def replay_nonpreemptive(
    m: int,
    epsilon: float,
    delta: float = 1.0 / 64,
    algorithm: str = "alg3",
) -> StressOutcome:
    """Drive the non-preemptive generator against the threshold or greedy
    allocator."""
    if algorithm not in ("alg3", "greedy-np"):
        raise ValueError(f"unsupported non-preemptive algorithm {algorithm!r}")
    adv = NonpreemptiveAdversary(m, epsilon, delta)
    result = _play(adv, make_policy(algorithm, m, epsilon))
    opt_volume, opt_schedule, last_group = adv.certificate()
    cert_ids = {seg.job for seg in opt_schedule.segments}
    cert_jobs = {j.id: j for j in adv.jobs if j.id in cert_ids}
    problems = verify_schedule(opt_schedule, cert_jobs)
    if problems:
        raise AssertionError("certificate schedule invalid: " + "; ".join(map(str, problems)))
    return StressOutcome(
        instance=_realized_instance(m, epsilon, adv.jobs),
        decisions=result.decisions,
        alg_volume=result.accepted_volume,
        opt_volume=opt_volume,
        opt_schedule=opt_schedule,
        lower_bound=solve_c_lower(m, epsilon),
        delta=delta,
        stopped_at_block=last_group,
    )
