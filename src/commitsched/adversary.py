"""Adaptive stress generators that realise the worst-case lower bounds.

Each generator is a Python generator, ``play()``: it yields jobs one at
a time and receives the tested policy's answer to each through ``send``,
so a replay is a pure function of the decision history.  Alongside each realised sequence they build an explicit
certificate schedule whose volume lower-bounds the offline optimum; the
measured ratio is certificate volume over accepted volume.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

from .model import (
    DUST,
    CommittedStart,
    DecisionLog,
    Instance,
    InvariantError,
    Job,
    Policy,
    Schedule,
    Segment,
    check_instance,
    check_policy_args,
    check_schedule,
    ordered_sum,
    rho,
    volume_ratio,
)
from .policy import make_policy, stress_algorithms
from .preemptive import wrap_fill


def solve_c_lower(m: int, epsilon: float) -> float:
    """Root of c/m == (m / ((c-1) * eps))^(1/(m-1)) - 1, the non-preemptive
    lower-bound constant.  For m == 1 the closed form 1 + 1/eps applies.

    The left side increases and the right side decreases in c, so the root
    is unique; it is bracketed and bisected to ``DUST`` relative precision.

    Writing c = m*x turns the equation into x^m * (1 + 1/x)^(m-1) ~ 1/eps,
    so the asymptote c/m -> (1/eps)^(1/m) holds as eps -> 0 at fixed m,
    where x >> 1.  At fixed eps, c grows only logarithmically in m: at
    m=50, eps=0.1 the root is ~5.139, not 50 * 10^(1/50) ~ 52.4.
    """
    check_policy_args(m, epsilon)
    if not (0 < epsilon <= 1):
        raise ValueError("epsilon must lie in (0, 1]")
    if m == 1:
        return 1.0 + 1.0 / epsilon

    def gap(c: float) -> float:
        return c / m - ((m / ((c - 1.0) * epsilon)) ** (1.0 / (m - 1)) - 1.0)

    lo = 1.0 + DUST
    hi = 2.0 * m * (1.0 / epsilon) ** (1.0 / m)
    if gap(hi) <= 0:
        hi *= 8.0
        if gap(hi) <= 0:
            raise InvariantError(f"failed to bracket the lower-bound constant for m={m}, eps={epsilon}")
    while gap(lo) >= 0:
        lo = 1.0 + (lo - 1.0) / 2.0
    while hi - lo > DUST * hi:
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
    return max(
        m * (1.0 + epsilon),
        math.floor(m * (1.0 + epsilon)) + (epsilon / (1.0 + epsilon)) * rho(epsilon) ** (1.0 / m),
    )


def preemptive_lower_bound(m: int, epsilon: float) -> float:
    return math.floor(m * (1.0 + epsilon)) * (rho(epsilon) ** (1.0 / m) - 1.0)


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
        return volume_ratio(self.opt_volume, self.alg_volume)


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
        check_policy_args(m, epsilon)
        if not (0 < epsilon <= 1):
            raise ValueError("epsilon must lie in (0, 1]")
        if not (0 < delta < 1):
            raise ValueError("delta must lie in (0, 1)")
        self.m = m
        self.epsilon = epsilon
        self.rho = rho(epsilon)
        target_volume = epsilon * ordered_sum(self.rho ** (i / m) for i in range(m))
        # Shrink delta so the block-1 target is an exact multiple of it; a target
        # volume far below delta still takes one job.
        self.target_count = max(1, math.ceil(target_volume / delta - DUST))
        self.delta = target_volume / self.target_count
        self.block1_max = math.floor(m * (1.0 + epsilon) / self.delta + DUST)
        self.block_cap = math.floor(m * (1.0 + epsilon) + DUST)

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

    def play(self) -> Generator[Job, object, None]:
        """Yield the jobs one at a time; ``send`` each answer back (truthy
        on acceptance).  ``blocks`` keeps the offered jobs, one list per
        block reached."""
        self.blocks: list[list[Job]] = []
        for block in range(1, self.m + 2):
            target = self.target_count if block == 1 else 1
            cap = self.block1_max if block == 1 else self.block_cap
            self.blocks.append([])
            accepted = 0
            while accepted < target:
                if len(self.blocks[-1]) >= cap:
                    return
                if (yield self._offer(block)):
                    accepted += 1
        self.blocks.append([])
        for _ in range(self.block_cap):
            yield self._offer(self.m + 2)

    def _offer(self, block: int) -> Job:
        return _append(self.blocks, 0.0, self.block_processing(block), self.block_deadline(block))

    def certificate(self) -> tuple[float, Schedule, int, list[Job]]:
        """Volume, schedule, last block and jobs of the explicit offline
        certificate: every job of the last block reached, packed
        wrap-around."""
        last = len(self.blocks)
        members = self.blocks[-1]
        sched = _mcnaughton(members, self.m, 0.0, self.block_deadline(last))
        return ordered_sum(j.processing for j in members), sched, last, members


class NonpreemptiveAdversary:
    """Start-time-probing generator for the non-preemptive game.

    First a lone unit job with a roomy deadline; its committed start t
    anchors everything else.  Then up to m-1 escalating tight-slack groups
    released at t, each advancing on one acceptance, and finally m jobs of
    size 1/eps - delta that cannot start in time on any machine that
    honoured the earlier commitments.
    """

    def __init__(self, m: int, epsilon: float, delta: float = 1.0 / 64) -> None:
        check_policy_args(m, epsilon)
        if not (0 < epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1) for this generator")
        if not (0 < delta < 1.0 / epsilon):
            raise ValueError("delta must lie in (0, 1/epsilon)")
        self.m = m
        self.epsilon = epsilon
        self.delta = delta
        self.group_sizes = group_processing_times(m, epsilon)  # p_2..p_{m+1}
        self.first_deadline = 1.0 + (1.0 + epsilon) * (1.0 + 1.0 / epsilon)

    def play(self) -> Generator[Job, object, None]:
        """Yield the jobs one at a time; ``send`` each answer back: the
        committed start on acceptance, anything falsy on rejection.
        ``blocks`` keeps the offered jobs, one list per group reached:
        the probe, the escalation groups, the final group."""
        self.blocks: list[list[Job]] = [[]]
        placement = yield _append(self.blocks, 0.0, 1.0, self.first_deadline)
        if not placement:
            return
        if not isinstance(placement, CommittedStart):
            raise ValueError("the probe job's committed start is required")
        t = placement.start
        for p in self.group_sizes[: self.m - 1]:
            self.blocks.append([])
            while not (yield _append(self.blocks, t, p, t + (1.0 + self.epsilon) * p)):
                if len(self.blocks[-1]) >= self.m:
                    return
        self.blocks.append([])
        p = 1.0 / self.epsilon - self.delta
        for _ in range(self.m):
            yield _append(self.blocks, t, p, t + (1.0 + self.epsilon) * p)

    def certificate(self) -> tuple[float, Schedule, int, list[Job]]:
        """Volume, schedule, last group and jobs of the certificate: the
        probe job run clear of [t, t + 1/eps) plus every job of the last
        offered group, one per machine at t."""
        probe = self.blocks[0][0]
        sched = Schedule(machines=self.m)
        if len(self.blocks) == 1:
            sched.segments.append(Segment(0, probe.id, 0.0, 1.0))
            return 1.0, sched, 0, [probe]
        members = self.blocks[-1]
        t = members[0].release
        for lane, job in enumerate(members):
            sched.segments.append(Segment(lane, job.id, job.release, job.release + job.processing))
        if t >= 1.0:
            sched.segments.append(Segment(0, probe.id, t - 1.0, t))
        else:
            p_last = members[0].processing
            sched.segments.append(Segment(0, probe.id, t + p_last, t + p_last + 1.0))
        return 1.0 + ordered_sum(j.processing for j in members), sched, len(self.blocks) - 1, [probe] + members


def _append(blocks: list[list[Job]], release: float, processing: float, deadline: float) -> Job:
    """A new job in the last block; its id is its position in the
    realised sequence."""
    job = Job(sum(map(len, blocks)), release, processing, deadline)
    blocks[-1].append(job)
    return job


def _replay(
    adv: PreemptiveAdversary | NonpreemptiveAdversary, policy: Policy, lower_bound: float
) -> StressOutcome:
    """Offer the generator's jobs to the policy, one decision at a time,
    then verify the generator's certificate against its own jobs."""
    jobs = adv.play()
    try:
        job = next(jobs)
        while True:
            job = jobs.send(policy.submit(job))
    except StopIteration:
        pass
    result = policy.finish()
    opt_volume, opt_schedule, last, members = adv.certificate()
    check_schedule(opt_schedule, {j.id: j for j in members}, "certificate schedule invalid")
    realized = Instance(epsilon=adv.epsilon, machines=adv.m, jobs=tuple(j for block in adv.blocks for j in block))
    return StressOutcome(
        instance=check_instance(realized, InvariantError, "generator emitted an invalid sequence"),
        decisions=result.decisions,
        alg_volume=result.accepted_volume,
        opt_volume=opt_volume,
        opt_schedule=opt_schedule,
        lower_bound=lower_bound,
        delta=adv.delta,
        stopped_at_block=last,
    )


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
    if algorithm not in stress_algorithms(preemptive=True):
        raise ValueError(f"unsupported preemptive algorithm {algorithm!r}")
    adv = PreemptiveAdversary(m, epsilon, delta)
    return _replay(adv, make_policy(algorithm, m, epsilon, assert_level), preemptive_lower_bound(m, epsilon))


def replay_nonpreemptive(
    m: int,
    epsilon: float,
    delta: float = 1.0 / 64,
    algorithm: str = "alg3",
) -> StressOutcome:
    """Drive the non-preemptive generator against the threshold or greedy
    allocator."""
    if algorithm not in stress_algorithms(preemptive=False):
        raise ValueError(f"unsupported non-preemptive algorithm {algorithm!r}")
    adv = NonpreemptiveAdversary(m, epsilon, delta)
    return _replay(adv, make_policy(algorithm, m, epsilon), solve_c_lower(m, epsilon))
