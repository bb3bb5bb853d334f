"""Acceptance suite: one test per exit criterion, at the stated tolerances.

The shared random corpus (2,000 instances, n <= 12, m in {1,2,3},
epsilon in {0.1, 0.5, 1}) is simulated once and its per-instance results
are reused across the criteria that reference it.
"""

import math
import random
import time
from dataclasses import dataclass

import mpmath
import pytest

from commitsched.adversary import (
    preemptive_lower_bound,
    replay_preemptive,
    solve_c_lower,
)
from commitsched.harness import random_instance, theoretical_bounds
from commitsched.model import Instance, Job, validate_instance, verify_schedule
from commitsched.nonpreemptive import (
    committed_schedule,
    greedy_nonpreemptive,
    partition_group_size,
    randomized_single_parts,
    simulate_nonpreemptive,
    simulate_partitioned,
    simulate_randomized_single,
)
from commitsched.oracle import (
    flow_feasible,
    max_prefix_work,
    opt_nonpreemptive,
    opt_preemptive,
)
from commitsched.preemptive import greedy_preemptive, simulate_preemptive
from commitsched.vmin import ActiveJob, horn_feasible

CORPUS_SIZE = 2000
M_CHOICES = (1, 2, 3)
EPS_CHOICES = (0.1, 0.5, 1.0)
SPAN_CHOICES = (0.0, 5.0, 20.0)


@dataclass
class CorpusEntry:
    instance: Instance
    lazy_volume: float
    lazy_ok: bool
    alg3_volume: float
    alg3_ok: bool
    greedy_p_volume: float
    greedy_np_volume: float
    partitioned_volume: float | None = None
    randomized_volume: float | None = None
    opt_p: float | None = None
    opt_np: float | None = None


def _corpus_instance(i: int) -> Instance:
    n = (i % 12) + 1
    m = M_CHOICES[i % 3]
    eps = EPS_CHOICES[(i // 3) % 3]
    span = SPAN_CHOICES[(i // 9) % 3]
    return random_instance(n, m, eps, seed=10_000 + i, release_span=span, slack_mix=0.5)


@pytest.fixture(scope="session")
def corpus():
    t0 = time.monotonic()
    entries = []
    for i in range(CORPUS_SIZE):
        inst = _corpus_instance(i)
        by_id = {j.id: j for j in inst.jobs}

        lazy = simulate_preemptive(inst, assert_level=1)  # raises on envelope breach
        accepted = {j: by_id[j] for j in lazy.decisions.accepted_ids()}
        lazy_ok = verify_schedule(lazy.schedule, accepted) == []

        alg3 = simulate_nonpreemptive(inst)  # raises on load-sum breach
        alg3_ok = True
        for cs in alg3.starts:
            job = by_id[cs.job]
            if cs.start + job.processing > job.deadline + 1e-9:
                alg3_ok = False
        np_accepted = {j: by_id[j] for j in alg3.decisions.accepted_ids()}
        if verify_schedule(committed_schedule(alg3, inst), np_accepted):
            alg3_ok = False

        partitioned = None
        if inst.machines >= partition_group_size(inst.epsilon):
            partitioned = simulate_partitioned(inst).accepted_volume
        randomized = None
        if inst.machines == 1:
            randomized = simulate_randomized_single(inst, seed=i).accepted_volume

        entries.append(
            CorpusEntry(
                instance=inst,
                lazy_volume=lazy.accepted_volume,
                lazy_ok=lazy_ok,
                alg3_volume=alg3.accepted_volume,
                alg3_ok=alg3_ok,
                greedy_p_volume=greedy_preemptive(inst).accepted_volume,
                greedy_np_volume=greedy_nonpreemptive(inst).accepted_volume,
                partitioned_volume=partitioned,
                randomized_volume=randomized,
            )
        )
    print(f"\n[corpus: {CORPUS_SIZE} instances simulated in {time.monotonic() - t0:.1f}s]")
    return entries


@pytest.fixture(scope="session")
def corpus_with_preemptive_opt(corpus):
    t0 = time.monotonic()
    for entry in corpus:
        if entry.opt_p is None:
            entry.opt_p = opt_preemptive(entry.instance)
    print(f"\n[preemptive oracle pass in {time.monotonic() - t0:.1f}s]")
    return corpus


@pytest.fixture(scope="session")
def corpus_with_nonpreemptive_opt(corpus):
    t0 = time.monotonic()
    for entry in corpus:
        if entry.opt_np is None and len(entry.instance) <= 10:
            entry.opt_np = opt_nonpreemptive(entry.instance)
    print(f"\n[non-preemptive oracle pass in {time.monotonic() - t0:.1f}s]")
    return corpus


def _ratio(opt, alg):
    if opt is None:
        return None
    if opt <= 0 and alg <= 0:
        return 1.0
    return math.inf if alg <= 0 else opt / alg


def test_criterion_1_commitment_soundness(corpus):
    t0 = time.monotonic()
    violations = sum((not e.lazy_ok) + (not e.alg3_ok) for e in corpus)
    assert violations == 0
    print(f"\nPASS criterion 1: commitment held on {len(corpus)} instances, 0 violations [{time.monotonic() - t0:.1f}s]")


def test_criterion_2_preemptive_ratio_bound(corpus_with_preemptive_opt):
    t0 = time.monotonic()
    worst_margin = math.inf
    for e in corpus_with_preemptive_opt:
        inst = e.instance
        bound = theoretical_bounds(inst.machines, inst.epsilon)["preemptive_upper"]
        if inst.machines == 1:
            assert bound == pytest.approx((1 + inst.epsilon) / inst.epsilon, rel=1e-12)
        ratio = _ratio(e.opt_p, e.lazy_volume)
        assert ratio is not None
        assert ratio <= bound + 1e-6, f"instance {inst}: ratio {ratio} > bound {bound}"
        worst_margin = min(worst_margin, bound - ratio)
    print(f"\nPASS criterion 2: preemptive ratio bound held, smallest margin {worst_margin:.3g} [{time.monotonic() - t0:.1f}s]")


def test_criterion_3_nonpreemptive_ratio_bound(corpus_with_nonpreemptive_opt):
    t0 = time.monotonic()
    checked = 0
    for e in corpus_with_nonpreemptive_opt:
        if e.opt_np is None:
            continue
        inst = e.instance
        bound = theoretical_bounds(inst.machines, inst.epsilon)["nonpreemptive_upper"]
        ratio = _ratio(e.opt_np, e.alg3_volume)
        assert ratio <= bound + 1e-6, f"instance {inst}: ratio {ratio} > bound {bound}"
        checked += 1
    assert checked > 0
    print(f"\nPASS criterion 3: non-preemptive ratio bound held on {checked} instances [{time.monotonic() - t0:.1f}s]")


def test_criterion_4_envelope_invariants(corpus):
    # The lazy runs in the corpus fixture execute with assert_level=1: the
    # threshold-envelope and feasibility conditions are re-checked after
    # every event and any breach raises, so reaching this point with all
    # entries simulated is the assertion.
    assert len(corpus) == CORPUS_SIZE
    print(f"\nPASS criterion 4: envelope invariants held at every event of {CORPUS_SIZE} runs")


def test_criterion_5_load_sum_invariant(corpus):
    # The threshold allocator checks the two-largest-loads bound after
    # every decay and placement and raises on breach; all corpus entries
    # completed, so no event violated it.
    assert len(corpus) == CORPUS_SIZE
    print(f"\nPASS criterion 5: load-sum invariant held at every event of {CORPUS_SIZE} runs")


def test_criterion_6_prefix_packing_guarantee():
    t0 = time.monotonic()
    rng = random.Random(777)
    instances_checked = 0
    while instances_checked < 200:
        n = rng.randint(2, 8)
        m = rng.choice(M_CHOICES)
        eps = rng.choice((0.5, 1.0))
        jobs = []
        for i in range(n):
            p = rng.uniform(1.0, 8.0)
            stretch = 1.0 if rng.random() < 0.5 else rng.uniform(1.0, 3.0)
            jobs.append(Job(i, 0.0, p, (1 + eps) * p * stretch))
        if not horn_feasible([ActiveJob(j.id, j.processing, j.deadline) for j in jobs], 0.0, m):
            continue
        inst = Instance(epsilon=eps, machines=m, jobs=tuple(jobs))
        result = greedy_preemptive(inst)  # feasible set: accepts everything
        assert set(result.decisions.accepted_ids()) == {j.id for j in jobs}
        for t in result.event_times:
            if t <= 0.0:
                continue
            best = max_prefix_work(jobs, m, t)
            done = result.schedule.work_in(0.0, t)
            assert best - done <= 0.25 * best + 1e-9, (
                f"prefix gap {best - done} > quarter of {best} at t={t}"
            )
        instances_checked += 1
    print(f"\nPASS criterion 6: prefix packing within a quarter of optimal on {instances_checked} runs [{time.monotonic() - t0:.1f}s]")


def test_criterion_7_oracle_cross_validation(corpus_with_preemptive_opt, corpus_with_nonpreemptive_opt):
    t0 = time.monotonic()
    rng = random.Random(4242)
    for _ in range(1000):
        n = rng.randint(1, 8)
        m = rng.choice(M_CHOICES)
        jobs = []
        for i in range(n):
            p = rng.uniform(0.5, 4.0)
            jobs.append(Job(i, 0.0, p, p * rng.uniform(1.0, 3.0)))
        active = [ActiveJob(j.id, j.processing, j.deadline) for j in jobs]
        assert flow_feasible(jobs, m) == horn_feasible(active, 0.0, m)

    # Oracle dominance. The preemptive optimum bounds every policy; the
    # non-preemptive optimum bounds the policies that commit machine and
    # start time.  (A preemptive policy can legitimately beat the
    # non-preemptive optimum, see test_preemptive_policies_can_beat_the
    # _nonpreemptive_oracle below, so the chain is split accordingly.)
    for e in corpus_with_preemptive_opt:
        assert e.opt_p is not None
        np_volumes = [e.alg3_volume, e.greedy_np_volume]
        if e.partitioned_volume is not None:
            np_volumes.append(e.partitioned_volume)
        if e.randomized_volume is not None:
            np_volumes.append(e.randomized_volume)
        for vol in np_volumes + [e.lazy_volume, e.greedy_p_volume]:
            assert vol <= e.opt_p + 1e-6
        if e.opt_np is not None:
            assert e.opt_np <= e.opt_p + 1e-9
            for vol in np_volumes:
                assert vol <= e.opt_np + 1e-6
    print(f"\nPASS criterion 7: feasibility oracles agree on 1000 trials; oracle dominance held [{time.monotonic() - t0:.1f}s]")


def test_preemptive_policies_can_beat_the_nonpreemptive_oracle():
    # Documented counterexample to a literal "non-preemptive optimum bounds
    # every policy" reading: a long job plus a short job buried inside its
    # window are jointly schedulable only with preemption, and the eager
    # preemptive baseline accepts both.
    inst = Instance(
        epsilon=0.1,
        machines=1,
        jobs=(Job(0, 0.0, 10.0, 12.0), Job(1, 4.0, 2.0, 6.4)),
    )
    assert validate_instance(inst) == []
    greedy = greedy_preemptive(inst)
    assert greedy.accepted_volume == pytest.approx(12.0)
    assert opt_nonpreemptive(inst) == pytest.approx(10.0)


def test_criterion_8_stress_replay_reaches_lower_bound():
    t0 = time.monotonic()
    delta = 1.0 / 64
    for m, eps in ((1, 1.0), (2, 1.0), (2, 0.5)):
        outcome = replay_preemptive(m, eps, delta=delta, algorithm="alg1+2", assert_level=1)
        bound = preemptive_lower_bound(m, eps)
        target = bound - 10 * delta
        assert outcome.ratio >= target, f"(m={m}, eps={eps}): {outcome.ratio} < {target}"
        if (m, eps) == (1, 1.0):
            assert outcome.ratio >= 2.0 - 10 * delta
    print(f"\nPASS criterion 8: stress replays reached the lower bound minus 10*delta [{time.monotonic() - t0:.1f}s]")


def test_criterion_9_lower_bound_solver():
    for eps in (0.1, 0.5, 0.9):
        assert solve_c_lower(1, eps) == pytest.approx(1.0 + 1.0 / eps, abs=1e-12)
    assert solve_c_lower(2, 1.0) == pytest.approx(2.0, abs=1e-9)
    assert solve_c_lower(2, 0.25) == pytest.approx((math.sqrt(73.0) - 1.0) / 2.0, rel=1e-10)

    # At m=50, eps=0.1 the root of c/m = (m/((c-1)eps))^(1/(m-1)) - 1 is
    # ~5.14, checked against an independent 50-digit bracketed root.
    m = 50
    with mpmath.workdps(50):
        mm, me = mpmath.mpf(m), mpmath.mpf("0.1")

        def gap(c):
            return c / mm - ((mm / ((c - 1) * me)) ** (1 / (mm - 1)) - 1)

        expected = float(mpmath.findroot(gap, (mpmath.mpf("1.5"), 2 * mm), solver="anderson"))
    assert solve_c_lower(m, 0.1) == pytest.approx(expected, rel=1e-10)

    # Writing c = m*x turns the equation into x^m (1 + 1/x)^(m-1) ~ 1/eps,
    # so c/m -> (1/eps)^(1/m) only once x >> 1, i.e. as eps -> 0 at fixed
    # m.  At eps = 1e-150 the ratio to m*(1/eps)^(1/m) is ~0.999.
    eps = 1e-150
    asymptote = m * (1.0 / eps) ** (1.0 / m)
    assert solve_c_lower(m, eps) / asymptote == pytest.approx(1.0, rel=0.01)
    print("\nPASS criterion 9: lower-bound solver matched all closed forms, the 50-digit root and the asymptote")


def test_criterion_10_randomized_expectation():
    t0 = time.monotonic()
    eps = 1.0 / (math.e**2 - 1.0)
    for seed in range(100):
        inst = random_instance(8, 1, eps, seed=20_000 + seed, release_span=6.0)
        mv, parts = randomized_single_parts(inst)
        assert mv == 2
        by_id = {j.id: j for j in inst.jobs}
        per_machine = [sum(by_id[cs.job].processing for cs in part) for part in parts]
        virtual_total = sum(per_machine)
        expectation = sum(per_machine) / mv
        assert expectation == pytest.approx(virtual_total / 2.0, abs=1e-12)
    print(f"\nPASS criterion 10: randomized expectation equals half the virtual utilization [{time.monotonic() - t0:.1f}s]")


def test_criterion_11a_lazy_greedy_two_job_trace():
    inst = Instance(
        epsilon=1.0,
        machines=1,
        jobs=(Job(0, 0.0, 1.0, 2.0), Job(1, 0.0, 0.4, 1.3)),
    )
    lazy = simulate_preemptive(inst)
    greedy = greedy_preemptive(inst)
    assert lazy.decisions.accepted_ids() == [0]
    assert greedy.decisions.accepted_ids() == [0, 1]
    print("\nPASS criterion 11a: lazy policy rejects the job the eager baseline accepts")


def _admissions(log):
    """Per-job admission outcomes; the recorded threshold is left out, since
    the greedy policy compares against none (it records None)."""
    return [(r.job, r.accepted, r.time) for r in log]


def test_criterion_11b_stress_replay_separates_greedy_from_lazy():
    # A stress sequence that punishes eagerness on m=2, eps=0.5: three
    # tight unit jobs at r=0, then two tight long jobs at r=0.5.  Greedy
    # takes all three unit jobs, which fills both machines up to t=1.5 and
    # leaves only 1.94 < 1.96 of room for each long job; the lazy policy
    # keeps room for one of them.  OPT runs two unit jobs on [0, 1] and
    # both long jobs on [1, 2.96]: volume 5.92.
    jobs = tuple(Job(i, 0.0, 1.0, 1.5) for i in range(3)) + tuple(
        Job(i, 0.5, 1.96, 3.44) for i in (3, 4)
    )
    inst = Instance(epsilon=0.5, machines=2, jobs=jobs)
    assert validate_instance(inst) == []
    by_id = {j.id: j for j in jobs}
    lazy = simulate_preemptive(inst, assert_level=1)
    greedy = greedy_preemptive(inst, assert_level=1)
    for result in (lazy, greedy):
        accepted = {j: by_id[j] for j in result.decisions.accepted_ids()}
        assert verify_schedule(result.schedule, accepted) == []
    assert greedy.decisions.accepted_ids() == [0, 1, 2]
    assert lazy.decisions.accepted_ids() == [0, 1, 3]
    opt = opt_preemptive(inst)
    assert opt == pytest.approx(5.92, abs=1e-9)
    greedy_ratio = opt / greedy.accepted_volume
    lazy_ratio = opt / lazy.accepted_volume
    assert greedy_ratio - lazy_ratio >= 0.25, (greedy_ratio, lazy_ratio)

    # The adaptive generator advances each block as soon as its acceptance
    # target is met, so every policy that meets the targets replays the
    # same sequence with the same decisions: it pins both policies to the
    # same lower bound and cannot rank them.
    settings = [(1, 1.0), (2, 1.0), (2, 0.5), (3, 0.5), (2, 0.4), (3, 0.7), (1, 0.5), (4, 0.6)]
    for m, eps in settings:
        lazy_replay = replay_preemptive(m, eps, algorithm="alg1+2")
        greedy_replay = replay_preemptive(m, eps, algorithm="greedy-p")
        assert greedy_replay.instance == lazy_replay.instance, (m, eps)
        assert _admissions(greedy_replay.decisions) == _admissions(lazy_replay.decisions), (m, eps)
        assert greedy_replay.ratio == lazy_replay.ratio, (m, eps)
    print(
        f"\nPASS criterion 11b: greedy ratio {greedy_ratio:.4f} > lazy ratio {lazy_ratio:.4f} "
        f"on the eager-punishing sequence; adaptive replays identical at {len(settings)} settings"
    )
