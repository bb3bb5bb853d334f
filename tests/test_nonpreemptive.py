import hashlib
import json
import math
import random
import re
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import commitsched
from commitsched import nonpreemptive
from commitsched.harness import random_instance
from commitsched.model import (
    CHECK_SLACK,
    TOL,
    DecisionLog,
    DecisionRecord,
    InvariantError,
    Job,
    drive,
    rho,
    validate_instance,
    verify_schedule,
)
from commitsched.nonpreemptive import (
    CommitmentError,
    CommittedStart,
    NonpreemptiveSimulator,
    PartitionedAllocator,
    RandomizedAllocator,
    committed_schedule,
    d_lim,
    greedy_nonpreemptive,
    partition_group_size,
    randomized_single_parts,
    randomized_virtual_machines,
    simulate_nonpreemptive,
    simulate_partitioned,
    simulate_randomized_single,
)
from commitsched.policy import make_policy
from helpers import (
    BARE_PRELUDE,
    make_instance,
    np_trail,
    other_interpreters,
    random_instance_local,
    scaled,
    time_shifted,
)


class TestDLim:
    def test_all_zero_loads(self):
        assert d_lim([0.0, 0.0], 3.0, 2, 1.0) == pytest.approx(3.0)

    def test_single_machine(self):
        assert d_lim([3.0], 0.0, 1, 1.0) == pytest.approx(6.0)

    def test_two_machines_max_over_ranks(self):
        assert d_lim([2.0, 1.0], 0.0, 2, 1.0) == pytest.approx(2 * math.sqrt(2))
        # Order of the input must not matter.
        assert d_lim([1.0, 2.0], 0.0, 2, 1.0) == pytest.approx(2 * math.sqrt(2))

    def test_load_count_must_match_machines(self):
        with pytest.raises(ValueError):
            d_lim([1.0], 0.0, 2, 1.0)


class TestArrival:
    def test_empty_system_accepts_at_release(self):
        sim = NonpreemptiveSimulator(3, 1.0)
        got = sim.submit(Job(0, 2.0, 1.0, 5.0))
        assert got is not None
        assert got.start == pytest.approx(2.0)

    def test_boundary_acceptance_completes_exactly_at_deadline(self):
        sim = NonpreemptiveSimulator(1, 1.0)
        sim.submit(Job(0, 0.0, 1.0, 2.0))
        got = sim.submit(Job(1, 0.0, 1.0, 2.0))
        assert got is not None
        assert got.start == pytest.approx(1.0)
        assert got.start + 1.0 == pytest.approx(2.0)

    def test_rejects_below_threshold_despite_greedy_fit(self):
        sim = NonpreemptiveSimulator(1, 1.0)
        sim.submit(Job(0, 0.0, 1.0, 2.0))
        assert sim.submit(Job(1, 0.0, 0.4, 1.9)) is None

    def test_load_decay_between_arrivals(self):
        sim = NonpreemptiveSimulator(2, 1.0)
        sim.submit(Job(0, 0.0, 4.0, 10.0))
        sim.advance_to(1.5)
        assert sorted(sim.loads) == pytest.approx([0.0, 2.5])
        sim.advance_to(10.0)
        assert sim.loads == pytest.approx([0.0, 0.0])


class TestSimulate:
    def test_empty(self):
        res = simulate_nonpreemptive(make_instance(1.0, 1, []))
        assert res.accepted_volume == 0.0

    def test_two_job_trace(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0), (0.0, 1.0, 2.0)])
        res = simulate_nonpreemptive(inst)
        assert res.accepted_volume == pytest.approx(2.0)
        sched = committed_schedule(res, inst)
        assert verify_schedule(sched, {j.id: j for j in inst.jobs}) == []

    def test_committed_schedule_spans_instance_machines(self):
        inst = random_instance(6, 4, 0.5, seed=1, release_span=40)
        res = simulate_nonpreemptive(inst)
        assert max(cs.machine for cs in res.starts) + 1 < inst.machines
        assert committed_schedule(res, inst).machines == inst.machines

    def test_load_sum_breach_raises_invariant_error(self):
        # Three equal loads at eps=0.1: the threshold is 11 * load, and the
        # two largest loads cover only 2 of the 11^(2/3) ~ 4.95 required.
        # The offer's pass catches it before the admission test.
        sim = NonpreemptiveSimulator(3, 0.1)
        sim.free = [1.0, 1.0, 1.0]
        sim._ascending = [1.0, 1.0, 1.0]
        with pytest.raises(InvariantError, match="load-sum"):
            sim.submit(Job(0, 0.0, 0.1, 100.0))
        assert issubclass(CommitmentError, InvariantError)

    def test_load_sum_breach_after_acceptance_raises_invariant_error(self):
        # The same breach, planted in ``free`` only, passes the offer's pass
        # over the ascending copy and is caught by the check that follows
        # the acceptance.
        sim = NonpreemptiveSimulator(3, 0.1)
        sim.advance_to(0.0)
        sim.free = [1.0, 1.0, 1.0]
        with pytest.raises(InvariantError, match="load-sum"):
            sim.on_arrival(Job(0, 0.0, 0.1, 100.0))

    def test_window_beyond_the_usable_bound_raises_invariant_error(self):
        # At eps=0.1 the loads 1, 1, z make the smallest load's term the
        # peak, 11; z sets the two largest loads half the slack short of
        # the peak scaled back by rho^(-1/3), which the load-sum check
        # forgives.  Scaled up again by rho^(1/3), they fall about 1.1
        # slacks short of the peak, so a window 0.05 slack short of it is
        # rejected and breaks the usable bound.
        sim = NonpreemptiveSimulator(3, 0.1)
        _, _, rho_down, rho_up = sim.groups[0]
        peak = 1.0 * sim._weights[0]
        z = peak * rho_down - 1.0 - CHECK_SLACK / 2
        sim.free = [1.0, 1.0, z]
        sim._ascending = [1.0, 1.0, z]
        window = peak - CHECK_SLACK / 20
        message = f"rejected job 0 has window {window} beyond the usable bound {(z + 1.0) * rho_up}"
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            sim.submit(Job(0, 0.0, 1.0, window))

    @pytest.mark.parametrize("eps", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 16, 32])
    def test_ranked_loads_match_d_lim(self, m, eps, monkeypatch):
        # Differential test of the ranked load vector against the reference
        # d_lim: the recorded threshold of every decision, every pass (the
        # offer's and the one after each acceptance), the admission test,
        # and every placement against the brute-force argmin of (d_lim of
        # the trial loads, pre-load, machine id) over all m trials; the job
        # starts when that machine frees up, or at once if it is idle.
        ties = [  # an all-zero start, then batches of equal jobs: equal loads
            (float(r), p, r + 3 * (1 + eps) * p)
            for r in range(12)
            for p in (1.0, 1.0, 2.0, 1.0)
        ]
        instances = [make_instance(eps, m, ties)] + [
            random_instance(150, m, eps, seed=seed, release_span=span)
            for seed in range(m, m + 4)
            for span in (5.0, 10.0, 60.0)
        ]
        passes = []
        real = nonpreemptive._peak_top_two

        def spy(ascending, weights, lo, hi, t):
            peak, top_two = real(ascending, weights, lo, hi, t)
            passes.append((ascending[lo:hi], t, peak))
            return peak, top_two

        monkeypatch.setattr(nonpreemptive, "_peak_top_two", spy)
        shifted = accepted = 0
        for inst in instances:
            sim = NonpreemptiveSimulator(m, eps)
            for job in inst.jobs:
                sim.advance_to(job.release)
                loads, free, t = list(sim.loads), list(sim.free), sim.clock
                limit = d_lim(loads, t, m, eps)
                placed = sim.on_arrival(job)
                assert sim.decisions[job.id].threshold == limit
                assert (placed is not None) == (job.deadline >= limit - TOL)
                if placed is None:
                    continue
                accepted += 1
                trials = []
                for i in range(m):
                    trial = list(loads)
                    trial[i] += job.processing
                    trials.append((d_lim(trial, t, m, eps), loads[i], i))
                _, pre_load, machine = min(trials)
                assert (placed.machine, placed.start) == (machine, max(t, free[machine]))
                others = loads[:machine] + loads[machine + 1 :]
                shifted += any(pre_load <= load < pre_load + job.processing for load in others)
        # One pass per decision and one more after each acceptance, each
        # d_lim of its loads.
        decided = sum(len(inst) for inst in instances)
        assert len(passes) == decided + accepted
        for ascending, t, peak in passes:
            assert peak + t == d_lim([f - t if f > t else 0.0 for f in ascending], t, m, eps)
        # Some winning placements moved the loaded machine past others.
        assert shifted > 0 or m == 1

    @pytest.mark.parametrize("seed", range(25))
    def test_commitment_on_random_instances(self, seed):
        rng = random.Random(3000 + seed)
        inst = random_instance_local(
            rng, rng.randint(1, 12), rng.choice([1, 2, 3]), rng.choice([0.1, 0.5, 1.0]), 15.0
        )
        res = simulate_nonpreemptive(inst)
        by_id = {j.id: j for j in inst.jobs}
        for cs in res.starts:
            job = by_id[cs.job]
            assert cs.start + job.processing <= job.deadline + 1e-9
        accepted = {j: by_id[j] for j in res.decisions.accepted_ids()}
        assert verify_schedule(committed_schedule(res, inst), accepted) == []

    def test_decision_trace_lines(self):
        import io

        buf = io.StringIO()
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0), (0.0, 0.4, 1.9)])
        res = drive(make_policy("alg3", inst.machines, inst.epsilon), inst, buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        limit = res.decisions[0].threshold
        assert lines[0] == f"0 job=0 accept threshold={limit:.9g}"
        assert lines[1].startswith("0 job=1 reject threshold=")

    @pytest.mark.parametrize("seed", range(10))
    def test_usable_interval_bound_at_rejections(self, seed):
        # The simulator checks the rejected-window bound inline; a run
        # without InvariantError is the assertion.
        rng = random.Random(4000 + seed)
        inst = random_instance_local(rng, 12, 2, 0.25, 6.0)
        simulate_nonpreemptive(inst)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_commit_places_on_the_argmin_of_the_trials(data):
    # Loads drawn from a few multiples of 1/4, so sums are exact: repeats
    # on ids that need not be adjacent, idle machines, and a job whose
    # processing time is often the gap between two loads, so the moved
    # load lands on a tie.  The group sits after ``lo`` unrelated machines.
    m = data.draw(st.integers(1, 8), label="m")
    eps = data.draw(st.sampled_from([0.05, 0.1, 0.5, 1.0]), label="eps")
    loads = data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.5, 2.5, 4.0]), min_size=m, max_size=m), label="loads")
    gaps = sorted({b - a for a in loads for b in loads if b > a})
    p = data.draw(st.sampled_from(gaps) if gaps else st.just(0.5), label="p")
    if data.draw(st.booleans(), label="any p"):
        p = data.draw(st.sampled_from([0.25, 0.5, 0.75, 3.0, 7.5]), label="p")
    lo = data.draw(st.integers(0, 2), label="lo")
    t = data.draw(st.sampled_from([0.0, 3.5]), label="t")
    idle = [data.draw(st.sampled_from([0.0, 0.5]), label="idle") for _ in loads]
    free = [9.0] * lo + [t + load if load else t - gap for load, gap in zip(loads, idle)]
    weights = nonpreemptive._weights(lo, rho(eps)) + nonpreemptive._weights(m, rho(eps))
    before = list(free)
    placed = nonpreemptive._commit(free, weights, lo, lo + m, t, Job(7, t, p, t + 100.0))
    trials = []
    for i in range(m):
        trial = list(loads)
        trial[i] += p
        trials.append((d_lim(trial, t, m, eps), loads[i], i))
    machine = lo + min(trials)[2]
    assert placed == CommittedStart(7, machine, max(t, before[machine]))
    assert free == before[:machine] + [max(t, before[machine]) + p] + before[machine + 1 :]


def committed_reference(inst, result, groups):
    """The largest distance, in ulps, of a recorded threshold from the exact
    d_lim of the committed schedule's own loads; the number of starts on a
    busy machine that miss the end of its previous job; and the number of
    starts on a busy machine.

    At decision time t a machine's load is the exact rational remainder
    end - t of its last committed job, and the weights are the policy's
    floats.  ``groups`` lists (first machine, size) of each allocator; a
    threshold belongs to the group that placed the job, or to the last
    group for a rejection.
    """
    rho = (1.0 + inst.epsilon) / inst.epsilon
    by_id = {j.id: j for j in inst.jobs}
    placed = {cs.job: cs for cs in result.starts}
    end = [0.0] * inst.machines  # end of the last committed job on each machine
    worst, misses, busy = Fraction(0), 0, 0
    for r in result.decisions:
        cs = placed.get(r.job)
        base, size = groups[-1] if cs is None else next(g for g in groups if g[0] <= cs.machine < g[0] + g[1])
        t = Fraction(r.time)
        loads = sorted((max(Fraction(e) - t, Fraction(0)) for e in end[base : base + size]), reverse=True)
        exact = t + max(load * Fraction(rho ** (i / size)) for i, load in enumerate(loads, start=1))
        worst = max(worst, abs(Fraction(r.threshold) - exact) / Fraction(math.ulp(r.threshold)))
        if cs is not None:
            if end[cs.machine] > r.time:
                busy += 1
                misses += cs.start != end[cs.machine]
            end[cs.machine] = cs.start + by_id[cs.job].processing
    return worst, misses, busy


class TestCommittedScheduleReference:
    """Thresholds measure the committed schedule: each is within 2 ulps of
    the exact threshold of the loads that the committed jobs leave, and a
    job placed on a busy machine starts exactly where the previous one ends."""

    @pytest.mark.parametrize("seed", range(8))
    def test_thresholds_and_starts_match_the_committed_schedule(self, seed):
        rng = random.Random(6000 + seed)
        eps = rng.choice([0.05, 0.1, 0.5, 1.0])
        m = rng.choice([3, 4, 8, 16])  # at least the group size, 3 at eps = 0.05
        inst = random_instance(300, m, eps, seed=seed, release_span=rng.choice([0.5, 2.0]) * 300 / m)
        g = partition_group_size(eps)
        runs = [
            (simulate_nonpreemptive(inst), [(0, m)]),
            (simulate_partitioned(inst), [(i, min(g, m - i)) for i in range(0, m, g)]),
        ]
        for result, groups in runs:
            worst, misses, busy = committed_reference(inst, result, groups)
            assert busy > 0
            assert worst <= 2, float(worst)
            assert misses == 0


class TestPartitioned:
    def test_single_group_identical_to_plain(self):
        eps = 1.0
        g = partition_group_size(eps)
        rng = random.Random(7)
        inst = random_instance_local(rng, 10, g, eps, 8.0)
        plain = simulate_nonpreemptive(inst)
        part = simulate_partitioned(inst)
        assert [r.accepted for r in plain.decisions] == [r.accepted for r in part.decisions]
        assert part.accepted_volume == pytest.approx(plain.accepted_volume)

    def test_group_size_at_integral_log(self):
        eps = 1.0 / (math.e**2 - 1.0)
        assert partition_group_size(eps) == 2

    def test_two_groups_of_two(self):
        eps = 1.0 / (math.e**2 - 1.0)
        rng = random.Random(11)
        inst = random_instance_local(rng, 14, 4, eps, 5.0)
        res = simulate_partitioned(inst)
        groups = {0: set(), 1: set()}
        for cs in res.starts:
            groups[cs.machine // 2].add(cs.job)
        by_id = {j.id: j for j in inst.jobs}
        accepted = {j: by_id[j] for j in res.decisions.accepted_ids()}
        assert verify_schedule(committed_schedule(res, inst), accepted) == []

    def test_cascade_accepts_on_later_group(self):
        eps = 1.0 / (math.e**2 - 1.0)  # group size 2, so m=4 gives two groups
        jobs = [
            (0.0, 4.0, 4.0 * (1 + eps)),  # loads group 1, raising its threshold
            (0.0, 1.0, 1.0 * (1 + eps)),  # below group 1's threshold, fits group 2
        ]
        inst = make_instance(eps, 4, jobs)
        plain_group1 = make_instance(eps, 2, jobs)
        g1 = simulate_nonpreemptive(plain_group1)
        assert not g1.decisions[1].accepted  # group 1 alone would reject it
        res = simulate_partitioned(inst)
        assert res.decisions[1].accepted
        placed = next(cs for cs in res.starts if cs.job == 1)
        assert placed.machine >= 2  # landed in the second group

    def test_groups_keep_no_records(self):
        # The groups are slices of the allocator's one free-time vector: they
        # tile the machines, keep no decision log of their own, and each
        # machine's free time is the end of the last job committed to it.
        eps = 1.0 / (math.e**2 - 1.0)
        inst = random_instance_local(random.Random(29), 40, 4, eps, 10.0)
        policy = PartitionedAllocator(inst.machines, inst.epsilon)
        res = drive(policy, inst)
        assert len(res.decisions) == len(inst) and res.starts
        assert [(base, end) for base, end, _, _ in policy.groups] == [(0, 2), (2, 4)]
        assert [v for v in vars(policy).values() if isinstance(v, DecisionLog)] == [policy.decisions]
        ends = [0.0] * inst.machines
        for cs in res.starts:
            ends[cs.machine] = cs.start + inst.jobs[cs.job].processing
        assert policy.free == ends

    def test_requires_enough_machines(self):
        eps = 0.01  # group size round(ln(101)) = 5
        inst = make_instance(eps, 2, [(0.0, 1.0, 2 * (1 + eps))])
        with pytest.raises(ValueError):
            simulate_partitioned(inst)

    @pytest.mark.parametrize("seed", range(20))
    def test_ratio_bound_when_groups_divide_machines(self, seed):
        # Integral group log dividing m: the cascade keeps the single-group
        # guarantee e * ln((1+eps)/eps) + 1.
        from commitsched.oracle import opt_nonpreemptive

        eps = 1.0 / (math.e**2 - 1.0)
        rng = random.Random(7000 + seed)
        inst = random_instance_local(rng, rng.randint(1, 9), 4, eps, rng.choice([0.0, 4.0]))
        res = simulate_partitioned(inst)
        opt = opt_nonpreemptive(inst)
        if res.accepted_volume > 0:
            assert opt / res.accepted_volume <= 2 * math.e + 1 + 1e-6


def cascade_reference(inst):
    """The partitioned policy as a cascade of one ``NonpreemptiveSimulator``
    per group, each advanced and ranked whenever it is offered a job: the
    design the flat allocator replaced, kept as its reference.  Every
    offered group's threshold must be ``d_lim`` of its loads."""
    m, eps = inst.machines, inst.epsilon
    g = partition_group_size(eps)
    groups = [(base, NonpreemptiveSimulator(min(g, m - base), eps)) for base in range(0, m, g)]
    records, starts = [], []
    for job in inst.jobs:
        for base, group in groups:
            group.advance_to(job.release)
            expected = d_lim(group.loads, group.clock, group.machines, eps)
            limit, placed = group.place(job)
            assert limit == expected
            if placed is not None:
                placed = CommittedStart(job.id, base + placed.machine, placed.start)
                starts.append(placed)
                break
        records.append(DecisionRecord(job.id, placed is not None, job.release, limit))
    return records, starts


def flat_offer_grid():
    """(epsilon, m) pairs with at least one group: group sizes 1 to 4, and
    remainder groups (eps = 0.05 has size 3, so m = 4, 8, 16 end short)."""
    return [
        (eps, m)
        for eps in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
        for m in (3, 4, 5, 8, 16)
        if m >= partition_group_size(eps)
    ]


class TestFlatOffers:
    """``PartitionedAllocator`` offers a job to a group with one pass over
    the group's ascending free times; only the accepting group builds the
    full ranking.  Decisions and starts equal the cascade of group
    simulators by ``repr``."""

    @pytest.mark.parametrize("eps, m", flat_offer_grid())
    def test_matches_the_cascade_of_group_simulators(self, eps, m, monkeypatch):
        # An all-idle start, batches of equal jobs (equal loads), and in each
        # batch a release TOL/2 before the previous one, which a group not
        # offered that previous job sees at its own, earlier clock.
        ties = [
            (r - (TOL / 2 if i == 1 else 0.0), p, r + 3 * (1 + eps) * p)
            for r in range(1, 13)
            for i, p in enumerate((1.0, 1.0, 2.0, 1.0))
        ]
        instances = [make_instance(eps, m, ties)] + [
            random_instance(150, m, eps, seed=seed, release_span=span * 150 / m)
            for seed in range(2)
            for span in (0.5, 2.0)
        ]
        passes = []
        real = nonpreemptive._peak_top_two

        def spy(ascending, weights, lo, hi, t):
            peak, top_two = real(ascending, weights, lo, hi, t)
            passes.append((ascending[lo:hi], t, peak, top_two))
            return peak, top_two

        monkeypatch.setattr(nonpreemptive, "_peak_top_two", spy)
        rejected = 0
        for inst in instances:
            assert not validate_instance(inst)
            passes.clear()
            got = simulate_partitioned(inst)
            records, starts = cascade_reference(inst)
            assert repr(list(got.decisions)) == repr(records)
            assert repr(got.starts) == repr(starts)
            assert got.starts
            rejected += len(inst) - len(got.starts)
            for ascending, t, peak, top_two in passes:
                loads = [f - t if f > t else 0.0 for f in ascending]
                assert ascending == sorted(ascending)
                assert peak + t == d_lim(loads, t, len(loads), eps)
                assert top_two == sum(sorted(loads)[-2:])
        assert rejected > 0

    @staticmethod
    def planted(rest):
        """A partitioned allocator at eps=0.1 (two groups of two machines)
        whose first group holds loads 4 and 10: a valid state that rejects
        a window near 11 and passes both checks.  ``rest`` are the second
        group's free times, ascending."""
        policy = PartitionedAllocator(4, 0.1)
        policy.free = [4.0, 10.0] + rest
        policy._ascending = list(policy.free)
        return policy

    def test_later_group_load_sum_breach_raises_invariant_error(self):
        # Loads 1, 1: the peak 11 scaled back by rho^(-1/2) is 3.3, and the
        # two largest loads sum to 2.
        policy = self.planted([1.0, 1.0])
        _, _, rho_down, _ = policy.groups[1]
        message = f"load-sum invariant violated at t=0.0: 2.0 < {1.0 * policy._weights[2] * rho_down}"
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            policy.submit(Job(0, 0.0, 1.0, 11.0))

    def test_later_group_window_beyond_the_usable_bound_raises_invariant_error(self):
        # Loads 1, y with y half the slack short of the invariant, as in
        # ``test_window_beyond_the_usable_bound_raises_invariant_error``.
        policy = self.planted([1.0, 1.0])
        _, _, rho_down, rho_up = policy.groups[1]
        peak = 1.0 * policy._weights[2]
        y = peak * rho_down - 1.0 - CHECK_SLACK / 2
        policy.free[3] = policy._ascending[3] = y
        window = peak - CHECK_SLACK / 20
        message = f"rejected job 0 has window {window} beyond the usable bound {(y + 1.0) * rho_up}"
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            policy.submit(Job(0, 0.0, 1.0, window))

    def test_earlier_release_rejected_before_any_state_changes(self):
        policy = PartitionedAllocator(4, 1.0 / (math.e**2 - 1.0))
        policy.submit(Job(0, 5.0, 2.0, 20.0))
        state = repr(vars(policy))
        with pytest.raises(ValueError, match="backwards"):
            policy.submit(Job(1, 4.0, 1.0, 20.0))
        assert repr(vars(policy)) == state

    def test_only_the_accepting_group_builds_a_ranking(self, monkeypatch):
        counts = {"rankings": 0, "passes": 0, "advances": 0}
        best_trial, peak_top_two = nonpreemptive._best_trial, nonpreemptive._peak_top_two
        advance_to = NonpreemptiveSimulator.advance_to

        def counted_best_trial(*args):
            counts["rankings"] += 1
            return best_trial(*args)

        def counted_pass(*args):
            counts["passes"] += 1
            return peak_top_two(*args)

        def counted_advance(self, t):
            counts["advances"] += 1
            return advance_to(self, t)

        monkeypatch.setattr(nonpreemptive, "_best_trial", counted_best_trial)
        monkeypatch.setattr(nonpreemptive, "_peak_top_two", counted_pass)
        monkeypatch.setattr(NonpreemptiveSimulator, "advance_to", counted_advance)
        inst = random_instance(2000, 16, 0.5, seed=0, release_span=2000 * 2.0 / 16)
        policy = PartitionedAllocator(16, 0.5)
        assert len(policy.groups) == 16  # group size round(ln 3) = 1
        res = drive(policy, inst)
        accepted = len(res.decisions.accepted_ids())
        assert 0 < accepted < len(inst)
        assert counts["rankings"] == accepted
        assert counts["advances"] == len(inst)  # the allocator's one clock advance per job
        # One pass per offer, and one more after each acceptance for its
        # check.  With one machine per group, a job placed on machine i was
        # offered to groups 0..i, and a rejected one to all 16.
        offers = sum(cs.machine + 1 for cs in res.starts) + 16 * (len(inst) - accepted)
        assert counts["passes"] == offers + accepted

        # Every machine busy until 10: a tight short job is offered to all
        # 16 groups, each rejects it, and none builds a ranking.
        policy = PartitionedAllocator(16, 0.5)
        for i in range(16):
            assert policy.submit(Job(i, 0.0, 10.0, 15.0)).machine == i
        counts.update(rankings=0, passes=0, advances=0)
        assert policy.submit(Job(16, 0.0, 1.0, 1.5)) is None
        assert counts == {"rankings": 0, "passes": 16, "advances": 1}

    def test_clean_runs_call_no_check_helper(self, monkeypatch):
        # Each offer tests both check conditions inline; the helpers only
        # raise, so a run with no breach never calls them.
        calls = []
        for name in ("_check_load_sum", "_check_usable_interval"):
            monkeypatch.setattr(nonpreemptive, name, lambda *args, name=name: calls.append(name))
        inst = random_instance(2000, 16, 0.5, seed=0, release_span=2000 * 2.0 / 16)
        for policy in (NonpreemptiveSimulator(16, 0.5), PartitionedAllocator(16, 0.5)):
            res = drive(policy, inst)
            assert 0 < len(res.starts) < len(inst)
        assert calls == []


class TestRandomizedSingle:
    def test_virtual_count_large_eps_is_one(self):
        assert randomized_virtual_machines(1.0) == 1

    def test_virtual_count_at_integral_log(self):
        eps = 1.0 / (math.e**2 - 1.0)
        assert randomized_virtual_machines(eps) == 2

    def test_degenerate_equals_plain(self):
        rng = random.Random(13)
        inst = random_instance_local(rng, 8, 1, 1.0, 6.0)
        plain = simulate_nonpreemptive(inst)
        rand = simulate_randomized_single(inst, seed=5)
        assert [r.accepted for r in rand.decisions] == [r.accepted for r in plain.decisions]

    @pytest.mark.parametrize("seed", range(6))
    def test_keeps_the_part_of_the_drawn_virtual_machine(self, seed):
        inst = random_instance_local(random.Random(23), 14, 1, 0.05, 8.0)
        mv, parts = randomized_single_parts(inst)
        pick = random.Random(seed).randrange(mv)
        res = simulate_randomized_single(inst, seed=seed)
        assert [(cs.job, cs.start) for cs in res.starts] == [(cs.job, cs.start) for cs in parts[pick]]

    def test_parts_refuse_a_second_machine(self):
        inst = random_instance_local(random.Random(23), 6, 2, 0.5, 8.0)
        with pytest.raises(ValueError, match="single-machine"):
            randomized_single_parts(inst)

    def test_virtual_allocator_keeps_no_records(self):
        inst = random_instance_local(random.Random(31), 40, 1, 0.05, 10.0)
        policy = RandomizedAllocator(1, inst.epsilon, seed=1)
        res = drive(policy, inst)
        assert len(res.decisions) == len(inst)
        assert len(policy.virtual.decisions) == 0 and policy.virtual.starts == []

    def test_expectation_is_fraction_of_virtual_total(self):
        eps = 1.0 / (math.e**2 - 1.0)
        rng = random.Random(17)
        inst = random_instance_local(rng, 10, 1, eps, 4.0)
        mv, parts = randomized_single_parts(inst)
        assert mv == 2
        by_id = {j.id: j for j in inst.jobs}
        per_machine = [sum(by_id[cs.job].processing for cs in part) for part in parts]
        total = sum(per_machine)
        avg = sum(per_machine) / mv
        assert avg == pytest.approx(total / mv)

    def test_accepted_jobs_fit_single_machine(self):
        eps = 0.05
        rng = random.Random(19)
        inst = random_instance_local(rng, 12, 1, eps, 10.0)
        for seed in range(6):
            res = simulate_randomized_single(inst, seed=seed)
            ordered = sorted(res.starts, key=lambda cs: cs.start)
            by_id = {j.id: j for j in inst.jobs}
            for a, b in zip(ordered, ordered[1:]):
                assert a.start + by_id[a.job].processing <= b.start + 1e-9

    def test_rejects_multi_machine_instance(self):
        inst = make_instance(1.0, 2, [(0.0, 1.0, 2.0)])
        with pytest.raises(ValueError):
            simulate_randomized_single(inst, seed=0)


class TestTimeScaling:
    """Scaling every time by a power of two is exact in binary floating
    point, so the alg3 family must make the same decisions on the same
    machines, with starts and thresholds scaled by exactly 2^k.

    The tolerances are absolute, so a deadline within ``TOL`` of its
    threshold could flip at some scale; seeded random instances keep such
    near-ties away, which is the regime this test covers.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_power_of_two_scaling(self, seed):
        rng = random.Random(9000 + seed)
        eps = rng.choice([0.05, 0.1, 0.5, 1.0])
        m = rng.choice([3, 4, 8])  # at least the group size, 3 at eps = 0.05
        multi = random_instance(80, m, eps, seed=seed, release_span=rng.choice([5.0, 20.0]))
        single = random_instance(80, 1, eps, seed=seed + 1000, release_span=20.0)
        assert simulate_nonpreemptive(multi).starts and simulate_nonpreemptive(single).starts
        runs = [
            (multi, simulate_nonpreemptive),
            (multi, simulate_partitioned),
            (single, lambda inst: simulate_randomized_single(inst, seed)),
        ]
        for inst, simulate in runs:
            base = simulate(inst)
            assert len(base.starts) < len(inst)
            for k in range(-4, 9):
                got = simulate(scaled(inst, k))
                assert [
                    (r.job, r.accepted, r.time, r.threshold) for r in got.decisions
                ] == [
                    (r.job, r.accepted, math.ldexp(r.time, k), math.ldexp(r.threshold, k))
                    for r in base.decisions
                ]
                assert [(cs.job, cs.machine, cs.start) for cs in got.starts] == [
                    (cs.job, cs.machine, math.ldexp(cs.start, k)) for cs in base.starts
                ]


class TestTimeShift:
    """Starts are read off machine free times, so a job on a busy machine
    starts exactly where the previous one ends at any time scale.  Near
    2^30 the float spacing (2^-22) is far above ``TOL``, so any second
    rounding of a start shows as an overlap or a gap; generous slack
    (``slack_mix=0``) keeps the deadlines clear of their thresholds.

    The load-sum check reads the weighted peak, not ``limit - clock``,
    which loses up to half the spacing of the clock: with it, every seed
    here raised InvariantError at one of 2^31 to 2^33.  From 2^34 half the
    spacing exceeds ``COMMIT_TOL``, and ``verify_schedule`` reports
    under-completion and over-execution of executed totals that are p up to
    rounding; that regime is stated, not loosened."""

    @staticmethod
    def runs(seed, eps):
        multi = random_instance(150, 4, eps, seed=seed, release_span=60.0, slack_mix=0.0)
        single = random_instance(150, 1, eps, seed=seed + 100, release_span=200.0, slack_mix=0.0)
        return [
            (multi, simulate_nonpreemptive),
            (multi, simulate_partitioned),
            (multi, greedy_nonpreemptive),
            (single, lambda inst: simulate_randomized_single(inst, seed)),
        ]

    @pytest.mark.parametrize("k", [10, 20, 23, 26, 30, 31, 32, 33])
    @pytest.mark.parametrize("seed, eps", [(0, 0.1), (1, 0.5), (2, 1.0), (6, 0.25)])
    def test_shift_keeps_decisions_and_verifies(self, seed, eps, k):
        for inst, simulate in self.runs(seed, eps):
            base = simulate(inst)
            moved = time_shifted(inst, 2.0**k)
            got = simulate(moved)
            assert [r.accepted for r in got.decisions] == [r.accepted for r in base.decisions]
            accepted = {j.id: j for j in moved.jobs if got.decisions[j.id].accepted}
            assert verify_schedule(committed_schedule(got, moved), accepted) == []

    def test_commit_tol_gives_out_from_2_34(self):
        for inst, simulate in self.runs(1, 0.5):
            moved = time_shifted(inst, 2.0**34)
            got = simulate(moved)
            assert [r.accepted for r in got.decisions] == [r.accepted for r in simulate(inst).decisions]
            accepted = {j.id: j for j in moved.jobs if got.decisions[j.id].accepted}
            problems = verify_schedule(committed_schedule(got, moved), accepted)
            assert problems and {v.kind for v in problems} <= {"under-completion", "over-execution"}


class TestGreedy:
    def test_single_job_accepted(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0)])
        assert greedy_nonpreemptive(inst).accepted_volume == pytest.approx(1.0)

    def test_accepts_where_threshold_policy_rejects(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0), (0.0, 0.4, 1.9)])
        greedy = greedy_nonpreemptive(inst)
        assert greedy.decisions.accepted_ids() == [0, 1]
        threshold = simulate_nonpreemptive(inst)
        assert threshold.decisions.accepted_ids() == [0]

    @pytest.mark.parametrize("seed", range(10))
    def test_commitment_on_random_instances(self, seed):
        rng = random.Random(5000 + seed)
        inst = random_instance_local(rng, 10, 2, 0.5, 8.0)
        res = greedy_nonpreemptive(inst)
        by_id = {j.id: j for j in inst.jobs}
        accepted = {j: by_id[j] for j in res.decisions.accepted_ids()}
        assert verify_schedule(committed_schedule(res, inst), accepted) == []


#: sha256 of ``helpers.np_trail`` per key: the decision records with their
#: thresholds, the committed machines and starts, and the accepted volume of
#: each non-preemptive policy.  The partitioned allocator at m=1 is alg3, and
#: the randomized one at eps=0.5 has one virtual machine, so neither is
#: keyed there.  Recorded before the offer checks raised only on a breach.
RECORDED_NP_DIGESTS = {
    ("random", "alg3", 1, 0.5, 200, 100.0, 1): "357ac72c29f0ed1d9a06715f7f58d403d36332592bba040fd32d2b37b3e8138d",
    ("random", "greedy-np", 1, 0.5, 200, 100.0, 1): "c4cd8396f186994fcc4bb21a0d447d2e7d686606fe62d28657ab537c30794b1f",
    ("random", "alg3", 4, 0.1, 300, 75.0, 2): "45a072de4145a20d180df83a2790bad4eeee19884ae3b2e753658618d1917671",
    ("random", "alg3", 16, 0.05, 400, 50.0, 3): "7e32bf5a2317c0e5fae988169a71939d2fd1bb1281ed0bf2daaa4376f35a615e",
    ("random", "alg3", 16, 0.5, 400, 25.0, 4): "da221c118b2e2c324b7f1cf51ba17015e413160cc68c7e344797fe14be1052c8",
    ("random", "alg3-partitioned", 4, 0.1, 300, 75.0, 2): "07a3a532a88bade2ff26d0b09fea9f73a7457ae752e8f2fe6db5ba5f0748b571",
    ("random", "alg3-partitioned", 16, 0.05, 400, 50.0, 3): "27faef021a2eab19352ad146b6331e0e3eff949e98365bb3311d9cd00efcdf65",
    ("random", "alg3-partitioned", 16, 0.5, 400, 25.0, 4): "63e217b3954e77fffe4d45f508244a2f9963f7a643aa3fd5d69a904de970a458",
    ("random", "greedy-np", 4, 0.1, 300, 75.0, 2): "78109bbf1f603bdaebc9218f068889e839d51571b7a6947b3b0daffefe18822e",
    ("random", "greedy-np", 16, 0.05, 400, 50.0, 3): "f0d19c90d586858761ee2d862a8ae4fde00b10a9e4970e8725968b454b974ab7",
    ("random", "greedy-np", 16, 0.5, 400, 25.0, 4): "25ec789d048134d885ddc8ec9ce15cc6be62239ebdc495f1a8418c0f9a6fd411",
    ("random", "alg3-randomized", 1, 0.1, 200, 100.0, 1): "8a5e566107da775963be1c8f0cc1b1a9df8b579a08a57fa08380331f78e03b34",
    ("random", "alg3-randomized", 1, 0.05, 200, 100.0, 5): "4c11e7cef556cf932645e67770502927bccfd9ad4532f3dd59f1899b6dab00d8",
    ("ties", "alg3", 1, 0.5, 0): "9af54456d6e5c8a5d78d3a200c136ebdab363bfb0973a0f3c24490f389fa35c6",
    ("ties", "greedy-np", 1, 0.5, 0): "3e711fd9b102885cf125a324319b6c692f15919a5db2eda94776219097af23c2",
    ("ties", "alg3", 4, 0.1, 0): "6cc05e46a20373946c417cddb7f8f24b25b1ca184216b67d31054504a612fc34",
    ("ties", "alg3", 16, 0.5, 0): "02d7b02607e349e821dc202d10088928cdea0d47fdee3182bac895a6aceff1a8",
    ("ties", "alg3-partitioned", 4, 0.1, 0): "b0fa7bd1f1791b771f868066d05d5104f6eb4efd91338820cc64325abc347e77",
    ("ties", "alg3-partitioned", 16, 0.5, 0): "fab11ce9430016bbbc7e3da8cc3913656c079eace91fcc9630a1ab4ae053cac3",
    ("ties", "greedy-np", 4, 0.1, 0): "f0a0464f98c1471cc1487749e3f174c2d072358c11434ca73bd1173b5201400b",
    ("ties", "greedy-np", 16, 0.5, 0): "a1898e1ef9287b92e8b7ed3231b5af6ccdd13a905506b50aab2d64ed170f57a6",
    ("ties", "alg3-randomized", 1, 0.05, 1): "2396f80ddd6ebcd8d3a728eee0b3973c7a1462e7abe9d9bfca331353fbc2bd7a",
}


def test_np_outputs_match_the_recorded_digests():
    for key, digest in RECORDED_NP_DIGESTS.items():
        assert hashlib.sha256(np_trail(key).encode()).hexdigest() == digest, key


#: ``test_np_outputs_match_the_recorded_digests`` for a bare interpreter:
#: after ``BARE_PRELUDE``'s two paths, argv holds the keys as JSON.
NP_DIGEST_SCRIPT = BARE_PRELUDE + """
from helpers import np_trail
keys = json.loads(sys.argv[3])
print(json.dumps([hashlib.sha256(np_trail(tuple(key)).encode()).hexdigest() for key in keys]))
"""


def test_np_digests_hold_under_every_other_interpreter():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.N (N >= 10) on PATH starts")
    keys = list(RECORDED_NP_DIGESTS)
    root = str(Path(commitsched.__file__).resolve().parents[1])
    for exe in interpreters:
        done = subprocess.run(
            [exe, "-I", "-c", NP_DIGEST_SCRIPT, root, str(Path(__file__).parent), json.dumps(keys)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, (exe, done.stderr)
        moved = [key for key, got in zip(keys, json.loads(done.stdout)) if got != RECORDED_NP_DIGESTS[key]]
        assert moved == [], exe
