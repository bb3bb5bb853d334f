import math
import random

import pytest

from commitsched.harness import random_instance
from commitsched.model import Instance, InvariantError, Job, verify_schedule
from commitsched.nonpreemptive import (
    CommitmentError,
    NonpreemptiveSimulator,
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


def make_instance(eps, m, triples):
    jobs = tuple(Job(i, r, p, d) for i, (r, p, d) in enumerate(triples))
    return Instance(epsilon=eps, machines=m, jobs=jobs)


def random_instance_local(rng, n, m, eps, span):
    jobs = []
    releases = sorted(rng.uniform(0, span) for _ in range(n))
    for i, r in enumerate(releases):
        p = rng.uniform(1, 8)
        stretch = 1.0 if rng.random() < 0.5 else rng.uniform(1, 3)
        jobs.append(Job(i, r, p, r + (1 + eps) * p * stretch))
    return Instance(epsilon=eps, machines=m, jobs=tuple(jobs))


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
        sim = NonpreemptiveSimulator(3, 0.1)
        sim.loads = [1.0, 1.0, 1.0]
        with pytest.raises(InvariantError, match="load-sum"):
            sim.advance_to(0.0)
        assert issubclass(CommitmentError, InvariantError)

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
        res = simulate_nonpreemptive(inst, trace=buf)
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
