import random
from functools import lru_cache
from itertools import combinations

import pytest

from commitsched.model import Instance, Job
from commitsched.oracle import (
    flow_feasible,
    max_prefix_work,
    opt_nonpreemptive,
    opt_preemptive,
)
from commitsched.vmin import ActiveJob, horn_feasible


def make_instance(eps, m, triples):
    jobs = tuple(Job(i, r, p, d) for i, (r, p, d) in enumerate(triples))
    return Instance(epsilon=eps, machines=m, jobs=jobs)


def slot_feasible(jobs, m, horizon):
    """Independent oracle: exhaustive unit-slot scheduler for integer data.

    Running a maximal set of available jobs each slot is monotone (extra
    executed work only relaxes the rest), so only maximal slot subsets are
    branched on.
    """
    n = len(jobs)

    @lru_cache(maxsize=None)
    def rec(t, remaining):
        if all(x == 0 for x in remaining):
            return True
        if t >= horizon:
            return False
        for i in range(n):
            room = max(0, min(jobs[i][2], horizon) - max(t, jobs[i][0]))
            if remaining[i] > room:
                return False
        avail = [i for i in range(n) if remaining[i] > 0 and jobs[i][0] <= t < jobs[i][2]]
        k = min(m, len(avail))
        if k == 0:
            return rec(t + 1, remaining)
        for combo in combinations(avail, k):
            new_rem = list(remaining)
            for i in combo:
                new_rem[i] -= 1
            if rec(t + 1, tuple(new_rem)):
                return True
        return False

    return rec(0, tuple(p for _, p, _ in jobs))


def slot_opt(jobs, m, horizon):
    best = 0
    n = len(jobs)
    for mask in range(1 << n):
        subset = [jobs[i] for i in range(n) if mask >> i & 1]
        vol = sum(p for _, p, _ in subset)
        if vol > best and slot_feasible(tuple(subset), m, horizon):
            best = vol
    return best


class TestFlowFeasible:
    def test_empty(self):
        assert flow_feasible([], 1)

    def test_forced_overlap_single_machine(self):
        # The unit job must fill [0,1) and the second must fill [0.5,1.5),
        # so [0.5,1) carries 1.0 of forced work against 0.5 of capacity.
        jobs = [Job(0, 0.0, 1.0, 1.0), Job(1, 0.5, 1.0, 1.5)]
        assert not flow_feasible(jobs, 1)
        # Halving the second job leaves room in [1,1.5): feasible by hand.
        assert flow_feasible([Job(0, 0.0, 1.0, 1.0), Job(1, 0.5, 0.5, 1.5)], 1)

    def test_same_jobs_feasible_on_two_machines(self):
        jobs = [Job(0, 0.0, 1.0, 1.0), Job(1, 0.5, 1.0, 1.5)]
        assert flow_feasible(jobs, 2)

    def test_window_too_small(self):
        assert not flow_feasible([Job(0, 0.0, 2.0, 1.5)], 4)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_breakpoint_test_at_common_release(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        m = rng.choice([1, 2, 3])
        jobs = []
        for i in range(n):
            p = rng.uniform(0.5, 4.0)
            d = p * rng.uniform(1.0, 3.0)
            jobs.append(Job(i, 0.0, p, d))
        active = [ActiveJob(j.id, j.processing, j.deadline) for j in jobs]
        assert flow_feasible(jobs, m) == horn_feasible(active, 0.0, m)


class TestOptPreemptive:
    def test_fully_feasible_set_takes_everything(self):
        inst = make_instance(1.0, 2, [(0.0, 1.0, 2.0), (0.0, 2.0, 4.0), (1.0, 1.0, 3.5)])
        assert opt_preemptive(inst) == pytest.approx(4.0)

    def test_two_conflicting_unit_jobs(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 1.0), (0.0, 1.0, 1.0)])
        # Deliberately slack-violating windows are fine for the oracle.
        assert opt_preemptive(inst) == pytest.approx(1.0)

    def test_unavailable_beyond_limit(self):
        jobs = [(float(i), 1.0, float(i) + 2.0) for i in range(17)]
        inst = make_instance(1.0, 1, jobs)
        assert opt_preemptive(inst) is None

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_slot_oracle_on_integer_grids(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 4)
        m = rng.choice([1, 2])
        jobs = []
        for i in range(n):
            r = rng.randint(0, 4)
            p = rng.randint(1, 4)
            d = min(12, r + p + rng.randint(0, 5))
            jobs.append((r, p, d))
        inst = make_instance(
            1.0, m, [(float(r), float(p), float(d)) for r, p, d in jobs]
        )
        expected = slot_opt(tuple(jobs), m, 12)
        assert opt_preemptive(inst) == pytest.approx(float(expected))


class TestOptNonpreemptive:
    def test_single_job(self):
        inst = make_instance(1.0, 1, [(0.0, 2.5, 6.0)])
        assert opt_nonpreemptive(inst) == pytest.approx(2.5)

    def test_three_unit_jobs_one_machine(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0)] * 3)
        assert opt_nonpreemptive(inst) == pytest.approx(2.0)

    def test_unavailable_beyond_limit(self):
        jobs = [(float(i), 1.0, float(i) + 2.0) for i in range(11)]
        inst = make_instance(1.0, 1, jobs)
        assert opt_nonpreemptive(inst) is None

    def test_serialization_requires_order_choice(self):
        # Feasible only when the tight job goes first.
        inst = make_instance(1.0, 1, [(0.0, 4.0, 12.0), (0.5, 1.0, 2.6)])
        assert opt_nonpreemptive(inst) == pytest.approx(5.0)

    def test_preemption_gap(self):
        # Preemptively both jobs fit; without preemption the short window
        # is buried inside the long job's only feasible position.
        inst = make_instance(0.1, 1, [(0.0, 10.0, 12.0), (4.0, 2.0, 6.4)])
        assert opt_preemptive(inst) == pytest.approx(12.0)
        assert opt_nonpreemptive(inst) == pytest.approx(10.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_relaxation_dominance(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randint(1, 8)
        m = rng.choice([1, 2, 3])
        jobs = []
        t = 0.0
        for i in range(n):
            t += rng.uniform(0, 3)
            p = rng.uniform(1, 6)
            jobs.append((t, p, t + p * rng.uniform(1.2, 3.0)))
        inst = make_instance(0.1, m, jobs)
        p_opt = opt_preemptive(inst)
        np_opt = opt_nonpreemptive(inst)
        assert np_opt <= p_opt + 1e-9


class TestPrefixWork:
    def test_full_window_is_total(self):
        jobs = [Job(0, 0.0, 2.0, 5.0), Job(1, 0.0, 1.0, 4.0)]
        assert max_prefix_work(jobs, 1, 10.0) == pytest.approx(3.0)

    def test_zero_cut(self):
        jobs = [Job(0, 0.0, 2.0, 5.0)]
        assert max_prefix_work(jobs, 1, 0.0) == 0.0

    def test_capacity_bound(self):
        jobs = [Job(0, 0.0, 4.0, 8.0), Job(1, 0.0, 4.0, 8.0)]
        assert max_prefix_work(jobs, 1, 2.0) == pytest.approx(2.0)

    def test_front_loading_beats_lazy_order(self):
        # Both jobs can pack the first two units despite one long deadline.
        jobs = [Job(0, 0.0, 2.0, 10.0), Job(1, 0.0, 2.0, 4.0)]
        assert max_prefix_work(jobs, 1, 2.0) == pytest.approx(2.0)

    def test_deadline_obligation_limits_prefix(self):
        # Job 1 must fully occupy [0,1); job 0 can still use the idle machine.
        jobs = [Job(0, 0.0, 5.0, 100.0), Job(1, 0.0, 1.0, 1.0)]
        assert max_prefix_work(jobs, 2, 1.0) == pytest.approx(2.0)

    def test_infeasible_set_rejected(self):
        jobs = [Job(0, 0.0, 2.0, 1.0)]
        with pytest.raises(ValueError):
            max_prefix_work(jobs, 1, 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_closed_form_on_feasible_common_release(self, seed):
        # With a common release and a feasible set, the best prefix packing
        # is min(m * cut, sum of per-job caps min(p, cut)).
        rng = random.Random(300 + seed)
        while True:
            m = rng.choice([1, 2, 3])
            jobs = []
            for i in range(rng.randint(1, 6)):
                p = rng.uniform(0.5, 4.0)
                jobs.append(Job(i, 0.0, p, p * rng.uniform(1.5, 3.0) + 2.0))
            if flow_feasible(jobs, m):
                break
        for cut in (0.7, 1.9, 3.3):
            expected = min(m * cut, sum(min(j.processing, cut) for j in jobs))
            assert max_prefix_work(jobs, m, cut) == pytest.approx(expected, abs=1e-6)

    def test_matches_an_interval_lp_with_staggered_releases(self):
        # A second solver for the same problem: y[j, i] <= len_i is job j's
        # work in interval i, sum_i y[j, i] = p_j, sum_j y[j, i] <= m * len_i,
        # and HiGHS maximises the work placed before the cut.
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            m = rng.randint(1, 4)
            jobs = []
            for i in range(rng.randint(1, 7)):
                r = rng.uniform(0.0, 6.0)
                p = rng.uniform(0.5, 4.0)
                jobs.append(Job(i, r, p, r + p * rng.uniform(1.2, 3.0)))
            while not flow_feasible(jobs, m):
                jobs.pop(rng.randrange(len(jobs)))
            cut = rng.uniform(min(j.release for j in jobs), max(j.deadline for j in jobs))
            points = sorted({j.release for j in jobs} | {j.deadline for j in jobs} | {cut})
            intervals = list(zip(points, points[1:]))
            pairs = [
                (ji, ii)
                for ji, job in enumerate(jobs)
                for ii, (a, b) in enumerate(intervals)
                if job.release <= a and b <= job.deadline
            ]
            objective = [-1.0 if intervals[ii][1] <= cut else 0.0 for _, ii in pairs]
            a_eq = [[1.0 if ji == j else 0.0 for ji, _ in pairs] for j in range(len(jobs))]
            a_ub = [[1.0 if ii == i else 0.0 for _, ii in pairs] for i in range(len(intervals))]
            lp = optimize.linprog(
                objective,
                A_ub=a_ub,
                b_ub=[m * (b - a) for a, b in intervals],
                A_eq=a_eq,
                b_eq=[job.processing for job in jobs],
                bounds=[(0.0, intervals[ii][1] - intervals[ii][0]) for _, ii in pairs],
                method="highs",
            )
            assert lp.status == 0, lp.message
            assert max_prefix_work(jobs, m, cut) == pytest.approx(-lp.fun, abs=1e-6)
            checked += 1

