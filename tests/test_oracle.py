import math
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest

from commitsched import oracle
from commitsched.harness import random_instance
from commitsched.model import TOL, Instance, Job
from commitsched.oracle import (
    _descending_subsets,
    _forced_work_table,
    _MaxFlow,
    _np_search,
    _passing_masks,
    flow_feasible,
    max_prefix_work,
    opt_nonpreemptive,
    opt_preemptive,
)
from commitsched.preemptive import PreemptiveSimulator
from commitsched.vmin import ActiveJob, contribution, horn_feasible


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

        def sizes():
            yield rng.randint(1, 8), rng.choice([1, 2, 3])
            # Well past what the subset oracles enumerate; about half of
            # these sets are infeasible.
            yield 40, rng.randint(6, 18)

        for n, m in sizes():
            jobs = []
            for i in range(n):
                p = rng.uniform(0.5, 4.0)
                d = p * rng.uniform(1.0, 3.0)
                jobs.append(Job(i, 0.0, p, d))
            active = [ActiveJob(j.id, j.processing, j.deadline) for j in jobs]
            assert flow_feasible(jobs, m) == horn_feasible(active, 0.0, m)



def capacity_margin(jobs, m, num=Fraction):
    """Least room of a common-release set: over jobs, d - r - p; over every
    deadline and latest start tau, m * (tau - r) - v_min(tau).  In exact
    arithmetic (``num=Fraction``) the set is feasible iff it is >= 0 (Horn
    1974): both sides are linear between these points."""
    r = num(jobs[0].release)
    rows = [(num(j.processing), num(j.deadline)) for j in jobs]
    taus = {d for _, d in rows} | {d - p for p, d in rows if d - p > r}
    window = min(d - r - p for p, d in rows)
    return min(window, min(m * (tau - r) - sum(contribution(p, d, tau) for p, d in rows) for tau in taus))


def scaled_to_margin(jobs, m, target):
    """The set with every processing time scaled by s, at the two ends of a
    float bisection for the largest s whose float margin is >= target."""

    def scaled(s):
        return [Job(j.id, j.release, j.processing * s, j.deadline) for j in jobs]

    lo, hi = 0.0, 1.0
    while capacity_margin(scaled(hi), m, float) >= target:
        lo, hi = hi, 2 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if capacity_margin(scaled(mid), m, float) >= target else (lo, mid)
    return scaled(lo), scaled(hi)


def test_horn_and_flow_agree_outside_the_tol_band():
    # Seeded common-release sets, n <= 12 and m in 1..4, with jobs that
    # exactly fill their windows, scaled onto the capacity edge and to four
    # band widths either side of it.  Where the exact margin is >= 0 both
    # tests admit (ties admit).  Beyond the band TOL * max(1, total work),
    # the slack of flow_feasible and at least the absolute TOL of
    # horn_feasible, they agree with the sign of the margin.
    seen = {"edge": 0, "feasible": 0, "infeasible": 0}
    for seed in range(150):
        rng = random.Random(seed)
        n, m = rng.randint(1, 12), rng.randint(1, 4)
        r = rng.choice([0.0, rng.uniform(0.0, 50.0)])
        jobs = []
        for i in range(n):
            p = rng.uniform(0.5, 4.0)
            jobs.append(Job(i, r, p, r + p * (1.0 if rng.random() < 0.3 else rng.uniform(1.0, 3.0))))
        band = TOL * max(1.0, sum(j.processing for j in jobs))
        variants = [jobs, *scaled_to_margin(jobs, m, 0.0)]
        variants += [scaled_to_margin(jobs, m, 4 * band)[0], scaled_to_margin(jobs, m, -4 * band)[0]]
        for variant in variants:
            margin = capacity_margin(variant, m)
            band = TOL * max(1.0, sum(j.processing for j in variant))
            flow = flow_feasible(variant, m)
            horn = horn_feasible([ActiveJob(j.id, j.processing, j.deadline) for j in variant], r, m)
            if margin >= 0:
                assert flow and horn, (seed, float(margin))
                seen["edge" if margin <= band else "feasible"] += 1
            elif margin < -band:
                assert not flow and not horn, (seed, float(margin))
                seen["infeasible"] += 1
    assert min(seen.values()) >= 100, seen

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


def np_brute_feasible(jobs, m):
    """Independent non-preemptive oracle for a few jobs: ``fits(S)`` says
    whether some order of the set S runs on one machine, each job as early
    as possible and ending by its deadline (+ TOL, as in ``_np_search``).
    Returns a function of a job mask: whether that set splits into at most
    m sets that each fit, which is feasibility on m machines."""
    n = len(jobs)

    def in_order(perm):
        t = 0.0
        for job in perm:
            t = max(t, job.release) + job.processing
            if t > job.deadline + TOL:
                return False
        return True

    fits = [
        any(in_order(perm) for perm in permutations([jobs[i] for i in range(n) if mask >> i & 1]))
        for mask in range(1 << n)
    ]

    @lru_cache(maxsize=None)
    def split(mask, k):
        if mask == 0:
            return True
        if k == 0:
            return False
        low = mask & -mask  # the lowest job goes on the next machine
        sub = mask
        while sub:
            if sub & low and fits[sub] and split(mask & ~sub, k - 1):
                return True
            sub = (sub - 1) & mask
        return False

    return lambda mask: split(mask, m)


class TestNonpreemptiveAgainstBruteForce:
    """``_np_search`` and ``opt_nonpreemptive`` against per-machine orders
    run as early as possible, on every subset of small seeded instances.
    Tight slack and short release spans make the capacity bound fire."""

    @pytest.mark.parametrize("seed", range(24))
    def test_every_subset_agrees(self, seed):
        rng = random.Random(900 + seed)
        m = 1 + seed % 3
        n = rng.randint(4, 7)
        epsilon = rng.choice([0.1, 0.25, 0.5])
        inst = random_instance(
            n, m, epsilon, seed=seed, release_span=rng.choice([1.0, 3.0]), slack_mix=rng.choice([0.5, 1.0])
        )
        jobs = list(inst.jobs)
        brute = np_brute_feasible(jobs, m)
        best = 0.0
        for mask in range(1 << n):
            subset = [jobs[i] for i in range(n) if mask >> i & 1]
            assert _np_search(subset, m) == brute(mask), (mask, subset)
            if brute(mask):
                best = max(best, sum(j.processing for j in subset))
        assert opt_nonpreemptive(inst) == pytest.approx(best, abs=1e-9)

    def test_corpus_needs_the_search(self):
        # Sets that preemption can schedule but the brute force cannot: the
        # search, not the flow relaxation, decides them.
        decided = 0
        for seed in range(24):
            inst = random_instance(6, 1 + seed % 3, 0.1, seed=seed, release_span=1.0, slack_mix=1.0)
            jobs = list(inst.jobs)
            brute = np_brute_feasible(jobs, inst.machines)
            for mask in range(1 << len(jobs)):
                subset = [jobs[i] for i in range(len(jobs)) if mask >> i & 1]
                if flow_feasible(subset, inst.machines) and not brute(mask):
                    assert not _np_search(subset, inst.machines)
                    decided += 1
        assert decided > 50


def per_mask_filter(order, F, caps):
    """The forced-work rule one mask at a time."""
    out = []
    for mask in order:
        members = [ji for ji in range(F.shape[0]) if int(mask) >> ji & 1]
        if members and np.any(F[members].sum(axis=0) > caps + 1e-9):
            continue
        out.append(int(mask))
    return out


class TestPassingMasks:
    def check(self, jobs, m, order=None):
        F, widths = _forced_work_table(jobs)
        if order is None:
            order, _ = _descending_subsets([j.processing for j in jobs])
        expected = per_mask_filter(order, F, m * widths)
        assert list(_passing_masks(order, F, m * widths)) == expected
        return len(order) - len(expected)

    def test_no_jobs(self):
        assert self.check([], 1) == 0

    def test_one_job(self):
        assert self.check([Job(0, 1.0, 2.0, 4.0)], 1) == 0

    def test_ragged_last_chunk(self):
        jobs = list(random_instance(9, 1, 0.25, seed=4, release_span=3.0).jobs)
        order, _ = _descending_subsets([j.processing for j in jobs])
        assert self.check(jobs, 1, order[:150]) > 0

    def test_tolerance_at_capacity(self):
        # Two jobs forced into [0, 1) fill two machines exactly; 2e-9 more
        # of each is over the 1e-9 tolerance.
        assert self.check([Job(0, 0.0, 1.0, 1.0), Job(1, 0.0, 1.0, 1.0)], 2) == 0
        assert self.check([Job(0, 0.0, 1.0 + 2e-9, 1.0), Job(1, 0.0, 1.0 + 2e-9, 1.0)], 2) == 1

    def test_no_interval_pairs(self):
        F = np.zeros((3, 0))
        order, _ = _descending_subsets([1.0, 2.0, 3.0])
        assert list(_passing_masks(order, F, np.zeros(0))) == list(order)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_per_mask_rule(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        m = rng.choice([1, 2, 3])
        inst = random_instance(n, m, rng.choice([0.1, 0.5, 1.0]), seed=seed, release_span=rng.choice([2.0, 10.0]))
        self.check(list(inst.jobs), m)


class DenseMaxFlow:
    """Reference: breadth-first augmenting paths, scanning a dense
    adjacency row in node order."""

    def __init__(self, n):
        self.n = n
        self.cap = [[0.0] * n for _ in range(n)]

    def add(self, u, v, capacity):
        self.cap[u][v] += capacity

    def max_flow(self, s, t):
        total = 0.0
        while True:
            parent = [-1] * self.n
            parent[s] = s
            queue = deque([s])
            while queue and parent[t] == -1:
                u = queue.popleft()
                for v in range(self.n):
                    if parent[v] == -1 and self.cap[u][v] > 1e-12:
                        parent[v] = u
                        queue.append(v)
            if parent[t] == -1:
                return total
            bottleneck = math.inf
            v = t
            while v != s:
                bottleneck = min(bottleneck, self.cap[parent[v]][v])
                v = parent[v]
            v = t
            while v != s:
                u = parent[v]
                self.cap[u][v] -= bottleneck
                self.cap[v][u] += bottleneck
                v = u
            total += bottleneck


class TestSparseMaxFlow:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dense_reference_in_two_phases(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        sparse, dense = _MaxFlow(n), DenseMaxFlow(n)
        for phase in range(2):
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.sample(range(n), 2)
                capacity = rng.choice([rng.uniform(0.0, 5.0), float(rng.randint(1, 3))])
                sparse.add(u, v, capacity)
                dense.add(u, v, capacity)
            assert repr(sparse.max_flow(0, n - 1)) == repr(dense.max_flow(0, n - 1))

    @pytest.mark.parametrize("seed", range(20))
    def test_oracles_match_dense_reference(self, seed, monkeypatch):
        rng = random.Random(500 + seed)
        m = rng.choice([1, 2, 3])
        jobs = list(random_instance(rng.randint(1, 9), m, 0.5, seed=seed, release_span=5.0).jobs)
        cuts = [rng.uniform(0.0, 12.0) for _ in range(3)]

        def answers():
            feasible = flow_feasible(jobs, m)
            prefix = [max_prefix_work(jobs, m, cut) for cut in cuts] if feasible else []
            return repr((feasible, prefix, opt_preemptive(Instance(0.5, m, tuple(jobs)))))

        sparse = answers()
        monkeypatch.setattr(oracle, "_MaxFlow", DenseMaxFlow)
        assert answers() == sparse


class TestGreedyMatchesFlow:
    """Each greedy-p decision equals ``flow_feasible`` on the active
    remainders plus the new job, all released at the clock."""

    @pytest.mark.parametrize("seed", range(12))
    def test_decisions(self, seed):
        rng = random.Random(700 + seed)
        m = rng.choice([1, 2, 3])
        inst = random_instance(40, m, rng.choice([0.1, 0.5]), seed=seed, release_span=rng.choice([10.0, 30.0]))
        sim = PreemptiveSimulator(m, inst.epsilon, policy="greedy")
        rejected = 0
        for job in inst.jobs:
            sim.advance_to(job.release)
            candidate = [Job(a.id, sim.clock, a.remaining, a.deadline) for a in sim.active_jobs()]
            candidate.append(Job(job.id, sim.clock, job.processing, job.deadline))
            expected = flow_feasible(candidate, m)
            assert sim.on_arrival(job) == expected, job
            rejected += not expected
        assert rejected > 0
