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
from commitsched.model import DUST, TOL, Instance, Job
from commitsched.oracle import (
    _FILTER_CHUNK,
    _descending_blocks,
    _forced_work_table,
    _MaxFlow,
    _np_search,
    _passing_masks,
    _subset_volumes,
    flow_feasible,
    max_prefix_work,
    opt_nonpreemptive,
    opt_preemptive,
)
from commitsched.preemptive import PreemptiveSimulator, greedy_preemptive
from commitsched.vmin import ActiveJob, contribution, horn_feasible
from helpers import make_instance


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


def passes_filter(jobs, m):
    """Whether the whole set passes the forced-work filter of the oracles."""
    F, widths = _forced_work_table(jobs)
    full = (1 << len(jobs)) - 1
    return list(_passing_masks([np.array([full])], F, m * widths)) == [full]


def blocks_and_spanning_job(rng):
    """Blocks that m >= 2 machines must spend entirely on their own jobs,
    with gaps between them, and one job whose window spans them all.

    The spanning job can run only in the gaps, one machine at a time, so
    the set is feasible iff its work is at most the gap time.  Its forced
    work in each interval pair may still fit m machines, so the filter
    passes many of the infeasible sets.  Returns the jobs, m, and the
    spanning job's work minus the gap time."""
    m = rng.randint(2, 4)
    gaps = rng.randint(1, 6)
    t = start = rng.uniform(0.0, 20.0)
    jobs, free, shortest = [], 0.0, math.inf
    for block in range(gaps + 1):
        end = t + rng.uniform(0.5, 2.0)
        shortest = min(shortest, end - t)
        for _ in range(m):
            if rng.random() < 0.3:
                part = (end - t) * rng.uniform(0.2, 0.8)
                jobs += [Job(len(jobs), t, part, end), Job(len(jobs) + 1, t, (end - t) - part, end)]
            else:
                jobs.append(Job(len(jobs), t, end - t, end))
        if block < gaps:
            t = end + rng.uniform(0.5, 3.0)
            free += t - end
    excess = rng.uniform(-0.5, 1.0) * shortest
    jobs.append(Job(len(jobs), start, free + excess, end))
    return jobs, m, excess


def lp_feasible(jobs, m, optimize):
    """Independent preemptive feasibility: an LP in y[j, i] >= 0, job j's
    work in interval i, with y[j, i] <= len_i inside the job's window,
    sum_i y[j, i] = p_j and sum_j y[j, i] <= m * len_i."""
    points = sorted({j.release for j in jobs} | {j.deadline for j in jobs})
    intervals = list(zip(points, points[1:]))
    pairs = [
        (ji, ii)
        for ji, job in enumerate(jobs)
        for ii, (a, b) in enumerate(intervals)
        if job.release <= a and b <= job.deadline
    ]
    lp = optimize.linprog(
        np.zeros(len(pairs)),
        A_ub=[[1.0 if ii == i else 0.0 for _, ii in pairs] for i in range(len(intervals))],
        b_ub=[m * (b - a) for a, b in intervals],
        A_eq=[[1.0 if ji == j else 0.0 for ji, _ in pairs] for j in range(len(jobs))],
        b_eq=[job.processing for job in jobs],
        bounds=[(0.0, intervals[ii][1] - intervals[ii][0]) for _, ii in pairs],
        method="highs",
    )
    assert lp.status in (0, 2), lp.message
    return lp.status == 0


class TestFlowOnFilterPassingSets:
    """``flow_feasible`` on sets that the forced-work filter cannot reject:
    the filter bounds each interval's forced work by m machines, but a job
    runs on one machine at a time."""

    def test_two_full_blocks_and_a_spanning_job(self):
        jobs = [Job(i, float(r), float(p), float(d)) for i, (r, p, d) in enumerate(
            [(0, 1, 1), (0, 1, 1), (2, 1, 3), (2, 1, 3), (0, 2, 3)]
        )]
        assert passes_filter(jobs, 2)
        assert not flow_feasible(jobs, 2)
        assert flow_feasible(jobs[:4] + [Job(4, 0.0, 1.0, 3.0)], 2)

    def test_matches_an_interval_lp_on_a_seeded_family(self):
        optimize = pytest.importorskip("scipy.optimize")
        # Sets within 1e-6 of the threshold, the gap time, are skipped.
        seen = {True: 0, False: 0}
        for seed in range(100):
            jobs, m, excess = blocks_and_spanning_job(random.Random(seed))
            if not passes_filter(jobs, m) or abs(excess) <= 1e-6:
                continue
            feasible = lp_feasible(jobs, m, optimize)
            assert flow_feasible(jobs, m) == feasible, (seed, excess)
            seen[feasible] += 1
        assert seen[False] >= 20 and seen[True] >= 20, seen


#: ``repr((opt_preemptive(inst), opt_nonpreemptive(inst)))`` of
#: ``random_instance(n, m, eps, seed=seed, release_span=span, slack_mix=mix)``,
#: keyed by (seed, n, m, eps, span, mix), recorded with the full subset sort
#: and the row-by-row filter.
RECORDED_OPTIMA = {
    (0, 12, 1, 1.0, 0.0, 0.5): "(21.566306321465724, None)",
    (1, 4, 2, 0.05, 10.0, 0.0): "(14.647332463693607, 14.647332463693607)",
    (2, 1, 3, 0.05, 0.0, 0.5): "(7.177505152902337, 7.177505152902337)",
    (3, 7, 4, 0.25, 10.0, 1.0): "(24.804273896687253, 24.804273896687253)",
    (4, 7, 1, 0.5, 0.0, 1.0): "(8.657831833500875, 8.657831833500875)",
    (5, 8, 2, 0.5, 0.0, 0.5): "(17.86662238115013, 17.86662238115013)",
    (6, 2, 3, 1.0, 10.0, 0.0): "(6.709883120998985, 6.709883120998985)",
    (7, 10, 4, 0.25, 30.0, 1.0): "(30.154662828073043, 30.154662828073043)",
    (8, 7, 1, 0.5, 30.0, 0.0): "(22.646316979522698, 22.646316979522698)",
    (9, 14, 2, 0.5, 10.0, 0.0): "(33.73056728085665, None)",
    (10, 1, 3, 1.0, 30.0, 1.0): "(2.439638120567854, 2.439638120567854)",
    (11, 14, 4, 1.0, 30.0, 1.0): "(49.25492778238118, None)",
    (12, 15, 1, 0.5, 10.0, 0.0): "(26.06704187773756, None)",
    (13, 8, 2, 0.5, 1.0, 1.0): "(17.50432722176314, 16.689346473763564)",
    (14, 3, 3, 0.25, 10.0, 1.0): "(12.701149504126032, 12.701149504126032)",
    (15, 6, 4, 0.05, 0.0, 0.0): "(28.34109401957827, 28.34109401957827)",
    (16, 11, 1, 1.0, 30.0, 0.5): "(33.918123993077735, None)",
    (17, 16, 2, 1.0, 10.0, 0.5): "(54.88602619761423, None)",
    (18, 5, 3, 0.05, 30.0, 0.5): "(18.271790848498807, 18.271790848498807)",
    (19, 1, 4, 0.05, 1.0, 0.5): "(5.114999391213772, 5.114999391213772)",
    (20, 4, 1, 0.5, 0.0, 0.5): "(12.143598346533603, 12.143598346533603)",
    (21, 5, 2, 1.0, 30.0, 1.0): "(13.052252481645144, 13.052252481645144)",
    (22, 4, 3, 0.25, 0.0, 1.0): "(19.054045870111377, 19.054045870111377)",
    (23, 9, 4, 0.05, 0.0, 1.0): "(14.221005567638656, 14.221005567638656)",
    (24, 12, 1, 0.25, 1.0, 0.0): "(22.88603599889921, None)",
    (25, 12, 2, 0.05, 1.0, 0.5): "(14.025366907975421, None)",
    (26, 6, 3, 0.25, 30.0, 1.0): "(33.90349732400516, 33.90349732400516)",
    (27, 15, 4, 0.5, 10.0, 0.0): "(41.052318175955385, None)",
    (28, 3, 1, 0.25, 1.0, 0.0): "(9.593838310546177, 9.593838310546177)",
    (29, 2, 2, 0.5, 10.0, 0.0): "(7.838041719631071, 7.838041719631071)",
    (30, 9, 3, 0.05, 1.0, 0.5): "(25.50639439980528, 25.244479161847877)",
    (31, 0, 4, 1.0, 0.0, 0.5): "(0.0, 0.0)",
    (32, 2, 1, 0.25, 1.0, 0.5): "(4.47138481703854, 4.47138481703854)",
    (33, 5, 2, 0.25, 10.0, 0.5): "(26.72612744872938, 26.72612744872938)",
    (34, 16, 3, 0.5, 0.0, 0.0): "(53.17414091215144, None)",
    (35, 10, 4, 0.25, 10.0, 0.0): "(31.899396948232884, 31.899396948232884)",
    (36, 10, 1, 0.05, 0.0, 0.5): "(9.628530455007045, 9.628530455007045)",
    (37, 2, 2, 0.05, 10.0, 0.5): "(6.53177887623689, 6.53177887623689)",
    (38, 13, 3, 1.0, 0.0, 0.0): "(39.70141757219743, None)",
    (39, 6, 4, 0.5, 30.0, 0.0): "(16.223254221676875, 16.223254221676875)",
    (40, 14, 1, 0.05, 1.0, 0.5): "(11.950897895340571, None)",
    (41, 12, 2, 0.5, 1.0, 0.0): "(42.48090061816168, None)",
    (42, 3, 3, 0.05, 10.0, 0.0): "(9.047790982590847, 9.047790982590847)",
    (43, 1, 4, 0.5, 1.0, 0.5): "(4.2535663780255355, 4.2535663780255355)",
    (44, 13, 1, 0.05, 1.0, 0.5): "(10.24777869671818, None)",
    (45, 8, 2, 1.0, 30.0, 0.5): "(26.61830337520659, 26.61830337520659)",
    (46, 2, 3, 1.0, 0.0, 1.0): "(5.009158281832355, 5.009158281832355)",
    (47, 11, 4, 0.05, 30.0, 1.0): "(39.55591759570683, None)",
    (48, 10, 1, 0.25, 10.0, 1.0): "(14.889946910414395, 14.889946910414395)",
    (49, 2, 2, 0.5, 30.0, 0.0): "(2.36715092339832, 2.36715092339832)",
    (50, 15, 3, 0.5, 10.0, 1.0): "(45.02228791086753, None)",
    (51, 7, 4, 0.25, 1.0, 0.0): "(23.542419153060095, 23.542419153060095)",
    (52, 8, 1, 0.05, 30.0, 0.5): "(23.77240694941653, 23.77240694941653)",
    (53, 6, 2, 1.0, 30.0, 1.0): "(23.50152688158331, 23.50152688158331)",
    (54, 4, 3, 1.0, 10.0, 0.5): "(17.660951487561107, 17.660951487561107)",
    (55, 2, 4, 0.25, 1.0, 1.0): "(7.116616617098507, 7.116616617098507)",
    (56, 0, 1, 1.0, 10.0, 1.0): "(0.0, 0.0)",
    (57, 1, 2, 0.5, 0.0, 0.0): "(3.40831659256194, 3.40831659256194)",
    (58, 6, 3, 0.25, 1.0, 0.0): "(24.531184948515442, 24.531184948515442)",
    (59, 7, 4, 0.05, 30.0, 0.0): "(24.77059297610327, 24.77059297610327)",
    (60, 9, 1, 0.5, 1.0, 0.5): "(8.785249594360883, 8.785249594360883)",
    (61, 15, 2, 0.25, 1.0, 0.5): "(24.156749633412563, None)",
    (62, 5, 3, 0.05, 1.0, 0.5): "(20.954743538267795, 20.954743538267795)",
    (63, 14, 4, 1.0, 10.0, 0.5): "(51.08705997321451, None)",
    (64, 15, 1, 0.05, 30.0, 1.0): "(23.533122472729517, None)",
    (65, 13, 2, 0.5, 10.0, 1.0): "(29.899545301556802, None)",
    (66, 2, 3, 0.5, 30.0, 0.0): "(7.666634513079392, 7.666634513079392)",
    (67, 2, 4, 0.05, 30.0, 0.5): "(14.682566470519763, 14.682566470519763)",
    (68, 14, 1, 0.05, 1.0, 0.5): "(14.602015541106674, None)",
    (69, 1, 2, 0.05, 1.0, 0.0): "(1.2205335271543667, 1.2205335271543667)",
    (70, 3, 3, 0.5, 30.0, 0.5): "(7.737025749150073, 7.737025749150073)",
    (71, 10, 4, 0.05, 10.0, 0.0): "(33.803231696772045, 33.803231696772045)",
    (72, 2, 1, 0.25, 10.0, 1.0): "(7.826356809721949, 7.826356809721949)",
    (73, 8, 2, 0.05, 30.0, 1.0): "(20.491168756134382, 20.491168756134382)",
    (74, 16, 3, 0.05, 10.0, 0.0): "(60.460811776244455, None)",
    (75, 14, 4, 1.0, 30.0, 0.0): "(38.374484957454236, None)",
    (76, 11, 1, 1.0, 30.0, 0.0): "(40.8513460377597, None)",
    (77, 8, 2, 0.5, 1.0, 0.0): "(22.911542466798547, 22.911542466798547)",
    (78, 6, 3, 0.05, 10.0, 1.0): "(15.730530283138085, 15.730530283138085)",
    (79, 4, 4, 1.0, 10.0, 1.0): "(15.781150391005253, 15.781150391005253)",
    (80, 8, 1, 1.0, 30.0, 0.5): "(20.439457813190263, 18.74015993502172)",
    (81, 16, 2, 1.0, 10.0, 1.0): "(33.72729511514439, None)",
    (82, 4, 3, 1.0, 10.0, 0.0): "(15.91274276763947, 15.91274276763947)",
    (83, 15, 4, 1.0, 0.0, 0.0): "(52.7917240962261, None)",
    (84, 9, 1, 0.05, 30.0, 0.0): "(29.782892594486327, 29.782892594486327)",
    (85, 6, 2, 0.05, 10.0, 0.0): "(19.1074481345753, 19.1074481345753)",
    (86, 0, 3, 0.5, 0.0, 0.0): "(0.0, 0.0)",
    (87, 4, 4, 0.25, 0.0, 0.5): "(11.394768840779891, 11.394768840779891)",
    (88, 12, 1, 0.25, 10.0, 0.0): "(27.02641870541607, None)",
    (89, 2, 2, 0.5, 1.0, 0.5): "(13.84653902993532, 13.84653902993532)",
    (90, 6, 3, 0.05, 30.0, 1.0): "(24.297205306669166, 24.297205306669166)",
    (91, 2, 4, 0.25, 1.0, 0.5): "(11.343334217331336, 11.343334217331336)",
    (92, 13, 1, 0.5, 0.0, 1.0): "(10.768428848954857, None)",
    (93, 15, 2, 0.5, 0.0, 0.0): "(44.256532288678876, None)",
    (94, 5, 3, 0.05, 10.0, 0.5): "(22.12329507441156, 22.12329507441156)",
    (95, 16, 4, 0.25, 30.0, 0.0): "(53.19712963399969, None)",
    (96, 11, 1, 0.5, 30.0, 0.0): "(21.534503693679344, None)",
    (97, 6, 2, 1.0, 10.0, 0.0): "(16.761200273338726, 16.761200273338726)",
    (98, 11, 3, 0.05, 10.0, 0.5): "(40.693169303945986, None)",
    (99, 12, 4, 1.0, 1.0, 1.0): "(49.032940343204814, None)",
    (100, 4, 1, 1.0, 30.0, 0.0): "(10.723506364637087, 10.723506364637087)",
    (101, 6, 2, 0.5, 30.0, 0.0): "(15.409371913193128, 15.409371913193128)",
    (102, 4, 3, 0.5, 1.0, 1.0): "(11.872156849858317, 11.872156849858317)",
    (103, 14, 4, 0.25, 0.0, 1.0): "(25.15356350871876, None)",
    (104, 0, 1, 0.25, 1.0, 0.5): "(0.0, 0.0)",
    (105, 11, 2, 0.05, 0.0, 0.5): "(38.82442981982602, None)",
    (106, 15, 3, 0.05, 30.0, 0.0): "(43.42898169773585, None)",
    (107, 7, 4, 1.0, 30.0, 0.5): "(22.85994466535338, 22.85994466535338)",
    (108, 4, 1, 0.05, 30.0, 1.0): "(5.969201201250008, 5.969201201250008)",
    (109, 8, 2, 0.25, 30.0, 0.5): "(29.803225963831167, 29.803225963831167)",
    (110, 12, 3, 0.25, 30.0, 0.5): "(48.15623593892078, None)",
    (111, 6, 4, 0.5, 30.0, 0.0): "(16.654771557722814, 16.654771557722814)",
    (112, 15, 1, 0.5, 30.0, 0.5): "(27.879416868008345, None)",
    (113, 0, 2, 0.5, 0.0, 0.5): "(0.0, 0.0)",
    (114, 7, 3, 0.05, 10.0, 1.0): "(28.133055901813513, 28.133055901813513)",
    (115, 9, 4, 0.25, 0.0, 1.0): "(23.73383162775815, 20.296109690930415)",
    (116, 9, 1, 0.05, 0.0, 1.0): "(6.045719926332629, 6.045719926332629)",
    (117, 7, 2, 0.25, 1.0, 0.0): "(19.213284184178523, 19.213284184178523)",
    (118, 5, 3, 0.5, 0.0, 1.0): "(16.04958438114238, 13.120203772629035)",
    (119, 9, 4, 0.25, 30.0, 0.0): "(30.92193957880225, 30.92193957880225)",
    (120, 16, 1, 0.25, 1.0, 1.0): "(7.487919086112908, None)",
    (121, 2, 2, 0.25, 30.0, 1.0): "(5.875335794549514, 5.875335794549514)",
    (122, 16, 3, 0.25, 10.0, 0.0): "(63.68587643026842, None)",
    (123, 1, 4, 0.5, 0.0, 0.5): "(1.1987742772182597, 1.1987742772182597)",
    (124, 8, 1, 0.05, 1.0, 0.0): "(18.253921223193554, 18.253921223193554)",
    (125, 7, 2, 0.25, 10.0, 1.0): "(15.025290533285666, 14.898452215405324)",
    (126, 1, 3, 1.0, 1.0, 1.0): "(3.32693039823512, 3.32693039823512)",
    (127, 1, 4, 0.05, 0.0, 0.0): "(3.6596575974063663, 3.6596575974063663)",
    (128, 7, 1, 1.0, 10.0, 0.0): "(19.487241452586304, 19.487241452586304)",
    (129, 16, 2, 0.5, 0.0, 1.0): "(20.449088984438472, None)",
    (130, 16, 3, 1.0, 10.0, 1.0): "(50.09475128818572, None)",
    (131, 10, 4, 0.5, 0.0, 0.5): "(21.852154576853422, 21.852154576853422)",
    (132, 13, 1, 0.25, 30.0, 0.0): "(42.85375265426734, None)",
    (133, 15, 2, 0.5, 30.0, 0.5): "(45.92889888966609, None)",
    (134, 15, 3, 0.25, 1.0, 0.0): "(52.056273896570296, None)",
    (135, 11, 4, 0.5, 30.0, 0.5): "(41.34292110899567, None)",
    (136, 13, 1, 0.05, 30.0, 0.5): "(28.1391021737472, None)",
    (137, 2, 2, 0.25, 30.0, 0.5): "(9.904786604378565, 9.904786604378565)",
    (138, 6, 3, 1.0, 30.0, 1.0): "(22.68191301359374, 22.68191301359374)",
    (139, 0, 4, 0.5, 0.0, 1.0): "(0.0, 0.0)",
    (140, 3, 1, 0.05, 10.0, 0.0): "(9.771288608280578, 9.771288608280578)",
    (141, 16, 2, 0.05, 30.0, 0.0): "(50.342806394004, None)",
    (142, 15, 3, 0.25, 30.0, 0.5): "(40.29006877291417, None)",
    (143, 5, 4, 0.05, 0.0, 0.0): "(21.96689636426043, 21.96689636426043)",
    (144, 14, 1, 0.05, 30.0, 0.0): "(26.524011756991115, None)",
    (145, 13, 2, 0.05, 30.0, 0.0): "(44.00732660986209, None)",
    (146, 4, 3, 0.25, 10.0, 0.0): "(17.209163918512793, 17.209163918512793)",
    (147, 4, 4, 1.0, 30.0, 1.0): "(18.772440495637838, 18.772440495637838)",
    (148, 12, 1, 0.05, 30.0, 0.5): "(34.72362927231613, None)",
    (149, 2, 2, 0.05, 10.0, 0.5): "(6.648064957723977, 6.648064957723977)",
    (150, 10, 3, 1.0, 1.0, 0.0): "(34.03183956130104, 34.03183956130104)",
    (151, 13, 4, 0.25, 10.0, 0.5): "(38.8414203622736, None)",
    (152, 12, 1, 0.25, 30.0, 0.0): "(27.40077405632861, None)",
    (153, 15, 2, 0.05, 0.0, 0.5): "(20.690380157672948, None)",
    (154, 6, 3, 1.0, 30.0, 0.0): "(18.608197750717984, 18.608197750717984)",
    (155, 16, 4, 0.5, 30.0, 1.0): "(49.45249779664377, None)",
    (156, 15, 1, 1.0, 1.0, 0.5): "(20.274309297456984, None)",
    (157, 15, 2, 0.25, 1.0, 0.0): "(44.81014940504566, None)",
    (158, 7, 3, 0.05, 0.0, 0.5): "(11.370057793792732, 11.370057793792732)",
    (159, 12, 4, 0.25, 30.0, 0.0): "(36.177927870822785, None)",
    (160, 3, 1, 0.5, 30.0, 0.0): "(9.114897418591637, 9.114897418591637)",
    (161, 16, 2, 0.25, 1.0, 0.0): "(43.322352843282076, None)",
    (162, 1, 3, 0.25, 1.0, 0.5): "(6.53790832977733, 6.53790832977733)",
    (163, 14, 4, 0.25, 30.0, 0.5): "(51.28608474410211, None)",
    (164, 3, 1, 0.5, 10.0, 0.5): "(11.013879987259497, 11.013879987259497)",
    (165, 0, 2, 0.05, 30.0, 0.0): "(0.0, 0.0)",
    (166, 5, 3, 1.0, 30.0, 0.0): "(18.398454933034124, 18.398454933034124)",
    (167, 7, 4, 0.05, 10.0, 0.5): "(18.932429046018147, 18.932429046018147)",
    (168, 3, 1, 0.5, 30.0, 0.0): "(10.893722006967781, 10.893722006967781)",
    (169, 8, 2, 0.25, 0.0, 1.0): "(9.307953763193156, 7.769961401536678)",
    (170, 11, 3, 0.5, 10.0, 0.0): "(20.32017646266462, None)",
    (171, 12, 4, 1.0, 0.0, 1.0): "(47.67494097471304, None)",
    (172, 11, 1, 0.25, 1.0, 0.5): "(14.345117134644177, None)",
    (173, 10, 2, 1.0, 10.0, 0.0): "(26.97270066404133, 26.97270066404133)",
    (174, 0, 3, 1.0, 0.0, 0.5): "(0.0, 0.0)",
    (175, 14, 4, 0.25, 0.0, 1.0): "(26.763477937001532, None)",
    (176, 0, 1, 0.05, 1.0, 0.0): "(0.0, 0.0)",
    (177, 6, 2, 1.0, 30.0, 1.0): "(21.836399654627613, 21.836399654627613)",
    (178, 3, 3, 1.0, 1.0, 0.5): "(15.539331096824835, 15.539331096824835)",
    (179, 6, 4, 0.05, 0.0, 0.0): "(18.41086446705182, 18.41086446705182)",
    (180, 4, 1, 0.05, 0.0, 1.0): "(3.870777544958233, 3.870777544958233)",
    (181, 3, 2, 0.05, 10.0, 0.5): "(6.48062743439899, 6.48062743439899)",
    (182, 14, 3, 0.5, 1.0, 0.0): "(42.864592930414695, None)",
    (183, 3, 4, 0.05, 0.0, 0.5): "(11.173175390063658, 11.173175390063658)",
    (184, 8, 1, 0.05, 1.0, 1.0): "(5.798048785687895, 5.798048785687895)",
    (185, 3, 2, 0.25, 1.0, 0.5): "(7.516588924627346, 7.516588924627346)",
    (186, 10, 3, 1.0, 30.0, 0.0): "(35.22792943054341, 35.22792943054341)",
    (187, 11, 4, 1.0, 1.0, 1.0): "(43.45847166134066, None)",
    (188, 7, 1, 0.5, 0.0, 0.0): "(17.706350738733093, 17.706350738733093)",
    (189, 15, 2, 0.5, 1.0, 1.0): "(18.584353772447177, None)",
    (190, 2, 3, 0.25, 10.0, 0.5): "(9.080829574258061, 9.080829574258061)",
    (191, 16, 4, 0.25, 30.0, 1.0): "(53.875608803384026, None)",
    (192, 11, 1, 0.5, 0.0, 0.5): "(16.455540533564484, None)",
    (193, 14, 2, 0.25, 10.0, 1.0): "(28.318012620799443, None)",
    (194, 2, 3, 0.25, 10.0, 0.5): "(3.0609264721715066, 3.0609264721715066)",
    (195, 12, 4, 0.05, 1.0, 1.0): "(24.252134163965817, None)",
    (196, 16, 1, 0.05, 1.0, 0.5): "(14.484151746091895, None)",
    (197, 0, 2, 0.25, 1.0, 0.0): "(0.0, 0.0)",
    (198, 1, 3, 1.0, 0.0, 1.0): "(4.390588021270426, 4.390588021270426)",
    (199, 11, 4, 1.0, 10.0, 1.0): "(38.03867288690302, None)",
}


def test_optima_match_the_recorded_values():
    """Both optima repeat the recorded floats bit for bit on 200 seeded
    instances, n 0-16 (the non-preemptive oracle stops at 10), m 1-4."""
    for (seed, n, m, eps, span, mix), expected in RECORDED_OPTIMA.items():
        inst = random_instance(n, m, eps, seed=seed, release_span=span, slack_mix=mix)
        assert repr((opt_preemptive(inst), opt_nonpreemptive(inst))) == expected, (seed, n, m, eps, span, mix)
    assert {key[2] for key in RECORDED_OPTIMA} == {1, 2, 3, 4}
    assert max(key[1] for key in RECORDED_OPTIMA) == oracle.MAX_PREEMPTIVE_JOBS


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


def descending_subsets(processing):
    """Reference order: every mask, sorted at once by decreasing volume,
    ties by ascending mask."""
    n = len(processing)
    vols = np.zeros(1 << n)
    for j in range(n):
        bit = 1 << j
        vols[bit : bit << 1] = vols[:bit] + processing[j]
    return np.argsort(-vols, kind="stable"), vols


def chunked(order):
    return [order[begin : begin + _FILTER_CHUNK] for begin in range(0, len(order), _FILTER_CHUNK)]


class TestDescendingBlocks:
    @pytest.mark.parametrize("n", range(17))
    def test_matches_the_full_stable_sort(self, n):
        rng = random.Random(n)
        for processing in (
            [rng.uniform(1.0, 8.0) for _ in range(n)],
            [float(rng.randint(1, 4)) for _ in range(n)],
            [2.5] * n,
        ):
            order, vols = descending_subsets(processing)
            assert np.array_equal(_subset_volumes(processing), vols)
            chunks = list(_descending_blocks(vols))
            assert all(0 < len(chunk) <= _FILTER_CHUNK for chunk in chunks)
            assert np.array_equal(np.concatenate(chunks), order)

    def test_a_batch_takes_the_whole_tie_run_at_its_threshold(self):
        # With equal times the volumes are popcounts.  The first batch asks
        # for 1024 of the 4096 masks of n = 12; the run of volume 7 crosses
        # that size, so the batch takes 1586 masks and its last chunk is
        # ragged before the end of the stream.
        chunks = list(_descending_blocks(_subset_volumes([1.0] * 12)))
        lengths = [len(chunk) for chunk in chunks]
        assert lengths.index(1586 % _FILTER_CHUNK) == 1586 // _FILTER_CHUNK < len(lengths) - 1
        assert np.array_equal(np.concatenate(chunks), descending_subsets([1.0] * 12)[0])


def per_mask_filter(order, F, caps):
    """The forced-work rule one mask at a time."""
    out = []
    for mask in order:
        members = [ji for ji in range(F.shape[0]) if int(mask) >> ji & 1]
        if members and np.any(F[members].sum(axis=0) > caps + 1e-9):
            continue
        out.append(int(mask))
    return out


def integer_grid_jobs(rng, n, shifts=(0.0,)):
    """Jobs on an integer grid, often with no slack, so that forced work
    meets capacity exactly; each processing time is raised by TOL times one
    of ``shifts``."""
    jobs = []
    for i in range(n):
        r, p = rng.randint(0, 6), rng.randint(1, 4)
        jobs.append(Job(i, float(r), p + TOL * rng.choice(shifts), float(r + p + rng.choice([0, 0, 1, 2, 4]))))
    return jobs


class TestPassingMasks:
    def check(self, jobs, m, order=None):
        F, widths = _forced_work_table(jobs)
        if order is None:
            chunks = list(_descending_blocks(_subset_volumes([j.processing for j in jobs])))
            order = np.concatenate(chunks)
        else:
            chunks = chunked(order)
        expected = per_mask_filter(order, F, m * widths)
        assert list(_passing_masks(chunks, F, m * widths)) == expected
        return len(order) - len(expected)

    def test_no_jobs(self):
        assert self.check([], 1) == 0

    def test_one_job(self):
        assert self.check([Job(0, 1.0, 2.0, 4.0)], 1) == 0

    def test_ragged_last_chunk(self):
        jobs = list(random_instance(9, 1, 0.25, seed=4, release_span=3.0).jobs)
        order, _ = descending_subsets([j.processing for j in jobs])
        assert [len(chunk) for chunk in chunked(order[:150])] == [64, 64, 22]
        assert self.check(jobs, 1, order[:150]) > 0

    def test_tolerance_at_capacity(self):
        # Two jobs forced into [0, 1) fill two machines exactly; 2e-9 more
        # of each is over the 1e-9 tolerance.
        assert self.check([Job(0, 0.0, 1.0, 1.0), Job(1, 0.0, 1.0, 1.0)], 2) == 0
        assert self.check([Job(0, 0.0, 1.0 + 2e-9, 1.0), Job(1, 0.0, 1.0 + 2e-9, 1.0)], 2) == 1

    def test_no_interval_pairs(self):
        F = np.zeros((3, 0))
        order, _ = descending_subsets([1.0, 2.0, 3.0])
        assert list(_passing_masks(chunked(order), F, np.zeros(0))) == list(order)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_per_mask_rule(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        m = rng.choice([1, 2, 3])
        inst = random_instance(n, m, rng.choice([0.1, 0.5, 1.0]), seed=seed, release_span=rng.choice([2.0, 10.0]))
        self.check(list(inst.jobs), m)

    def test_integer_grids_at_capacity(self):
        # Forced work that meets capacity exactly is TOL below the limit,
        # far outside the screen's margin, so the product decides it.
        for seed in range(20):
            rng = random.Random(seed)
            m = rng.randint(1, 3)
            self.check(integer_grid_jobs(rng, rng.randint(2, 9)), m)

    def test_sums_within_the_margin_are_added_row_by_row(self, monkeypatch):
        # Shifts of TOL and TOL +- 1e-15 put the forced work of some subsets
        # on caps + TOL or an ulp or two either side of it, inside the
        # screen's margin.  Those masks are summed row by row; both verdicts
        # occur there, and every verdict matches the per-mask rule.
        over = []

        def spy(bits, F):
            sums = member_sums(bits, F)
            over.extend(np.any(sums > live_limit, axis=1))
            return sums

        member_sums = oracle._member_sums
        monkeypatch.setattr(oracle, "_member_sums", spy)
        for seed in range(60):
            rng = random.Random(seed)
            m = rng.randint(1, 3)
            jobs = integer_grid_jobs(rng, rng.randint(2, 9), shifts=(0.0, 1.0, 1.0 + 1e-6, 1.0 - 1e-6))
            F, widths = _forced_work_table(jobs)
            limit = m * widths + TOL
            live_limit = limit[F.sum(axis=0) > limit]
            self.check(jobs, m)
        assert any(over) and not all(over), sum(over)


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


class SparseEdmondsKarp(_MaxFlow):
    """Reference: the breadth-first augmenting loop ``_MaxFlow`` ran before
    it used blocking flows, on the same residual dicts; ``searches`` counts
    its breadth-first passes."""

    searches = 0

    def max_flow(self, s, t):
        neighbours = [sorted(row) for row in self.cap]
        total = 0.0
        while True:
            self.searches += 1
            parent = [-1] * self.n
            parent[s] = s
            queue = deque([s])
            while queue and parent[t] == -1:
                u = queue.popleft()
                row = self.cap[u]
                for v in neighbours[u]:
                    if parent[v] == -1 and row[v] > DUST:
                        parent[v] = u
                        queue.append(v)
            if parent[t] == -1:
                return total
            bottleneck = math.inf
            v = t
            while v != s:
                u = parent[v]
                bottleneck = min(bottleneck, self.cap[u][v])
                v = u
            v = t
            while v != s:
                u = parent[v]
                self.cap[u][v] -= bottleneck
                self.cap[v][u] += bottleneck
                v = u
            total += bottleneck


class ArcRecorder(_MaxFlow):
    """``_MaxFlow`` that keeps every ``add`` call as a (u, v, capacity) arc."""

    def __init__(self, n):
        super().__init__(n)
        self.arcs = []

    def add(self, u, v, capacity):
        self.arcs.append((u, v, capacity))
        super().add(u, v, capacity)


def horn_jobs(n, seed):
    return list(random_instance(n, 4, 0.5, seed=seed, release_span=n / 2).jobs)


def horn_network(jobs, m, extra=()):
    """Horn's network with all its sink arcs, built by ``_network``."""
    net, intervals, _ = oracle._network(jobs, extra)
    oracle._add_sink_arcs(net, intervals, m)
    return net


def assert_min_cut(net, arcs, s, t, flow):
    """The nodes reachable from s over residual arcs above DUST form a cut
    whose capacity is the flow: a certificate that the flow is maximum."""
    side, stack = {s}, [s]
    while stack:
        u = stack.pop()
        for v, residual in net.cap[u].items():
            if residual > DUST and v not in side:
                side.add(v)
                stack.append(v)
    assert t not in side
    cut = sum(c for u, v, c in arcs if u in side and v not in side)
    assert abs(cut - flow) <= DUST * len(arcs), (cut, flow)


class TestDinic:
    @pytest.mark.parametrize("n", [60, 100])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_edmonds_karp_on_horn_networks(self, n, seed, monkeypatch):
        # Every flow of flow_feasible on the whole (infeasible) set, and of
        # both phases of max_prefix_work on the feasible set greedy-p accepts.
        jobs = horn_jobs(n, seed)
        accepted = set(greedy_preemptive(Instance(0.5, 4, tuple(jobs))).decisions.accepted_ids())
        feasible = [job for job in jobs if job.id in accepted]
        cuts = [n / 8, n / 4, n / 2]

        def flows(solver):
            out = []

            class Recording(solver):
                def max_flow(self, s, t):
                    out.append(super().max_flow(s, t))
                    return out[-1]

            monkeypatch.setattr(oracle, "_MaxFlow", Recording)
            assert not flow_feasible(jobs, 4)
            assert all(max_prefix_work(feasible, 4, cut) > 0.0 for cut in cuts)
            return out

        dinic = flows(_MaxFlow)
        assert len(dinic) == 1 + 2 * len(cuts)
        assert repr(flows(SparseEdmondsKarp)) == repr(dinic)

    def test_needs_few_level_graphs(self, monkeypatch):
        net = horn_network(horn_jobs(100, 1), 4)
        reference = SparseEdmondsKarp(net.n)
        reference.cap = [dict(row) for row in net.cap]
        levels = []
        build = _MaxFlow._levels

        def counted(self, s, t, neighbours):
            levels.append(t)
            return build(self, s, t, neighbours)

        monkeypatch.setattr(_MaxFlow, "_levels", counted)
        assert repr(net.max_flow(0, net.n - 1)) == repr(reference.max_flow(0, net.n - 1))
        assert 1 <= len(levels) <= 20 < reference.searches

    @pytest.mark.parametrize("seed", range(40))
    def test_min_cut_certificate_on_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        net = ArcRecorder(n)
        flow = 0.0
        for phase in range(2):
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.sample(range(n), 2)
                net.add(u, v, rng.choice([rng.uniform(0.0, 5.0), float(rng.randint(1, 3))]))
            # A second call returns only the flow it adds.
            flow += net.max_flow(0, n - 1)
            assert_min_cut(net, net.arcs, 0, n - 1, flow)

    @pytest.mark.parametrize("n, seed", [(14, 0), (14, 1), (60, 0), (100, 1), (200, 2)])
    @pytest.mark.parametrize("m", [1, 4])
    def test_min_cut_certificate_on_horn_networks(self, n, seed, m, monkeypatch):
        monkeypatch.setattr(oracle, "_MaxFlow", ArcRecorder)
        net = horn_network(horn_jobs(n, seed), m)
        assert_min_cut(net, net.arcs, 0, net.n - 1, net.max_flow(0, net.n - 1))


def per_interval_network(jobs, extra=()):
    """Reference: Horn's arcs found by testing every (job, interval) pair,
    with the intervals and total processing time."""
    points = sorted({j.release for j in jobs} | {j.deadline for j in jobs} | set(extra))
    intervals = [(a, b) for a, b in zip(points, points[1:]) if b - a > TOL]
    n = len(jobs)
    arcs = []
    total = 0.0
    for ji, job in enumerate(jobs):
        arcs.append((0, 1 + ji, job.processing))
        total += job.processing
        for ii, (a, b) in enumerate(intervals):
            if a >= job.release - TOL and b <= job.deadline + TOL:
                arcs.append((1 + ji, 1 + n + ii, b - a))
    return arcs, intervals, total


class TestNetwork:
    def check(self, monkeypatch, jobs, extra=()):
        monkeypatch.setattr(oracle, "_MaxFlow", ArcRecorder)
        net, intervals, total = oracle._network(jobs, extra)
        assert repr((net.arcs, intervals, total)) == repr(per_interval_network(jobs, extra))
        return len(intervals)

    @pytest.mark.parametrize("seed", range(30))
    def test_tie_heavy_integer_grids(self, seed, monkeypatch):
        rng = random.Random(1100 + seed)
        jobs = integer_grid_jobs(rng, rng.randint(1, 12), shifts=(0.0, 1.0, -1.0))
        self.check(monkeypatch, jobs, extra=[float(rng.randint(0, 10))])

    @pytest.mark.parametrize("n, seed", [(60, 0), (200, 1)])
    def test_random_instances(self, n, seed, monkeypatch):
        self.check(monkeypatch, horn_jobs(n, seed), extra=[n / 4])

    def test_event_points_closer_than_tol(self, monkeypatch):
        # Releases and deadlines a fraction of TOL off the grid: the
        # ``b - a > TOL`` filter drops the short intervals between them, and
        # windows end within TOL of an interval's start or end.
        rng = random.Random(1200)
        nudge = [0.0, 0.25 * TOL, -0.5 * TOL, 0.9 * TOL, TOL, -TOL, 1.5 * TOL]
        dropped = 0
        for _ in range(100):
            jobs = []
            for i in range(rng.randint(2, 10)):
                r, p = rng.randint(0, 6), rng.randint(1, 4)
                jobs.append(Job(i, r + rng.choice(nudge), float(p), r + p + rng.randint(0, 3) + rng.choice(nudge)))
            cut = rng.randint(0, 8) + rng.choice(nudge)
            points = sorted({j.release for j in jobs} | {j.deadline for j in jobs} | {cut})
            kept = self.check(monkeypatch, jobs, extra=[cut])
            dropped += len(points) - 1 - kept
        assert dropped > 0


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
