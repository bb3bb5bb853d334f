import ast
import hashlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import commitsched
from commitsched import preemptive, vmin
from commitsched.adversary import replay_preemptive
from commitsched.harness import random_instance
from commitsched.model import (
    CHECK_SLACK,
    DUST,
    SLOPE_TOL,
    TOL,
    Instance,
    InvariantError,
    Job,
    Schedule,
    Segment,
    drive,
    verify_schedule,
)
from commitsched.policy import make_policy, stress_algorithms
from commitsched.preemptive import (
    PlanWindow,
    PreemptiveSimulator,
    generate_plan,
    greedy_preemptive,
    lrpt_assign,
    simulate_preemptive,
    solve_dmin,
    wrap_fill,
)
from commitsched.vmin import (
    ActiveJob,
    PiecewiseLinear,
    contribution,
    f_threshold,
    horn_feasible,
    v_min,
    v_min_curve,
    v_shape_corners,
    v_shape_curve,
)
from helpers import (
    BARE_PRELUDE,
    burst_jobs,
    burst_trail,
    make_instance,
    other_interpreters,
    random_instance_local,
    run_trail,
    scaled,
    time_shifted,
)

_record = preemptive._record


def scan_largest_crossing(active, f, v_delta, r, hi=200.0, steps=400000):
    """Brute-force oracle: largest tau with (tau-r)*f == v_min(tau) + v_delta.

    Tangential touches are made transversal by lifting the right side a
    hair (eta), which shifts the largest crossing by at most eta / f.
    """
    eta = 1e-7

    def g(tau):
        return (tau - r) * f - v_min(active, r, max(tau, r)) - v_delta - eta

    prev_tau = hi
    prev_g = g(hi)
    step = (hi - r) / steps
    tau = hi
    while tau > r:
        tau = max(tau - step, r)
        gv = g(tau)
        if (gv < 0) != (prev_g < 0):
            lo_t, hi_t = tau, prev_tau
            for _ in range(80):
                mid = 0.5 * (lo_t + hi_t)
                if (g(mid) < 0) == (gv < 0):
                    lo_t = mid
                else:
                    hi_t = mid
            return 0.5 * (lo_t + hi_t)
        prev_tau, prev_g = tau, gv
        if tau <= r:
            break
    return r


class TestSolveDmin:
    def test_single_accepted_job(self):
        active = [ActiveJob(0, 1.0, 2.0)]
        curve = v_min_curve(active, 0.0)
        f = f_threshold(1, 1.0)
        got = solve_dmin(curve, f, 0.0, 0.0)
        assert got == pytest.approx(2.0, abs=1e-9)
        assert got == pytest.approx(scan_largest_crossing(active, f, 0.0, 0.0), abs=1e-6)

    def test_no_active_jobs_degenerates_to_release(self):
        curve = v_min_curve([], 3.5)
        assert solve_dmin(curve, 0.5, 0.0, 3.5) == pytest.approx(3.5)

    def test_two_identical_jobs(self):
        active = [ActiveJob(0, 1.0, 2.0), ActiveJob(1, 1.0, 2.0)]
        curve = v_min_curve(active, 0.0)
        f = f_threshold(1, 1.0)
        got = solve_dmin(curve, f, 0.0, 0.0)
        assert got == pytest.approx(4.0, abs=1e-9)
        assert got == pytest.approx(scan_largest_crossing(active, f, 0.0, 0.0), abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scan_on_random_states(self, seed):
        rng = random.Random(seed)
        m = rng.choice([1, 2, 3])
        eps = rng.choice([0.5, 1.0])
        f = f_threshold(m, eps)
        active = [
            ActiveJob(i, rng.uniform(0.5, 4.0), rng.uniform(5.0, 30.0))
            for i in range(rng.randint(1, 5))
        ]
        v_delta = rng.uniform(0.0, 1.0)
        curve = v_min_curve(active, 0.0)
        got = solve_dmin(curve, f, v_delta, 0.0)
        want = scan_largest_crossing(active, f, v_delta, 0.0)
        assert got == pytest.approx(want, abs=1e-5)


class TestArrival:
    def test_first_job_accepted_and_threshold_set(self):
        sim = PreemptiveSimulator(1, 1.0)
        assert sim.submit(Job(0, 0.0, 1.0, 2.0)) is True
        assert sim.d_min == pytest.approx(2.0)

    def test_tie_on_threshold_is_accepted(self):
        sim = PreemptiveSimulator(1, 1.0)
        sim.submit(Job(0, 0.0, 1.0, 2.0))
        assert sim.submit(Job(1, 0.0, 1.0, 2.0)) is True
        assert sim.d_min == pytest.approx(4.0)

    def test_below_threshold_rejected_state_unchanged(self):
        sim = PreemptiveSimulator(1, 1.0)
        sim.submit(Job(0, 0.0, 1.0, 2.0))
        d_min_before = sim.d_min
        active_before = sim.active_jobs()
        assert sim.submit(Job(1, 0.0, 0.4, 1.3)) is False
        assert sim.d_min == d_min_before
        assert sim.active_jobs() == active_before
        assert len(sim.decisions) == 2

    def test_arrival_requires_advanced_clock(self):
        sim = PreemptiveSimulator(1, 1.0)
        with pytest.raises(ValueError, match="advance first"):
            sim.on_arrival(Job(0, 5.0, 1.0, 12.0))


@settings(max_examples=150)
@given(
    st.lists(st.floats(0.001, 1.0), min_size=1, max_size=10),
    st.integers(1, 4),
    st.floats(0.01, 5.0),
)
def test_wrap_fill_properties(fractions, q, span):
    # Amounts never exceed the span (the wrap precondition).
    amounts = [(i, f * span) for i, f in enumerate(fractions)]
    total = sum(a for _, a in amounts)
    if total > q * span:
        amounts = [(i, a * q * span / total * 0.999) for i, a in amounts]
    segs = wrap_fill(amounts, list(range(q)), 2.0, span)
    placed = {}
    for s in segs:
        assert 2.0 - 1e-9 <= s.start < s.end <= 2.0 + span + 1e-9
        placed[s.job] = placed.get(s.job, 0.0) + s.length
    for i, a in amounts:
        assert placed.get(i, 0.0) == pytest.approx(a, abs=1e-7)
    sched = Schedule(machines=q, segments=list(segs))
    jobs = {i: Job(i, 0.0, placed.get(i, 0.0), 100.0) for i, _ in amounts}
    kinds = {v.kind for v in verify_schedule(sched, jobs)}
    assert "overlap" not in kinds and "self-overlap" not in kinds


def fluid_lrpt_oracle(volumes, machines, length, steps=20000):
    """Independent fluid sharing: at each instant the largest remainders
    get the machines, ties split evenly; integrated with small steps."""
    rem = dict(volumes)
    dt = length / steps
    for _ in range(steps):
        alive = {j: v for j, v in rem.items() if v > 1e-12}
        if not alive:
            break
        order = sorted(alive, key=lambda j: -alive[j])
        left = machines
        idx = 0
        while idx < len(order) and left > 0:
            # group ties
            grp = [order[idx]]
            while idx + len(grp) < len(order) and abs(alive[order[idx + len(grp)]] - alive[grp[0]]) < 1e-12:
                grp.append(order[idx + len(grp)])
            share = min(left, len(grp)) / len(grp)
            for j in grp:
                rem[j] = max(0.0, rem[j] - share * dt)
            left -= min(left, len(grp))
            idx += len(grp)
    return {j: volumes[j] - rem[j] for j in volumes}


@pytest.mark.parametrize("seed", range(8))
def test_lrpt_matches_fluid_sharing_at_window_end(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    m = rng.randint(1, 3)
    volumes = {i: rng.uniform(0.1, 4.0) for i in range(n)}
    length = rng.uniform(0.5, 6.0)
    segs, idle = lrpt_assign(dict(volumes), list(range(m)), 0.0, length)
    done = {}
    for s in segs:
        done[s.job] = done.get(s.job, 0.0) + s.length
    # The schedule stops at its first idle instant, if one comes first.
    fluid = fluid_lrpt_oracle(volumes, m, length if idle is None else idle)
    for j in volumes:
        assert done.get(j, 0.0) == pytest.approx(fluid[j], abs=2e-3)


class TestLrptAssign:
    def test_single_job_single_machine(self):
        segs, idle = lrpt_assign({0: 2.0}, [0], 0.0, 2.0)
        assert len(segs) == 1
        assert (segs[0].start, segs[0].end, segs[0].machine) == (0.0, 2.0, 0)

    def test_strictly_largest_keeps_machine(self):
        segs, idle = lrpt_assign({0: 3.0, 1: 1.0}, [0], 0.0, 2.0)
        assert [(s.job, s.start, s.end) for s in segs] == [(0, 0.0, 2.0)]
        assert idle is None

    def test_tied_triple_on_two_machines_fully_busy(self):
        segs, idle = lrpt_assign({0: 2.0, 1: 2.0, 2: 2.0}, [0, 1], 0.0, 3.0)
        per_job = {}
        for s in segs:
            per_job[s.job] = per_job.get(s.job, 0.0) + s.length
        assert per_job == pytest.approx({0: 2.0, 1: 2.0, 2: 2.0})
        assert idle is None
        # No self-overlap, machines never double-booked.
        from commitsched.model import Schedule

        sched = Schedule(machines=2, segments=list(segs))
        jobs = {i: Job(i, 0.0, 2.0, 10.0) for i in range(3)}
        assert verify_schedule(sched, jobs) == []

    def test_idle_reported_when_volumes_run_out(self):
        # A machine idle from the very start never triggers a window
        # shrink (nothing later changes for it); an exhaustion does.
        segs, idle = lrpt_assign({0: 1.0}, [0, 1], 0.0, 5.0)
        assert idle == pytest.approx(1.0)
        segs2, idle2 = lrpt_assign({0: 1.0, 1: 1.0}, [0, 1], 0.0, 5.0)
        assert idle2 == pytest.approx(1.0)
        segs3, idle3 = lrpt_assign({}, [0, 1], 0.0, 5.0)
        assert segs3 == [] and idle3 is None

    @pytest.mark.parametrize(
        "volumes, m, idle",
        [
            ({0: 3.0, 1: 1.0}, 2, 1.0),
            ({0: 3.0, 1: 2.0, 2: 0.5}, 2, 2.5),  # a tied pair shares a machine first
            ({0: 5.0, 1: 2.0, 2: 2.0, 3: 2.0}, 3, 3.0),  # a tied triple wraps around two
        ],
    )
    def test_the_schedule_stops_at_an_idle_machine_mid_window(self, volumes, m, idle):
        # Over [0, 5) a machine goes idle at ``idle`` while job 0 has work
        # left, so the whole-window reference runs on past that instant.
        segs, got = lrpt_assign(volumes, list(range(m)), 0.0, 5.0)
        assert got == idle
        assert segs and all(s.start < idle for s in segs)
        full, full_idle = reference_lrpt_assign(volumes, list(range(m)), 0.0, 5.0)
        assert full_idle == idle and any(s.start >= idle for s in full)
        assert segs == [s for s in full if s.start < idle]


def reference_lrpt_assign(volumes, machines, start, end):
    """``lrpt_assign`` as it was before its sub-step loop skipped the idle
    groups and dropped exhausted jobs as it went; kept verbatim to compare
    against by repr."""
    m = len(machines)
    if m == 0 or end <= start + DUST:
        return [], None
    rem = {j: v for j, v in volumes.items() if v > TOL}
    segments = []
    cur = start
    first_idle = None
    while cur < end - DUST and rem:
        # Group jobs by (tolerance-equal) remaining volume, largest first.
        order = sorted(rem, key=lambda j: (-rem[j], j))
        groups = []
        for j in order:
            if groups and abs(rem[groups[-1][0]] - rem[j]) <= TOL:
                groups[-1].append(j)
            else:
                groups.append([j])
        # Assign machines to groups greedily from the largest volume.
        avail = m
        alloc = []
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
            if closing > SLOPE_TOL and gap > 0:
                delta = min(delta, gap / closing)
        nxt = min(end, cur + delta)
        if nxt <= cur:
            raise InvariantError(f"LRPT sub-step of {delta} cannot advance t={cur} (float spacing)")
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
                    segments.append(_record(Segment, (machines[machine_idx], j, cur, nxt)))
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
        if first_idle is None and len(rem) < m and cur < end - DUST:
            first_idle = cur
    return segments, first_idle


def random_lrpt_input(rng):
    """Volumes with exact ties, ties within and just beyond TOL, and
    remainders at or near TOL, on 1 to 5 machines over a window that may
    be shorter than DUST."""
    pool = [rng.uniform(0.001, 3.0) for _ in range(3)]
    volumes = {}
    for j in rng.sample(range(30), rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.3:
            volumes[j] = rng.choice(pool)
        elif kind < 0.45:
            volumes[j] = rng.choice(pool) + rng.choice([-1, 1]) * TOL * rng.choice([0.3, 0.9, 1.0, 1.1])
        elif kind < 0.55:
            volumes[j] = TOL * rng.choice([0.5, 1.0, 1.5])
        else:
            volumes[j] = rng.uniform(0.0, 4.0)
    start = rng.choice([0.0, 3.0, 1024.5, 2.0**20])
    span = rng.choice([rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0), TOL, 0.0])
    return volumes, list(range(rng.randint(1, 5))), start, start + span


def reference_up_to_first_idle(volumes, machines, start, end):
    """The reference's segments that start before its first idle instant,
    and that instant: all of its schedule that ``generate_plan`` keeps."""
    segments, first_idle = reference_lrpt_assign(volumes, machines, start, end)
    if first_idle is not None:
        segments = [s for s in segments if s.start < first_idle]
    return segments, first_idle


@pytest.mark.parametrize("seed", range(6))
def test_lrpt_assign_equals_the_reference_by_repr(seed):
    rng = random.Random(300 + seed)
    truncated = 0
    for _ in range(1500):
        volumes, machines, start, end = random_lrpt_input(rng)
        got = _outcome(lrpt_assign, volumes, machines, start, end)
        assert got == _outcome(reference_up_to_first_idle, volumes, machines, start, end)
        truncated += got != _outcome(reference_lrpt_assign, volumes, machines, start, end)
    # Some inputs go idle mid-window, where the reference schedules on.
    assert truncated > 100


def reference_generate_plan(active, t, m):
    """The plan built by scanning every deadline class from the latest
    down with contribution(), as before the bisection; kept to compare
    against by repr."""
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
    clipped = tuple(
        Segment(s.machine, s.job, s.start, min(s.end, end)) for s in segments if s.start < end - DUST
    )
    return PlanWindow(t, end, clipped)


def bisection_generate_plan(active, t, m):
    """The plan generator that bisected the classes with a full contributor
    list per probe, and scanned the rows twice more for the pre-allocated
    jobs and the longest-remaining volumes; kept verbatim to compare against.

    Its own docstring: build the execution plan from time t for the active jobs.

    The latest deadline class whose mandatory volume involves at most m
    jobs is pre-allocated one job per machine; the window extends by the
    smallest of those mandatory contributions.  Idle machines then run the
    longest-remaining rule on the next deadline class, and the window
    shrinks to the first idle instant of that sub-schedule.
    """
    jobs = sorted(active)  # by id: records compare by their fields, id first
    if not jobs:
        return PlanWindow(t, float("inf"), ())
    deadlines = sorted({j.deadline for j in jobs})
    if deadlines[0] <= t + TOL and any(j.remaining > TOL for j in jobs):
        if not horn_feasible(jobs, t, m):
            raise InvariantError(f"plan requested for an infeasible active set at t={t}")
    # (id, latest start, remaining, deadline); a job contributes to class d
    # when contribution(remaining, deadline, d) > TOL.
    rows = [(job_id, deadline - remaining, remaining, deadline) for job_id, remaining, deadline in jobs]

    def contributors(d: float) -> list[tuple[int, float, float, float]]:
        return [row for row in rows if row[1] < d and (row[2] if d >= row[3] else d - row[1]) > TOL]

    # A job that contributes to a class contributes to every later one, so
    # the contributor count is nondecreasing in the class: the classes with
    # at most m contributors are a prefix, all of them when n <= m.  With
    # none, k = -1: nothing is pre-allocated and longest-remaining runs over
    # the first class on every machine.
    if len(jobs) <= m:
        chosen_k = len(deadlines) - 1
    else:
        chosen_k = bisect_left(deadlines, True, key=lambda d: len(contributors(d)) > m) - 1
    pre = contributors(deadlines[chosen_k]) if chosen_k >= 0 else []

    if pre:
        d = deadlines[chosen_k]
        end = t + min(rem if d >= dl else d - ls for _, ls, rem, dl in pre)
    else:
        end = deadlines[0]
    segments = [_record(Segment, (machine, job_id, t, end)) for machine, (job_id, _, _, _) in enumerate(pre)]
    if chosen_k < len(deadlines) - 1 and len(pre) < m:
        d_next = deadlines[chosen_k + 1]
        pre_ids = {row[0] for row in pre}
        volumes = {
            job_id: rem if d_next >= dl else d_next - ls
            for job_id, ls, rem, dl in contributors(d_next)
            if job_id not in pre_ids
        }
        segs, first_idle = lrpt_assign(volumes, list(range(len(pre), m)), t, end)
        if first_idle is not None and first_idle < end:
            end = first_idle
        segments.extend(segs)

    end = max(end, t + DUST)
    clipped = tuple(
        s if s.end <= end else _record(Segment, (s.machine, s.job, s.start, end))
        for s in segments
        if s.start < end - DUST
    )
    return PlanWindow(t, end, clipped)


def _outcome(function, *args):
    try:
        return repr(function(*args))
    except InvariantError as exc:
        return f"InvariantError: {exc}"


def _plan_or_error(active, t, m, plan):
    return _outcome(plan, active, t, m)


def random_plan_input(rng, n, t):
    """Active jobs with tied deadlines, remainders just above or at most
    TOL, and latest starts before t, in shuffled id order; one set in ten
    has a deadline within TOL of t, which sends it through the feasibility
    check."""
    pool = [t + rng.uniform(0.5, 30.0) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.1:
        pool.append(t + rng.choice([0.0, TOL / 2]))
    active = []
    for job_id in rng.sample(range(3 * n + 1), n):
        deadline = rng.choice(pool) if rng.random() < 0.6 else t + rng.uniform(0.5, 30.0)
        kind = rng.random()
        if kind < 0.15:
            remaining = TOL * rng.choice([0.5, 1.0, 1.0 + 1e-6, 1.5, 3.0])
        elif kind < 0.25:
            remaining = deadline - t + rng.uniform(0.0, 2.0)  # latest start before t
        elif kind < 0.35:
            remaining = rng.choice([0.5, 1.0, 2.0])  # tied remainders and latest starts
        else:
            remaining = rng.uniform(0.01, min(10.0, deadline - t))
        active.append(ActiveJob(job_id, remaining, deadline))
    return active


@pytest.mark.parametrize("seed", range(10))
def test_generate_plan_equals_class_scan_by_repr(seed):
    rng = random.Random(seed)
    below = above = 0
    for _ in range(150):
        m = rng.choice([1, 2, 3, 4, 8])
        n = rng.choice([1, 2, 3, m, m + 1, 3 * m, 12 * m])
        below += n <= m
        above += n > 2 * m
        t = rng.choice([0.0, 2.5, 1024.25])
        active = random_plan_input(rng, n, t)
        got = _plan_or_error(active, t, m, generate_plan)
        assert got == _plan_or_error(active, t, m, reference_generate_plan)
    assert below and above


def random_plan_size(rng, m):
    """A live-set size, n <= m (the plan's fast path) in about half the draws."""
    return rng.randint(1, m) if rng.random() < 0.5 else rng.choice([m + 1, 2 * m, 3 * m, 12 * m])


@pytest.mark.parametrize("seed", range(10))
def test_generate_plan_equals_both_references_by_repr(seed):
    rng = random.Random(100 + seed)
    below = above = 0
    for _ in range(150):
        m = rng.choice([1, 2, 3, 4, 8])
        n = random_plan_size(rng, m)
        below += n <= m
        above += n > m
        t = rng.choice([0.0, 2.5, 1024.25])
        active = random_plan_input(rng, n, t)
        got = _plan_or_error(active, t, m, generate_plan)
        assert got == _plan_or_error(active, t, m, bisection_generate_plan)
        assert got == _plan_or_error(active, t, m, reference_generate_plan)
    assert below > 50 and above > 50


def rounded_away_input(rng, n, t):
    """Active jobs at t = 2^24, where the float spacing (2^-28) exceeds 2 TOL:
    a remainder in (TOL, spacing / 2) gives a latest start that rounds to
    the deadline itself.  Deadlines lie 1 to 256 spacings after t: longer
    windows make a shared LRPT group crawl one spacing per sub-step."""
    spacing = math.ulp(t)
    assert TOL < spacing / 2
    pool = [t + spacing * rng.choice([1, 2, 3, 8, 64, 256]) for _ in range(rng.randint(1, 3))]
    active = []
    for job_id in rng.sample(range(3 * n + 1), n):
        deadline = rng.choice(pool)
        kind = rng.random()
        if kind < 0.4:
            remaining = rng.uniform(TOL * 1.05, spacing * 0.45)  # latest start == deadline
        elif kind < 0.5:
            remaining = TOL * rng.choice([0.5, 1.0])
        else:
            remaining = rng.uniform(0.01, 1.0) * (deadline - t)
        active.append(ActiveJob(job_id, remaining, deadline))
    return active


@pytest.mark.parametrize("seed", range(4))
def test_generate_plan_drops_what_the_references_drop_at_a_shift_of_2_24(seed):
    # Known defect: a job whose latest start rounds to its deadline
    # contributes to no class at or before that deadline, so a plan can
    # leave it out although its remainder exceeds TOL.  Every path of the
    # generator must leave out exactly the jobs the references leave out.
    rng = random.Random(200 + seed)
    t = 2.0**24
    dropped = Counter()  # by whether n > m
    for _ in range(100):
        m = rng.choice([1, 2, 3, 4, 8])
        active = rounded_away_input(rng, random_plan_size(rng, m), t)
        got = _plan_or_error(active, t, m, generate_plan)
        assert got == _plan_or_error(active, t, m, bisection_generate_plan)
        assert got == _plan_or_error(active, t, m, reference_generate_plan)
        if not got.startswith("InvariantError"):
            planned = {s.job for s in generate_plan(active, t, m).segments}
            rounded = [j for j in active if j.deadline - j.remaining == j.deadline and j.remaining > TOL]
            dropped[len(active) > m] += any(j.id not in planned for j in rounded)
    # Both paths met sets that lose such a job.
    assert dropped[False] and dropped[True]
    # The smallest case: one such job alone gets no segment.
    lone = ActiveJob(0, 1.5e-9, t + 1.0)
    assert lone.deadline - lone.remaining == lone.deadline and lone.remaining > TOL
    assert generate_plan([lone], t, 1).segments == ()


class TestGeneratePlan:
    def test_single_job_preallocated(self):
        plan = generate_plan([ActiveJob(0, 2.0, 5.0)], 0.0, 2)
        assert plan.end == pytest.approx(2.0)
        assert len(plan.segments) == 1
        seg = plan.segments[0]
        assert (seg.job, seg.start, seg.end) == (0, 0.0, 2.0)

    def test_overfull_deadline_class_uses_pure_lrpt(self):
        active = [ActiveJob(i, 1.0, 1.0 + 1e-6) for i in range(3)]
        plan = generate_plan(active, 0.0, 2)
        assert plan.end == pytest.approx(1.0 + 1e-6)
        busy = sum(s.length for s in plan.segments)
        assert busy == pytest.approx(2.0 * plan.end, abs=1e-5)

    def test_early_class_preallocated_window_is_min_contribution(self):
        active = [ActiveJob(0, 0.5, 1.0), ActiveJob(1, 3.0, 10.0)]
        plan = generate_plan(active, 0.0, 1)
        assert plan.end == pytest.approx(0.5)
        assert [(s.job, s.start, s.end) for s in plan.segments] == [(0, 0.0, 0.5)]

    def test_idle_machines_pull_in_next_class(self):
        # Urgent class on one machine; the other machine helps the far class.
        active = [ActiveJob(0, 1.0, 1.5), ActiveJob(1, 4.0, 20.0)]
        plan = generate_plan(active, 0.0, 2)
        by_job = {}
        for s in plan.segments:
            by_job.setdefault(s.job, 0.0)
            by_job[s.job] += s.length
        assert plan.end == pytest.approx(1.0)
        assert by_job[0] == pytest.approx(1.0)
        assert by_job[1] == pytest.approx(1.0)


class TestSimulate:
    def test_empty_instance(self):
        res = simulate_preemptive(make_instance(1.0, 1, []))
        assert res.accepted_volume == 0.0
        assert res.schedule.segments == []

    def test_two_unit_jobs_back_to_back(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0), (0.0, 1.0, 2.0)])
        res = simulate_preemptive(inst, assert_level=2)
        assert res.accepted_volume == pytest.approx(2.0)
        accepted = {j.id: j for j in inst.jobs}
        assert verify_schedule(res.schedule, accepted) == []
        assert all(0.0 <= seg.start and seg.end <= 2.0 for seg in res.schedule.segments)
        assert sum(seg.length for seg in res.schedule.segments) == pytest.approx(2.0)

    def test_lazy_rejects_what_greedy_accepts(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0), (0.0, 0.4, 1.3)])
        lazy = simulate_preemptive(inst, assert_level=2)
        assert lazy.decisions.accepted_ids() == [0]
        assert lazy.accepted_volume == pytest.approx(1.0)
        greedy = greedy_preemptive(inst)
        assert greedy.decisions.accepted_ids() == [0, 1]
        assert greedy.accepted_volume == pytest.approx(1.4)

    def test_trace_lines_emitted(self):
        buf = io.StringIO()
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0)])
        res = drive(make_policy("alg1+2", inst.machines, inst.epsilon), inst, buf)
        assert buf.getvalue() == f"0 job=0 accept threshold={res.decisions[0].threshold:.9g}\n"

    @pytest.mark.parametrize("seed", range(25))
    def test_commitment_and_invariants_on_random_instances(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 10)
        m = rng.choice([1, 2, 3])
        eps = rng.choice([0.1, 0.5, 1.0])
        span = rng.choice([0.0, 5.0, 20.0])
        inst = random_instance_local(rng, n, m, eps, span)
        res = simulate_preemptive(inst, assert_level=2)
        accepted = {j.id: j for j in inst.jobs if j.id in set(res.decisions.accepted_ids())}
        assert verify_schedule(res.schedule, accepted) == []
        # First job is always accepted by the lazy rule.
        if inst.jobs:
            assert res.decisions[inst.jobs[0].id].accepted

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_commitment_on_random_instances(self, seed):
        rng = random.Random(2000 + seed)
        inst = random_instance_local(rng, rng.randint(1, 10), rng.choice([1, 2, 3]), 0.5, 10.0)
        res = greedy_preemptive(inst, assert_level=1)
        accepted = {j.id: j for j in inst.jobs if j.id in set(res.decisions.accepted_ids())}
        assert verify_schedule(res.schedule, accepted) == []

    def test_threshold_nondecreasing_within_run(self):
        rng = random.Random(77)
        inst = random_instance_local(rng, 12, 2, 0.5, 15.0)
        sim = PreemptiveSimulator(2, 0.5)
        thresholds = []
        for job in inst.jobs:
            sim.submit(job)
            thresholds.append(sim.d_min)
        assert all(b >= a - 1e-9 for a, b in zip(thresholds, thresholds[1:]))


#: sha256 of ``repr`` of (decision records, schedule segments, accepted
#: volume, event times) per (m, epsilon, n, release_span, seed, policy),
#: recorded with the frozen-dataclass records that preceded the named tuples.
RECORDED_DIGESTS = {
    (1, 0.5, 40, 20.0, 1, "lazy"): "17d07ce4abe50e7d5d17bbc3fab844d86bc9047490ca551459bde898fd0f1995",
    (1, 0.5, 40, 20.0, 1, "greedy"): "8b4f3cc642344f9057957d031aa6c465f4299cb3c1dfaf8fa752dafff33fccb0",
    (3, 0.1, 60, 15.0, 2, "lazy"): "259b4ee479b6aa69930dbc5e4bf47cda802ae39f5b6d4621849262b9839772a9",
    (3, 0.1, 60, 15.0, 2, "greedy"): "ddf23b1c97644964fd63b2f876120f674ac28c82c19bfd432984663f95467748",
    (8, 1.0, 80, 10.0, 3, "lazy"): "5da413018cf7fbf2d5fb9c2a4382cb7494a39ff69b13ae0edf66b54f91ec81a7",
    (8, 1.0, 80, 10.0, 3, "greedy"): "9811dda6640598efcc8241f6bca07b50a47810520f8a4e403607801a897051d8",
    (3, 0.5, 50, 2.0, 4, "lazy"): "6b637e60ba4969d595266507f2a974f0c29a4f9497695da6e5515a73e61a62ec",
    (3, 0.5, 50, 2.0, 4, "greedy"): "0affea2dc31b52b03debfa0c1e5cc3893a190504c9a8b4f441068b314edc546b",
    # The preemptive-stream regime (m=8, release_span=n/2), recorded at the
    # bisection plan generator and the curve-built greedy test.
    (8, 0.5, 300, 150.0, 1, "lazy"): "4248846edf58efbb17d127420f549d6f4fd4f5f2cf2311850389e1c8b95f6132",
    (8, 0.5, 300, 150.0, 1, "greedy"): "1c89519e37162fdfd3e04209176151c4c491ae5e16518ddeee19f19ebe64a9b1",
}


def test_outputs_match_the_recorded_digests():
    """Every run at assert levels 0-2 repeats the recorded outputs bit for
    bit: a moved segment, threshold or event time changes the digest, where
    the benchmark fingerprints see only accept bits and a rounded volume."""
    widest = Counter()
    for (m, eps, n, span, seed, policy), digest in RECORDED_DIGESTS.items():
        inst = random_instance(n, m, eps, seed=seed, release_span=span)
        for level in (0, 1, 2):
            sim = PreemptiveSimulator(m, eps, level, policy)
            for job in inst.jobs:
                sim.submit(job)
                widest[m] = max(widest[m], len(sim.active_jobs()))
            res = sim.finish()
            text = repr((list(res.decisions), res.schedule.segments, res.accepted_volume, res.event_times))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (m, eps, n, span, seed, policy, level)
    # Each machine count met a live set larger than itself.
    assert all(widest[m] > m for m in (1, 3, 8))


#: sha256 of ``helpers.burst_trail`` per burst key: runs whose arrivals share
#: instants, on releases all at 0, on releases floored to integers (ids in
#: order or permuted), and on both preemptive stress replays.  Recorded before
#: arrivals at one instant reused the live set and extended its curve.
BURST_DIGESTS = {
    ("span0", 1, 0.5, 40, 1, "lazy"): "ef524692aaee228100b4ecd2881511aebb3f25f0c50a944c119a0918bea82a61",
    ("span0", 3, 0.1, 60, 2, "lazy"): "01d27e8112a3de8b12646354759c189ac7dc09d02d13e3b7131ba24e1d6e7576",
    ("span0", 8, 1.0, 120, 3, "lazy"): "1817e1fb7382ed43fe04d55945538a22d079f6a11ebf200a747eef18a0cb4a37",
    ("floored", 2, 0.5, 80, 20.0, 4, "lazy"): "d3aeac186645df07b50531912f95d695e324fa94c0e038578bdd91c235ceca57",
    ("floored", 4, 0.5, 120, 30.0, 7, "lazy"): "7a007eae1349cc9bde5116ae94c62f7f8cc416a5f8e0bf73e701965d53b94b3e",
    ("floored", 8, 0.25, 200, 25.0, 5, "lazy"): "e74b74d9e2d34cad78c4421c16a42fa6a5dcbb76923fb09e11ef80eaa89414e1",
    ("shuffled", 4, 0.5, 120, 30.0, 7, "lazy"): "dc9e7d5ab8a93641fc6a995d9c291541ecff8d3f3601325e42110edf137d7a50",
    ("shuffled", 8, 0.25, 200, 25.0, 5, "lazy"): "0e5b9155e31464549250a4ba1d7c01f608aa1c5dcd872a75cab225d7565a8dc2",
    ("span0", 1, 0.5, 40, 1, "greedy"): "7db5e541cc638efd535071fd0127c6d78c50342ff093f6c7cb71e5978b3fb466",
    ("span0", 3, 0.1, 60, 2, "greedy"): "f34d3fa64f368e25c208b41cf2c31ea190336467e5204ebe270f7882d22776bc",
    ("span0", 8, 1.0, 120, 3, "greedy"): "17dc2a8c4bc038d85940005e198f1eb45fe8020c849c8fd4e5e24b7f3c2bde80",
    ("floored", 2, 0.5, 80, 20.0, 4, "greedy"): "8a38c4116b364cb96233aa94fcae5b78fd763d9b2c1d6b8b98389e228add608b",
    ("floored", 4, 0.5, 120, 30.0, 7, "greedy"): "abd00f0cbaae694231d447c66a4b8f99d97f7d3f1c9736fb19415d4b875284ad",
    ("floored", 8, 0.25, 200, 25.0, 5, "greedy"): "f5e64f3be0a1ce6e33e4cba95f219b19d016d5590732e7bff415818fb40b8f08",
    ("shuffled", 4, 0.5, 120, 30.0, 7, "greedy"): "1488620e55f73cf2d637b4dab1d4b7b27e2daf5ebbf7995b7ea0caab1ac0dd12",
    ("shuffled", 8, 0.25, 200, 25.0, 5, "greedy"): "58fab85ce9ae7ccf5ab666433b2d070d72cefd47702f86ac9753af52a8b8b8cf",
    ("replay", 1, "alg1+2"): "cd20cdcda56cc04805325806b76b73f55a267458d294709dc601ff72f28f4eb4",
    ("replay", 2, "alg1+2"): "188db485bcdbbea182b672b0cc2ee59474a6b6b3d959846583389f8d9d785198",
    ("replay", 4, "alg1+2"): "162506e7fe6ebb6f3b15780efc235a1fe6d8c8ec7f504afe77772336e8b5fe99",
    ("replay", 8, "alg1+2"): "3eae0559561f268a6240abbd51ee02ed2b43e28fef07b3309ba808842937b5ab",
    ("replay", 1, "greedy-p"): "cee4eff829da48a6e1d3a9a3212fd6cbc3ab731a331d11c929e6f84c121d22c1",
    ("replay", 2, "greedy-p"): "f5624774f04f902b7379272d85a0ea2d6faa73c76259ba22304f3d6245dd3dc7",
    ("replay", 4, "greedy-p"): "4843834ebc10f075276f030733abd8740fca4d1e52d7417f0eae955a4db7a032",
    ("replay", 8, "greedy-p"): "5cf64d3cd51646f8d9a2ab6f7e85093ef8512990b181b8df31186f04c2a89372",
}


def test_burst_outputs_match_the_recorded_digests():
    """Arrivals at one instant reuse the live set and its curve; every run
    at assert levels 0-2 repeats the outputs recorded before that reuse."""
    for key, digest in BURST_DIGESTS.items():
        for level in (0, 1, 2):
            assert hashlib.sha256(burst_trail(key, level).encode()).hexdigest() == digest, (key, level)


#: The digest computations of the two tests above, for a bare interpreter:
#: after ``BARE_PRELUDE``'s two paths, argv holds the ``RECORDED_DIGESTS``
#: keys (run at assert level 0) and the ``BURST_DIGESTS`` keys (run at levels
#: 0-2) as JSON.
DIGEST_SCRIPT = BARE_PRELUDE + """
from commitsched.harness import random_instance
from commitsched.preemptive import PreemptiveSimulator
from helpers import burst_trail
def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()
digests = []
for m, eps, n, span, seed, policy in json.loads(sys.argv[3]):
    inst = random_instance(n, m, eps, seed=seed, release_span=span)
    sim = PreemptiveSimulator(m, eps, 0, policy)
    for job in inst.jobs:
        sim.submit(job)
    res = sim.finish()
    digests.append(digest(repr((list(res.decisions), res.schedule.segments, res.accepted_volume, res.event_times))))
for key in json.loads(sys.argv[4]):
    digests += [digest(burst_trail(tuple(key), level)) for level in (0, 1, 2)]
print(json.dumps(digests))
"""


def test_digests_hold_under_every_other_interpreter():
    """The pins are the interpreter's too: from CPython 3.12 builtin sum
    compensates float rounding, so every float reduction adds left to
    right, and a curve extended by one job adds as the full sweep does."""
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.N (N >= 10) on PATH starts")
    keys, bursts = list(RECORDED_DIGESTS), list(BURST_DIGESTS)
    expected = [RECORDED_DIGESTS[key] for key in keys] + [BURST_DIGESTS[key] for key in bursts for _ in range(3)]
    labels = keys + [(key, level) for key in bursts for level in range(3)]
    root = str(Path(commitsched.__file__).resolve().parents[1])
    for exe in interpreters:
        done = subprocess.run(
            [exe, "-I", "-c", DIGEST_SCRIPT, root, str(Path(__file__).parent), json.dumps(keys), json.dumps(bursts)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, (exe, done.stderr)
        digests = json.loads(done.stdout)
        assert len(digests) == len(expected), exe
        moved = [label for label, got, want in zip(labels, digests, expected) if got != want]
        assert moved == [], exe


def reference_active_jobs(sim):
    """``active_jobs`` as before the live table: the unfinished jobs rebuilt
    from ``jobs`` and ``committed_work`` in id order.  Kept to compare against."""
    out = []
    for job_id in sorted(sim.committed_work):
        job = sim.jobs[job_id]
        rem = job.processing - sim.committed_work[job_id]
        if rem > TOL:
            out.append(ActiveJob(job_id, rem, job.deadline))
    return out


class LiveTableChecked(PreemptiveSimulator):
    """A simulator that compares every read of its live set with the
    reference rebuild, and its table with the live set an acceptance or a
    window end leaves."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = self.tables = 0

    def active_jobs(self):
        got = super().active_jobs()
        assert repr(got) == repr(reference_active_jobs(self)), self.clock
        assert [row[0] for row in self.live] == sorted(self.committed_work), self.clock
        self.reads += 1
        return got

    def _settle(self, active, curve, changed, window_end=False, mandatory=None):
        super()._settle(active, curve, changed, window_end, mandatory)
        if changed:
            assert [row[0] for row in self.live] == sorted(self.committed_work) == [job.id for job in active]
            self.tables += 1


class TestLiveState:
    @pytest.mark.parametrize("policy", ["lazy", "greedy"])
    def test_committed_work_holds_only_live_jobs(self, policy):
        inst = random_instance(2000, 8, 0.5, seed=1, release_span=1000)
        sim = PreemptiveSimulator(8, 0.5, policy=policy)
        largest = 0
        for job in inst.jobs:
            if sim.submit(job):
                assert set(sim.committed_work) == {a.id for a in sim.active_jobs()}
            largest = max(largest, len(sim.committed_work))
        result = sim.finish()
        # The history is long, the live state stays small.
        assert len(sim.jobs) > 1900
        assert largest <= 32
        assert sim.committed_work == {}
        assert result.accepted_volume == sum(inst.jobs[j].processing for j in result.decisions.accepted_ids())

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_live_table_matches_the_rebuild_at_every_event(self, level):
        reads = tables = 0
        for seed, (m, eps, span) in enumerate([(1, 0.5, 20.0), (3, 0.1, 10.0), (8, 1.0, 5.0), (2, 0.5, 1.0)]):
            inst = random_instance(60, m, eps, seed=seed, release_span=span)
            # The same jobs with permuted ids: acceptances then insert rows
            # inside the table, not only at its end.
            ids = random.Random(seed).sample(range(60), 60)
            shuffled = Instance(eps, m, tuple(Job(ids[j.id], j.release, j.processing, j.deadline) for j in inst.jobs))
            for instance, policy in itertools.product((inst, shuffled), ("lazy", "greedy")):
                sim = LiveTableChecked(m, eps, level, policy)
                drive(sim, instance)
                assert sim.live == [] and sim.committed_work == {}
                reads, tables = reads + sim.reads, tables + sim.tables
        assert reads > 16 * 60 and tables > 16 * 30

    @pytest.mark.parametrize("algorithm, policy", [("alg1+2", "lazy"), ("greedy-p", "greedy")])
    def test_live_table_matches_the_rebuild_on_the_stress_replays(self, algorithm, policy):
        for m, eps, delta in [(1, 0.5, 1 / 16), (3, 0.25, 1 / 16), (5, 1.0, 1 / 4), (8, 0.5, 1 / 16)]:
            outcome = replay_preemptive(m, eps, delta=delta, algorithm=algorithm, assert_level=2)
            sim = LiveTableChecked(m, eps, 2, policy)
            result = drive(sim, outcome.instance)
            assert sim.reads > 0 and sim.tables > 0
            assert list(result.decisions) == list(outcome.decisions)
            assert result.accepted_volume == outcome.alg_volume

    @pytest.mark.parametrize("policy", ["lazy", "greedy"])
    def test_continued_pieces_coalesce(self, policy):
        inst = random_instance(300, 4, 0.5, seed=3, release_span=150)
        res = drive(PreemptiveSimulator(4, 0.5, 1, policy), inst)
        accepted = {j: inst.jobs[j] for j in res.decisions.accepted_ids()}
        # verify_schedule also holds every per-job total within COMMIT_TOL of p.
        assert verify_schedule(res.schedule, accepted) == []
        pieces = {}
        for seg in res.schedule.segments:
            pieces.setdefault((seg.machine, seg.job), []).append(seg)
        assert any(len(segs) > 1 for segs in pieces.values())
        for segs in pieces.values():
            segs.sort(key=lambda s: s.start)
            assert all(a.end != b.start for a, b in zip(segs, segs[1:]))

    def test_decay_check_trips_on_a_lowered_reference(self):
        def accept_two():
            sim = PreemptiveSimulator(1, 1.0, assert_level=2)
            for job in (Job(0, 0.0, 1.0, 3.0), Job(1, 0.0, 2.0, 8.0)):
                assert sim.submit(job)
            return sim

        intact = accept_two()
        intact.advance_to(intact.plan.end)
        assert intact.active_jobs() and intact._decay_clock == intact.clock
        lowered = accept_two()
        ref = lowered._decay_curve
        lowered._decay_curve = PiecewiseLinear(
            ref.start, ref.breakpoints, tuple(0.5 * v for v in ref.values), tuple(0.5 * s for s in ref.slopes)
        )
        with pytest.raises(InvariantError, match="volume decay violated"):
            lowered.advance_to(lowered.plan.end)

    @pytest.mark.parametrize("scale, check", [(0.5, "growth cap"), (0.9, "shape envelope")])
    def test_envelope_checks_trip_on_a_lowered_threshold(self, scale, check):
        sim = PreemptiveSimulator(2, 0.5, assert_level=1)
        for job in (Job(0, 0.0, 2.0, 3.0), Job(1, 0.0, 2.0, 3.0), Job(2, 0.0, 1.0, 6.0)):
            assert sim.submit(job)  # each submit passes check_invariants
        sim.d_min *= scale
        with pytest.raises(InvariantError, match=check):
            sim.check_invariants()


class EagerPlanner(PreemptiveSimulator):
    """The simulator as it was before plans were deferred: every acceptance
    and every window end builds its plan at once.  Kept to compare against."""

    def __init__(self, *args):
        super().__init__(*args)
        self.built = 0

    def _settle(self, active, curve, changed, window_end=False, mandatory=None):
        super()._settle(active, curve, changed, window_end, mandatory)
        if changed:
            self.plan  # builds the plan the event left pending
            self.built += 1


def counted_plans(monkeypatch):
    """A counter of the ``generate_plan`` calls the simulator makes from now on."""
    counts = Counter()
    plan = preemptive.generate_plan

    def generate_plan(*args):
        counts["plans"] += 1
        return plan(*args)

    monkeypatch.setattr(preemptive, "generate_plan", generate_plan)
    return counts


def count_window_ends(monkeypatch, counts):
    """Count in ``counts["window ends"]`` the window ends the simulator
    settles from now on."""
    settle = PreemptiveSimulator._settle

    def counted_settle(self, active, curve, changed, window_end=False, mandatory=None):
        counts["window ends"] += window_end
        settle(self, active, curve, changed, window_end, mandatory)

    monkeypatch.setattr(PreemptiveSimulator, "_settle", counted_settle)


class TestDeferredPlan:
    """A plan is built when the clock is about to move, from the live set of
    the last event; arrivals at one instant build one plan, not one each."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_outputs_equal_the_eager_planner(self, level):
        instances = []
        for seed, (m, eps, span) in enumerate([(1, 0.5, 20.0), (3, 0.1, 10.0), (8, 1.0, 5.0), (2, 0.5, 1.0)]):
            inst = random_instance(60, m, eps, seed=seed, release_span=span)
            # The shuffled-id instances of the live-table test.
            ids = random.Random(seed).sample(range(60), 60)
            shuffled = [Job(ids[j.id], j.release, j.processing, j.deadline) for j in inst.jobs]
            instances += [(m, eps, inst.jobs), (m, eps, shuffled)]
        # Releases floored to integers: many arrivals share an instant, and
        # the slack only grows.
        inst = random_instance(120, 4, 0.5, seed=7, release_span=30.0)
        floored = [Job(j.id, float(math.floor(j.release)), j.processing, j.deadline) for j in inst.jobs]
        assert len({j.release for j in floored}) <= 31
        instances.append((4, 0.5, floored))
        for (m, eps, jobs), policy in itertools.product(instances, ("lazy", "greedy")):
            got = run_trail(PreemptiveSimulator(m, eps, level, policy), jobs)
            eager = EagerPlanner(m, eps, level, policy)
            assert got == run_trail(eager, jobs), (m, eps, policy)
            assert eager.built > 0

    @pytest.mark.parametrize("algorithm", stress_algorithms(preemptive=True))
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_stress_replays_equal_the_eager_planner(self, algorithm, m):
        outcome = replay_preemptive(m, 0.5, delta=1 / 64, algorithm=algorithm, assert_level=2)
        sim = make_policy(algorithm, m, 0.5, 2)
        eager = EagerPlanner(m, 0.5, 2, sim.policy)
        got = run_trail(sim, outcome.instance.jobs)
        assert got == run_trail(eager, outcome.instance.jobs)
        assert eager.built > 0
        assert list(sim.decisions) == list(outcome.decisions)
        assert sim.accepted_volume() == outcome.alg_volume

    @pytest.mark.parametrize("policy", ["lazy", "greedy"])
    def test_arrivals_at_one_instant_build_one_plan(self, monkeypatch, policy):
        counts = counted_plans(monkeypatch)
        sim, eager = PreemptiveSimulator(2, 0.5, 0, policy), EagerPlanner(2, 0.5, 0, policy)
        jobs = [Job(i, 3.0, 1.0 + 0.25 * i, 6.0 + 2.0 * i) for i in range(6)]
        for job in jobs:
            sim.submit(job)
        assert counts["plans"] == 0 and sim.clock == 3.0
        for job in jobs:
            eager.submit(job)
        assert counts["plans"] == sum(eager.decisions[j.id].accepted for j in jobs) == eager.built >= 3
        counts.clear()
        # Into the first window and no further: one plan, the eager planner's.
        sim.advance_to(3.0 + 0.5 * (eager.plan.end - 3.0))
        assert counts["plans"] == 1
        assert sim.plan == eager.plan and counts["plans"] == 1

    @pytest.mark.parametrize("algorithm", stress_algorithms(preemptive=True))
    def test_stress_replay_builds_one_plan_per_window(self, monkeypatch, algorithm):
        counts = counted_plans(monkeypatch)
        count_window_ends(monkeypatch, counts)
        outcome = replay_preemptive(8, 0.5, 1 / 64, algorithm, 2)
        # Every job is released at t = 0: one plan there, then one per window.
        assert len(outcome.instance) > 400
        assert 0 < counts["plans"] <= 1 + counts["window ends"] < 20
        assert counts["window ends"] > 0

    @pytest.mark.parametrize("policy", ["lazy", "greedy"])
    def test_the_planner_check_fires_when_the_clock_moves(self, policy):
        sim = PreemptiveSimulator(1, 0.5, 0, policy)
        assert sim.submit(Job(0, 0.0, 1.0, 2.0))
        # By hand: a live job with 3 units of work left and deadline 1.
        sim.live.append((5, 3.0, 1.0))
        sim.committed_work[5] = 0.0
        # The window ends at 1, where that job is due: its plan waits.
        sim.advance_to(1.0)
        assert sim.clock == 1.0 and [job.id for job in sim.active_jobs()] == [5]
        with pytest.raises(InvariantError, match="plan requested for an infeasible active set at t=1.0"):
            sim.finish()


def reference_check_invariants(sim, active):
    """``check_invariants`` as before the shared checkpoint curve: its own
    feasibility test and curve, and the shape envelope evaluated at the
    curve's breakpoints plus the stretched corners, re-filtered to
    [t, d_eff).  Kept to compare against."""
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


def reference_check_progression(sim, now):
    """``_check_progression`` as before the shared breakpoint walk: a hand-built
    tau list and a ``value`` lookup per curve and tau.  Kept to compare against."""
    t_old, t_new, ref = sim._decay_clock, sim.clock, sim._decay_curve
    if t_new <= t_old + TOL:
        return
    for tau in sorted(set(now.breakpoints) | {bp for bp in ref.breakpoints if bp > t_new}):
        if tau <= t_new + TOL:
            continue
        allowed = (tau - t_new) / (tau - t_old) * ref.value(tau)
        if now.value(tau) > allowed + CHECK_SLACK:
            raise InvariantError(f"volume decay violated at tau={tau}: {now.value(tau)} > {allowed}")


def reference_values_at(curve, taus):
    """``curve.value(tau)`` for ascending taus in one forward pass, as
    ``PiecewiseLinear.values_at`` read them before the merged walk."""
    bps, i = curve.breakpoints, 0
    for tau in taus:
        while i + 1 < len(bps) and bps[i + 1] <= tau:
            i += 1
        yield curve.values[i] + curve.slopes[i] * (tau - bps[i])


def reference_pointwise(a, b, lo, hi):
    """``_pointwise`` as before the merged walk, on two ``PiecewiseLinear``:
    the union of both breakpoint tuples as a set, sorted, and one forward
    pass per curve.  Kept to compare against."""
    taus = sorted({tau for tau in a.breakpoints + b.breakpoints if lo < tau < hi})
    return zip(taus, reference_values_at(a, taus), reference_values_at(b, taus))


def random_walk_input(rng):
    """Two curves and the bounds of a walk over them: a mandatory-volume
    curve, and either the shape envelope stretched as the envelope check
    stretches it, over a span that may be a few float spacings wide so that
    its corners round together, or a curve on some of the first one's
    breakpoints and others; either may start before the other.  Each bound
    is infinite, on a breakpoint or anywhere."""
    t = rng.choice([0.0, 0.5, 3.0, 1024.25, 1e6 + 0.1])

    def offset():
        return rng.choice([rng.uniform(0.0, 12.0), rng.randint(0, 24) * 0.5])

    jobs = [
        ActiveJob(i, rng.choice([rng.uniform(0.0, 6.0), rng.randint(1, 8) * 0.5]), t + offset())
        for i in range(rng.randint(0, 8))
    ]
    a = v_min_curve(jobs, t)
    start = t + rng.choice([0.0, 0.0, rng.uniform(-2.0, 2.0), rng.randint(-4, 4) * 0.5])
    if rng.random() < 0.5:
        shape = v_shape_curve(rng.randint(1, 8), rng.choice([1.0, 0.5, 0.25, 0.1]))
        span = rng.choice([rng.uniform(0.0, 12.0), math.ulp(max(abs(start), 1.0)) * rng.randint(1, 8)])
        stretched = tuple(start + x * span for x in shape.breakpoints), tuple(span * v for v in shape.values)
        b = PiecewiseLinear(start, *stretched, shape.slopes)
    else:
        pool = [bp for bp in a.breakpoints if bp > start] + [start + offset() for _ in range(rng.randint(0, 6))]
        bps = [start] + sorted(set(rng.sample(pool, rng.randint(0, len(pool)))) - {start})
        slopes = [float(rng.randint(0, 4)) for _ in bps]
        values = [rng.uniform(0.0, 5.0)]
        for x, y, slope in zip(bps, bps[1:], slopes):
            values.append(values[-1] + slope * (y - x))
        b = PiecewiseLinear(start, tuple(bps), tuple(values), tuple(slopes))
    points = a.breakpoints + b.breakpoints
    lo = rng.choice([-math.inf, rng.choice(points), rng.uniform(t - 3.0, t + 15.0)])
    hi = rng.choice([math.inf, rng.choice(points), rng.uniform(t - 3.0, t + 15.0)])
    return a, b, lo, hi


@pytest.mark.parametrize("seed", range(4))
def test_pointwise_equals_the_reference_by_repr(seed):
    rng = random.Random(700 + seed)
    seen = Counter()
    for _ in range(2500):
        a, b, lo, hi = random_walk_input(rng)
        fields = [(c.breakpoints, c.values, c.slopes) for c in (a, b)]
        got = preemptive._pointwise(*fields, lo, hi)
        assert repr(got) == repr(list(reference_pointwise(a, b, lo, hi))), (a, b, lo, hi)
        # One forward pass reads the floats a lookup per tau reads.
        for curve, column in ((a, 1), (b, 2)):
            on_curve = [row for row in got if row[0] >= curve.start]
            assert repr([row[column] for row in on_curve]) == repr([curve.value(row[0]) for row in on_curve])
        seen["shared"] += bool(set(a.breakpoints) & set(b.breakpoints))
        seen["rounded together"] += len(set(b.breakpoints)) < len(b.breakpoints)
        seen["lo on a breakpoint"] += lo in a.breakpoints + b.breakpoints
        seen["hi on a breakpoint"] += hi in a.breakpoints + b.breakpoints
        seen["infinite"] += lo == -math.inf and hi == math.inf
        seen["different starts"] += a.start != b.start
        seen["values"] += len(got)
    assert min(seen.values()) > 100, seen


def _breach(check):
    """The condition an invariant check reports, the message up to " at ", or None."""
    try:
        check()
    except InvariantError as exc:
        return str(exc).split(" at ")[0]
    return None


class ComparedWithReference(PreemptiveSimulator):
    """A simulator that, at every checkpoint, also runs the current and the
    reference checks on the true state and on states with a lowered
    threshold or a lowered decay reference, and records what each reported."""

    D_MIN_SCALES = (1.0, 0.99, 0.9, 0.6, 0.3, 0.05)
    DECAY_SCALES = (1.0, 0.95, 0.7, 0.3)

    def __init__(self, *args):
        super().__init__(*args)
        self.reports = Counter()

    def check_invariants(self, active=None, curve=None):
        active = self.active_jobs() if active is None else active
        d_min, f = self.d_min, self.f
        # A steeper growth cap lets a lowered threshold reach the shape envelope.
        for scale, f_scale in itertools.product(self.D_MIN_SCALES, (1.0, 100.0)):
            self.d_min, self.f = d_min * scale, f * f_scale
            got = _breach(lambda: PreemptiveSimulator.check_invariants(self, active))
            assert got == _breach(lambda: reference_check_invariants(self, active)), (self.clock, scale, f_scale)
            self.reports[got] += 1
        self.d_min, self.f = d_min, f
        return super().check_invariants(active, curve)

    def _check_progression(self, now):
        ref = self._decay_curve
        for scale in self.DECAY_SCALES:
            self._decay_curve = PiecewiseLinear(
                ref.start, ref.breakpoints, tuple(scale * v for v in ref.values), tuple(scale * s for s in ref.slopes)
            )
            got = _breach(lambda: PreemptiveSimulator._check_progression(self, now))
            assert got == _breach(lambda: reference_check_progression(self, now)), (self.clock, scale)
            self.reports[got] += 1
        self._decay_curve = ref
        super()._check_progression(now)


class TestCheckpoint:
    def test_checks_agree_with_the_reference(self):
        reports = Counter()
        for seed, (m, eps) in enumerate([(1, 1.0), (2, 0.5), (3, 0.1), (4, 0.5), (2, 1.0), (8, 0.25)]):
            inst = random_instance(60, m, eps, seed=seed, release_span=20.0)
            for policy in ("lazy", "greedy"):
                sim = ComparedWithReference(m, eps, 2, policy)
                drive(sim, inst)
                reports += sim.reports
        # The lowered states trip each of the three envelope and decay checks.
        assert {"growth cap breached", "shape envelope breached", "volume decay violated"} <= set(reports)
        assert reports[None] > 0

    @pytest.mark.parametrize("policy, level", [("lazy", 1), ("lazy", 2), ("greedy", 1), ("greedy", 2)])
    def test_one_curve_per_checkpoint(self, monkeypatch, policy, level):
        counts = Counter()

        def counted(key, function):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)

            return wrapper

        curve = counted("curve", v_min_curve)
        monkeypatch.setattr(vmin, "v_min_curve", curve)
        monkeypatch.setattr(preemptive, "v_min_curve", curve)
        check = counted("check", PreemptiveSimulator.check_invariants)
        monkeypatch.setattr(PreemptiveSimulator, "check_invariants", check)
        inst = random_instance(200, 4, 0.5, seed=5, release_span=60.0)
        drive(PreemptiveSimulator(4, 0.5, level, policy), inst)
        assert counts["check"] > len(inst)
        # No two events of this instance share an instant, so no curve is
        # kept for a later one: greedy decisions run Horn's early-exit sweep,
        # as does the plan generator's feasibility guard.
        assert counts["curve"] == counts["check"]

    @pytest.mark.parametrize("policy, level", [("lazy", 1), ("lazy", 2), ("greedy", 1), ("greedy", 2)])
    def test_a_checkpoint_builds_only_the_curve_it_is_not_handed(self, monkeypatch, policy, level):
        # The growth cap is a line and is compared as one, and the shape
        # envelope stretched to [t, d_min) of the lazy policy is walked as
        # tuples: a check builds no PiecewiseLinear but the curve it is not
        # handed.
        counts = Counter()
        init = PiecewiseLinear.__init__

        def counted_init(self, *args, **kwargs):
            counts["built"] += 1
            init(self, *args, **kwargs)

        check = PreemptiveSimulator.check_invariants

        def counted_check(sim, active=None, curve=None):
            before = counts["built"]
            got = check(sim, active, curve)
            stretched = sim.policy == "lazy" and max(sim.d_min, sim.clock) > sim.clock + TOL
            assert counts["built"] - before == (curve is None), sim.clock
            counts["checks"] += 1
            counts["envelopes"] += stretched
            return got

        monkeypatch.setattr(PiecewiseLinear, "__init__", counted_init)
        monkeypatch.setattr(PreemptiveSimulator, "check_invariants", counted_check)
        inst = random_instance(200, 4, 0.5, seed=5, release_span=60.0)
        drive(PreemptiveSimulator(4, 0.5, level, policy), inst)
        assert counts["checks"] > len(inst)
        assert (counts["envelopes"] > 0) == (policy == "lazy")


class InstantChecked(PreemptiveSimulator):
    """A simulator that, at every arrival at the instant of the last event,
    holds the live set that event left equal to ``active_jobs()``, and the
    curve it left equal to the one ``v_min_curve`` builds for that set."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reused = self.curves = 0

    def on_arrival(self, job):
        instant, kept, curve, _ = self._instant
        if instant == job.release == self.clock:
            assert repr(kept) == repr(self.active_jobs()), self.clock
            self.reused += 1
            if curve is not None:
                assert repr(curve) == repr(v_min_curve(kept, self.clock)), self.clock
                self.curves += 1
        return super().on_arrival(job)


def curve_counts(monkeypatch):
    """Counters of the ``v_min_curve`` calls and window ends from now on."""
    counts = Counter()
    build = vmin.v_min_curve

    def v_min_curve(*args):
        counts["curves"] += 1
        return build(*args)

    monkeypatch.setattr(preemptive, "v_min_curve", v_min_curve)
    count_window_ends(monkeypatch, counts)
    return counts


class TestSameInstant:
    """An arrival at the instant of the last event starts from the live set
    that event left and extends the curve kept with it."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("policy", ["lazy", "greedy"])
    def test_the_kept_set_and_curve_are_the_live_ones(self, policy, level):
        reused = curves = 0
        for key in BURST_DIGESTS:
            if key[-1] == policy:
                sim = InstantChecked(key[1], key[2], level, policy)
                run_trail(sim, burst_jobs(key))
                reused, curves = reused + sim.reused, curves + sim.curves
        assert reused > 300
        # Greedy at level 0 builds its curve at the second arrival of an
        # instant, so every policy and level keeps curves for bursts.
        assert curves > 100

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("algorithm", stress_algorithms(preemptive=True))
    def test_one_curve_per_instant_and_window_end(self, monkeypatch, algorithm, level):
        jobs = replay_preemptive(8, 0.5, 1 / 64, algorithm, level).instance.jobs
        floored = burst_jobs(("floored", 8, 0.25, 200, 25.0, 5, "lazy"))
        counts = curve_counts(monkeypatch)
        for eps, instance in ((0.5, jobs), (0.25, floored)):
            counts.clear()
            drive(make_policy(algorithm, 8, eps, level), Instance(eps, 8, tuple(instance)))
            # The arrivals far outnumber the instants they share.
            instants = len({job.release for job in instance})
            assert instants <= len(instance) / 8
            assert counts["window ends"] > 0
            assert counts["curves"] <= instants + counts["window ends"], counts
        # The replay releases its 400-odd jobs at t = 0.
        assert len(jobs) > 400 and {job.release for job in jobs} == {0.0}

    @pytest.mark.parametrize("policy", ["lazy", "greedy"])
    def test_a_moved_clock_builds_what_it_built_before(self, monkeypatch, policy):
        # With no two arrivals at one instant, level 0 builds one curve per
        # lazy acceptance and none for greedy, as before the reuse.
        counts = curve_counts(monkeypatch)
        inst = random_instance(300, 4, 0.5, seed=5, release_span=90.0)
        res = drive(PreemptiveSimulator(4, 0.5, 0, policy), inst)
        assert counts["window ends"] > 0
        assert counts["curves"] == (len(res.decisions.accepted_ids()) if policy == "lazy" else 0)

    def test_greedy_at_level_0_sweeps_twice_per_instant(self, monkeypatch):
        # Greedy at level 0 builds the live set's curve at the second arrival
        # of an instant and extends it for the rest of the burst.  Before, it
        # ran Horn's early-exit sweep at every arrival: the m=8 replay spent
        # 0.126 of 0.172 s (cProfile) in 455 sweeps and took 82 ms against
        # 40 ms at level 2, where the check's curve was kept.
        jobs = replay_preemptive(8, 0.5, 1 / 64, "greedy-p", 0).instance.jobs
        floored = burst_jobs(("floored", 8, 0.25, 200, 25.0, 5, "greedy"))
        counts = curve_counts(monkeypatch)
        sweep = vmin._sweep

        def counted_sweep(*args):
            counts["sweeps"] += 1
            return sweep(*args)

        monkeypatch.setattr(vmin, "_sweep", counted_sweep)
        for eps, instance in ((0.5, jobs), (0.25, floored)):
            counts.clear()
            drive(make_policy("greedy-p", 8, eps, 0), Instance(eps, 8, tuple(instance)))
            instants = len({job.release for job in instance})
            assert counts["window ends"] > 0 and counts["curves"] > 0
            assert counts["curves"] <= instants + counts["window ends"], counts
            # An early-exit sweep at the first arrival and the curve at the
            # second, where one sweep per arrival was run before.
            assert counts["sweeps"] <= 2 * instants + counts["window ends"] < len(instance), counts


class CompensationChecked(PreemptiveSimulator):
    """A lazy simulator that, after every arrival, holds ``v_delta`` equal by
    ``repr`` to the compensation volume summed afresh over the live set,
    ``(d_min - r) * f - v_min(active, r, d_min)`` with ``d_min`` the
    threshold the arrival compared against, clipped at 0 as ``v_delta`` is,
    and the sum the arrival keeps for the next one, if any, equal to the sum
    over the live set it leaves."""

    def __init__(self, *args):
        super().__init__(*args)
        self.arrivals = self.kept = 0

    def on_arrival(self, job):
        r = job.release
        d_min = max(self.d_min, r)
        expected = max((d_min - r) * self.f - v_min(self.active_jobs(), r, d_min), 0.0)
        accept = super().on_arrival(job)
        assert repr(self.v_delta) == repr(expected), (self.clock, job.id)
        _, active, _, mandatory = self._instant
        if mandatory is not None:
            tau, value = mandatory
            assert repr(value) == repr(v_min(active, r, tau)), (self.clock, job.id)
            self.kept += 1
        self.arrivals += 1
        return accept


def burst_instances():
    """(m, epsilon, jobs) of every ``BURST_DIGESTS`` trail, each once: the
    burst instances the two policies share, and the two replays' instances
    at each m, at assert level 0."""
    seen = {}
    for key in BURST_DIGESTS:
        if key[0] == "replay":
            _, m, algorithm = key
            seen[key] = (m, 0.5, replay_preemptive(m, 0.5, 1 / 64, algorithm, 0).instance.jobs)
        else:
            seen.setdefault(key[:-1], (key[1], key[2], burst_jobs(key)))
    return list(seen.values())


class TestCompensation:
    """An arrival at the instant of the last event reuses the compensation
    sum that event left when the threshold has not moved, and extends it
    by the accepted job's term when that job is last in id order."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_the_kept_sum_is_the_live_sum(self, level):
        arrivals = kept = 0
        for m, eps, jobs in burst_instances():
            sim = CompensationChecked(m, eps, level, "lazy")
            run_trail(sim, jobs)
            arrivals, kept = arrivals + sim.arrivals, kept + sim.kept
        assert arrivals > 2000 and kept > 2000

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_the_m8_replay_sums_once_per_instant_and_threshold_move(self, monkeypatch, level):
        jobs = replay_preemptive(8, 0.5, 1 / 64, "alg1+2", level).instance.jobs
        counts = Counter()
        total = vmin.v_min

        def v_min(*args):
            counts["sums"] += 1
            return total(*args)

        monkeypatch.setattr(preemptive, "v_min", v_min)
        sim = PreemptiveSimulator(8, 0.5, level, "lazy")
        moved = 0
        for job in jobs:
            before = sim.d_min
            sim.submit(job)
            moved += sim.d_min != before
        sim.finish()
        instants = len({job.release for job in jobs})
        # About 450 arrivals at t = 0, of which the threshold moved at few.
        assert len(jobs) > 400 and 0 < moved < len(jobs) / 10
        assert counts["sums"] <= instants + moved, (counts, moved)


def _names_the_simulator(node):
    return getattr(node, "id", None) == "PreemptiveSimulator" or getattr(node, "attr", None) == "PreemptiveSimulator"


def simulator_hooks():
    """(test file, name) for every method a test subclass of the simulator
    defines and every attribute a test patches on it by name."""
    hooks = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_names_the_simulator, node.bases)):
                hooks.update((path.name, item.name) for item in node.body if isinstance(item, ast.FunctionDef))
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "setattr"
                and len(node.args) == 3
                and _names_the_simulator(node.args[0])
                and isinstance(node.args[1], ast.Constant)
            ):
                hooks.add((path.name, node.args[1].value))
    return hooks


class TestHooks:
    def test_every_test_hook_names_a_simulator_method(self):
        # An override of a name the simulator no longer has is never called,
        # and the test around it passes without its check.  Each hook also
        # counts its calls, and its tests assert the count is above zero.
        hooks = simulator_hooks()
        assert {("test_preemptive.py", "_settle"), ("test_preemptive.py", "on_arrival")} <= hooks
        assert [hook for hook in sorted(hooks) if not hasattr(PreemptiveSimulator, hook[1])] == []


class TestEventTimes:
    def test_event_times_increase_strictly(self, monkeypatch):
        # A window end is recorded only after the clock has moved past the
        # last one, so ``finish`` returns the list as recorded, in a copy.
        finish = PreemptiveSimulator.finish
        runs = []

        def recorded_finish(sim):
            result = finish(sim)
            assert result.event_times == sim.event_times and result.event_times is not sim.event_times
            runs.append(result.event_times)
            return result

        monkeypatch.setattr(PreemptiveSimulator, "finish", recorded_finish)
        for seed, (m, eps, span) in enumerate([(1, 0.5, 20.0), (3, 0.1, 10.0), (8, 1.0, 5.0), (2, 0.5, 1.0)]):
            inst = random_instance(60, m, eps, seed=seed, release_span=span)
            for policy, level in itertools.product(("lazy", "greedy"), (0, 1, 2)):
                drive(PreemptiveSimulator(m, eps, level, policy), inst)
        for algorithm in stress_algorithms(preemptive=True):
            replay_preemptive(8, 0.5, 1 / 64, algorithm, 2)
        assert len(runs) == 4 * 6 + 2
        for times in runs:
            assert times[0] == 0.0 and len(times) > 2
            assert all(a < b for a, b in zip(times, times[1:]))


class TestTimeScaling:
    """Scaling every time by a power of two is exact in binary floating
    point, so both preemptive policies must make the same decisions, with
    thresholds, segments and event times scaled by exactly 2^k.

    The tolerances are absolute, so a comparison within ``TOL`` could flip
    at some scale; seeded random instances keep such near-ties away, which
    is the regime this test covers.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_power_of_two_scaling(self, seed):
        inst = random_instance(60, 3, 0.5, seed=seed, release_span=30.0)
        for policy, level in [("lazy", 0), ("greedy", 0)] + ([("lazy", 2), ("greedy", 2)] if seed < 2 else []):
            base = drive(PreemptiveSimulator(3, 0.5, level, policy), inst)
            assert 0 < len(base.decisions.accepted_ids()) < len(inst)
            for k in range(-4, 9):
                got = drive(PreemptiveSimulator(3, 0.5, level, policy), scaled(inst, k))
                assert [(r.job, r.accepted, r.time, r.threshold) for r in got.decisions] == [
                    (r.job, r.accepted, math.ldexp(r.time, k), r.threshold and math.ldexp(r.threshold, k))
                    for r in base.decisions
                ]
                assert got.schedule.segments == [
                    Segment(s.machine, s.job, math.ldexp(s.start, k), math.ldexp(s.end, k))
                    for s in base.schedule.segments
                ]
                assert got.event_times == [math.ldexp(x, k) for x in base.event_times]


class TestTimeShift:
    """A shift keeps the decisions while ``TOL`` stays above the float
    spacing of the shifted times, which holds through 2^22 and, on these
    instances, through 2^23.  From 2^24 the spacing (2^-28) exceeds TOL, a
    remaining volume can sit below half of it, and a plan step there cannot
    advance the clock: the run raises InvariantError instead of looping."""

    INSTANCES = [
        # The smallest found: two jobs on one machine; both policies looped from 2^24.
        random_instance(2, 1, 0.5, seed=18, release_span=1.0, slack_mix=0.0),
        random_instance(600, 4, 0.5, seed=5, release_span=300.0, slack_mix=0.0),
    ]

    @pytest.mark.parametrize("k", [10, 13, 20, 23])
    @pytest.mark.parametrize("policy", ["alg1+2", "greedy-p"])
    def test_shift_keeps_decisions_and_verifies(self, policy, k):
        for inst in self.INSTANCES:
            base = drive(make_policy(policy, inst.machines, inst.epsilon), inst)
            moved = time_shifted(inst, 2.0**k)
            got = drive(make_policy(policy, inst.machines, inst.epsilon, assert_level=2), moved)
            assert [r.accepted for r in got.decisions] == [r.accepted for r in base.decisions]
            accepted = {j.id: j for j in moved.jobs if got.decisions[j.id].accepted}
            assert verify_schedule(got.schedule, accepted) == []

    @pytest.mark.parametrize("k", [24, 25, 26])
    @pytest.mark.parametrize("policy", ["alg1+2", "greedy-p"])
    def test_shift_beyond_tol_raises(self, policy, k):
        for inst in self.INSTANCES:
            moved = time_shifted(inst, 2.0**k)
            with pytest.raises(InvariantError, match=r"at t=|advance t="):
                drive(make_policy(policy, inst.machines, inst.epsilon), moved)

    def test_lrpt_step_below_the_spacing_raises(self):
        # 1.5e-9 of work is above TOL but below half the spacing at 2^24.
        with pytest.raises(InvariantError, match="cannot advance t=16777216.0"):
            lrpt_assign({0: 1.5e-9}, [0], 2.0**24, 2.0**24 + 1.0)

    def test_window_ending_at_the_clock_raises(self):
        sim = PreemptiveSimulator(1, 0.5)
        sim.submit(Job(0, 0.0, 1.0, 2.0))
        sim._plan = PlanWindow(0.0, 0.0, sim.plan.segments)
        with pytest.raises(InvariantError, match="window ends at the clock t=0.0"):
            sim.advance_to(1.0)
