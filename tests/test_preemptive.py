import ast
import copy
import hashlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test

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
    f_threshold,
    v_min,
    v_min_curve,
    v_shape_curve,
)
from helpers import (
    BARE_PRELUDE,
    burst_jobs,
    burst_trail,
    make_instance,
    other_interpreters,
    random_instance_local,
    recorded_trail,
    result_trail,
    run_trail,
    scaled,
    time_shifted,
)
from reference import ReferenceSimulator, reference_check_invariants, reference_check_progression, reference_generate_plan

_record = preemptive._record

#: The state machine's budget for each policy and assert level: runs, and steps per run.
MACHINE_EXAMPLES, MACHINE_STEPS = 20, 20


def scan_largest_crossing(active, f, v_delta, r, hi=200.0, steps=400000):
    """Brute-force oracle: largest tau with (tau-r)*f == v_min(tau) + v_delta.

    Tangential touches are made transversal by lifting the right side a
    hair (eta), which shifts the largest crossing by at most eta / f.  The
    grid from hi down to r is evaluated in one NumPy pass, and the first
    sign change from the top is bisected.
    """
    eta = 1e-7

    def g(tau):
        return (tau - r) * f - v_min(active, r, max(tau, r)) - v_delta - eta

    taus = np.maximum(hi - (hi - r) / steps * np.arange(steps + 1), r)
    # Each job's mandatory volume: its work past the latest start, at most all of it.
    volume = sum(np.clip(taus - (j.deadline - j.remaining), 0.0, j.remaining) for j in active)
    negative = (taus - r) * f - volume - v_delta - eta < 0
    flips = np.flatnonzero(negative[1:] != negative[:-1])
    if not flips.size:
        return r
    lo_t, hi_t = taus[flips[0] + 1], taus[flips[0]]
    for _ in range(80):
        mid = 0.5 * (lo_t + hi_t)
        if (g(mid) < 0) == negative[flips[0] + 1]:
            lo_t = mid
        else:
            hi_t = mid
    return 0.5 * (lo_t + hi_t)


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

    def test_a_remainder_left_at_exactly_tol_is_done(self):
        # The tied pair 1, 2 shares the machine until it meets job 0 at
        # t = 3e-9, which leaves job 1 with 2.5e-9 - 0.5 * 3e-9, exactly TOL:
        # it is done, and only jobs 0 and 2 run on.
        segs, idle = lrpt_assign({0: 1.5e-9, 1: 2.5e-9, 2: 3e-9}, [0], 0.0, 1.0)
        assert 2.5e-9 - 0.5 * 3e-9 == TOL
        assert idle == 6e-9 and [s.job for s in segs if s.start >= 3e-9] == [0, 2]


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


def _outcome(function, *args):
    try:
        return repr(function(*args))
    except (InvariantError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


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


def spread_plan_size(rng, m):
    """A live-set size spread over small and large sets."""
    return rng.choice([1, 2, 3, m, m + 1, 3 * m, 12 * m])


def random_plan_size(rng, m):
    """A live-set size, n <= m (the plan's fast path) in about half the draws."""
    return rng.randint(1, m) if rng.random() < 0.5 else rng.choice([m + 1, 2 * m, 3 * m, 12 * m])


@pytest.mark.parametrize("seed", range(10))
def test_generate_plan_equals_class_scan_by_repr(seed):
    # Two size distributions, each from its own seed: one spread over small
    # and large sets, and one with n <= m in about half the draws.
    below = above = 0
    for rng, size in ((random.Random(seed), spread_plan_size), (random.Random(100 + seed), random_plan_size)):
        for _ in range(150):
            m = rng.choice([1, 2, 3, 4, 8])
            n = size(rng, m)
            below += n <= m
            above += n > m
            t = rng.choice([0.0, 2.5, 1024.25])
            active = random_plan_input(rng, n, t)
            # The generator takes the jobs in id order, the reference in any.
            got = _plan_or_error(sorted(active), t, m, generate_plan)
            assert got == _plan_or_error(active, t, m, reference_generate_plan)
    assert below > 100 and above > 100


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
    # generator must leave out exactly the jobs the reference leaves out.
    rng = random.Random(200 + seed)
    t = 2.0**24
    dropped = Counter()  # by whether n > m
    for _ in range(100):
        m = rng.choice([1, 2, 3, 4, 8])
        active = rounded_away_input(rng, random_plan_size(rng, m), t)
        got = _plan_or_error(sorted(active), t, m, generate_plan)
        assert got == _plan_or_error(active, t, m, reference_generate_plan)
        if not got.startswith("InvariantError"):
            planned = {s.job for s in generate_plan(sorted(active), t, m).segments}
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


#: sha256 of ``helpers.recorded_trail`` per (m, epsilon, n, release_span,
#: seed, policy): ``repr`` of (decision records, schedule segments, accepted
#: volume, event times), recorded with the frozen-dataclass records that
#: preceded the named tuples.
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


#: Both pins hold for the simulator and for the reference.
SIMULATORS = pytest.mark.parametrize("simulator", [PreemptiveSimulator, ReferenceSimulator], ids=["simulator", "reference"])


@SIMULATORS
def test_outputs_match_the_recorded_digests(simulator):
    """Every run at assert levels 0-2 repeats the recorded outputs bit for
    bit: a moved segment, threshold or event time changes the digest, where
    the benchmark fingerprints see only accept bits and a rounded volume."""
    widest = {}
    for key, digest in RECORDED_DIGESTS.items():
        for level in (0, 1, 2):
            text = recorded_trail(key, level, simulator, widest)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (key, level)
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


@SIMULATORS
def test_burst_outputs_match_the_recorded_digests(simulator):
    """Arrivals at one instant reuse the live set and its curve; every run
    at assert levels 0-2 repeats the outputs recorded before that reuse."""
    for key, digest in BURST_DIGESTS.items():
        for level in (0, 1, 2):
            assert hashlib.sha256(burst_trail(key, level, simulator).encode()).hexdigest() == digest, (key, level)


#: The digest computations of the two tests above, for a bare interpreter:
#: after ``BARE_PRELUDE``'s two paths, argv holds the ``RECORDED_DIGESTS``
#: keys (run at assert level 0) and the ``BURST_DIGESTS`` keys (run at levels
#: 0-2) as JSON.
DIGEST_SCRIPT = BARE_PRELUDE + """
from helpers import burst_trail, recorded_trail
def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()
digests = [digest(recorded_trail(tuple(key), 0)) for key in json.loads(sys.argv[3])]
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


@pytest.mark.parametrize("algorithm", stress_algorithms(preemptive=True))
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_stress_replays_equal_the_reference(algorithm, m):
    outcome = replay_preemptive(m, 0.5, delta=1 / 64, algorithm=algorithm, assert_level=2)
    sim = make_policy(algorithm, m, 0.5, 2)
    got = run_trail(sim, outcome.instance.jobs)
    assert got == run_trail(ReferenceSimulator(m, 0.5, 2, sim.policy), outcome.instance.jobs)
    assert list(sim.decisions) == list(outcome.decisions) and sim.accepted_volume() == outcome.alg_volume


def _shown(sim):
    """What the simulator and the reference both show of their state but the
    schedule, with records as plain tuples, whose ``repr`` is cheaper."""
    return (
        [(r.job, r.accepted, r.time, r.threshold) for r in sim.decisions], sim.d_min, sim.v_delta, sim.clock,
        [tuple(job) for job in sim.active_jobs()], sim.accepted_volume(), sim.event_times,
    )


def _breach(check):
    """The condition an invariant check reports, the message up to " at ", or None."""
    try:
        check()
    except InvariantError as exc:
        return str(exc).split(" at ")[0]
    return None


class SideBySide(RuleBasedStateMachine):
    """The simulator and the reference take the same steps and show the same
    state by ``repr`` after each.  Jobs come in bursts at one instant, with
    tied deadlines and latest starts, ids in no order, and releases within
    TOL of the clock or exactly TOL after it."""

    policy, level = "lazy", 0  # of every run; the test sets them
    seen = Counter()  # what the steps reached, over all runs

    @initialize(m=st.sampled_from([1, 2, 3, 5]), eps=st.sampled_from([0.1, 0.5, 1.0]))
    def start(self, m, eps):
        self.sim = PreemptiveSimulator(m, eps, self.level, self.policy)
        self.ref = ReferenceSimulator(m, eps, self.level, self.policy)
        self.jobs = []
        self.scheduled_at = None  # the clock at which the schedules were last compared

    def both(self, step):
        """Take ``step`` on each side: both return the same, or raise the same error."""
        assert _outcome(step, self.sim) == _outcome(step, self.ref)

    @rule(data=st.data(), count=st.integers(1, 6))
    def submit(self, data, count):
        """A burst of ``count`` jobs with one release."""
        clock, slack = self.ref.clock, 1 + self.ref.epsilon
        release = data.draw(
            st.sampled_from([clock, clock, clock + TOL / 2, clock - TOL / 2, clock + TOL, math.floor(clock) + 2.0])
            | st.floats(0.0, 6.0).map(lambda x: clock + x)
        )
        for _ in range(count):
            p = data.draw(st.sampled_from([1.0, 2.0] + [job.processing for job in self.jobs[-3:]]) | st.floats(0.05, 5.0))
            # The threshold, or a deadline or a latest start of a recent job, where the slack allows.
            ties = [self.ref.d_min] + [d for job in self.jobs[-4:] for d in (job.deadline, job.deadline - job.processing + p)]
            d = release + slack * p * data.draw(st.sampled_from([1.0, 1.5, 3.0]))
            d = data.draw(st.sampled_from([d] + [x for x in ties if x - release >= slack * p]))
            used = {job.id for job in self.jobs}
            self.arrive(Job(data.draw(st.integers(0, 199).filter(lambda i: i not in used)), release, p, d))

    def arrive(self, job):
        instant, _, curve, total = self.sim._instant
        kept = instant == job.release == self.sim.clock
        self.seen.update({"kept set": kept, "kept curve": kept and curve is not None, "kept sum": kept and total is not None})
        self.seen["id not last"] += any(job.id < other.id for other in self.jobs)
        self.seen["TOL off"] += 0 < abs(job.release - self.sim.clock) <= TOL
        self.jobs.append(job)
        self.both(lambda side: side.submit(job))

    @rule(data=st.data())
    def advance(self, data):
        clock, end = self.ref.clock, self.ref.plan.end
        target = data.draw(
            # Mid-window twice as often, where the decay reference stays behind the clock.
            st.sampled_from([end, (clock + end) / 2, (clock + end) / 2, end + TOL, end - TOL / 2, clock + TOL, clock + 2 * TOL])
            | st.floats(0.0, 3.0).map(lambda x: clock + x)
        )
        self.both(lambda side: side.advance_to(target))

    @rule()
    def plan(self):
        self.both(lambda side: side.plan)

    @rule()
    def finish(self):
        self.both(lambda side: result_trail(side.finish()))

    def lowered_verdict(self, d_min, f, epsilon=None):
        """Both sides' invariant checks on copies with the threshold at
        ``d_min``, the growth rate ``f`` and, if given, the shape envelope of
        slack factor ``epsilon``: the same verdict, counted and returned."""
        sim, ref = copy.copy(self.sim), copy.copy(self.ref)
        for side in (sim, ref):
            side.d_min, side.f = d_min, f
        if epsilon is not None:
            sim._shape, ref.epsilon = v_shape_curve(sim.machines, epsilon), epsilon
        got = _breach(sim.check_invariants)
        assert got == _breach(lambda: reference_check_invariants(ref, ref.active_jobs()))
        self.seen[got] += 1
        return got

    @precondition(lambda self: self.ref.active_jobs())
    @rule()
    def lowered(self):
        """Lower the threshold, with the growth rate or not, and at assert
        level 2 the decay reference, each on copies: both sides' checks give
        the same verdict.  Each check also trips by construction wherever the
        live set has more than CHECK_SLACK of mandatory volume still to come."""
        # The threshold moves toward the clock; a steeper growth cap lets it
        # reach the shape envelope, a flatter one is breached sooner.
        clock, d_min, f = self.ref.clock, self.ref.d_min, self.ref.f
        for scale, steeper in itertools.product((1.0, 0.99, 0.9, 0.6, 0.3, 0.05), (0.1, 1.0, 100.0)):
            self.lowered_verdict(clock + (d_min - clock) * scale, f * steeper)
        curve = v_min_curve(self.ref.active_jobs(), clock)
        if self.policy == "lazy" and curve.values[-1] > curve.values[0] + CHECK_SLACK:
            # No growth allowed from the clock on.
            assert self.lowered_verdict(clock, 0.0) == "growth cap breached"
            # The threshold past every breakpoint, so the growth cap checks
            # none, under an envelope that stays below 1e-50 there.
            assert self.lowered_verdict(curve.breakpoints[-1] + 1.0, f, 1e-300) == "shape envelope breached"
        if self.ref.decay is None:
            return
        if self.ref.clock <= self.ref.decay[0] + TOL:
            # Into the window, where the decay reference stays behind the clock.
            mid = (self.ref.clock + self.ref.plan.end) / 2
            self.both(lambda side: side.advance_to(mid))
            if self.ref.clock <= self.ref.decay[0] + TOL:
                return
        t_old, old = self.ref.decay
        assert (self.sim._decay_clock, repr(self.sim._decay_curve)) == (t_old, repr(old))
        now = v_min_curve(self.ref.active_jobs(), self.ref.clock)
        for scale in (1.0, 0.95, 0.7, 0.3, 0.0):
            lowered = PiecewiseLinear(old.breakpoints, *(tuple(scale * x for x in xs) for xs in (old.values, old.slopes)))
            sim = copy.copy(self.sim)
            sim._decay_curve = lowered
            got = _breach(lambda: sim._check_progression(now))
            assert got == _breach(lambda: reference_check_progression(t_old, lowered, self.ref.clock, now))
            self.seen[got] += 1
        if now.values[-1] > now.values[0] + CHECK_SLACK:
            assert got == "volume decay violated"  # a reference of zero allows no volume

    @invariant()
    def same_state(self):
        assert repr(_shown(self.sim)) == repr(_shown(self.ref))
        # Work is committed only as the clock moves, so the schedules are
        # compared at each clock they reach (and whole by ``finish``).
        if self.sim.clock != self.scheduled_at:
            assert repr([tuple(s) for s in self.sim.schedule.segments]) == repr([tuple(s) for s in self.ref.schedule.segments])
            self.scheduled_at = self.sim.clock
        # The simulator's table holds its unfinished jobs in id order.
        assert [row[0] for row in self.sim.live] == sorted(self.sim.committed_work)
        # Each machine's last committed segment, where a continuing piece extends it.
        last = {seg.machine: i for i, seg in enumerate(self.sim.schedule.segments)}
        assert self.sim._last_piece == [last.get(machine) for machine in range(self.sim.machines)]
        # What it keeps for the next arrival at this instant, the reference
        # builds afresh.
        instant, active, curve, total = self.sim._instant
        if instant == self.sim.clock:
            fresh = self.ref.active_jobs()
            assert repr(active) == repr(fresh)
            assert curve is None or repr(curve) == repr(v_min_curve(fresh, instant))
            assert total is None or repr(total[1]) == repr(v_min(fresh, instant, total[0]))


@pytest.mark.parametrize("policy, level", itertools.product(("lazy", "greedy"), (0, 1, 2)))
def test_the_simulator_and_the_reference_agree_step_by_step(monkeypatch, policy, level):
    SideBySide.seen.clear()
    budget = settings(max_examples=MACHINE_EXAMPLES, stateful_step_count=MACHINE_STEPS, derandomize=True, database=None, deadline=None)
    monkeypatch.setattr(SideBySide, "policy", policy)
    monkeypatch.setattr(SideBySide, "level", level)
    run_state_machine_as_test(SideBySide, settings=budget)
    seen = SideBySide.seen
    # Each check trips on some lowered state: the threshold's two under lazy,
    # the decay check at level 2.
    lazy = policy == "lazy"
    breaches = {None} | ({"growth cap breached", "shape envelope breached"} if lazy else set())
    assert breaches | ({"volume decay violated"} if level == 2 else set()) <= set(seen), seen
    # Only lazy keeps a compensation sum.
    kept = ("kept set", "kept curve", "id not last", "TOL off") + (("kept sum",) if lazy else ())
    assert min(seen[key] for key in kept) > 5, seen


@pytest.mark.parametrize("key", [key for key in BURST_DIGESTS if key[0] != "replay"], ids=lambda key: "-".join(map(str, key)))
def test_the_bursts_step_by_step(key):
    # The machine's steps over recorded bursts its draws seldom match: on the m=8
    # lazy shuffled one a sum kept out of id order first differs in rounding at
    # the 8th arrival.  The replays are compared whole, in
    # test_stress_replays_equal_the_reference.  At levels 1-2 both sides are
    # held to the bursts' digests.
    machine = SideBySide()
    machine.policy, machine.level = key[-1], 0
    machine.start(key[1], key[2])
    for job in burst_jobs(key):
        machine.arrive(job)
        machine.same_state()
    machine.finish()
    machine.same_state()


def random_live_table(rng):
    """Live rows in id order and the work committed to each: remainders of
    exactly TOL (only jobs under 2^-28 land there), a few float spacings
    either side of it, none or slightly below none, or plenty."""
    rows, work = [], {}
    for job_id in sorted(rng.sample(range(60), rng.randint(0, 12))):
        kind = rng.random()
        if kind < 0.2:
            processing, done = 2.5e-9, 1.5e-9  # exactly TOL left
        elif kind < 0.4:
            processing = rng.choice([1.0, 3.0, rng.uniform(0.01, 5.0)])
            done = processing - TOL + rng.randint(-3, 3) * math.ulp(processing)
        elif kind < 0.5:
            processing = rng.uniform(0.01, 5.0)
            done = processing + rng.choice([0.0, math.ulp(processing)])
        else:
            processing = rng.uniform(0.01, 5.0)
            done = rng.uniform(0.0, processing)
        rows.append((job_id, processing, rng.uniform(1.0, 30.0)))
        work[job_id] = done
    return rows, work


@pytest.mark.parametrize("seed", range(4))
def test_the_window_end_leaves_what_active_jobs_and_the_prune_left(seed):
    # A window end reads the live rows once: the remainders and the prune of
    # finished rows.  Before, it called active_jobs() and then, when the set
    # had shrunk, rebuilt the work dict and the live list from it.
    rng = random.Random(500 + seed)
    seen = Counter()
    for _ in range(300):
        rows, work = random_live_table(rng)
        one, two = PreemptiveSimulator(2, 0.5), PreemptiveSimulator(2, 0.5)
        for sim in (one, two):
            sim.live, sim.committed_work = list(rows), dict(work)
        got = one._drop_finished()
        active = two.active_jobs()
        if len(active) < len(two.live):
            two.committed_work = {job.id: two.committed_work[job.id] for job in active}
            two.live = [row for row in two.live if row[0] in two.committed_work]
        assert (repr(got), repr(one.live)) == (repr(active), repr(two.live))
        assert one.committed_work == two.committed_work
        remainders = [processing - work[job_id] for job_id, processing, _ in rows]
        seen["exactly TOL"] += TOL in remainders
        seen["just above TOL"] += any(TOL < x < 2 * TOL for x in remainders)
        seen["just below TOL"] += any(0 < x < TOL for x in remainders)
        seen["dropped"] += len(active) < len(rows)
        seen["none dropped"] += len(active) == len(rows)
    assert min(seen.values()) > 20, seen


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

    @pytest.mark.parametrize(
        "policy, plans, window_ends", [("lazy", 4086, 2154), ("greedy", 4314, 2316)]
    )
    def test_the_stream_pins_plans_window_ends_and_live_set_reads(self, monkeypatch, policy, plans, window_ends):
        # A seeded stream with no two arrivals at one instant: every arrival
        # reads the live set with active_jobs(), a window end reads it in its
        # own pass, and advance_to calls active_jobs() only to check an empty
        # plan, 4 times here.  Before the one-pass window end, advance_to
        # called it at every window end as well.
        counts = counted_plans(monkeypatch)
        count_window_ends(monkeypatch, counts)
        active_jobs = PreemptiveSimulator.active_jobs

        def counted_active_jobs(sim):
            counts["active_jobs", sys._getframe(1).f_code.co_name] += 1
            return active_jobs(sim)

        monkeypatch.setattr(PreemptiveSimulator, "active_jobs", counted_active_jobs)
        inst = random_instance(2000, 8, 0.5, seed=1, release_span=1000)
        assert len({job.release for job in inst.jobs}) == len(inst)
        drive(PreemptiveSimulator(8, 0.5, 0, policy), inst)
        assert counts == {
            "plans": plans,
            "window ends": window_ends,
            ("active_jobs", "on_arrival"): len(inst),
            ("active_jobs", "advance_to"): 4,
        }

    @pytest.mark.parametrize("policy", ["lazy", "greedy"])
    def test_a_remainder_of_exactly_tol_is_not_live(self, policy):
        # TOL's lowest bit is 2^-82, so only a job under 2^-28 can be left
        # exactly TOL: here 2.5e-9 after 1.5e-9 of work.
        sim = PreemptiveSimulator(1, 0.5, policy=policy)
        assert sim.submit(Job(0, 0.0, 2.5e-9, 1.0))
        sim.advance_to(1.5e-9)
        assert sim.committed_work == {} and 2.5e-9 - 1.5e-9 == TOL
        assert sim.active_jobs() == [] and sim.finish().accepted_volume == 2.5e-9

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
        lowered._decay_curve = PiecewiseLinear(ref.breakpoints, tuple(0.5 * v for v in ref.values), tuple(0.5 * s for s in ref.slopes))
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


def count_calls(monkeypatch, counts, key, owner, name, *also):
    """Count in ``counts[key]`` the calls of ``owner.name`` from now on, made
    through ``owner`` or any module of ``also``."""
    function = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)

    for target in (owner, *also):
        monkeypatch.setattr(target, name, counted)


def counted_plans(monkeypatch):
    """A counter of the ``generate_plan`` calls the simulator makes from now on."""
    counts = Counter()
    count_calls(monkeypatch, counts, "plans", preemptive, "generate_plan")
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

    @pytest.mark.parametrize("policy", ["lazy", "greedy"])
    def test_arrivals_at_one_instant_build_one_plan(self, monkeypatch, policy):
        counts = counted_plans(monkeypatch)
        sim, ref = PreemptiveSimulator(2, 0.5, 0, policy), ReferenceSimulator(2, 0.5, 0, policy)
        jobs = [Job(i, 3.0, 1.0 + 0.25 * i, 6.0 + 2.0 * i) for i in range(6)]
        for job in jobs:
            assert sim.submit(job) == ref.submit(job)
        assert counts["plans"] == 0 and sim.clock == 3.0
        # The reference planned at each acceptance, with its own generator.
        assert len(sim.decisions.accepted_ids()) >= 3
        # Into the first window and no further: one plan, the reference's.
        sim.advance_to(3.0 + 0.5 * (ref.plan.end - 3.0))
        assert counts["plans"] == 1
        assert sim.plan == ref.plan and counts["plans"] == 1

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
        b = PiecewiseLinear(*stretched, shape.slopes)
    else:
        pool = [bp for bp in a.breakpoints if bp > start] + [start + offset() for _ in range(rng.randint(0, 6))]
        bps = [start] + sorted(set(rng.sample(pool, rng.randint(0, len(pool)))) - {start})
        slopes = [float(rng.randint(0, 4)) for _ in bps]
        values = [rng.uniform(0.0, 5.0)]
        for x, y, slope in zip(bps, bps[1:], slopes):
            values.append(values[-1] + slope * (y - x))
        b = PiecewiseLinear(tuple(bps), tuple(values), tuple(slopes))
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
        got = preemptive._pointwise(a, b, lo, hi)
        assert repr(got) == repr(list(reference_pointwise(a, b, lo, hi))), (a, b, lo, hi)
        # One forward pass reads the floats a lookup per tau reads.
        for curve, column in ((a, 1), (b, 2)):
            on_curve = [row for row in got if row[0] >= curve.breakpoints[0]]
            assert repr([row[column] for row in on_curve]) == repr([curve.value(row[0]) for row in on_curve])
        seen["shared"] += bool(set(a.breakpoints) & set(b.breakpoints))
        seen["rounded together"] += len(set(b.breakpoints)) < len(b.breakpoints)
        seen["lo on a breakpoint"] += lo in a.breakpoints + b.breakpoints
        seen["hi on a breakpoint"] += hi in a.breakpoints + b.breakpoints
        seen["infinite"] += lo == -math.inf and hi == math.inf
        seen["different starts"] += a.breakpoints[0] != b.breakpoints[0]
        seen["values"] += len(got)
    assert min(seen.values()) > 100, seen


class TestCheckpoint:
    @pytest.mark.parametrize("policy, level", [("lazy", 1), ("lazy", 2), ("greedy", 1), ("greedy", 2)])
    def test_one_curve_per_checkpoint(self, monkeypatch, policy, level):
        counts = Counter()
        count_calls(monkeypatch, counts, "curve", vmin, "v_min_curve", preemptive)
        check = PreemptiveSimulator.check_invariants

        def counted_check(*args, **kwargs):
            counts["check"] += 1
            return check(*args, **kwargs)

        monkeypatch.setattr(PreemptiveSimulator, "check_invariants", counted_check)
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
        new = PiecewiseLinear.__new__

        def counted_new(cls, *args, **kwargs):
            counts["built"] += 1
            return new(cls, *args, **kwargs)

        check = PreemptiveSimulator.check_invariants

        def counted_check(sim, active=None, curve=None):
            before = counts["built"]
            got = check(sim, active, curve)
            stretched = sim.policy == "lazy" and max(sim.d_min, sim.clock) > sim.clock + TOL
            assert counts["built"] - before == (curve is None), sim.clock
            counts["checks"] += 1
            counts["envelopes"] += stretched
            return got

        monkeypatch.setattr(PiecewiseLinear, "__new__", counted_new)
        monkeypatch.setattr(PreemptiveSimulator, "check_invariants", counted_check)
        inst = random_instance(200, 4, 0.5, seed=5, release_span=60.0)
        drive(PreemptiveSimulator(4, 0.5, level, policy), inst)
        assert counts["checks"] > len(inst)
        assert (counts["envelopes"] > 0) == (policy == "lazy")


def curve_counts(monkeypatch):
    """Counters of the ``v_min_curve`` calls and window ends from now on."""
    counts = Counter()
    count_calls(monkeypatch, counts, "curves", preemptive, "v_min_curve")
    count_window_ends(monkeypatch, counts)
    return counts


class TestSameInstant:
    """An arrival at the instant of the last event starts from the live set
    that event left and extends the curve kept with it."""

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
        count_calls(monkeypatch, counts, "sweeps", vmin, "_sweep")
        for eps, instance in ((0.5, jobs), (0.25, floored)):
            counts.clear()
            drive(make_policy("greedy-p", 8, eps, 0), Instance(eps, 8, tuple(instance)))
            instants = len({job.release for job in instance})
            assert counts["window ends"] > 0 and counts["curves"] > 0
            assert counts["curves"] <= instants + counts["window ends"], counts
            # An early-exit sweep at the first arrival and the curve at the
            # second, where one sweep per arrival was run before.
            assert counts["sweeps"] <= 2 * instants + counts["window ends"] < len(instance), counts


class TestCompensation:
    """An arrival at the instant of the last event reuses the compensation
    sum that event left when the threshold has not moved, and extends it
    by the accepted job's term when that job is last in id order."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_the_m8_replay_sums_once_per_instant_and_threshold_move(self, monkeypatch, level):
        jobs = replay_preemptive(8, 0.5, 1 / 64, "alg1+2", level).instance.jobs
        counts = Counter()
        count_calls(monkeypatch, counts, "sums", preemptive, "v_min")
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


class TestHooks:
    def test_no_test_subclasses_the_simulator_and_the_reference_shares_none_of_its_state(self):
        # Tests reach the simulator only by patching names it has: an
        # override of a name it no longer has is never called, and the test
        # around it passes without its check.  Each patch also counts its
        # calls, and its tests assert the count is above zero.
        patched = set()
        for path in sorted(Path(__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef):
                    assert not any(map(_names_the_simulator, node.bases)), (path.name, node.name)
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "setattr"
                    and len(node.args) == 3
                    and _names_the_simulator(node.args[0])
                    and isinstance(node.args[1], ast.Constant)
                ):
                    patched.add(node.args[1].value)
        assert {"_settle", "check_invariants", "finish"} <= patched
        assert [name for name in sorted(patched) if not hasattr(PreemptiveSimulator, name)] == []
        # The reference neither imports the simulator or the curve extension
        # nor reads the state the simulator keeps between events, so it cannot
        # share the reuse it checks.
        tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "solve_dmin" in names and "decay" in names
        kept = {"PreemptiveSimulator", "extend_curve", "_instant", "_plan", "live", "committed_work", "_decay_curve"}
        assert names & kept == set()


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
