import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from commitsched.model import Instance, Job, Schedule, verify_schedule
from commitsched.preemptive import (
    PreemptiveSimulator,
    generate_plan,
    greedy_preemptive,
    lrpt_assign,
    simulate_preemptive,
    solve_dmin,
    wrap_fill,
)
from commitsched.vmin import ActiveJob, f_threshold, v_min, v_min_curve


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
        with pytest.raises(RuntimeError):
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
    segs, _ = lrpt_assign(dict(volumes), list(range(m)), 0.0, length)
    done = {}
    for s in segs:
        done[s.job] = done.get(s.job, 0.0) + s.length
    fluid = fluid_lrpt_oracle(volumes, m, length)
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
        assert res.schedule.work_in(0.0, 2.0) == pytest.approx(2.0)

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
        res = simulate_preemptive(inst, trace=buf)
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
