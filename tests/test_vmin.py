import math
import random
from bisect import bisect_right
from collections import Counter

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from commitsched.model import TOL
from commitsched.vmin import (
    ActiveJob,
    PiecewiseLinear,
    contribution,
    extend_curve,
    f_threshold,
    horn_feasible,
    v_min,
    v_min_curve,
    v_shape_corners,
    v_shape_curve,
)


def grid_oracle(active, t, taus):
    """Independent evaluation of the mandatory-volume sum on a tau grid."""
    out = []
    for tau in taus:
        total = 0.0
        for j in active:
            if j.deadline - j.remaining >= tau:
                total += 0.0
            elif tau >= j.deadline:
                total += j.remaining
            else:
                total += tau - (j.deadline - j.remaining)
        out.append(total)
    return out


def reference_v_min_curve(active, t):
    """The curve built with max(), contribution() and a dedupe pass, as
    before the single-loop version; kept to compare against by repr."""
    deltas = {}
    base = 0.0
    for job in active:
        lo = max(t, job.deadline - job.remaining)
        hi = max(t, job.deadline)
        base += contribution(job.remaining, job.deadline, t)
        if hi > lo:
            deltas[lo] = deltas.get(lo, 0) + 1
            deltas[hi] = deltas.get(hi, 0) - 1
    points = sorted(deltas)
    if not points or points[0] > t:
        points.insert(0, t)
    breakpoints = [points[0]]
    for p in points[1:]:
        if p > breakpoints[-1]:
            breakpoints.append(p)
    slopes = []
    values = [base]
    running = 0
    for i, bp in enumerate(breakpoints):
        running += deltas.get(bp, 0)
        slopes.append(float(running))
        if i + 1 < len(breakpoints):
            values.append(values[-1] + running * (breakpoints[i + 1] - bp))
    return PiecewiseLinear(t, tuple(breakpoints), tuple(values), tuple(slopes))


def random_active_set(rng, n, t):
    """Active jobs with tied deadlines, remainders near TOL, latest starts
    before t and deadlines at or before t, in shuffled id order."""
    pool = [t + rng.choice([0.0, -1.5, rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)]) for _ in range(4)]
    ids = rng.sample(range(3 * n + 1), n)
    active = []
    for job_id in ids:
        deadline = rng.choice(pool) if rng.random() < 0.6 else t + rng.uniform(0.0, 30.0)
        kind = rng.random()
        if kind < 0.15:
            remaining = TOL * (1.0 + rng.choice([1e-6, 0.5, 2.0]))
        elif kind < 0.3:
            remaining = max(deadline - t, 0.0) + rng.uniform(0.0, 2.0)  # latest start before t
        elif kind < 0.4:
            remaining = rng.choice([1.0, 2.0, 0.5])  # tied remainders and latest starts
        else:
            remaining = rng.uniform(0.01, 10.0)
        active.append(ActiveJob(job_id, remaining, deadline))
    return active


@pytest.mark.parametrize("seed", range(8))
def test_curve_equals_reference_by_repr(seed):
    rng = random.Random(seed)
    for _ in range(150):
        t = rng.choice([0.0, 3.7, 1024.5, 1e5 + 0.1])
        active = random_active_set(rng, rng.choice([0, 1, 2, 5, 12, 40]), t)
        assert repr(v_min_curve(active, t)) == repr(reference_v_min_curve(active, t))


class TestVMin:
    def test_empty(self):
        assert v_min([], 0.0, 5.0) == 0.0

    def test_middle_case(self):
        assert v_min([ActiveJob(0, 1.0, 2.0)], 0.0, 1.5) == pytest.approx(0.5)

    def test_saturated_case(self):
        assert v_min([ActiveJob(0, 1.0, 2.0)], 0.0, 3.0) == pytest.approx(1.0)

    def test_rejects_tau_before_t(self):
        with pytest.raises(ValueError):
            v_min([], 2.0, 1.0)


class TestVMinCurve:
    def test_empty_curve_is_zero(self):
        curve = v_min_curve([], 0.0)
        assert curve.value(0.0) == 0.0
        assert curve.value(100.0) == 0.0

    def test_single_job_breakpoints_and_slopes(self):
        curve = v_min_curve([ActiveJob(0, 1.0, 2.0)], 0.0)
        assert curve.breakpoints == (0.0, 1.0, 2.0)
        assert curve.slopes == (0.0, 1.0, 0.0)
        taus = [i / 16 for i in range(64)]
        expected = grid_oracle([ActiveJob(0, 1.0, 2.0)], 0.0, taus)
        got = [curve.value(tau) for tau in taus]
        assert got == pytest.approx(expected)

    def test_identical_jobs_double_slope(self):
        active = [ActiveJob(0, 1.0, 2.0), ActiveJob(1, 1.0, 2.0)]
        curve = v_min_curve(active, 0.0)
        assert curve.slopes == (0.0, 2.0, 0.0)
        taus = [i / 8 for i in range(32)]
        assert [curve.value(x) for x in taus] == pytest.approx(grid_oracle(active, 0.0, taus))

    def test_clipping_below_t(self):
        # Latest-start point before t: mandatory volume is already positive at t.
        active = [ActiveJob(0, 3.0, 4.0)]
        curve = v_min_curve(active, 2.0)
        taus = [2.0 + i / 8 for i in range(40)]
        assert [curve.value(x) for x in taus] == pytest.approx(grid_oracle(active, 2.0, taus))

    def test_value_before_start_rejected(self):
        curve = v_min_curve([ActiveJob(0, 1.0, 2.0)], 1.0)
        with pytest.raises(ValueError):
            curve.value(0.5)


@settings(max_examples=120)
@given(
    st.lists(
        st.tuples(
            st.floats(0.1, 8.0),  # remaining
            st.floats(0.0, 20.0),  # deadline offset from t
        ),
        min_size=0,
        max_size=6,
    ),
    st.floats(0.0, 5.0),
)
def test_curve_matches_pointwise_definition(job_specs, t):
    active = [ActiveJob(i, rem, t + off) for i, (rem, off) in enumerate(job_specs)]
    curve = v_min_curve(active, t)
    taus = sorted(
        {t, t + 0.37, t + 3.1, t + 25.0}
        | set(curve.breakpoints)
        | {bp + 0.123 for bp in curve.breakpoints}
    )
    for tau, expected in zip(taus, grid_oracle(active, t, taus)):
        assert curve.value(tau) == pytest.approx(expected, abs=1e-9)
    # Slope never exceeds the number of active jobs.
    assert all(0 <= s <= len(active) for s in curve.slopes)
    # Nondecreasing.
    assert all(b >= a - 1e-12 for a, b in zip(curve.values, curve.values[1:]))


class TestHornFeasible:
    def test_exact_fit_single_machine(self):
        assert horn_feasible([ActiveJob(0, 1.0, 1.0)], 0.0, 1)

    def test_two_jobs_one_machine_infeasible(self):
        active = [ActiveJob(0, 1.0, 1.0), ActiveJob(1, 1.0, 1.0)]
        assert not horn_feasible(active, 0.0, 1)

    def test_two_jobs_two_machines(self):
        active = [ActiveJob(0, 1.0, 1.0), ActiveJob(1, 1.0, 1.0)]
        assert horn_feasible(active, 0.0, 2)

    def test_per_job_window(self):
        assert not horn_feasible([ActiveJob(0, 2.0, 1.5)], 0.0, 4)


def random_horn_input(rng, t):
    """Active jobs with tied deadlines, tied latest starts, remainders at or
    below TOL, and deadlines within TOL of t, on 1 to 4 machines."""
    m = rng.randint(1, 4)
    deadlines = [t + rng.uniform(0.5, 8.0) for _ in range(rng.randint(1, 3))] + [t, t + TOL / 2]
    starts = [t + rng.uniform(0.0, 4.0) for _ in range(rng.randint(1, 3))]
    active = []
    for job_id in range(rng.randint(0, 4 * m)):
        kind = rng.random()
        if kind < 0.2:
            deadline, remaining = rng.choice(deadlines), TOL * rng.choice([0.25, 0.5, 1.0])
        elif kind < 0.4:
            remaining = rng.choice([0.5, 1.0, 2.0])
            deadline = rng.choice(starts) + remaining  # a tied latest start
        else:
            deadline = rng.choice(deadlines)
            remaining = rng.uniform(0.0, 1.2) * max(deadline - t, TOL)
        active.append(ActiveJob(job_id, remaining, deadline))
    return active, m


def at_capacity_input(t, m, w, extra):
    """m jobs that fill [t, t + w) on m machines, plus a job due at t whose
    remainder ``extra`` puts the curve at exactly (bp - t) * m + TOL at every
    breakpoint when extra == TOL (t and w exact in binary)."""
    return [ActiveJob(i, w, t + w) for i in range(m)] + [ActiveJob(m, extra, t)]


class TestHornWithoutCurve:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_curve_path(self, seed):
        rng = random.Random(seed)
        verdicts = []
        for _ in range(300):
            t = rng.choice([0.0, 2.5, 1024.25])
            active, m = random_horn_input(rng, t)
            got = horn_feasible(active, t, m)
            assert got == horn_feasible(active, t, m, v_min_curve(active, t)), (active, t, m)
            verdicts.append(got)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize("extra", [TOL, TOL * (1 + 2**-40), TOL * (1 - 2**-40)])
    def test_a_value_exactly_at_capacity(self, m, extra):
        t, w = 0.0, 0.5
        active = at_capacity_input(t, m, w, extra)
        curve = v_min_curve(active, t)
        at_cap = [val == (bp - t) * m + TOL for bp, val in zip(curve.breakpoints, curve.values)]
        assert all(at_cap) == (extra == TOL)
        assert horn_feasible(active, t, m) == horn_feasible(active, t, m, curve) == (extra <= TOL)

    def test_a_breach_at_t_alone(self):
        # Two jobs each start 0.75 TOL late, which their own windows allow:
        # the curve starts at 1.5 TOL, above the capacity TOL at t, and
        # never breaches again on four machines.
        t = 1.0
        active = [ActiveJob(i, 1.0 + 0.75 * TOL, t + 1.0) for i in range(2)]
        curve = v_min_curve(active, t)
        breached = [val > (bp - t) * 4 + TOL for bp, val in zip(curve.breakpoints, curve.values)]
        assert breached[0] and not any(breached[1:])
        assert not horn_feasible(active, t, 4) and not horn_feasible(active, t, 4, curve)


def random_extension(rng, t):
    """Live jobs and one new job with no mandatory volume at t.  Half of the
    inputs put every point on a 0.5 grid above t, so breakpoints coincide;
    the new job's latest start is t, an existing breakpoint or free, and its
    deadline an existing breakpoint or free."""
    on_grid = rng.random() < 0.5

    def offset(a, b):
        x = rng.uniform(a, b)
        return round(2 * x) / 2 if on_grid else x

    active = []
    for job_id in range(rng.randint(0, 12)):
        deadline = t + offset(0.0, 10.0)
        remaining = offset(0.0, 6.0) or 0.5
        active.append(ActiveJob(job_id, remaining, deadline))
    points = v_min_curve(active, t).breakpoints
    kind = rng.random()
    lo = t if kind < 0.2 else rng.choice(points) if kind < 0.5 else t + offset(0.0, 6.0)
    deadline = rng.choice([p for p in points if p > lo] or [lo + 1.0]) if rng.random() < 0.3 else lo + (offset(0.0, 6.0) or 0.25)
    return active, ActiveJob(len(active), deadline - lo, deadline)


class TestExtendCurve:
    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0, 1024.25, 1e6 + 0.1])
    def test_equals_the_full_sweep(self, t):
        # The new job's place among the jobs does not matter: it adds nothing
        # to the value at t, and breakpoints are sorted.
        rng = random.Random(repr(t))
        met = Counter()
        for _ in range(3000):
            active, job = random_extension(rng, t)
            curve = v_min_curve(active, t)
            grown = extend_curve(curve, job.remaining, job.deadline, t)
            at = rng.randint(0, len(active))
            candidate = active[:at] + [job] + active[at:]
            assert repr(grown) == repr(v_min_curve(candidate, t)), (active, job, t)
            m = rng.randint(1, 4)
            assert horn_feasible(candidate, t, m, grown) == horn_feasible(candidate, t, m)
            lo = job.deadline - job.remaining
            met["lo at t"] += lo == t
            met["lo at a breakpoint"] += lo > t and lo in curve.breakpoints
            met["deadline at a breakpoint"] += job.deadline in curve.breakpoints
        assert min(met.values()) > 100, met

    def test_coinciding_points(self):
        # The new job starts at t and ends at an existing breakpoint; both
        # points are there already, so only the slopes between them move.
        active = [ActiveJob(0, 1.0, 3.0), ActiveJob(1, 2.0, 2.5)]
        curve = v_min_curve(active, 0.5)
        assert curve.breakpoints == (0.5, 2.0, 2.5, 3.0) and curve.slopes == (1.0, 2.0, 1.0, 0.0)
        grown = extend_curve(curve, 2.0, 2.5, 0.5)
        assert grown.breakpoints == curve.breakpoints and grown.slopes == (2.0, 3.0, 1.0, 0.0)
        assert repr(grown) == repr(v_min_curve(active + [ActiveJob(2, 2.0, 2.5)], 0.5))

    def test_none_for_a_job_with_mandatory_volume_at_t(self):
        curve = v_min_curve([ActiveJob(0, 1.0, 4.0)], 1.0)
        assert extend_curve(curve, 2.0, 2.5, 1.0) is None  # latest start 0.5 < t
        assert extend_curve(curve, 2.0, 3.0, 1.0) is not None  # latest start t

    def test_a_job_too_small_for_a_breakpoint_leaves_the_curve(self):
        # deadline - remaining rounds to the deadline: the sweep adds no point.
        curve = v_min_curve([ActiveJob(0, 1.0, 4.0)], 0.0)
        assert extend_curve(curve, 1e-17, 2.0, 0.0) is curve
        assert repr(curve) == repr(v_min_curve([ActiveJob(0, 1.0, 4.0), ActiveJob(1, 1e-17, 2.0)], 0.0))


class TestThresholdConstant:
    def test_single_machine_unit_slack(self):
        assert f_threshold(1, 1.0) == pytest.approx(0.5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            f_threshold(0, 1.0)
        with pytest.raises(ValueError):
            f_threshold(2, 0.0)

    def test_two_machine_value(self):
        # Arbitrary-precision evaluation of the closed form; equals (sqrt(2)+1)/2.
        with mpmath.workdps(50):
            expected = 1 / ((1 + 1) * (mpmath.mpf(2) ** (mpmath.mpf(1) / 2) - 1))
        assert f_threshold(2, 1.0) == pytest.approx(float(expected), rel=1e-14)
        assert f_threshold(2, 1.0) == pytest.approx((math.sqrt(2) + 1) / 2, rel=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13])
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9, 1.0])
    def test_matches_geometric_sum_form(self, m, eps):
        rho = (1 + eps) / eps
        sum_form = (eps / (1 + eps)) * sum(rho ** (j / m) for j in range(m))
        assert f_threshold(m, eps) == pytest.approx(sum_form, rel=1e-12)

    def test_large_m_limit(self):
        # m / f(m, 1) decreases towards 2*ln(2).
        limit = 2 * math.log(2)
        values = [m / f_threshold(m, 1.0) for m in (2**10, 2**15, 2**20)]
        assert values[0] > values[1] > values[2] > limit
        assert values[-1] == pytest.approx(limit, abs=1e-5)


def reference_v_shape(x, m, eps):
    """The corner-sum form of the envelope, as before ``v_shape_curve``:
    m*x up to eps/(1+eps), x*f from 1 on, and between corners h and h+1
    the sum of corners 0..h plus x*(m-h-1)."""
    lo = eps / (1.0 + eps)
    if x <= lo:
        return x * m
    if x >= 1.0:
        return x * f_threshold(m, eps)
    corners = v_shape_corners(m, eps)
    h = bisect_right(corners, x) - 1
    return sum(corners[: h + 1]) + x * (m - h - 1)


class TestShapeEnvelope:
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_curve_matches_corner_sum(self, m, eps):
        curve = v_shape_curve(m, eps)
        assert curve.breakpoints == (0.0, *v_shape_corners(m, eps))
        assert curve.slopes == (*map(float, range(m, -1, -1)), f_threshold(m, eps))
        xs = [i / 997 for i in range(1500)]
        xs += [c + d for c in v_shape_corners(m, eps) for d in (-1e-12, 0.0, 1e-12)]
        for x in xs:
            assert curve.value(x) == pytest.approx(reference_v_shape(x, m, eps), rel=1e-12, abs=0.0), x

    def test_zero(self):
        assert v_shape_curve(3, 0.5).value(0.0) == 0.0

    @pytest.mark.parametrize("m,eps", [(1, 1.0), (2, 1.0), (3, 0.5), (4, 0.1)])
    def test_branches_agree_at_one(self, m, eps):
        # At x=1 the outer branch gives f; the inner staircase must agree.
        f = f_threshold(m, eps)
        assert v_shape_curve(m, eps).value(1.0) == pytest.approx(f, rel=1e-12)
        assert v_shape_curve(m, eps).value(1.0 - 1e-12) == pytest.approx(f, rel=1e-9)

    def test_branches_agree_at_low_corner(self):
        # m=2, eps=1: at x = eps/(1+eps) = 1/2 both adjacent branches give 1.
        lo = 0.5
        assert v_shape_curve(2, 1.0).value(lo) == pytest.approx(1.0, rel=1e-12)
        assert v_shape_curve(2, 1.0).value(lo + 1e-12) == pytest.approx(1.0, rel=1e-9)
        assert v_shape_curve(2, 1.0).value(lo - 1e-12) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_continuous_at_every_corner(self, m, eps):
        # At corner k = (eps/(1+eps))^((m-k)/m) the staircase has summed the
        # corners 0..k and still rises with slope m-k-1 (slope m below the
        # first corner, f_threshold at the last, where the sum is f itself).
        lo = eps / (1.0 + eps)
        corners = [lo ** ((m - k) / m) for k in range(m + 1)]
        curve = v_shape_curve(m, eps)
        for k, corner in enumerate(corners):
            level = sum(corners[: k + 1]) + corner * (m - k - 1)
            for x in (corner - 1e-12, corner, corner + 1e-12):
                assert curve.value(x) == pytest.approx(level, rel=1e-9), (k, x)

    @pytest.mark.parametrize("m,eps", [(1, 1.0), (2, 1.0), (2, 0.5), (3, 0.5), (5, 0.1)])
    def test_grid_properties(self, m, eps):
        f = f_threshold(m, eps)
        xs = [i * 1.4 / 10000 for i in range(1, 10001)]
        curve = v_shape_curve(m, eps)
        vals = [curve.value(x) for x in xs]
        # Monotone nondecreasing.
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        # v(x)/x nonincreasing and pinched between m and f.
        ratios = [v / x for x, v in zip(xs, vals)]
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))
        assert all(f - 1e-9 <= r <= m + 1e-9 for r in ratios)

    @pytest.mark.parametrize("m,eps", [(2, 1.0), (3, 0.5), (4, 0.25)])
    def test_constant_exactly_on_top_plateau(self, m, eps):
        lo = eps / (1 + eps)
        plateau_left = lo ** (1.0 / m)
        curve = v_shape_curve(m, eps)
        level = curve.value(1.0)
        for i in range(50):
            x = plateau_left + (1.0 - plateau_left) * i / 49
            assert curve.value(x) == pytest.approx(level, rel=1e-12)
        # Strictly below the plateau the envelope is strictly smaller.
        assert curve.value(plateau_left * 0.999) < level - 1e-9

    def test_corner_list(self):
        corners = v_shape_corners(2, 1.0)
        assert corners == pytest.approx([0.5, math.sqrt(0.5), 1.0])
