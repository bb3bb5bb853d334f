import random

import pytest
from hypothesis import given, strategies as st

from commitsched.model import (
    DecisionLog,
    DecisionRecord,
    Instance,
    Job,
    Schedule,
    Segment,
    read_instance,
    utilization,
    validate_instance,
    verify_schedule,
    write_instance,
)


def make_instance(eps, m, triples):
    jobs = tuple(Job(i, r, p, d) for i, (r, p, d) in enumerate(triples))
    return Instance(epsilon=eps, machines=m, jobs=jobs)


def log_for(instance, accepted_ids):
    log = DecisionLog()
    for job in instance.jobs:
        log.add(DecisionRecord(job.id, job.id in accepted_ids, job.release, 0.0))
    return log


class TestValidateInstance:
    def test_tight_slack_boundary_ok(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0)])
        assert validate_instance(inst) == []

    def test_slack_violation(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 1.9)])
        kinds = [v.kind for v in validate_instance(inst)]
        assert kinds == ["slack"]

    def test_ordering_violation(self):
        inst = make_instance(0.5, 1, [(3.0, 1.0, 6.0), (1.0, 1.0, 4.0)])
        kinds = [v.kind for v in validate_instance(inst)]
        assert "ordering" in kinds

    def test_positivity_violations(self):
        inst = make_instance(1.0, 1, [(0.0, -1.0, 2.0)])
        kinds = {v.kind for v in validate_instance(inst)}
        assert "positivity" in kinds

    @pytest.mark.parametrize(
        "triple",
        [
            (0.0, float("nan"), 2.0),
            (float("nan"), 1.0, 2.0),
            (0.0, 1.0, float("nan")),
            (0.0, float("inf"), float("inf")),
            (0.0, 1.0, float("inf")),
            (float("-inf"), 1.0, 2.0),
        ],
    )
    def test_non_finite_job_rejected(self, triple):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0), triple])
        problems = validate_instance(inst)
        assert ("finite", 1) in {(v.kind, v.job) for v in problems}

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        inst = make_instance(eps, 1, [(0.0, 1.0, 10.0)])
        assert ("finite", None) in {(v.kind, v.job) for v in validate_instance(inst)}


class TestUtilization:
    def test_all_rejected(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0), (0.0, 2.5, 5.0)])
        assert utilization(log_for(inst, set()), inst) == 0.0

    def test_sum_of_accepted(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0), (0.0, 2.5, 5.0)])
        assert utilization(log_for(inst, {0, 1}), inst) == pytest.approx(3.5)

    def test_machine_count_irrelevant(self):
        inst = make_instance(1.0, 4, [(0.0, 1.0, 2.0)])
        assert utilization(log_for(inst, {0}), inst) == pytest.approx(1.0)

    def test_from_schedule(self):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 2.0), (0.0, 2.5, 7.0)])
        sched = Schedule(
            machines=1,
            segments=[Segment(0, 1, 0.0, 1.5), Segment(0, 1, 1.5, 2.5)],
        )
        assert utilization(sched, inst) == pytest.approx(2.5)


class TestVerifySchedule:
    def test_empty_ok(self):
        assert verify_schedule(Schedule(machines=1), {}) == []

    def test_under_completion(self):
        job = Job(0, 0.0, 1.0, 2.0)
        sched = Schedule(machines=1, segments=[Segment(0, 0, 0.0, 0.5)])
        kinds = [v.kind for v in verify_schedule(sched, {0: job})]
        assert kinds == ["under-completion"]

    def test_machine_overlap(self):
        jobs = {0: Job(0, 0.0, 2.0, 10.0), 1: Job(1, 0.0, 2.0, 10.0)}
        sched = Schedule(
            machines=1,
            segments=[Segment(0, 0, 0.0, 2.0), Segment(0, 1, 1.0, 3.0)],
        )
        kinds = {v.kind for v in verify_schedule(sched, jobs)}
        assert "overlap" in kinds

    def test_self_overlap_across_machines(self):
        job = Job(0, 0.0, 4.0, 10.0)
        sched = Schedule(
            machines=2,
            segments=[Segment(0, 0, 0.0, 2.0), Segment(1, 0, 1.0, 3.0)],
        )
        kinds = {v.kind for v in verify_schedule(sched, {0: job})}
        assert "self-overlap" in kinds

    def test_window_violations(self):
        job = Job(0, 1.0, 1.0, 2.5)
        sched = Schedule(machines=1, segments=[Segment(0, 0, 0.5, 1.5)])
        kinds = {v.kind for v in verify_schedule(sched, {0: job})}
        assert "release" in kinds
        job2 = Job(0, 0.0, 1.0, 2.0)
        sched2 = Schedule(machines=1, segments=[Segment(0, 0, 1.5, 2.5)])
        kinds2 = {v.kind for v in verify_schedule(sched2, {0: job2})}
        assert "deadline" in kinds2


@given(st.permutations(range(6)))
def test_utilization_invariant_under_segment_permutation(perm):
    jobs = {i: Job(i, 0.0, 1.0, 10.0) for i in range(3)}
    segments = [
        Segment(0, 0, 0.0, 0.5),
        Segment(0, 0, 0.5, 1.0),
        Segment(0, 1, 1.0, 1.7),
        Segment(0, 1, 1.7, 2.0),
        Segment(0, 2, 2.0, 2.4),
        Segment(0, 2, 2.4, 3.0),
    ]
    shuffled = [segments[i] for i in perm]
    sched = Schedule(machines=1, segments=shuffled)
    assert verify_schedule(sched, jobs) == []
    assert sched.work_in(0.0, 3.0) == pytest.approx(3.0)


class TestInstanceIO:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(5)
        triples = []
        t = 0.0
        for _ in range(7):
            t += rng.uniform(0, 2)
            p = rng.uniform(1, 4)
            triples.append((t, p, t + 2.5 * p))
        inst = make_instance(1.0, 3, triples)
        path = tmp_path / "inst.jsonl"
        write_instance(inst, str(path))
        back = read_instance(str(path))
        assert back == inst

    def test_rejects_invalid(self, tmp_path):
        inst = make_instance(1.0, 1, [(0.0, 1.0, 1.5)])
        path = tmp_path / "bad.jsonl"
        write_instance(inst, str(path))
        with pytest.raises(ValueError, match="slack"):
            read_instance(str(path))

    def test_large_epsilon_warns_but_loads(self, tmp_path):
        inst = make_instance(2.0, 1, [(0.0, 1.0, 4.0)])
        path = tmp_path / "wide.jsonl"
        write_instance(inst, str(path))
        with pytest.warns(UserWarning, match="epsilon"):
            back = read_instance(str(path))
        assert back.epsilon == 2.0

    def test_rejects_non_dense_ids(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        path.write_text(
            '{"epsilon": 1.0, "machines": 1}\n{"id": 3, "r": 0.0, "p": 1.0, "d": 2.0}\n'
        )
        with pytest.raises(ValueError, match="ids"):
            read_instance(str(path))

    def test_rejects_malformed_lines(self, tmp_path):
        bad_header = tmp_path / "h.jsonl"
        bad_header.write_text('{"machines": 1}\n')
        with pytest.raises(ValueError, match="header"):
            read_instance(str(bad_header))
        bad_job = tmp_path / "j.jsonl"
        bad_job.write_text('{"epsilon": 1.0, "machines": 1}\n{"id": 0, "r": 0.0}\n')
        with pytest.raises(ValueError, match="job line"):
            read_instance(str(bad_job))
        empty = tmp_path / "e.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_instance(str(empty))


class TestDecisionLog:
    def test_duplicate_rejected(self):
        log = DecisionLog()
        log.add(DecisionRecord(0, True, 0.0, 0.0))
        with pytest.raises(ValueError, match="duplicate"):
            log.add(DecisionRecord(0, False, 1.0, 0.0))

    def test_lookup_and_order(self):
        log = DecisionLog(
            [DecisionRecord(0, True, 0.0, 0.0), DecisionRecord(1, False, 1.0, 2.0)]
        )
        assert log[1].threshold == 2.0
        assert log.accepted_ids() == [0]
        assert [r.job for r in log] == [0, 1]
