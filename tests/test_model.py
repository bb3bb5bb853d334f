import ast
import copy
import inspect
import math
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from commitsched import model, preemptive
from commitsched.model import (
    TOL,
    CommittedStart,
    DecisionLog,
    DecisionRecord,
    Job,
    Schedule,
    Segment,
    check_policy_args,
    read_instance,
    validate_instance,
    verify_schedule,
    write_instance,
)
from commitsched.vmin import ActiveJob
from helpers import make_instance


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

    @pytest.mark.parametrize(
        "start, end",
        [(0.0, float("nan")), (float("nan"), 1.0), (float("nan"), float("nan")), (0.0, float("inf"))],
    )
    def test_non_finite_segment_rejected(self, start, end):
        job = Job(0, 0.0, 1.0, 3.0)
        sched = Schedule(machines=1, segments=[Segment(0, 0, start, end)])
        kinds = {v.kind for v in verify_schedule(sched, {0: job})}
        assert "finite" in kinds

    def test_inverted_and_empty_segments_rejected(self):
        job = Job(0, 0.0, 1.0, 3.0)
        for start, end in ((1.0, 0.5), (1.0, 1.0)):
            sched = Schedule(machines=1, segments=[Segment(0, 0, start, end)])
            assert "segment" in {v.kind for v in verify_schedule(sched, {0: job})}


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
    assert sum(seg.length for seg in sched.segments) == pytest.approx(3.0)


class TestPolicyArgs:
    @pytest.mark.parametrize("machines, epsilon", [(1, 1e-320), (3, 5e-309), (1, 1e300), (10**6, 1e14)])
    def test_rejects_a_slack_factor_out_of_float_range(self, machines, epsilon):
        # (1+eps)/eps overflows below ~5.6e-309; above, it or its m-th root rounds to 1.
        with pytest.raises(ValueError, match="out of float range"):
            check_policy_args(machines, epsilon)

    @pytest.mark.parametrize("machines, epsilon", [(1, 1e-300), (3, 6e-309), (1, 1e14), (10**6, 1e3)])
    def test_accepts_a_slack_factor_in_float_range(self, machines, epsilon):
        check_policy_args(machines, epsilon)


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

    @pytest.mark.parametrize(
        "header, job_id, where",
        [("2.7", "0", "line 1: machines"), ("1", "1.9", "line 3: id"), ("true", "0", "line 1: machines")],
    )
    def test_rejects_non_integer_counts(self, tmp_path, header, job_id, where):
        # int() would truncate 2.7 machines to 2 and id 1.9 to 1, and read true as 1.
        path = tmp_path / "counts.jsonl"
        path.write_text(
            f'{{"epsilon": 1.0, "machines": {header}}}\n'
            '{"id": 0, "r": 0.0, "p": 1.0, "d": 4.0}\n'
            f'{{"id": {job_id}, "r": 0.0, "p": 1.0, "d": 4.0}}\n'
        )
        with pytest.raises(ValueError, match=f"{where} must be a JSON integer"):
            read_instance(str(path))

    @pytest.mark.parametrize(
        "epsilon, job, where",
        [
            ("true", '"r": 0.0, "p": 1.0, "d": 4.0', "line 1: epsilon"),
            ('"1"', '"r": 0.0, "p": 1.0, "d": 4.0', "line 1: epsilon"),
            ("1.0", '"r": "0", "p": 1.0, "d": 4.0', "line 2: r"),
            ("1.0", '"r": 0.0, "p": true, "d": 4.0', "line 2: p"),
            ("1.0", '"r": 0.0, "p": 1.0, "d": "5"', "line 2: d"),
        ],
    )
    def test_rejects_non_numeric_values(self, tmp_path, epsilon, job, where):
        # float() would read true as 1.0 and "5" as 5.0.
        path = tmp_path / "values.jsonl"
        path.write_text(f'{{"epsilon": {epsilon}, "machines": 1}}\n{{"id": 0, {job}}}\n')
        with pytest.raises(ValueError, match=f"{where} must be a JSON number"):
            read_instance(str(path))

    def test_integer_values_load_as_floats(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text('{"epsilon": 1, "machines": 1}\n{"id": 0, "r": 0, "p": 1, "d": 4}\n')
        inst = read_instance(str(path))
        job = inst.jobs[0]
        assert all(type(x) is float for x in (inst.epsilon, job.release, job.processing, job.deadline))

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

    def test_json_syntax_errors_name_the_file_and_its_line(self, tmp_path):
        path = tmp_path / "syntax.jsonl"
        path.write_text(
            '{"epsilon": 1.0, "machines": 1}\n{"id": 0, "r": 0.0, "p": 1.0, "d": 4.0}\n{"id": 1 "r": 0.0}\n'
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: Expecting ',' delimiter (column 10)")):
            read_instance(str(path))

    def test_line_numbers_count_blank_lines(self, tmp_path):
        # Line 6 of the file is the second job line once blank lines are skipped.
        path = tmp_path / "blank.jsonl"
        path.write_text(
            '\n{"epsilon": 1.0, "machines": 1}\n\n{"id": 0, "r": 0.0, "p": 1.0, "d": 4.0}\n\n'
            '{"id": 1, "r": 0.0, "p": "x", "d": 4.0}\n'
        )
        with pytest.raises(ValueError, match="job line 6: p must be a JSON number"):
            read_instance(str(path))
        path.write_text('\n\n{"epsilon": 1.0, "machines": 1}\n\n{"id": 0, "r": 0.0, "p": 1.0, "d": 4.0,}\n')
        with pytest.raises(ValueError, match=r"blank.jsonl: line 5: "):
            read_instance(str(path))


class TestDecisionLog:
    def test_duplicate_rejected(self):
        log = DecisionLog()
        log.add(DecisionRecord(0, True, 0.0, 0.0))
        with pytest.raises(ValueError, match="duplicate"):
            log.add(DecisionRecord(0, False, 1.0, 0.0))
        with pytest.raises(ValueError, match="duplicate"):
            DecisionLog([DecisionRecord(0, True, 0.0, 0.0), DecisionRecord(0, False, 1.0, 0.0)])

    def test_lookup_and_order(self):
        log = DecisionLog(
            [DecisionRecord(0, True, 0.0, 0.0), DecisionRecord(1, False, 1.0, 2.0)]
        )
        assert log[1].threshold == 2.0
        assert log.accepted_ids() == [0]
        assert [r.job for r in log] == [0, 1]


RECORDS = [
    (Segment, ("machine", "job", "start", "end"), (2, 7, 0.5, 1.75)),
    (ActiveJob, ("id", "remaining", "deadline"), (7, 1.25, 9.0)),
]

#: The slotted frozen dataclasses: a record of each, by its fields.
FROZEN_RECORDS = [
    (Job, ("id", "release", "processing", "deadline"), (3, 0.5, 1.0, 2.5)),
    (DecisionRecord, ("job", "accepted", "time", "threshold"), (3, True, 0.5, None)),
    (CommittedStart, ("job", "machine", "start"), (3, 1, 0.75)),
]


class TestRecords:
    """``Segment`` and ``ActiveJob``: immutable named tuples whose field
    order, ``repr``, equality and hash are those of their field tuples.
    ``Job``, ``DecisionRecord`` and ``CommittedStart``: immutable slotted
    dataclasses."""

    @pytest.mark.parametrize("cls, names, values", RECORDS)
    def test_fields_repr_equality_and_hash(self, cls, names, values):
        record = cls(*values)
        assert record == cls(**dict(zip(names, values)))
        assert tuple(getattr(record, name) for name in names) == values
        assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
        assert hash(record) == hash(values)
        assert record != cls(*values[:-1], values[-1] + 1.0)
        assert {record: 1}[cls(*values)] == 1

    @pytest.mark.parametrize("cls, names, values", RECORDS + FROZEN_RECORDS)
    def test_immutable(self, cls, names, values):
        record = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            del record.extra
        assert tuple(getattr(record, name) for name in names) == values

    @pytest.mark.parametrize("cls, names, values", FROZEN_RECORDS)
    def test_frozen_records_keep_slots_repr_hash_and_copies(self, cls, names, values):
        record = cls(*values)
        # No per-instance dict: a stream run holds tens of thousands of jobs.
        assert not hasattr(record, "__dict__") and cls.__slots__ == names
        assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
        assert record == cls(**dict(zip(names, values))) and record != values
        assert hash(record) == hash(values)
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is cls and copied == record and repr(copied) == repr(record)

    @pytest.mark.parametrize("cls, names, values", RECORDS)
    def test_simulator_constructor_builds_the_same_record(self, cls, names, values):
        record = preemptive._record(cls, values)
        assert type(record) is cls and record == cls(*values) and repr(record) == repr(cls(*values))

    def test_plan_window_is_the_named_tuple_of_its_fields(self):
        segments = (Segment(0, 7, 0.5, 1.75), Segment(1, 3, 0.5, 1.0))
        plan = preemptive.PlanWindow(0.5, 1.75, segments)
        assert (plan.start, plan.end, plan.segments) == (0.5, 1.75, segments)
        assert plan == (0.5, 1.75, segments) and hash(plan) == hash((0.5, 1.75, segments))
        assert repr(plan) == f"PlanWindow(start=0.5, end=1.75, segments={segments!r})"
        built = preemptive._record(preemptive.PlanWindow, (0.5, 1.75, segments))
        assert type(built) is preemptive.PlanWindow and built == plan
        with pytest.raises(AttributeError):
            plan.end = 2.0

    def test_segment_length_tuple_equality_and_order(self):
        seg = Segment(1, 3, 2.0, 5.5)
        assert seg.length == 3.5
        # A segment equals the plain tuple of its fields, and segments
        # order as those tuples do.
        assert seg == (1, 3, 2.0, 5.5)
        assert sorted([seg, Segment(0, 9, 4.0, 5.0), Segment(1, 3, 1.0, 2.0)]) == [
            (0, 9, 4.0, 5.0),
            (1, 3, 1.0, 2.0),
            (1, 3, 2.0, 5.5),
        ]


def tolerance_table() -> dict[str, float]:
    """The comparison slacks ``model`` defines: its upper-case float constants."""
    return {name: v for name, v in vars(model).items() if name.isupper() and type(v) is float}


def first_power_above(value: float) -> int:
    """The least k with math.ulp(2^k) > value."""
    return next(k for k in range(-60, 60) if math.ulp(2.0**k) > value)


def test_absolute_tolerances_fall_below_float_spacing_where_the_readme_says():
    # Each entry's comment ends by naming the first power of two whose float
    # spacing exceeds it; README "Conventions" repeats the power (test_readme).
    pattern = r"exceeds it from 2\^(\d+)\.\n([A-Z_]+) = "
    named = {name: int(k) for k, name in re.findall(pattern, inspect.getsource(model))}
    assert named == {name: first_power_above(v) for name, v in tolerance_table().items()}


def test_no_module_keeps_a_private_epsilon():
    # Every slack below 1e-5 is read from the table in ``model``, never
    # written as a literal elsewhere in the package.
    package = Path(model.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) is float and 0 < abs(node.value) < 1e-5:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []
