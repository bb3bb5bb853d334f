import io
import re

import pytest

from commitsched.harness import random_instance
from commitsched.model import TOL, Instance, Job
from commitsched.policy import ALGORITHMS, drive, make_policy


def _run(algorithm, trace=None):
    # One machine at eps=0.5 admits every algorithm, the randomized one too.
    inst = random_instance(40, 1, 0.5, seed=11, release_span=30.0)
    return inst, drive(make_policy(algorithm, 1, 0.5, assert_level=1, seed=3), inst, trace)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_threshold_is_the_deadline_bar_or_none(algorithm):
    inst, result = _run(algorithm)
    by_id = {j.id: j for j in inst.jobs}
    records = list(result.decisions)
    assert [r.job for r in records] == [j.id for j in inst.jobs]
    if algorithm.startswith("greedy"):
        assert all(r.threshold is None for r in records)
        return
    for r in records:
        assert r.threshold >= r.time - TOL
        if r.accepted:
            assert by_id[r.job].deadline >= r.threshold - TOL
        elif algorithm != "alg3-randomized":
            # The randomized policy also drops jobs its virtual allocator
            # placed on another virtual machine.
            assert by_id[r.job].deadline < r.threshold - TOL
    assert any(not r.accepted for r in records)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_trace_has_one_line_per_decision(algorithm):
    buf = io.StringIO()
    inst, result = _run(algorithm, trace=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(inst)
    pattern = re.compile(r"\S+ job=(\d+) (accept|reject) threshold=(\S+)")
    for line, record in zip(lines, result.decisions):
        match = pattern.fullmatch(line)
        assert match is not None, line
        assert int(match.group(1)) == record.job
        assert (match.group(2) == "accept") == record.accepted


def test_drive_validates_the_instance():
    inst = Instance(epsilon=1.0, machines=1, jobs=(Job(0, 0.0, 1.0, 1.5),))
    with pytest.raises(ValueError, match="invalid instance"):
        drive(make_policy("alg3", 1, 1.0), inst)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError, match="unknown algorithm"):
        make_policy("nope", 1, 1.0)
