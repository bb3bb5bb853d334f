import io
import math
import re

import pytest

from commitsched.harness import random_instance, theoretical_bounds
from commitsched.model import TOL, Instance, Job
from commitsched.nonpreemptive import (
    GreedyAllocator,
    NonpreemptiveSimulator,
    PartitionedAllocator,
    RandomizedAllocator,
)
from commitsched.policy import ALGORITHMS, drive, make_policy
from commitsched.preemptive import PreemptiveSimulator
from commitsched.vmin import f_threshold


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


#: Each policy class, built from (machines, epsilon); the greedy allocator
#: takes no epsilon.
_CONSTRUCTORS = {
    "PreemptiveSimulator-lazy": lambda m, eps: PreemptiveSimulator(m, eps, policy="lazy"),
    "PreemptiveSimulator-greedy": lambda m, eps: PreemptiveSimulator(m, eps, policy="greedy"),
    "NonpreemptiveSimulator": NonpreemptiveSimulator,
    "PartitionedAllocator": PartitionedAllocator,
    "RandomizedAllocator": lambda m, eps: RandomizedAllocator(m, eps, 0),
    "GreedyAllocator": lambda m, eps: GreedyAllocator(m),
}


@pytest.mark.parametrize("name", _CONSTRUCTORS)
def test_policy_constructors_reject_bad_machines_and_epsilon(name):
    build = _CONSTRUCTORS[name]
    build(1, 0.5)  # one machine at eps=0.5 suits every class
    for m in (0, -1, 2.5, True, "2"):
        with pytest.raises(ValueError, match="machines"):
            build(m, 0.5)
    if name != "GreedyAllocator":
        for eps in (math.nan, math.inf, -math.inf, 0.0, -0.5):
            with pytest.raises(ValueError, match="epsilon"):
                build(1, eps)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_make_policy_rejects_a_bad_machine_count(algorithm):
    with pytest.raises(ValueError, match="machines"):
        make_policy(algorithm, 0, 0.5)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_policy_rejects_bad_epsilon_and_an_earlier_release(algorithm):
    m = 1 if algorithm == "alg3-randomized" else 2
    with pytest.raises(ValueError, match="epsilon"):
        make_policy(algorithm, m, math.nan)
    policy = make_policy(algorithm, m, 0.5)
    assert policy.submit(Job(0, 5.0, 1.0, 10.0))
    # Committing a job released before the clock would start it in the past.
    with pytest.raises(ValueError):
        policy.submit(Job(1, 0.0, 1.0, 3.0))


@pytest.mark.parametrize(
    "function",
    [f_threshold, theoretical_bounds, lambda m, eps: random_instance(3, m, eps, seed=0)],
    ids=["f_threshold", "theoretical_bounds", "random_instance"],
)
def test_closed_forms_and_generator_share_the_argument_check(function):
    for m, eps in ((0, 0.5), (2.5, 0.5), (True, 0.5), (2, math.nan), (2, math.inf), (2, 0.0)):
        with pytest.raises(ValueError, match="machines|epsilon"):
            function(m, eps)
