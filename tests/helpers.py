"""Instance builders shared by the test modules."""

import math

from commitsched.model import Instance, Job


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


def scaled(inst, k):
    """The instance with every release, processing time and deadline times 2^k."""
    jobs = tuple(
        Job(j.id, math.ldexp(j.release, k), math.ldexp(j.processing, k), math.ldexp(j.deadline, k))
        for j in inst.jobs
    )
    return Instance(epsilon=inst.epsilon, machines=inst.machines, jobs=jobs)


def time_shifted(inst, offset):
    """The instance with every release and deadline moved by ``offset``."""
    jobs = tuple(Job(j.id, j.release + offset, j.processing, j.deadline + offset) for j in inst.jobs)
    return Instance(epsilon=inst.epsilon, machines=inst.machines, jobs=jobs)
