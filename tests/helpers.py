"""Instance builders shared by the test modules."""

import math
import random
import shutil
import subprocess
import sys

from commitsched.model import Instance, Job

#: The first lines of a script run by a bare interpreter: argv[1:3] hold the
#: package's parent directory and the tests directory.  Only the oracle uses
#: NumPy, and no pinned run reaches it, so a stub stands in for it where the
#: interpreter has none.
BARE_PRELUDE = """
import hashlib, json, sys, types
sys.path[:0] = sys.argv[1:3]
try:
    import numpy
except ImportError:
    sys.modules["numpy"] = types.ModuleType("numpy")
"""


def other_interpreters():
    """Each python3.N (N >= 10) on PATH, other than the running one, that starts."""
    found = []
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or minor == sys.version_info.minor:
            continue
        try:
            probe = subprocess.run(
                [exe, "-I", "-c", "import sys; print(sys.version_info[1])"], capture_output=True, text=True, timeout=60
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip() == str(minor):
            found.append(exe)
    return found


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


def run_trail(sim, jobs):
    """``repr`` of what a run shows: the decision, ``d_min`` and ``v_delta``
    after each submit, then the decisions with their thresholds, the
    committed segments, the accepted volume and the event times."""
    states = [(sim.submit(job), sim.d_min, sim.v_delta) for job in jobs]
    res = sim.finish()
    return repr((states, list(res.decisions), res.schedule.segments, res.accepted_volume, res.event_times))


def burst_jobs(key):
    """The jobs of a burst key other than "replay": runs whose arrivals share
    instants.  ``key`` is one of

    - ("span0", m, epsilon, n, seed, policy): ``random_instance`` with every
      release at 0;
    - ("floored", m, epsilon, n, span, seed, policy): ``random_instance``
      with each release floored to an integer and its deadline moved with
      it, so each window keeps its length;
    - ("shuffled", m, epsilon, n, span, seed, policy): the floored jobs with
      their ids permuted, so an acceptance inserts a live row mid-table.
    """
    from commitsched.harness import random_instance

    if key[0] == "span0":
        _, m, eps, n, seed, _ = key
        return list(random_instance(n, m, eps, seed=seed, release_span=0.0).jobs)
    kind, m, eps, n, span, seed, _ = key
    ids = random.Random(seed).sample(range(n), n) if kind == "shuffled" else range(n)
    return [
        Job(ids[j.id], float(math.floor(j.release)), j.processing, math.floor(j.release) + (j.deadline - j.release))
        for j in random_instance(n, m, eps, seed=seed, release_span=span).jobs
    ]


def burst_trail(key, level, simulator=None):
    """``run_trail`` of a burst key at one assert level, on ``simulator``
    (``PreemptiveSimulator`` by default): ``burst_jobs(key)`` under the key's
    policy, or, for ("replay", m, algorithm), the preemptive stress replay at
    epsilon 0.5 and delta 1/64, prefixed with the replay's own decisions and
    volume."""
    from commitsched.adversary import replay_preemptive
    from commitsched.policy import make_policy
    from commitsched.preemptive import PreemptiveSimulator

    simulator = simulator or PreemptiveSimulator
    if key[0] == "replay":
        _, m, algorithm = key
        outcome = replay_preemptive(m, 0.5, 1 / 64, algorithm, level)
        sim = simulator(m, 0.5, level, make_policy(algorithm, m, 0.5).policy)
        return repr((list(outcome.decisions), outcome.alg_volume)) + run_trail(sim, outcome.instance.jobs)
    return run_trail(simulator(key[1], key[2], level, key[-1]), burst_jobs(key))


def tie_jobs(eps):
    """Batches of equal jobs released together, 4 apart, so that loads tie
    within a batch and machines fall idle between batches; some windows are
    tight and some three times the slack."""
    batch = ((1.0, 3.0), (1.0, 3.0), (2.0, 1.0), (1.0, 1.0), (2.0, 3.0), (1.0, 3.0))
    return tuple(
        Job(6 * b + i, 4.0 * b, p, 4.0 * b + stretch * (1 + eps) * p)
        for b in range(10)
        for i, (p, stretch) in enumerate(batch)
    )


def np_trail(key):
    """``repr`` of a non-preemptive run's (decision records, committed
    starts, accepted volume).  ``key`` is one of

    - ("random", algorithm, m, epsilon, n, span, seed): ``random_instance``
      under ``make_policy(algorithm, m, epsilon, seed=seed)``;
    - ("ties", algorithm, m, epsilon, seed): ``tie_jobs(epsilon)`` under
      the policy.
    """
    from commitsched.harness import random_instance
    from commitsched.model import drive
    from commitsched.policy import make_policy

    if key[0] == "random":
        _, algorithm, m, eps, n, span, seed = key
        jobs = random_instance(n, m, eps, seed=seed, release_span=span).jobs
    else:
        _, algorithm, m, eps, seed = key
        jobs = tie_jobs(eps)
    res = drive(make_policy(algorithm, m, eps, seed=seed), Instance(epsilon=eps, machines=m, jobs=jobs))
    return repr((list(res.decisions), res.starts, res.accepted_volume))
