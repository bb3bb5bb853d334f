"""Domain types shared by every module (jobs, instances, schedules, decisions, results), the
policy contract with its driver loop, and the gates that raise on an invalid instance or schedule.

Time is a plain float.  Every comparison slack of the package is one of the
tolerances below, absolute unless its entry names a scale, and each names the
first power of two whose float spacing exceeds it.  Instances are expected to
be scaled so that processing times are O(1)-O(10), which keeps them meaningful.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import FrozenInstanceError, dataclass, field
from math import inf, isfinite
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Protocol

#: Times and volumes: ties, the slack condition, feasibility, plans, LRPT groups, forced work.
#: Scaled by max(1, total work) in ``flow_feasible``.  Float spacing exceeds it from 2^23.
TOL = 1e-9

#: Each job's executed total in ``verify_schedule``; scaled by max(1, total work) in
#: ``max_prefix_work``.  Float spacing exceeds it from 2^33.
COMMIT_TOL = 1e-6

#: Runtime invariant checks, which compare sums of many float terms.  Float spacing exceeds it from 2^29.
CHECK_SLACK = 1e-7

#: A measured ratio over its proven bound in ``harness.run``, and a preemptive stress ratio under
#: the bound its game proves in ``harness.stress_run``.  Float spacing exceeds it from 2^33.
BOUND_SLACK = 1e-6

#: Float dust: the shortest preemptive window or piece, the least max-flow residual, the guard of
#: the adversary's floors, ceilings and bracket start; relative in ``solve_c_lower``'s bisection.
#: Float spacing exceeds it from 2^13.
DUST = 1e-12

#: Rates: parallel slopes in ``solve_dmin``, a closing rate in ``lrpt_assign``.
#: Float spacing exceeds it from 2^3.
SLOPE_TOL = 1e-15


class InvariantError(RuntimeError):
    """An internal guarantee of a policy was observed to fail."""


def rho(epsilon: float) -> float:
    """The paper's ratio (1 + epsilon) / epsilon, which every bound and threshold is built from."""
    return (1.0 + epsilon) / epsilon


#: The invariant-check depths a policy runs at: none, the checks at every
#: event, and those plus the volume-decay check between events.
ASSERT_LEVELS = (0, 1, 2)


def check_policy_args(machines: int, epsilon: float | None = None, assert_level: int = 0) -> None:
    """Raise ValueError unless machines is an int >= 1, assert_level is one of
    ``ASSERT_LEVELS``, and epsilon, if given, is finite and > 0 with rho(epsilon)
    finite and rho(epsilon)^(1/machines) > 1.

    The last two fail in floats only: rho overflows below epsilon ~ 5.6e-309, and
    rounds to 1 (or its m-th root does) for a large enough epsilon.
    """
    if type(machines) is not int or machines < 1:  # a bool is not a machine count
        raise ValueError(f"machines={machines!r} must be an integer >= 1")
    if type(assert_level) is not int or assert_level not in ASSERT_LEVELS:
        raise ValueError(f"assert_level={assert_level!r} must be one of {ASSERT_LEVELS}")
    if epsilon is None:
        return
    if not 0.0 < epsilon < inf:
        raise ValueError(f"epsilon={epsilon} must be finite and > 0")
    ratio = rho(epsilon)
    if not (ratio < inf and ratio ** (1.0 / machines) > 1.0):
        raise ValueError(
            f"epsilon={epsilon} is out of float range for m={machines}: "
            f"(1+eps)/eps = {ratio} must be finite with an m-th root > 1"
        )


def _frozen_record(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)``, whose every attribute assignment or deletion raises
    ``FrozenInstanceError``.  On Python 3.11 the generated methods name the class from before ``slots``
    rebuilt it, so an undeclared attribute would reach ``super()`` and raise TypeError."""
    cls = dataclass(frozen=True, slots=True)(cls)

    def __setattr__(self: object, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self: object, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_frozen_record
class Job:
    """One deadline-constrained task."""

    id: int
    release: float
    processing: float
    deadline: float

    @property
    def window(self) -> float:
        return self.deadline - self.release


@dataclass(frozen=True)
class Instance:
    """A slack factor, a machine count, and a release-ordered job sequence.

    The sequence order is the submission order; ties in release time are
    allowed and preserved.
    """

    epsilon: float
    machines: int
    jobs: tuple[Job, ...]

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        check_policy_args(self.machines)
        object.__setattr__(self, "jobs", tuple(self.jobs))

    def __len__(self) -> int:
        return len(self.jobs)


class Segment(NamedTuple):
    """Execution of one job on one machine over [start, end).

    A named tuple: it equals the plain tuple (machine, job, start, end),
    and segments order as those tuples do.
    """

    machine: int
    job: int
    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass
class Schedule:
    """A set of segments on ``machines`` identical machines."""

    machines: int
    segments: list[Segment] = field(default_factory=list)

    def per_job_total(self) -> dict[int, float]:
        totals: dict[int, float] = {}
        for seg in self.segments:
            totals[seg.job] = totals.get(seg.job, 0.0) + seg.length
        return totals


@_frozen_record
class DecisionRecord:
    """Outcome of one admission decision.

    ``time`` is the job's release, for every policy: a release up to
    ``TOL`` before the previous one is decided at the policy's later clock
    but recorded at its own release.  ``threshold`` is the deadline threshold the job was compared against
    at decision time: the lazy threshold ``d_min`` for the preemptive
    policy, and the load threshold ``d_lim`` for the non-preemptive ones
    (of the group that accepted the job, or of the last group offered it,
    for the partitioned variant; of the virtual allocator for the
    randomized one).  It is None for the greedy baselines, which test
    feasibility rather than a threshold.
    """

    job: int
    accepted: bool
    time: float
    threshold: float | None


class DecisionLog:
    """One record per submitted job, in submission order."""

    def __init__(self, records: Iterable[DecisionRecord] = ()) -> None:
        # A dict keeps insertion order: it is both the sequence and the index.
        self._by_job: dict[int, DecisionRecord] = {}
        for record in records:
            self.add(record)

    def add(self, record: DecisionRecord) -> None:
        if record.job in self._by_job:
            raise ValueError(f"duplicate decision for job {record.job}")
        self._by_job[record.job] = record

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(self._by_job.values())

    def __len__(self) -> int:
        return len(self._by_job)

    def __getitem__(self, job_id: int) -> DecisionRecord:
        return self._by_job[job_id]

    def accepted_ids(self) -> list[int]:
        return [r.job for r in self._by_job.values() if r.accepted]


@_frozen_record
class CommittedStart:
    """The irrevocable placement a non-preemptive policy hands out at acceptance time."""

    job: int
    machine: int
    start: float


@dataclass
class SimulationResult:
    decisions: DecisionLog
    schedule: Schedule
    accepted_volume: float
    event_times: list[float] = field(default_factory=list)


@dataclass
class NonpreemptiveResult:
    decisions: DecisionLog
    starts: list[CommittedStart]
    accepted_volume: float


@dataclass(frozen=True)
class Violation:
    """A named constraint breach; violations are data, not exceptions."""

    kind: str
    job: int | None
    detail: str

    def __str__(self) -> str:
        where = f"job {self.job}: " if self.job is not None else ""
        return f"{where}{self.kind}: {self.detail}"


def validate_instance(instance: Instance) -> list[Violation]:
    """Check finiteness, positivity, submission ordering, and the slack condition.

    Every number must be finite, every job must satisfy
    ``deadline - release >= (1 + epsilon) * processing`` (within TOL), and
    the sequence must be ordered by nondecreasing release.
    Returns an empty list when the instance is well formed.
    """
    eps = instance.epsilon
    out: list[Violation] = []
    if not isfinite(eps):
        out.append(Violation("finite", None, f"epsilon={eps} must be finite"))
    seen: set[int] = set()
    prev_release = None
    for job in instance.jobs:
        if job.id in seen:
            out.append(Violation("id", job.id, "duplicate job id"))
        seen.add(job.id)
        if not (isfinite(job.release) and isfinite(job.processing) and isfinite(job.deadline)):
            out.append(
                Violation("finite", job.id, f"r={job.release}, p={job.processing}, d={job.deadline} must be finite")
            )
        if job.processing <= 0:
            out.append(Violation("positivity", job.id, f"p={job.processing} must be > 0"))
        if job.release < 0:
            out.append(Violation("positivity", job.id, f"r={job.release} must be >= 0"))
        if job.deadline <= job.release:
            out.append(Violation("positivity", job.id, f"d={job.deadline} must exceed r={job.release}"))
        slack_needed = (1.0 + eps) * job.processing
        if job.window < slack_needed - TOL:
            out.append(
                Violation(
                    "slack",
                    job.id,
                    f"d-r={job.window:.12g} < (1+eps)*p={slack_needed:.12g}",
                )
            )
        if prev_release is not None and job.release < prev_release - TOL:
            out.append(
                Violation("ordering", job.id, f"release {job.release:.12g} after release {prev_release:.12g}")
            )
        prev_release = max(prev_release, job.release) if prev_release is not None else job.release
    return out


def ordered_sum(values: Iterable[float]) -> float:
    """The values added left to right, the order of every float reduction
    in the package: from CPython 3.12 builtin ``sum`` compensates float
    rounding, so its result would depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def volume_ratio(opt_volume: float, alg_volume: float) -> float:
    """opt_volume / alg_volume, with 0/0 = 1 and x/0 = inf for x > 0."""
    if alg_volume <= 0.0:
        return inf if opt_volume > 0.0 else 1.0
    return opt_volume / alg_volume


def verify_schedule(schedule: Schedule, accepted: Mapping[int, Job]) -> list[Violation]:
    """Check a schedule against the commitment guarantee.

    Verifies per-machine disjointness, that no job runs on two machines at
    once, that every segment lies inside its job's [release, deadline)
    window, and that every accepted job is fully executed.
    """
    out: list[Violation] = []
    by_machine: dict[int, list[Segment]] = {}
    by_job: dict[int, list[Segment]] = {}
    for seg in schedule.segments:
        # Every comparison with NaN is False, so no later check would fire.
        if not (isfinite(seg.start) and isfinite(seg.end)):
            out.append(Violation("finite", seg.job, f"segment [{seg.start}, {seg.end}) must be finite"))
        elif seg.end <= seg.start:
            out.append(Violation("segment", seg.job, f"empty or inverted segment [{seg.start}, {seg.end})"))
        if not (0 <= seg.machine < schedule.machines):
            out.append(Violation("machine", seg.job, f"machine {seg.machine} out of range"))
        by_machine.setdefault(seg.machine, []).append(seg)
        by_job.setdefault(seg.job, []).append(seg)

    for machine, segs in sorted(by_machine.items()):
        segs.sort(key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end - TOL:
                out.append(
                    Violation(
                        "overlap",
                        None,
                        f"machine {machine}: [{a.start:.12g},{a.end:.12g}) overlaps [{b.start:.12g},{b.end:.12g})",
                    )
                )

    for job_id, segs in sorted(by_job.items()):
        segs.sort(key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end - TOL:
                out.append(Violation("self-overlap", job_id, f"runs in parallel with itself near t={b.start:.12g}"))
        job = accepted.get(job_id)
        if job is None:
            out.append(Violation("unknown-job", job_id, "scheduled but not accepted"))
            continue
        for seg in segs:
            if seg.start < job.release - TOL:
                out.append(Violation("release", job_id, f"starts {seg.start:.12g} before release {job.release:.12g}"))
            if seg.end > job.deadline + TOL:
                out.append(Violation("deadline", job_id, f"runs to {seg.end:.12g} past deadline {job.deadline:.12g}"))

    totals = schedule.per_job_total()
    for job_id, job in sorted(accepted.items()):
        got = totals.get(job_id, 0.0)
        if abs(got - job.processing) > COMMIT_TOL:
            kind = "under-completion" if got < job.processing else "over-execution"
            out.append(Violation(kind, job_id, f"executed {got:.12g} of p={job.processing:.12g}"))
    return out


def _raise_on(problems: list[Violation], error: type[Exception], what: str) -> None:
    if problems:
        raise error(f"{what}: " + "; ".join(map(str, problems)))


def check_instance(instance: Instance, error: type[Exception], what: str) -> Instance:
    """``instance``, unless ``validate_instance`` finds violations: then raise ``error("<what>: <violations>")``."""
    _raise_on(validate_instance(instance), error, what)
    return instance


def check_schedule(schedule: Schedule, accepted: Mapping[int, Job], what: str) -> None:
    """Raise ``InvariantError("<what>: <violations>")`` when ``verify_schedule`` finds any."""
    _raise_on(verify_schedule(schedule, accepted), InvariantError, what)


class Policy(Protocol):
    """An online admission policy.  ``submit(job)`` decides the job at its
    release, returning a truthy placement (True, or the committed start) on
    acceptance and a falsy value on rejection; ``finish()`` returns the
    run's result; ``decisions`` holds one record per submitted job."""

    decisions: DecisionLog

    def submit(self, job: Job) -> bool | CommittedStart | None: ...

    def finish(self) -> SimulationResult | NonpreemptiveResult: ...


def drive(
    policy: Policy, instance: Instance, trace: IO[str] | None = None
) -> SimulationResult | NonpreemptiveResult:
    """Validate ``instance``, submit its jobs in order and return
    ``policy.finish()``.  With ``trace``, write one line per decision:
    time, job, outcome and threshold (``none`` for the greedy baselines)."""
    check_instance(instance, ValueError, "invalid instance")
    for job in instance.jobs:
        policy.submit(job)
        if trace is not None:
            r = policy.decisions[job.id]
            threshold = "none" if r.threshold is None else f"{r.threshold:.9g}"
            trace.write(f"{r.time:.9g} job={r.job} {'accept' if r.accepted else 'reject'} threshold={threshold}\n")
    return policy.finish()


def write_instance(instance: Instance, path: str) -> None:
    """Write an instance as JSON lines: a header line, then one line per job."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"epsilon": instance.epsilon, "machines": instance.machines}) + "\n")
        for job in instance.jobs:
            fh.write(
                json.dumps({"id": job.id, "r": job.release, "p": job.processing, "d": job.deadline}) + "\n"
            )


def read_instance(path: str) -> Instance:
    """Read a JSON-lines instance file, rejecting malformed or invalid data.

    Slack factors above 1 are accepted with a warning: the paper proves its
    bounds for epsilon <= 1, and ``nonpreemptive_lower`` is undefined above it.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        # Blank lines are skipped, but every message counts the file's own lines.
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    records.append((number, json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}: line {number}: {exc.msg} (column {exc.colno})") from exc
    if not records:
        raise ValueError(f"{path}: empty instance file")
    number, header = records[0]
    try:
        epsilon = _json_float(header["epsilon"], f"{path}: header line {number}: epsilon")
        machines = _json_int(header["machines"], f"{path}: header line {number}: machines")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header line") from exc
    jobs = []
    for number, rec in records[1:]:
        try:
            job_id = _json_int(rec["id"], f"{path}: job line {number}: id")
            jobs.append(Job(job_id, *(_json_float(rec[k], f"{path}: job line {number}: {k}") for k in "rpd")))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed job line {number}") from exc
    if [j.id for j in jobs] != list(range(len(jobs))):
        raise ValueError(f"{path}: job ids must be 0..n-1 in sequence order")
    if epsilon > 1.0:
        warnings.warn(
            f"{path}: epsilon={epsilon} > 1; the paper proves its bounds for epsilon <= 1, "
            "and nonpreemptive_lower is undefined here"
        )
    instance = Instance(epsilon=epsilon, machines=machines, jobs=tuple(jobs))
    return check_instance(instance, ValueError, f"{path}: invalid instance")


def _json_int(value: object, what: str) -> int:
    # int() would truncate 2.7 to 2; it and float() would read true as 1 and "5" as 5.
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_float(value: object, what: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a JSON number, got {json.dumps(value)}")
    return float(value)
