"""Domain types shared by every simulator: jobs, instances, schedules, decisions.

Time is a plain float.  All comparisons in this package use the absolute
tolerance ``TOL``; instances are expected to be scaled so that processing
times are O(1)-O(10), which keeps that tolerance meaningful.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from math import isfinite
from typing import Iterable, Iterator, Mapping

#: Absolute tolerance for all time/volume comparisons.
TOL = 1e-9

#: Looser tolerance for totals accumulated over many schedule segments.
COMMIT_TOL = 1e-6


class InvariantError(RuntimeError):
    """An internal guarantee of a policy was observed to fail."""


@dataclass(frozen=True)
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
        if self.machines < 1:
            raise ValueError("machine count must be at least 1")
        object.__setattr__(self, "jobs", tuple(self.jobs))

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class Segment:
    """Execution of one job on one machine over [start, end)."""

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

    def work_in(self, t0: float, t1: float) -> float:
        """Total executed volume inside the window [t0, t1)."""
        return sum(
            max(0.0, min(seg.end, t1) - max(seg.start, t0)) for seg in self.segments
        )


@dataclass(frozen=True)
class DecisionRecord:
    """Outcome of one admission decision.

    ``threshold`` is the deadline threshold the job was compared against
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
        self._records: list[DecisionRecord] = list(records)
        self._by_job: dict[int, DecisionRecord] = {r.job: r for r in self._records}

    def add(self, record: DecisionRecord) -> None:
        if record.job in self._by_job:
            raise ValueError(f"duplicate decision for job {record.job}")
        self._records.append(record)
        self._by_job[record.job] = record

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, job_id: int) -> DecisionRecord:
        return self._by_job[job_id]

    def accepted_ids(self) -> list[int]:
        return [r.job for r in self._records if r.accepted]


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


def utilization(source: "DecisionLog | Schedule", instance: Instance) -> float:
    """Total processing time of accepted jobs (the objective value).

    Accepts either a decision log or a schedule; in the latter case the
    jobs appearing in the schedule are the accepted ones (committed jobs
    always run to completion).
    """
    by_id = {job.id: job for job in instance.jobs}
    if isinstance(source, Schedule):
        return sum(by_id[j].processing for j in source.per_job_total())
    return sum(by_id[j].processing for j in source.accepted_ids())


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
        if seg.end <= seg.start + TOL and seg.end <= seg.start:
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

    Slack factors above 1 are accepted with a warning; the closed-form
    ratio guarantees reported elsewhere assume epsilon <= 1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty instance file")
    header = json.loads(lines[0])
    try:
        epsilon = float(header["epsilon"])
        machines = int(header["machines"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header line") from exc
    jobs = []
    for i, line in enumerate(lines[1:]):
        rec = json.loads(line)
        try:
            jobs.append(Job(int(rec["id"]), float(rec["r"]), float(rec["p"]), float(rec["d"])))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{path}: malformed job line {i + 2}") from exc
    if [j.id for j in jobs] != list(range(len(jobs))):
        raise ValueError(f"{path}: job ids must be 0..n-1 in sequence order")
    if epsilon > 1.0:
        warnings.warn(f"{path}: epsilon={epsilon} > 1; ratio bounds are only reported for epsilon <= 1")
    instance = Instance(epsilon=epsilon, machines=machines, jobs=tuple(jobs))
    problems = validate_instance(instance)
    if problems:
        raise ValueError(f"{path}: invalid instance: " + "; ".join(str(v) for v in problems))
    return instance
