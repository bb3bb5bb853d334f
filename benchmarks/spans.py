"""Timing spans around the public functions of commitsched's layers.

A traced run patches every function listed in ``LAYER_FUNCTIONS`` with a
wrapper that records one span per call: name, start, end, parent span and
run id.  A function is patched under every name a ``commitsched`` module
holds it by, so ``commitsched.preemptive.v_min_curve`` is traced as well as
``commitsched.vmin.v_min_curve``; simulator methods are patched on their
class.  ``Tracer.installed`` restores every original on exit; an untraced run
installs no wrapper.

Spans are kept in compact in-memory arrays and written once, when the run
ends.  A span's self time is its duration minus the durations of its
direct children, which is the part of its interval no child covers,
because children of one span never overlap (the program is
single-threaded).
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

#: (span name, module, attribute).  ``Class.method`` attributes are patched
#: on the class; plain functions under every name that holds them.
LAYER_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("model.validate_instance", "commitsched.model", "validate_instance"),
    ("model.verify_schedule", "commitsched.model", "verify_schedule"),
    ("vmin.v_min_curve", "commitsched.vmin", "v_min_curve"),
    ("vmin.v_min", "commitsched.vmin", "v_min"),
    ("vmin.horn_feasible", "commitsched.vmin", "horn_feasible"),
    ("preemptive.solve_dmin", "commitsched.preemptive", "solve_dmin"),
    ("preemptive.generate_plan", "commitsched.preemptive", "generate_plan"),
    ("preemptive.lrpt_assign", "commitsched.preemptive", "lrpt_assign"),
    ("preemptive.wrap_fill", "commitsched.preemptive", "wrap_fill"),
    ("preemptive.active_jobs", "commitsched.preemptive", "PreemptiveSimulator.active_jobs"),
    ("preemptive.accepted_volume", "commitsched.preemptive", "PreemptiveSimulator.accepted_volume"),
    ("preemptive.advance_to", "commitsched.preemptive", "PreemptiveSimulator.advance_to"),
    ("preemptive.on_arrival", "commitsched.preemptive", "PreemptiveSimulator.on_arrival"),
    ("preemptive.check_invariants", "commitsched.preemptive", "PreemptiveSimulator.check_invariants"),
    ("preemptive.finish", "commitsched.preemptive", "PreemptiveSimulator.finish"),
    ("nonpreemptive.d_lim", "commitsched.nonpreemptive", "d_lim"),
    ("nonpreemptive.advance_to", "commitsched.nonpreemptive", "NonpreemptiveSimulator.advance_to"),
    ("nonpreemptive.on_arrival", "commitsched.nonpreemptive", "NonpreemptiveSimulator.on_arrival"),
    ("nonpreemptive.simulate_partitioned", "commitsched.nonpreemptive", "simulate_partitioned"),
    ("nonpreemptive.simulate_randomized_single", "commitsched.nonpreemptive", "simulate_randomized_single"),
    ("nonpreemptive.greedy_nonpreemptive", "commitsched.nonpreemptive", "greedy_nonpreemptive"),
    ("oracle.flow_feasible", "commitsched.oracle", "flow_feasible"),
    ("oracle.np_search", "commitsched.oracle", "_np_search"),
    ("oracle.opt_preemptive", "commitsched.oracle", "opt_preemptive"),
    ("oracle.opt_nonpreemptive", "commitsched.oracle", "opt_nonpreemptive"),
    ("adversary.replay_preemptive", "commitsched.adversary", "replay_preemptive"),
    ("adversary.replay_nonpreemptive", "commitsched.adversary", "replay_nonpreemptive"),
    ("adversary.solve_c_lower", "commitsched.adversary", "solve_c_lower"),
    ("harness.random_instance", "commitsched.harness", "random_instance"),
    ("harness.run", "commitsched.harness", "run"),
)

#: Feasibility tests whose share of True results is reported.
TRUTH_COUNTED = ("oracle.flow_feasible", "oracle.np_search")

#: Root spans opened by the benchmark itself around set-up and each operation.
ROOTS = ("bench.setup", "bench.op")


class Tracer:
    """Span recorder; patch the package with ``installed()``."""

    def __init__(self) -> None:
        self.names: list[str] = list(ROOTS) + [name for name, _, _ in LAYER_FUNCTIONS]
        self._ids = array("q")
        self._name_ids = array("H")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._runs = array("q")
        self._stack: list[int] = [-1]
        self._next_id = 0
        self.run_id = 0
        self.true_calls: dict[str, int] = {name: 0 for name in TRUTH_COUNTED}
        # live jobs / accepted-so-far, sampled at each preemptive arrival
        self.live_samples: list[float] = []
        self._want_live = False
        self._live: int | None = None

    # -- recording ------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name_id: int, parent: int, start: float, end: float) -> None:
        self._stack.pop()
        self._ids.append(sid)
        self._name_ids.append(name_id)
        self._parents.append(parent)
        self._starts.append(start)
        self._ends.append(end)
        self._runs.append(self.run_id)

    @contextmanager
    def root(self, name: str, run_id: int) -> Iterator[None]:
        """A benchmark-level span; layer spans opened inside are its children."""
        self.run_id = run_id
        name_id = self.names.index(name)
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name_id, parent, start, perf_counter())

    def _wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self.names.index(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            sid, parent = opened()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                closed(sid, name_id, parent, start, perf_counter())

        if name in TRUTH_COUNTED:

            def counted(*args, **kwargs):
                result = traced(*args, **kwargs)
                if result:
                    self.true_calls[name] += 1
                return result

            return counted
        if name == "preemptive.active_jobs":

            def active_jobs(sim):
                result = traced(sim)
                if self._want_live:
                    self._want_live = False
                    self._live = len(result)
                return result

            return active_jobs
        if name == "preemptive.on_arrival":
            # Both admission rules read the active set first, so the first
            # active_jobs() inside on_arrival is the live set at the arrival.

            def on_arrival(sim, job):
                accepted = len(sim.jobs)
                self._want_live, self._live = True, None
                try:
                    return traced(sim, job)
                finally:
                    self._want_live = False
                    if accepted and self._live is not None:
                        self.live_samples.append(self._live / accepted)

            return on_arrival
        return traced

    # -- patching -------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every listed function for the duration of the block."""
        patches: list[tuple[object, str, object]] = []
        try:
            for name, module_name, attr in LAYER_FUNCTIONS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    patches.append((owner, meth, original))
                    setattr(owner, meth, self._wrap(original, name))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(original, name)
                for holder in _package_modules():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, key, original))
                            setattr(holder, key, wrapped)
            yield
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    # -- analysis -------------------------------------------------------

    def _columns(self) -> dict[str, np.ndarray]:
        n = self._next_id
        if len(self._ids) != n:
            raise RuntimeError(f"{n - len(self._ids)} spans still open")
        ids = np.frombuffer(self._ids, dtype=np.int64)
        cols = {}
        for key, buf, dtype in (
            ("name", self._name_ids, np.uint16),
            ("parent", self._parents, np.int64),
            ("start", self._starts, np.float64),
            ("end", self._ends, np.float64),
            ("run", self._runs, np.int64),
        ):
            col = np.empty(n, dtype=dtype)
            col[ids] = np.frombuffer(buf, dtype=dtype)
            cols[key] = col
        return cols

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time."""
        cols = self._columns()
        n = len(cols["name"])
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(cols["name"], minlength=k)
        total = np.bincount(cols["name"], weights=dur, minlength=k)
        own = np.bincount(cols["name"], weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        """Write every span as columns of an ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self._columns())


def _package_modules() -> list[object]:
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == "commitsched" or key.startswith("commitsched."))
    ]
