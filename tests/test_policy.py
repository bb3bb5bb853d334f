import ast
import io
import math
import re
from pathlib import Path

import pytest

from commitsched import policy as policy_module
from commitsched.adversary import replay_nonpreemptive, replay_preemptive
from commitsched.cli import build_parser
from commitsched.harness import ExperimentConfig, bound_for_algorithm, random_instance, run, theoretical_bounds
from commitsched.model import ASSERT_LEVELS, TOL, Instance, Job, check_policy_args, drive
from commitsched.nonpreemptive import (
    GreedyAllocator,
    NonpreemptiveResult,
    NonpreemptiveSimulator,
    PartitionedAllocator,
    RandomizedAllocator,
)
from commitsched.policy import ALGORITHM_TABLE, ALGORITHMS, make_policy
from commitsched.preemptive import PreemptiveSimulator, SimulationResult
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


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_decision_is_timed_at_its_release(algorithm):
    # Job 1 is released TOL/2 before job 0, which the clock tolerates; its
    # record still carries its own release, not the later clock.
    inst = Instance(1.0, 1, (Job(0, 1.0, 1.0, 3.0), Job(1, 1.0 - TOL / 2, 1.0, 4.0)))
    result = drive(make_policy(algorithm, 1, 1.0, seed=0), inst)
    assert [r.time for r in result.decisions] == [j.release for j in inst.jobs]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_an_arrival_exactly_tol_after_the_clock_is_decided(algorithm):
    # The arrival check admits a release within TOL of the clock, TOL
    # included.  ``on_arrival`` takes the job at the clock as it stands,
    # where a policy has one; ``submit`` moves a non-preemptive clock first.
    policy = make_policy(algorithm, 1 if algorithm == "alg3-randomized" else 2, 0.5)
    getattr(policy, "on_arrival", policy.submit)(Job(0, 1e-9, 1.0, 3.0))
    assert policy.decisions[0].time == 1e-9
    # A preemptive clock moves only past TOL, a non-preemptive one to the release.
    assert getattr(policy, "clock", 1e-9) == (0.0 if ALGORITHM_TABLE[algorithm].preemptive else 1e-9)


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


@pytest.mark.parametrize("level", [-4, 3, 9, True, 1.0, None])
def test_an_assert_level_outside_the_three_is_an_input_error(level):
    # Each library entry point passes ``check_policy_args`` with its level:
    # the simulator directly, every table row through ``make_policy``, and
    # the harness and the stress replay through it.
    entries = [
        lambda: PreemptiveSimulator(2, 0.5, level),
        lambda: run(ExperimentConfig("alg1+2", m=2, epsilon=0.5, n=5, assert_level=level)),
        lambda: replay_preemptive(2, 0.5, assert_level=level),
    ] + [lambda algorithm=algorithm: make_policy(algorithm, 1, 0.5, level) for algorithm in ALGORITHMS]
    for entry in entries:
        with pytest.raises(ValueError, match="assert_level="):
            entry()
    with pytest.raises(ValueError, match="assert_level="):
        check_policy_args(1, None, level)
    for level in ASSERT_LEVELS:
        PreemptiveSimulator(2, 0.5, level)
        assert run(ExperimentConfig("alg1+2", m=2, epsilon=0.5, n=5, assert_level=level))[1]


@pytest.mark.parametrize(
    "function",
    [f_threshold, theoretical_bounds, lambda m, eps: random_instance(3, m, eps, seed=0)],
    ids=["f_threshold", "theoretical_bounds", "random_instance"],
)
def test_closed_forms_and_generator_share_the_argument_check(function):
    for m, eps in ((0, 0.5), (2.5, 0.5), (True, 0.5), (2, math.nan), (2, math.inf), (2, 0.0)):
        with pytest.raises(ValueError, match="machines|epsilon"):
            function(m, eps)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_row_finishes_with_its_family_result(algorithm):
    family = SimulationResult if ALGORITHM_TABLE[algorithm].preemptive else NonpreemptiveResult
    assert type(make_policy(algorithm, 1, 0.5).finish()) is family
    assert type(_run(algorithm)[1]) is family


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_adversary_choices_are_the_rows_with_a_stress_game(algorithm):
    argv = ["adversary", "--alg", algorithm]
    if ALGORITHM_TABLE[algorithm].stress:
        assert build_parser().parse_args(argv).alg == algorithm
    else:
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_each_stress_game_replays_exactly_the_rows_of_its_family(algorithm):
    row = ALGORITHM_TABLE[algorithm]
    for preemptive, replay in ((True, replay_preemptive), (False, replay_nonpreemptive)):
        if row.stress and row.preemptive == preemptive:
            assert replay(1, 0.5, 0.25, algorithm).alg_volume > 0
        else:
            with pytest.raises(ValueError, match="unsupported"):
                replay(1, 0.5, 0.25, algorithm)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize(
    "m,eps", [(1, 0.5), (2, 1.0), (4, 1.0 / (math.e**2 - 1.0))], ids=["m1", "m2", "m4-partitioned"]
)
def test_every_guarantee_is_a_bound_table_key(algorithm, m, eps):
    key = ALGORITHM_TABLE[algorithm].guarantee
    bounds = theoretical_bounds(m, eps)
    assert key is None or key in bounds
    if key is None or bounds[key] is None:
        assert bound_for_algorithm(algorithm, m, eps) == (None, "none")
    else:
        assert bound_for_algorithm(algorithm, m, eps) == (bounds[key], key)


def test_no_module_but_policy_spells_an_algorithm_name():
    # A parameter default or a CLI ``default=`` may name an algorithm; any
    # other literal would copy a fact that belongs to the table in ``policy``.
    found = []
    for path in sorted(Path(policy_module.__file__).parent.glob("*.py")):
        if path.name == "policy.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defaults = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments):
                defaults.update(map(id, node.defaults + [d for d in node.kw_defaults if d is not None]))
            elif isinstance(node, ast.keyword) and node.arg == "default":
                defaults.add(id(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in ALGORITHMS and id(node) not in defaults:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package, ``__init__`` aside, with the package
    modules it imports anywhere: inside functions and under ``TYPE_CHECKING`` too."""
    graph = {}
    for path in sorted(Path(policy_module.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # Absolute names: ``from . import policy`` imports commitsched.policy.
                base = ("commitsched" + (f".{node.module}" if node.module else "")) if node.level else node.module
                names = [f"{base}.{alias.name}" for alias in node.names] if base == "commitsched" else [base]
            else:
                continue
            targets.update(name.split(".")[1] for name in names if name.startswith("commitsched."))
        graph[path.stem] = targets
    return graph


def test_package_imports_form_layers():
    graph = _package_imports()
    assert set(graph) >= {"model", "vmin", "preemptive", "nonpreemptive", "oracle", "policy", "cli"}
    # The simulation layers import nothing of the table, the stress games or the front ends.
    upper = {"policy", "adversary", "harness", "cli"}
    for module in ("model", "vmin", "preemptive", "nonpreemptive", "oracle"):
        assert graph[module].isdisjoint(upper), (module, graph[module] & upper)
    # No cycle: repeatedly drop the modules that import no remaining module.
    remaining = dict(graph)
    while remaining:
        leaves = [name for name, targets in remaining.items() if not targets & remaining.keys()]
        assert leaves, f"import cycle among {sorted(remaining)}"
        for name in leaves:
            del remaining[name]


#: Library names that no code in ``src/`` refers to, each with the reason it stays.
UNREFERENCED = {
    "preemptive.simulate_preemptive": "benchmarks/ API: bench.py runs alg1+2 through it",
    "preemptive.greedy_preemptive": "benchmarks/ API: bench.py runs greedy-p through it",
    "nonpreemptive.simulate_nonpreemptive": "benchmarks/ API: bench.py runs alg3 through it",
    "nonpreemptive.simulate_partitioned": "benchmarks/ API: bench.py and spans.LAYER_FUNCTIONS",
    "nonpreemptive.simulate_randomized_single": "benchmarks/ API: bench.py and spans.LAYER_FUNCTIONS",
    "nonpreemptive.greedy_nonpreemptive": "benchmarks/ API: bench.py and spans.LAYER_FUNCTIONS",
    "nonpreemptive.d_lim": "benchmarks/ API: spans.LAYER_FUNCTIONS wraps it",
    "oracle.max_prefix_work": "the criterion 6 oracle (tests/test_acceptance.py)",
    "nonpreemptive.randomized_single_parts": "criterion 10; known defect 4 gives it a caller or removes it",
}


def test_library_names_without_a_caller_in_src_are_listed():
    # Every module-level def, class or constant that no Name or Attribute in
    # src/ loads, ``__init__`` aside: new dead code fails here.
    defined, loaded = set(), set()
    for path in sorted(Path(policy_module.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((path.stem, t.id) for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unreferenced = {f"{module}.{name}" for module, name in defined if name not in loaded}
    assert sorted(unreferenced) == sorted(UNREFERENCED)


def _src_nodes_by_scope():
    """(module, enclosing function or "<module>", node) for every node of
    every module in the package."""
    for path in sorted(Path(policy_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents.get(scope)
            yield path.stem, scope.name if scope else "<module>", node


def test_generate_plan_is_the_only_caller_of_lrpt_assign():
    # lrpt_assign stops at the first idle instant, which is where the plan
    # window ends; a caller that needs the whole window would lose segments.
    callers = set()
    for module, scope, node in _src_nodes_by_scope():
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name == "lrpt_assign":
            callers.add(f"{module}.{scope}")
    assert callers == {"preemptive.generate_plan"}


def test_the_live_set_record_and_the_plan_are_written_in_three_places():
    # The preemptive simulator keeps one record of the live set: the instant
    # the last event left, and the plan, None while it is pending.  Only the
    # constructor, the one exit step of every event and the ``plan``
    # property, which builds a pending plan, write them.
    writers = set()
    for module, scope, node in _src_nodes_by_scope():
        if isinstance(node, ast.Attribute) and node.attr in ("_instant", "_plan") and not isinstance(node.ctx, ast.Load):
            writers.add((f"{module}.{scope}", node.attr))
    assert writers == {
        ("preemptive.__init__", "_instant"),
        ("preemptive.__init__", "_plan"),
        ("preemptive._settle", "_instant"),
        ("preemptive._settle", "_plan"),
        ("preemptive.plan", "_plan"),
    }


def test_only_vmin_builds_curve_objects():
    # The invariant checks walk curves as (breakpoints, values, slopes)
    # tuples; a PiecewiseLinear is built only where vmin makes a curve.
    builders = set()
    for module, scope, node in _src_nodes_by_scope():
        if isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if name == "PiecewiseLinear":
                builders.add(f"{module}.{scope}")
    assert builders == {"vmin.v_min_curve", "vmin.extend_curve", "vmin.v_shape_curve"}


def test_no_builtin_sum_over_floats_in_src():
    # From CPython 3.12 builtin sum adds floats with compensation, so a float
    # sum would tie outputs to the interpreter; float reductions go through
    # model.ordered_sum.  These two sums count ints.
    allowed = {
        ("adversary.py", "sum(map(len, blocks))"),
        ("cli.py", "sum(r.opt_volume is None for r in rows)"),
    }
    found = set()
    for path in sorted(Path(policy_module.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "sum":
                use = called.get(id(node), node)
                found.add((path.name, ast.get_source_segment(text, use)))
    assert found == allowed
