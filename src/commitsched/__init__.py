"""Online deadline scheduling with admission commitment.

Simulators for preemptive (lazy-threshold) and non-preemptive
(load-threshold) admission policies on identical machines, adaptive
stress generators matching the known worst-case bounds, exact
small-instance oracles, and a competitive-ratio experiment harness.
"""

from .model import (
    CommittedStart,
    DecisionLog,
    DecisionRecord,
    Instance,
    InvariantError,
    Job,
    NonpreemptiveResult,
    Policy,
    Schedule,
    Segment,
    SimulationResult,
    Violation,
    drive,
    read_instance,
    validate_instance,
    verify_schedule,
    write_instance,
)
from .vmin import ActiveJob, PiecewiseLinear, f_threshold, horn_feasible, v_min, v_min_curve
from .preemptive import (
    PlanWindow,
    PreemptiveSimulator,
    generate_plan,
    greedy_preemptive,
    lrpt_assign,
    simulate_preemptive,
    solve_dmin,
)
from .nonpreemptive import (
    GreedyAllocator,
    NonpreemptiveSimulator,
    PartitionedAllocator,
    RandomizedAllocator,
    d_lim,
    greedy_nonpreemptive,
    simulate_nonpreemptive,
    simulate_partitioned,
    simulate_randomized_single,
)
from .policy import ALGORITHM_TABLE, ALGORITHMS, make_policy
from .adversary import (
    StressOutcome,
    replay_nonpreemptive,
    replay_preemptive,
    solve_c_lower,
    strengthened_preemptive_bound,
)
from .harness import (
    ExperimentConfig,
    RatioRow,
    random_instance,
    run,
    theoretical_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
