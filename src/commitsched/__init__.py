"""Online deadline scheduling with admission commitment.

Simulators for preemptive (lazy-threshold) and non-preemptive
(load-threshold) admission policies on identical machines, adaptive
stress generators matching the known worst-case bounds, exact
small-instance oracles, and a competitive-ratio experiment harness.
"""

from .model import (
    DecisionLog,
    DecisionRecord,
    Instance,
    InvariantError,
    Job,
    Schedule,
    Segment,
    Violation,
    read_instance,
    utilization,
    validate_instance,
    verify_schedule,
    write_instance,
)
from .vmin import ActiveJob, PiecewiseLinear, f_threshold, horn_feasible, v_min, v_min_curve, v_shape
from .preemptive import (
    PlanWindow,
    PreemptiveSimulator,
    SimulationResult,
    generate_plan,
    greedy_preemptive,
    lrpt_assign,
    simulate_preemptive,
    solve_dmin,
)
from .nonpreemptive import (
    CommittedStart,
    GreedyAllocator,
    NonpreemptiveResult,
    NonpreemptiveSimulator,
    PartitionedAllocator,
    RandomizedAllocator,
    d_lim,
    greedy_nonpreemptive,
    simulate_nonpreemptive,
    simulate_partitioned,
    simulate_randomized_single,
)
from .policy import ALGORITHMS, Policy, drive, make_policy
from .adversary import (
    StressOutcome,
    replay_nonpreemptive,
    replay_preemptive,
    solve_c_lower,
    strengthened_preemptive_bound,
)
from .oracle import flow_feasible, max_prefix_work, opt_nonpreemptive, opt_preemptive
from .harness import (
    ExperimentConfig,
    RatioRow,
    random_instance,
    run,
    theoretical_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
