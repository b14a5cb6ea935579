"""stalefl: a deterministic simulator for federated averaging under
heterogeneous client participation, with fresh/stale aggregation rules,
convergence-bound evaluators, and a worst-case lower-bound construction."""

__version__ = "0.1.0"

from .aggregation import (
    AggregatorConfig,
    fedavg_biased,
    fedstale,
    memory_error,
    refresh_memory,
    u_fedavg,
    u_fedvarp,
)
from .engine import (
    GridResult,
    RepeatedResult,
    RoundRecord,
    RunResult,
    TrainConfig,
    horizon_for,
    run,
    run_batch,
    run_grid,
    run_repeated,
    two_group_prob_for_ratio,
    write_metrics_csv,
)
from .local_solver import (
    DivergenceError,
    LocalConfig,
    local_train,
)
from .objectives import (
    GLOBAL,
    Objective,
    ObjectiveStats,
    QuadraticObjective,
    SoftmaxObjective,
    SyntheticDataset,
    build_label_swap_dataset,
    estimate_stats,
)
from .participation import (
    ParticipationProfile,
    estimated_probs,
    estimated_weight_blocks,
    make_two_group_profile,
    sample_round,
)
from .theory import (
    BoundBreakdown,
    BoundInputs,
    ConstraintReport,
    HardInstance,
    beta_star,
    check_lr_constraints,
    expected_frontier_cap,
    fastest_schedule,
    frontier_bound,
    frontier_gradient_floor,
    lower_bound_curve,
    theorem1_bound,
    track_frontier,
)
