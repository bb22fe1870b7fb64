"""Random-projection estimation of multinomial choice models with many choices.

Pipeline: load or simulate market share data (`data`, `simulate`), compress
the d-dimensional choice axis with a sparse random projection (`projection`),
score candidate coefficient directions by their squared violations of cycle
inequalities (`criterion`), and report minimizing directions or angle
intervals with replication statistics (`estimate`). The `cli` module wires
the same steps into reproducible batch runs.
"""

from .criterion import (
    CircleProfile,
    CriterionEvaluator,
    CycleSet,
    ParamPoint,
    criterion,
    cross_moments,
    cycle_residual_dot,
    cycle_residual_euclid,
    enumerate_cycles,
)
from .data import (
    CsvSchema,
    Dataset,
    Market,
    build_outside_option,
    exact_unit_sum,
    load_csv,
    save_metadata,
    write_csv,
)
from .errors import (
    DimensionError,
    InfeasibleError,
    NumericalError,
    ParameterError,
    ParseError,
    ValidationError,
)
from .estimate import (
    AngleGrid,
    ConvergenceDiagnostic,
    IdentifiedSet,
    ReplicationSummary,
    SphereDescentResult,
    convergence_diagnostic,
    estimate_polar_grid,
    estimate_subgradient,
    run_coefficient_replications,
    run_replications,
    write_grid_csv,
)
from .projection import (
    CompressedDataset,
    JlDiagnostic,
    ProjectionSpec,
    SparseProjection,
    apply,
    generate,
    jl_diagnostic,
    predicted_distance_variance,
    resolve_sparsity,
)
from .simulate import (
    ErrorSpec,
    SimConfig,
    compute_shares_mc,
    default_mc_draws,
    draw_covariates,
    logit_oracle_dataset,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AngleGrid",
    "CircleProfile",
    "CompressedDataset",
    "ConvergenceDiagnostic",
    "CriterionEvaluator",
    "CsvSchema",
    "CycleSet",
    "Dataset",
    "DimensionError",
    "ErrorSpec",
    "IdentifiedSet",
    "InfeasibleError",
    "JlDiagnostic",
    "Market",
    "NumericalError",
    "ParamPoint",
    "ParameterError",
    "ParseError",
    "ProjectionSpec",
    "ReplicationSummary",
    "SimConfig",
    "SparseProjection",
    "SphereDescentResult",
    "ValidationError",
    "apply",
    "build_outside_option",
    "compute_shares_mc",
    "convergence_diagnostic",
    "criterion",
    "cross_moments",
    "cycle_residual_dot",
    "cycle_residual_euclid",
    "default_mc_draws",
    "draw_covariates",
    "enumerate_cycles",
    "estimate_polar_grid",
    "estimate_subgradient",
    "exact_unit_sum",
    "generate",
    "jl_diagnostic",
    "load_csv",
    "logit_oracle_dataset",
    "predicted_distance_variance",
    "resolve_sparsity",
    "run_coefficient_replications",
    "run_replications",
    "save_metadata",
    "simulate_dataset",
    "write_csv",
    "write_grid_csv",
]
