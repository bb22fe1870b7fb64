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
    criterion,
    cross_moments,
    enumerate_cycles,
)
from .data import (
    Dataset,
    Market,
    exact_unit_sum,
    load_csv,
    save_metadata,
    write_csv,
)
from .errors import (
    DimensionError,
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
    run_replications,
    write_grid_csv,
)
from .projection import (
    CompressedDataset,
    JlDiagnostic,
    ProjectionSpec,
    apply,
    generate,
    jl_diagnostic,
    predicted_distance_variance,
    resolve_sparsity,
)
from .simulate import (
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
    "CycleSet",
    "Dataset",
    "DimensionError",
    "IdentifiedSet",
    "JlDiagnostic",
    "Market",
    "NumericalError",
    "ParameterError",
    "ParseError",
    "ProjectionSpec",
    "ReplicationSummary",
    "SimConfig",
    "SphereDescentResult",
    "ValidationError",
    "apply",
    "compute_shares_mc",
    "convergence_diagnostic",
    "criterion",
    "cross_moments",
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
    "run_replications",
    "save_metadata",
    "simulate_dataset",
    "write_csv",
    "write_grid_csv",
]
