"""Estimation on the unit sphere and the replication harness.

With two covariates the unit sphere is a circle. An angular sweep over the
cycles' entry and exit angles makes the criterion a piecewise sinusoid, so its
minimum and the arcs of near-minimal angles come out in closed form; the
estimate is reported as the arc holding the minimizer (the criterion is
set-identified in general, not point-identified).
With more covariates, an active-set iteration does the minimizing over the
sphere: it fixes the set of violated cycles, under which the criterion is a
quadratic form, and jumps to that form's smallest eigenvector, repeating
while the criterion strictly drops. One replication driver, `_replicate`,
repeats seed -> projection -> compression -> estimation over independent
draws for both the circle and the sphere summaries.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._seeds import STREAM_PROJECTION, STREAM_RESTARTS, derive_rng, derive_seed
from .criterion import (
    CircleProfile,
    CriterionEvaluator,
    CycleSet,
    ParamPoint,
    enumerate_cycles,
)
from .data import Dataset
from .errors import PACKAGE_ERRORS, DimensionError, NumericalError, ParameterError
from .projection import ProjectionSpec, apply, generate, resolve_sparsity

TWO_PI = 2.0 * math.pi

# level-set tolerance: floor for exactly-zero criteria, relative band otherwise
_TOL_FLOOR = 1e-12
_TOL_RELATIVE = 1e-6
_CONTAIN_SLACK = 1e-12
# angles of the grid the convergence diagnostic compares criteria on
_DIAGNOSTIC_GRID = 1024

# what a replication records as its failure; anything else is a bug and
# propagates out of the harness
_REPLICATION_ERRORS = (*PACKAGE_ERRORS, np.linalg.LinAlgError)


@dataclass(frozen=True)
class AngleGrid:
    """Criterion values over a uniform angle grid on [0, 2pi)."""

    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if thetas.ndim != 1 or thetas.shape != values.shape:
            raise DimensionError("thetas and values must be equal-length vectors")
        if thetas.size < 8:
            raise ParameterError(f"grid needs at least 8 points, got {thetas.size}")
        if not np.isfinite(values).all() or (values < 0).any():
            raise ParameterError("grid values must be finite and nonnegative")
        thetas.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)


def interval_width(interval) -> float:
    lb, ub = interval
    return (ub - lb) if ub >= lb else (ub - lb + TWO_PI)


def interval_contains_point(interval, theta: float, slack: float = _CONTAIN_SLACK) -> bool:
    lb, _ = interval
    offset = (theta - lb) % TWO_PI
    if offset >= TWO_PI - slack:
        offset = 0.0
    return offset <= interval_width(interval) + slack


def interval_contains_interval(outer, inner, slack: float = _CONTAIN_SLACK) -> bool:
    offset = (inner[0] - outer[0]) % TWO_PI
    if offset >= TWO_PI - slack:
        offset = 0.0
    outer_w = interval_width(outer)
    return offset <= outer_w + slack and offset + interval_width(inner) <= outer_w + slack


def interval_midpoint(interval) -> float:
    return (interval[0] + 0.5 * interval_width(interval)) % TWO_PI


@dataclass(frozen=True)
class IdentifiedSet:
    """Level set {theta : Q(theta) <= q_min + tolerance} as angle intervals.

    Intervals are closed, disjoint, and sorted by lower bound; an interval
    with ub < lb wraps through 2pi. interval_estimate is the arc containing
    the global minimizer, the quantity replications report. A full circle is
    reported as the single interval (0, 2pi).
    """

    intervals: tuple[tuple[float, float], ...]
    q_min: float
    tolerance: float
    argmin: float
    interval_estimate: tuple[float, float]
    full_circle: bool = False

    def contains(self, theta: float, slack: float = _CONTAIN_SLACK) -> bool:
        if self.full_circle:
            return True
        return any(interval_contains_point(iv, theta, slack) for iv in self.intervals)

    def covers_interval(self, interval, slack: float = _CONTAIN_SLACK) -> bool:
        if self.full_circle:
            return True
        return any(
            interval_contains_interval(iv, interval, slack) for iv in self.intervals
        )

    def to_dict(self) -> dict:
        return {
            "intervals": [[float(a), float(b)] for a, b in self.intervals],
            "q_min": float(self.q_min),
            "tolerance": float(self.tolerance),
            "argmin": float(self.argmin),
            "interval_estimate": [float(x) for x in self.interval_estimate],
            "full_circle": self.full_circle,
        }


def estimate_polar_grid(
    data, cycles: CycleSet, grid_size: int = 2000, refine: int = 10
) -> tuple[AngleGrid, IdentifiedSet]:
    """Minimize the criterion over the circle and extract the identified set.

    An angular sweep (`CircleProfile`) makes the criterion a piecewise
    sinusoid, so q_min, the argmin and every arc of the level set
    {Q <= q_min + tolerance} come out in closed form, with tolerance
    max(1e-12, 1e-6 * max Q). The returned grid holds Q at `grid_size`
    uniform angles, for plotting only. `refine` is validated but changes
    nothing: the arcs are exact, with no refinement pass left to tune. It
    stays while the benchmark replay (bench/replay.py) passes it.
    """
    if getattr(data, "b") != 2:
        raise DimensionError(
            "the circle estimate needs exactly 2 covariates; use estimate_subgradient"
        )
    if grid_size < 8:
        raise ParameterError(f"grid_size must be at least 8, got {grid_size}")
    if refine < 1:
        raise ParameterError(f"refine must be at least 1, got {refine}")

    profile = CircleProfile(CriterionEvaluator(data, cycles).D)
    thetas = np.arange(grid_size) * (TWO_PI / grid_size)
    grid = AngleGrid(thetas, profile.values(thetas))

    q_min, argmin = profile.minimum()
    tolerance = max(_TOL_FLOOR, _TOL_RELATIVE * profile.max_value)
    arcs = profile.level_set(q_min + tolerance)
    if arcs == ((0.0, TWO_PI),):
        # flat criterion: every direction is as good as any other
        return grid, IdentifiedSet(
            intervals=arcs,
            q_min=q_min,
            tolerance=tolerance,
            argmin=0.0,
            interval_estimate=arcs[0],
            full_circle=True,
        )
    estimate = next((arc for arc in arcs if interval_contains_point(arc, argmin)), None)
    if estimate is None:
        raise NumericalError(f"the minimizer {argmin!r} lies in no arc of the level set")
    return grid, IdentifiedSet(
        intervals=arcs,
        q_min=q_min,
        tolerance=tolerance,
        argmin=argmin,
        interval_estimate=estimate,
        full_circle=False,
    )


@dataclass(frozen=True)
class SphereDescentResult:
    point: ParamPoint
    value: float
    restart_values: tuple[float, ...]

    @property
    def beta(self) -> np.ndarray:
        return self.point.beta


def estimate_subgradient(
    data,
    cycles: CycleSet,
    restarts: int = 20,
    steps: int = 5000,
    seed: int = 0,
    initial=None,
) -> SphereDescentResult:
    """Minimize the criterion over the unit sphere by active-set eigen steps.

    With residuals r = D beta, Q(beta) = ||D_A beta||^2 where A is the set of
    violated cycles (r > 0). Each step fixes A at the current iterate and
    moves to the minimizer of ||D_A v||^2 over the sphere: the eigenvector of
    D_A' D_A for its smallest eigenvalue, with whichever sign gives the lower
    Q. A step is accepted only when Q strictly drops, so a restart ends once
    no step improves (there are finitely many active sets) or after `steps`
    steps. Each restart starts from a uniform sphere draw (the first uses
    `initial` when given); the best iterate over all restarts is returned.
    Stops early once a restart reaches Q = 0, the global minimum.

    The name is kept for API stability: the method replaced a projected
    subgradient walk, whose step-size schedule it no longer needs.
    """
    if restarts < 1 or steps < 1:
        raise ParameterError("restarts and steps must be positive")
    evaluator = CriterionEvaluator(data, cycles)
    b = evaluator.b
    D = evaluator.D
    rng = derive_rng(seed, STREAM_RESTARTS)

    def random_start() -> np.ndarray:
        while True:
            v = rng.standard_normal(b)
            norm = float(np.linalg.norm(v))
            if norm > 1e-12:
                return v / norm

    def violation(residuals: np.ndarray, restart: int, step: int) -> float:
        viol = np.maximum(residuals, 0.0)
        value = float(viol @ viol)
        if not math.isfinite(value):
            raise NumericalError(f"non-finite criterion at restart {restart}, step {step}")
        return value

    best_value = math.inf
    best_beta: np.ndarray | None = None
    restart_values: list[float] = []

    for restart in range(restarts):
        if initial is not None and restart == 0:
            beta = np.asarray(initial, dtype=np.float64)
            norm = float(np.linalg.norm(beta))
            if beta.shape != (b,) or norm == 0.0:
                raise ParameterError(f"initial point must be a nonzero vector of length {b}")
            beta = beta / norm
        else:
            beta = random_start()

        residuals = D @ beta
        value = violation(residuals, restart, 0)
        for step in range(1, steps + 1):
            if value == 0.0:
                break
            active = D[residuals > 0.0]
            _, vectors = np.linalg.eigh(active.T @ active)
            v = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
            r_v = D @ v
            q_plus = violation(r_v, restart, step)
            q_minus = violation(-r_v, restart, step)
            if q_minus < q_plus:
                v, r_v, q_plus = -v, -r_v, q_minus
            if not q_plus < value:
                break
            beta, residuals, value = v, r_v, q_plus
        restart_values.append(value)
        if value < best_value:
            best_value, best_beta = value, beta
        if best_value == 0.0:
            break

    assert best_beta is not None
    return SphereDescentResult(
        point=ParamPoint(best_beta),
        value=best_value,
        restart_values=tuple(restart_values),
    )


@dataclass(frozen=True)
class ReplicationRecord:
    index: int
    lb: float = math.nan
    ub: float = math.nan
    theta_hat: float = math.nan
    q_min: float = math.nan
    wrapped: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "lb": self.lb,
            "ub": self.ub,
            "theta_hat": self.theta_hat,
            "q_min": self.q_min,
            "wrapped": self.wrapped,
            "error": self.error,
        }


@dataclass(frozen=True)
class ReplicationSummary:
    """Interval statistics across projection replications.

    Quantiles use linear interpolation on order statistics (numpy's default,
    quantile type 7); dispersion is the population standard deviation, which
    degrades gracefully to 0 for a single replication.
    """

    design_label: str
    k: int
    s: float
    replications: int
    records: tuple[ReplicationRecord, ...]
    unprojected_set: IdentifiedSet
    unprojected_grid: AngleGrid = field(repr=False)
    mean_lb: float = math.nan
    sd_lb: float = math.nan
    mean_ub: float = math.nan
    sd_ub: float = math.nan
    q25_lb: float = math.nan
    q75_ub: float = math.nan
    min_lb: float = math.nan
    max_ub: float = math.nan
    mean_theta: float = math.nan
    sd_theta: float = math.nan
    nested_count: int = 0
    failures: int = 0

    @property
    def lb(self) -> np.ndarray:
        return np.array([r.lb for r in self.records if r.ok])

    @property
    def ub(self) -> np.ndarray:
        return np.array([r.ub for r in self.records if r.ok])

    @property
    def theta_hat(self) -> np.ndarray:
        return np.array([r.theta_hat for r in self.records if r.ok])

    @property
    def successes(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def nested_fraction(self) -> float:
        good = self.successes
        return self.nested_count / good if good else math.nan

    def to_dict(self) -> dict:
        return {
            "design": self.design_label,
            "k": self.k,
            "s": self.s,
            "replications": self.replications,
            "summary": {
                "mean_lb": self.mean_lb,
                "sd_lb": self.sd_lb,
                "mean_ub": self.mean_ub,
                "sd_ub": self.sd_ub,
                "q25_lb": self.q25_lb,
                "q75_ub": self.q75_ub,
                "min_lb": self.min_lb,
                "max_ub": self.max_ub,
                "mean_theta": self.mean_theta,
                "sd_theta": self.sd_theta,
                "nested_count": self.nested_count,
                "nested_fraction": self.nested_fraction,
                "failures": self.failures,
            },
            "unprojected": self.unprojected_set.to_dict(),
            "records": [r.to_dict() for r in self.records],
        }


def _compress(data, k: int, s: float, master_seed: int, *key: int):
    """Compress `data` with the projection drawn from seed path (master_seed, key)."""
    spec = ProjectionSpec(
        k=k, d=data.d, s=s, seed=derive_seed(master_seed, STREAM_PROJECTION, *key)
    )
    return apply(generate(spec), data)


def _check_replications(data, k: int, s, replications: int, threads: int) -> float:
    """Validate a replication run up front; return the resolved sparsity."""
    if replications < 1:
        raise ParameterError("replications must be at least 1")
    if threads < 1:
        raise ParameterError("threads must be at least 1")
    s_resolved = resolve_sparsity(s, data.d)
    # fail fast on structurally impossible specs instead of logging R failures
    ProjectionSpec(k=k, d=data.d, s=s_resolved, seed=0)
    return s_resolved


def _replicate(data, k: int, s: float, replications: int, master_seed: int, threads: int,
               solve) -> list:
    """Run solve(r, compressed) for r = 0 .. R-1 on a pool of `threads` threads.

    Replication r's projection is seeded from (master_seed, r) alone, so
    results are identical whatever the thread count. Returns, in order,
    (result, None), or (None, "Type: message") when the replication raised
    one of the package's errors or a LinAlgError; anything else propagates.
    """

    def one(r: int):
        try:
            return solve(r, _compress(data, k, s, master_seed, r)), None
        except _REPLICATION_ERRORS as exc:
            return None, f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(replications)))


def run_replications(
    data,
    k: int,
    s,
    replications: int,
    master_seed: int,
    cycle_lengths=(2, 3),
    grid_size: int = 2000,
    threads: int = 1,
    design_label: str = "",
) -> ReplicationSummary:
    """Repeat (draw projection, compress, sweep the circle) and summarize.

    Replications run through `_replicate`: a failed replication is marked
    failed and excluded from the statistics rather than aborting the run.
    """
    if data.b != 2:
        raise DimensionError("run_replications reports angle intervals; needs b = 2")
    s_resolved = _check_replications(data, k, s, replications, threads)
    cycles = enumerate_cycles(data.n, cycle_lengths)

    grid0, unprojected = estimate_polar_grid(data, cycles, grid_size)

    def solve(r: int, compressed) -> ReplicationRecord:
        _, idset = estimate_polar_grid(compressed, cycles, grid_size)
        lb, ub = idset.interval_estimate
        return ReplicationRecord(
            index=r,
            lb=lb,
            ub=ub,
            theta_hat=interval_midpoint((lb, ub)),
            q_min=idset.q_min,
            wrapped=ub < lb,
        )

    records = tuple(
        record if error is None else ReplicationRecord(index=r, error=error)
        for r, (record, error) in enumerate(
            _replicate(data, k, s_resolved, replications, master_seed, threads, solve)
        )
    )

    good = [r for r in records if r.ok]
    lbs = np.array([r.lb for r in good])
    ubs = np.array([r.ub for r in good])
    thetas = np.array([r.theta_hat for r in good])
    nested = sum(
        1 for r in good if unprojected.covers_interval((r.lb, r.ub))
    )

    def _stat(fn, arr):
        return float(fn(arr)) if arr.size else math.nan

    return ReplicationSummary(
        design_label=design_label or f"d{data.d}k{k}",
        k=k,
        s=s_resolved,
        replications=replications,
        records=records,
        unprojected_set=unprojected,
        unprojected_grid=grid0,
        mean_lb=_stat(np.mean, lbs),
        sd_lb=_stat(np.std, lbs),
        mean_ub=_stat(np.mean, ubs),
        sd_ub=_stat(np.std, ubs),
        q25_lb=_stat(lambda a: np.quantile(a, 0.25, method="linear"), lbs),
        q75_ub=_stat(lambda a: np.quantile(a, 0.75, method="linear"), ubs),
        min_lb=_stat(np.min, lbs),
        max_ub=_stat(np.max, ubs),
        mean_theta=_stat(np.mean, thetas),
        sd_theta=_stat(np.std, thetas),
        nested_count=nested,
        failures=len(records) - len(good),
    )


@dataclass(frozen=True)
class CoefficientReplicationSummary:
    """Per-coefficient spread across projection replications (b != 2 path)."""

    design_label: str
    k: int
    s: float
    replications: int
    betas: np.ndarray
    values: np.ndarray
    failures: tuple[tuple[int, str], ...]

    def to_dict(self) -> dict:
        med = np.median(self.betas, axis=0) if self.betas.size else np.array([])
        q25 = (
            np.quantile(self.betas, 0.25, axis=0, method="linear")
            if self.betas.size
            else np.array([])
        )
        q75 = (
            np.quantile(self.betas, 0.75, axis=0, method="linear")
            if self.betas.size
            else np.array([])
        )
        return {
            "design": self.design_label,
            "k": self.k,
            "s": self.s,
            "replications": self.replications,
            "summary": {
                "median": med.tolist(),
                "q25": q25.tolist(),
                "q75": q75.tolist(),
                "mean_value": float(self.values.mean()) if self.values.size else math.nan,
                "failures": len(self.failures),
            },
            "betas": self.betas.tolist(),
            "errors": [list(f) for f in self.failures],
        }


def run_coefficient_replications(
    data: Dataset,
    k: int,
    s,
    replications: int,
    master_seed: int,
    cycle_lengths=(2, 3),
    restarts: int = 20,
    steps: int = 5000,
    threads: int = 1,
    design_label: str = "",
) -> CoefficientReplicationSummary:
    """Replication harness for b != 2: the active-set sphere solver
    (`estimate_subgradient`) instead of the exact circle sweep.

    Failures are recorded as in `run_replications`.
    """
    s_resolved = _check_replications(data, k, s, replications, threads)
    cycles = enumerate_cycles(data.n, cycle_lengths)

    def solve(r: int, compressed) -> SphereDescentResult:
        return estimate_subgradient(
            compressed,
            cycles,
            restarts=restarts,
            steps=steps,
            seed=derive_seed(master_seed, STREAM_RESTARTS, r),
        )

    results = _replicate(data, k, s_resolved, replications, master_seed, threads, solve)
    good = [result for result, error in results if error is None]
    return CoefficientReplicationSummary(
        design_label=design_label or f"d{data.d}k{k}",
        k=k,
        s=s_resolved,
        replications=replications,
        betas=np.array([g.beta for g in good]) if good else np.empty((0, data.b)),
        values=np.array([g.value for g in good]),
        failures=tuple((r, error) for r, (_, error) in enumerate(results) if error is not None),
    )


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Sup-gap between compressed and uncompressed criteria as k grows.

    Gaps compare per-cycle-normalized criteria over a shared angle grid:
    gap = max_theta |Qtilde(theta) - Q(theta)| / (number of cycles).
    """

    k_values: tuple[int, ...]
    mean_gaps: tuple[float, ...]
    gaps: np.ndarray
    strictly_decreasing: bool
    decreasing_pairs: int

    def to_dict(self) -> dict:
        return {
            "k_values": list(self.k_values),
            "mean_gaps": list(self.mean_gaps),
            "gaps": self.gaps.tolist(),
            "strictly_decreasing": self.strictly_decreasing,
            "decreasing_pairs": self.decreasing_pairs,
        }


def convergence_diagnostic(
    data: Dataset,
    k_values,
    s,
    draws: int,
    master_seed: int,
    cycle_lengths=(2, 3),
) -> ConvergenceDiagnostic:
    """Average sup-grid criterion gap per k, over independent projection draws.

    Criteria on the shared grid of 1024 angles come from each dataset's
    circle profile.
    """
    if data.b != 2:
        raise DimensionError("the diagnostic compares angle grids; needs b = 2")
    if draws < 1:
        raise ParameterError("draws must be at least 1")
    k_values = tuple(int(k) for k in k_values)
    if not k_values:
        raise ParameterError("no k values given")
    s_resolved = resolve_sparsity(s, data.d)
    cycles = enumerate_cycles(data.n, cycle_lengths)
    m = len(cycles)
    thetas = np.arange(_DIAGNOSTIC_GRID) * (TWO_PI / _DIAGNOSTIC_GRID)
    base = CircleProfile(CriterionEvaluator(data, cycles).D).values(thetas) / m

    gaps = np.empty((len(k_values), draws))
    for ki, k in enumerate(k_values):
        for draw in range(draws):
            compressed = _compress(data, k, s_resolved, master_seed, ki, draw)
            projected = CircleProfile(CriterionEvaluator(compressed, cycles).D).values(thetas) / m
            gaps[ki, draw] = float(np.abs(projected - base).max())

    means = gaps.mean(axis=1)
    decreasing = sum(
        1 for i in range(len(k_values) - 1) if means[i + 1] < means[i]
    )
    return ConvergenceDiagnostic(
        k_values=k_values,
        mean_gaps=tuple(float(g) for g in means),
        gaps=gaps,
        strictly_decreasing=(decreasing == len(k_values) - 1),
        decreasing_pairs=decreasing,
    )


def write_grid_csv(grid: AngleGrid, path: str) -> None:
    """Angle grid as two-column CSV for plotting."""
    with open(path, "w") as fh:
        fh.write("theta,value\n")
        for theta, value in zip(grid.thetas, grid.values):
            fh.write(f"{float(theta)!r},{float(value)!r}\n")
