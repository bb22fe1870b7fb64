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
repeats seed -> compression -> estimation over independent draws, with the
estimator picked by the number of covariates, splitting the data once per run
(`projection.ExactSplit`) into exact slices that every replication's
projection multiplies.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._seeds import STREAM_PROJECTION, STREAM_RESTARTS, derive_rng, derive_seed
from .criterion import CircleProfile, CriterionEvaluator, CycleSet, enumerate_cycles
from .data import Dataset
from .errors import PACKAGE_ERRORS, DimensionError, NumericalError, ParameterError, as_index
from .projection import ExactSplit, ProjectionSpec, compress, resolve_sparsity

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


def interval_contains_point(interval, theta: float) -> bool:
    lb, _ = interval
    offset = (theta - lb) % TWO_PI
    if offset >= TWO_PI - _CONTAIN_SLACK:
        offset = 0.0
    return offset <= interval_width(interval) + _CONTAIN_SLACK


def interval_contains_interval(outer, inner) -> bool:
    offset = (inner[0] - outer[0]) % TWO_PI
    if offset >= TWO_PI - _CONTAIN_SLACK:
        offset = 0.0
    reach = interval_width(outer) + _CONTAIN_SLACK
    return offset <= reach and offset + interval_width(inner) <= reach


def interval_midpoint(interval) -> float:
    return (interval[0] + 0.5 * interval_width(interval)) % TWO_PI


@dataclass(frozen=True)
class IdentifiedSet:
    """Level set {theta : Q(theta) <= q_min + tolerance} as angle intervals.

    Intervals are closed, disjoint, and sorted by lower bound; an interval
    with ub < lb wraps through 2pi. A flat criterion gives the single
    interval (0, 2pi), the full circle. The global minimizer `argmin` must
    lie in an interval; the first one holding it is `interval_estimate`,
    the quantity replications report.
    """

    intervals: tuple[tuple[float, float], ...]
    q_min: float
    tolerance: float
    argmin: float

    def __post_init__(self):
        if not self.contains(self.argmin):
            raise NumericalError(f"the minimizer {self.argmin!r} lies in no arc of the level set")

    @property
    def interval_estimate(self) -> tuple[float, float]:
        return next(iv for iv in self.intervals if interval_contains_point(iv, self.argmin))

    @property
    def full_circle(self) -> bool:
        return self.intervals == ((0.0, TWO_PI),)

    def contains(self, theta: float) -> bool:
        return any(interval_contains_point(iv, theta) for iv in self.intervals)

    def covers_interval(self, interval) -> bool:
        return self.full_circle or any(
            interval_contains_interval(iv, interval) for iv in self.intervals
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


def _identified_set(profile: CircleProfile) -> IdentifiedSet:
    """The level set {Q <= q_min + tolerance} of a circle profile, with
    tolerance max(1e-12, 1e-6 * max Q)."""
    q_min, argmin = profile.minimum()
    tolerance = max(_TOL_FLOOR, _TOL_RELATIVE * profile.max_value)
    arcs = profile.level_set(q_min + tolerance)
    if arcs == ((0.0, TWO_PI),):
        argmin = 0.0  # flat criterion: every direction is as good as any other
    return IdentifiedSet(arcs, q_min, tolerance, argmin)


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
    return AngleGrid(thetas, profile.values(thetas)), _identified_set(profile)


@dataclass(frozen=True)
class SphereDescentResult:
    """The best unit-norm iterate `beta` (read-only), its criterion value, and
    each restart's final value in restart order."""

    beta: np.ndarray
    value: float
    restart_values: tuple[float, ...]

    def __post_init__(self):
        self.beta.setflags(write=False)


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

    A step depends only on the bits of its iterate: the residuals are
    D beta, or -(D v) for a flipped eigenvector, which equals D (-v) bit for
    bit. So a restart that reaches, at step s, an iterate of an earlier
    restart that stopped r steps later on its own path would follow that
    path; when s + r <= `steps` it takes that restart's value and beta
    without the eigen steps. Iterates of a restart cut by `steps` are not
    reused, since its path past the cap is unknown. Results are identical
    to running every restart in full. Each step copies the active rows with
    `np.compress` (3x faster than a boolean index, same array) and forms
    D_A'D_A as a plain Gram product, which numpy computes with syrk; any
    other formula for it rounds differently.

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

    def squared_norm(part: np.ndarray, restart: int, step: int) -> float:
        value = float(part @ part)
        if not math.isfinite(value):
            raise NumericalError(f"non-finite criterion at restart {restart}, step {step}")
        return value

    best_value = math.inf
    best_beta: np.ndarray | None = None
    restart_values: list[float] = []
    # beta.tobytes() of each iterate of a restart that stopped before the cap
    # -> (steps from that iterate to the stop, the restart's value and beta)
    stops: dict[bytes, tuple[int, float, np.ndarray]] = {}

    for restart in range(restarts):
        if initial is not None and restart == 0:
            beta = np.asarray(initial, dtype=np.float64)
            norm = float(np.linalg.norm(beta))
            if beta.shape != (b,) or norm == 0.0 or not math.isfinite(norm):
                raise ParameterError(
                    f"initial point must be a nonzero finite vector of length {b}"
                )
            beta = beta / norm
        else:
            beta = random_start()

        residuals = D @ beta
        value = squared_norm(np.maximum(residuals, 0.0), restart, 0)
        path: list[bytes] = []  # path[t] is the iterate reached at step t
        stop = None
        for step in range(1, steps + 1):
            if value == 0.0:
                break  # the global minimum; no restart follows
            path.append(beta.tobytes())
            known = stops.get(path[-1])
            if known is not None and step - 1 + known[0] <= steps:
                remaining, value, beta = known
                stop = step - 1 + remaining
                break
            active = np.compress(residuals > 0.0, D, axis=0)
            _, vectors = np.linalg.eigh(active.T @ active)
            v = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
            r_v = D @ v
            q_plus = squared_norm(np.maximum(r_v, 0.0), restart, step)
            q_minus = squared_norm(np.minimum(r_v, 0.0), restart, step)
            if q_minus < q_plus:
                v, q_plus = -v, q_minus
                np.negative(r_v, out=r_v)
            if not q_plus < value:
                stop = step
                break
            beta, residuals, value = v, r_v, q_plus
        if stop is not None:
            for t, key in enumerate(path):
                stops[key] = (stop - t, value, beta)
        restart_values.append(value)
        if value < best_value:
            best_value, best_beta = value, beta
        if best_value == 0.0:
            break

    assert best_beta is not None
    return SphereDescentResult(best_beta, best_value, tuple(restart_values))


@dataclass(frozen=True)
class ReplicationRecord:
    """One replication: the criterion's minimum `q_min` with the circle's
    interval estimate [lb, ub] (b = 2) or the sphere's minimizer `beta`
    (b != 2), or the error it raised. A failed record keeps NaN in place of
    each number, and a failed sphere record a beta of b NaNs."""

    index: int
    lb: float = math.nan
    ub: float = math.nan
    beta: tuple[float, ...] | None = None
    q_min: float = math.nan
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def theta_hat(self) -> float:
        return interval_midpoint((self.lb, self.ub))

    @property
    def wrapped(self) -> bool:
        return self.ub < self.lb

    def to_dict(self) -> dict:
        if self.beta is not None:
            return {"index": self.index, "beta": list(self.beta), "q_min": self.q_min,
                    "error": self.error}
        return {
            "index": self.index,
            "lb": self.lb,
            "ub": self.ub,
            "theta_hat": self.theta_hat,
            "q_min": self.q_min,
            "wrapped": self.wrapped,
            "error": self.error,
        }


_q25 = partial(np.quantile, q=0.25, method="linear")
_q75 = partial(np.quantile, q=0.75, method="linear")


def _statistic(fn, values: str) -> property:
    """Read-only float fn(self.<values>); NaN when that array is empty."""

    def read(self) -> float:
        arr = getattr(self, values)
        return float(fn(arr)) if arr.size else math.nan

    return property(read)


def _successful(name: str) -> property:
    """The successful records' `name`, in replication order, as an array."""
    return property(lambda self: np.array([getattr(r, name) for r in self.records if r.ok]))


@dataclass(frozen=True)
class ReplicationSummary:
    """Statistics across projection replications, for either estimator.

    Only the records and, on the circle, the unprojected set and grid are
    stored; every statistic is computed from the successful records when
    read. The circle's statistics are over the intervals, the sphere's over
    the betas and their criterion values. Quantiles use linear interpolation
    on order statistics (numpy's default, quantile type 7); dispersion is
    the population standard deviation, which degrades gracefully to 0 for a
    single replication.
    """

    design_label: str
    k: int
    s: float
    records: tuple[ReplicationRecord, ...]
    unprojected_set: IdentifiedSet | None = None
    unprojected_grid: AngleGrid | None = field(default=None, repr=False)

    lb = _successful("lb")
    ub = _successful("ub")
    theta_hat = _successful("theta_hat")
    values = _successful("q_min")
    mean_lb = _statistic(np.mean, "lb")
    sd_lb = _statistic(np.std, "lb")
    mean_ub = _statistic(np.mean, "ub")
    sd_ub = _statistic(np.std, "ub")
    q25_lb = _statistic(_q25, "lb")
    q75_ub = _statistic(_q75, "ub")
    min_lb = _statistic(np.min, "lb")
    max_ub = _statistic(np.max, "ub")
    mean_theta = _statistic(np.mean, "theta_hat")
    sd_theta = _statistic(np.std, "theta_hat")
    mean_value = _statistic(np.mean, "values")

    @property
    def betas(self) -> np.ndarray:
        """(successes, b): the successful sphere replications' minimizers."""
        b = len(self.records[0].beta)
        return np.array([r.beta for r in self.records if r.ok]).reshape(-1, b)

    @property
    def errors(self) -> tuple[tuple[int, str], ...]:
        return tuple((r.index, r.error) for r in self.records if not r.ok)

    @property
    def replications(self) -> int:
        return len(self.records)

    @property
    def successes(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def failures(self) -> int:
        return self.replications - self.successes

    @property
    def nested_count(self) -> int:
        return sum(
            1 for r in self.records
            if r.ok and self.unprojected_set.covers_interval((r.lb, r.ub))
        )

    @property
    def nested_fraction(self) -> float:
        good = self.successes
        return self.nested_count / good if good else math.nan

    def to_dict(self) -> dict:
        out = {
            "design": self.design_label,
            "k": self.k,
            "s": self.s,
            "replications": self.replications,
            "records": [r.to_dict() for r in self.records],
        }
        if self.unprojected_set is not None:
            stats = ("mean_lb", "sd_lb", "mean_ub", "sd_ub", "q25_lb", "q75_ub", "min_lb",
                     "max_ub", "mean_theta", "sd_theta", "nested_count", "nested_fraction",
                     "failures")
            out["summary"] = {name: getattr(self, name) for name in stats}
            out["unprojected"] = self.unprojected_set.to_dict()
            return out
        betas = self.betas

        def across(fn) -> list:
            return fn(betas, axis=0).tolist() if betas.size else []

        out["summary"] = {"median": across(np.median), "q25": across(_q25),
                          "q75": across(_q75), "mean_value": self.mean_value,
                          "failures": self.failures}
        out["betas"] = betas.tolist()
        out["errors"] = [list(e) for e in self.errors]
        return out


def _compress(split: ExactSplit, k: int, s: float, master_seed: int, *key: int):
    """Compress `split.data` with the projection drawn from seed path (master_seed, key)."""
    spec = ProjectionSpec(
        k=k, d=split.data.d, s=s, seed=derive_seed(master_seed, STREAM_PROJECTION, *key)
    )
    return compress(spec, split)


def _replicate(data, k: int, s: float, replications: int, master_seed: int, threads: int,
               solve) -> list:
    """Run solve(r, compressed) for r = 0 .. R-1 on a pool of `threads` threads.

    Replication r's projection is seeded from (master_seed, r) alone, and
    `compress` gives the same bits at any BLAS thread count, so results are
    identical whatever either thread count. The data are split once, for
    every replication. Returns, in order,
    (result, None), or (None, "Type: message") when the replication raised
    one of the package's errors or a LinAlgError; anything else propagates.
    """
    split = ExactSplit(data)

    def one(r: int):
        try:
            return solve(r, _compress(split, k, s, master_seed, r)), None
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
    restarts: int = 20,
    steps: int = 5000,
    threads: int = 1,
    design_label: str = "",
) -> ReplicationSummary:
    """Repeat (draw projection, compress, estimate) and summarize.

    The estimator follows the number of covariates. With b = 2 it is the
    exact circle sweep: each record holds the interval estimate, and the
    summary the unprojected set and its criterion on `grid_size` angles.
    Otherwise it is the sphere solver `estimate_subgradient`, with
    `restarts` and `steps` and its seed drawn from (master_seed, r): each
    record holds the beta. The arguments are checked before the first
    replication, so a bad one raises once. Replications run through
    `_replicate`: a failed replication is recorded with its error and left
    out of the statistics rather than aborting the run.
    """
    replications, threads = as_index(replications, "replications"), as_index(threads, "threads")
    if replications < 1:
        raise ParameterError("replications must be at least 1")
    if threads < 1:
        raise ParameterError("threads must be at least 1")
    if data.b != 2 and (restarts < 1 or steps < 1):
        raise ParameterError("restarts and steps must be positive")
    s_resolved = resolve_sparsity(s, data.d)
    # fail fast on structurally impossible specs instead of logging R failures
    ProjectionSpec(k=k, d=data.d, s=s_resolved, seed=0)
    cycles = enumerate_cycles(data.n, cycle_lengths)

    grid = unprojected = failed_beta = None
    if data.b == 2:
        grid, unprojected = estimate_polar_grid(data, cycles, grid_size)

        def solve(r: int, compressed) -> ReplicationRecord:
            idset = _identified_set(CircleProfile(CriterionEvaluator(compressed, cycles).D))
            lb, ub = idset.interval_estimate
            return ReplicationRecord(index=r, lb=lb, ub=ub, q_min=idset.q_min)
    else:
        failed_beta = (math.nan,) * data.b

        def solve(r: int, compressed) -> ReplicationRecord:
            result = estimate_subgradient(
                compressed, cycles, restarts=restarts, steps=steps,
                seed=derive_seed(master_seed, STREAM_RESTARTS, r),
            )
            return ReplicationRecord(index=r, beta=tuple(map(float, result.beta)),
                                     q_min=result.value)

    records = tuple(
        record if error is None else ReplicationRecord(index=r, beta=failed_beta, error=error)
        for r, (record, error) in enumerate(
            _replicate(data, k, s_resolved, replications, master_seed, threads, solve)
        )
    )
    return ReplicationSummary(
        design_label=design_label or f"d{data.d}k{k}",
        k=k,
        s=s_resolved,
        records=records,
        unprojected_set=unprojected,
        unprojected_grid=grid,
    )


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Sup-gap between compressed and uncompressed criteria as k grows.

    Gaps compare per-cycle-normalized criteria over a shared angle grid:
    gaps[i, draw] = max_theta |Qtilde(theta) - Q(theta)| / (number of cycles)
    for k_values[i]; the rest is computed from them when read.
    """

    k_values: tuple[int, ...]
    gaps: np.ndarray

    @property
    def mean_gaps(self) -> tuple[float, ...]:
        return tuple(float(g) for g in self.gaps.mean(axis=1))

    @property
    def decreasing_pairs(self) -> int:
        means = self.mean_gaps
        return sum(1 for before, after in zip(means, means[1:]) if after < before)

    @property
    def strictly_decreasing(self) -> bool:
        return self.decreasing_pairs == len(self.k_values) - 1


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

    split = ExactSplit(data)
    gaps = np.empty((len(k_values), draws))
    for ki, k in enumerate(k_values):
        for draw in range(draws):
            compressed = _compress(split, k, s_resolved, master_seed, ki, draw)
            projected = CircleProfile(CriterionEvaluator(compressed, cycles).D).values(thetas) / m
            gaps[ki, draw] = float(np.abs(projected - base).max())

    return ConvergenceDiagnostic(k_values=k_values, gaps=gaps)


def write_grid_csv(grid: AngleGrid, path: str) -> None:
    """Angle grid as two-column CSV for plotting."""
    with open(path, "w") as fh:
        fh.write("theta,value\n")
        for theta, value in zip(grid.thetas, grid.values):
            fh.write(f"{float(theta)!r},{float(value)!r}\n")
