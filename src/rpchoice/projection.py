"""Sparse random projections and the compressed-dataset representation.

A projection matrix R is k x d with i.i.d. three-point entries

    sqrt(s/k) * { +1 with prob 1/(2s),  0 with prob 1 - 1/s,  -1 with prob 1/(2s) }

so E[||R u - R v||^2] = ||u - v||^2 for any fixed u, v, with variance

    Var(||R u - R v||^2) = (2 ||u - v||^4 + (s - 3) * sum_j (u_j - v_j)^4) / k.

s = 1 gives dense +/-1 entries, s = 3 matches the variance a Gaussian matrix
would give, and s = sqrt(d) touches only a ~1/sqrt(d) fraction of cells.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sparse

from ._seeds import STREAM_DIAGNOSTIC, seed_sequence
from .data import ColumnScaling, Dataset, _readonly
from .errors import DimensionError, ParameterError, ValidationError

# named sparsity presets; "sqrt" resolves against the data dimension
_PRESET_NAMES = {
    "1": 1.0,
    "optimal": 1.0,
    "3": 3.0,
    "gaussian-equivalent": 3.0,
    "sqrt": None,
    "sparse": None,
}

_JL_MIN_DRAWS = 1000
_SPARSE_SAMPLER_MAX_PROB = 0.05


def resolve_sparsity(value, d: int) -> float:
    """Turn a preset name or a number into the sparsity parameter s."""
    if isinstance(value, str):
        key = value.strip().lower()
        if key in _PRESET_NAMES:
            preset = _PRESET_NAMES[key]
            return math.sqrt(d) if preset is None else preset
        try:
            return float(key)
        except ValueError:
            raise ParameterError(f"unknown sparsity preset {value!r}") from None
    return float(value)


@dataclass(frozen=True)
class ProjectionSpec:
    """Parameters that fully determine one projection matrix."""

    k: int
    d: int
    s: float
    seed: int

    def __post_init__(self):
        if not 1 <= self.k:
            raise DimensionError(f"k must be at least 1, got {self.k}")
        if self.k > self.d:
            raise DimensionError(f"k={self.k} exceeds d={self.d}")
        if not (math.isfinite(self.s) and 1.0 <= self.s <= self.d):
            raise ParameterError(f"s must lie in [1, d]={self.d}, got {self.s!r}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    @property
    def scale(self) -> float:
        return math.sqrt(self.s / self.k)

    @property
    def nonzero_prob(self) -> float:
        return 1.0 / self.s


def _sign_masks(uniforms: np.ndarray, s: float):
    """Three-point thresholding shared by generation and the diagnostic sampler.

    A uniform below 1/(2s) becomes +1, at or above 1 - 1/(2s) becomes -1,
    anything in between is a structural zero.
    """
    half = 0.5 / s
    return uniforms < half, uniforms >= 1.0 - half


@dataclass(frozen=True)
class SparseProjection:
    """A realized projection matrix in triplet form, sorted by column, then
    row, with each cell at most once.

    Column-sorted storage means applying the matrix is one streaming pass
    over the rows of the tall data, in row order.
    """

    spec: ProjectionSpec
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows = _readonly(self.rows, dtype=np.int64)
        cols = _readonly(self.cols, dtype=np.int64)
        values = _readonly(self.values)
        if not rows.shape == cols.shape == values.shape or rows.ndim != 1:
            raise DimensionError("rows, cols, values must be equal-length vectors")
        k, d = self.spec.k, self.spec.d
        if rows.size:
            if rows.min() < 0 or rows.max() >= k or cols.min() < 0 or cols.max() >= d:
                raise DimensionError("triplet indices outside the k x d grid")
            # column-major cell numbers strictly increase exactly when the
            # triplets are sorted by column, then row, with no cell repeated
            cells = cols * k + rows
            if not np.all(cells[1:] > cells[:-1]):
                raise ValidationError(
                    "triplets must be sorted by column, then row, with no duplicate cell"
                )
        expected = self.spec.scale
        if values.size and not np.all(np.abs(values) == expected):
            raise ValidationError(
                f"every entry must be +/-sqrt(s/k) = {expected!r} exactly"
            )
        self._check_nonzero_fraction(rows.size)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_csc_cache", None)

    def _check_nonzero_fraction(self, nnz: int) -> None:
        # binomial sanity bound, only meaningful once the cell count is large
        cells = self.spec.k * self.spec.d
        if cells < 10_000:
            return
        p = self.spec.nonzero_prob
        sd = math.sqrt(p * (1.0 - p) / cells)
        if abs(nnz / cells - p) > 5.0 * sd:
            raise ValidationError(
                f"nonzero fraction {nnz / cells:.6f} is more than 5 binomial sd "
                f"from 1/s = {p:.6f}"
            )

    @property
    def nnz(self) -> int:
        return self.rows.size

    @property
    def nonzero_fraction(self) -> float:
        return self.nnz / (self.spec.k * self.spec.d)

    def triplets(self) -> list[tuple[int, int, float]]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist()))

    def _csc(self):
        cache = getattr(self, "_csc_cache")
        if cache is None:
            # triplets are already in csc order, so only the column pointers
            # need building
            indptr = np.zeros(self.spec.d + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.cols, minlength=self.spec.d), out=indptr[1:])
            cache = _sparse.csc_matrix(
                (self.values, self.rows, indptr), shape=(self.spec.k, self.spec.d)
            )
            object.__setattr__(self, "_csc_cache", cache)
        return cache

    def apply_to(self, tall: np.ndarray) -> np.ndarray:
        """Multiply R @ tall for a (d,) vector or (d, c) matrix.

        The csc kernel walks columns of R in order, i.e. rows of the tall
        input exactly once each; untouched rows are never read.
        """
        arr = np.asarray(tall, dtype=np.float64)
        if arr.shape[0] != self.spec.d:
            raise DimensionError(
                f"input has {arr.shape[0]} rows, projection expects {self.spec.d}"
            )
        return self._csc() @ arr

    def dense(self) -> np.ndarray:
        out = np.zeros((self.spec.k, self.spec.d))
        out[self.rows, self.cols] = self.values
        return out


def generate(spec: ProjectionSpec) -> SparseProjection:
    """Draw the projection matrix for a spec.

    Per-entry decisions are made from one uniform draw per cell, consumed in
    row-major order, so a seed pins down the exact matrix. Triplets are read
    off the transposed sign masks, which lists them by column, then row, as
    the streaming multiply needs.
    """
    rng = np.random.default_rng(np.random.SeedSequence(int(spec.seed)))
    uniforms = rng.random((spec.k, spec.d))
    plus, minus = _sign_masks(uniforms, spec.s)
    cells = np.flatnonzero(np.ascontiguousarray((plus | minus).T))
    cols, rows = np.divmod(cells, spec.k)
    values = np.where(np.ascontiguousarray(plus.T).ravel()[cells], spec.scale, -spec.scale)
    return SparseProjection(spec, rows, cols, values)


@dataclass(frozen=True)
class CompressedMarket:
    """Projected covariates (k x b) and projected shares (length k).

    Projected shares routinely go negative; only finiteness is enforced.
    """

    covariates: np.ndarray
    shares: np.ndarray

    def __post_init__(self):
        cov = _readonly(self.covariates)
        sh = _readonly(self.shares)
        if cov.ndim != 2 or sh.ndim != 1 or cov.shape[0] != sh.shape[0]:
            raise DimensionError("compressed covariates and shares are inconsistent")
        if not (np.isfinite(cov).all() and np.isfinite(sh).all()):
            raise ValidationError("compressed market contains non-finite values")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "shares", sh)


@dataclass(frozen=True)
class CompressedDataset:
    """All markets of a dataset pushed through one shared projection."""

    markets: tuple[CompressedMarket, ...]
    spec: ProjectionSpec
    scaling: ColumnScaling
    covariate_names: tuple[str, ...] = ()
    market_ids: tuple[str, ...] = ()

    def __post_init__(self):
        markets = tuple(self.markets)
        if not markets:
            raise ValidationError("compressed dataset has no markets")
        k, b = markets[0].shares.shape[0], markets[0].covariates.shape[1]
        for i, m in enumerate(markets):
            if m.shares.shape[0] != k or m.covariates.shape[1] != b:
                raise DimensionError(f"compressed market {i} has inconsistent shape")
        if k != self.spec.k:
            raise DimensionError("compressed rows do not match the projection spec")
        object.__setattr__(self, "markets", markets)

    @property
    def n(self) -> int:
        return len(self.markets)

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def b(self) -> int:
        return self.markets[0].covariates.shape[1]

    def covariate_stack(self) -> np.ndarray:
        return np.stack([m.covariates for m in self.markets])

    def share_stack(self) -> np.ndarray:
        return np.stack([m.shares for m in self.markets])


def apply(projection: SparseProjection, data: Dataset) -> CompressedDataset:
    """Compress every market with the same realized matrix.

    Covariates and shares of all markets are projected together as one
    (d, n (b+1)) block in a single streaming pass. The sparse kernel sums
    each output entry over the columns of R in the same order whatever the
    block's width, so the result is bit-identical to projecting each market
    on its own.
    """
    if projection.spec.d != data.d:
        raise DimensionError(
            f"projection expects d={projection.spec.d}, dataset has d={data.d}"
        )
    b = data.b
    block = np.concatenate(
        [data.covariate_stack(), data.share_stack()[:, :, None]], axis=2
    )  # (n, d, b+1)
    out = projection.apply_to(block.transpose(1, 0, 2).reshape(data.d, -1))
    out = out.reshape(projection.spec.k, data.n, b + 1)
    compressed = tuple(
        CompressedMarket(out[:, i, :b], out[:, i, b]) for i in range(data.n)
    )
    return CompressedDataset(
        markets=compressed,
        spec=projection.spec,
        scaling=data.scaling,
        covariate_names=data.covariate_names,
        market_ids=data.market_ids,
    )


def predicted_distance_variance(w: np.ndarray, s: float, k: int) -> float:
    """Variance of ||R w||^2: (2 ||w||^4 + (s - 3) sum w^4) / k."""
    w = np.asarray(w, dtype=np.float64)
    sq = float(w @ w)
    fourth = float(np.sum(w ** 4))
    return (2.0 * sq * sq + (s - 3.0) * fourth) / k


@dataclass(frozen=True)
class JlDiagnostic:
    """Monte Carlo check of distance preservation under projection."""

    d: int
    k: int
    s: float
    draws: int
    exact_sq_dist: float
    mean_sq_dist: float
    var_sq_dist: float
    predicted_var: float
    gaussian_equivalent: bool

    @property
    def mean_rel_err(self) -> float:
        if self.exact_sq_dist == 0.0:
            return 0.0 if self.mean_sq_dist == 0.0 else math.inf
        return abs(self.mean_sq_dist - self.exact_sq_dist) / self.exact_sq_dist

    @property
    def var_rel_err(self) -> float:
        if self.predicted_var == 0.0:
            return 0.0 if self.var_sq_dist == 0.0 else math.inf
        return abs(self.var_sq_dist - self.predicted_var) / self.predicted_var

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "s": self.s,
            "draws": self.draws,
            "exact_sq_dist": self.exact_sq_dist,
            "mean_sq_dist": self.mean_sq_dist,
            "mean_rel_err": self.mean_rel_err,
            "var_sq_dist": self.var_sq_dist,
            "predicted_var": self.predicted_var,
            "var_rel_err": self.var_rel_err,
            "gaussian_equivalent": self.gaussian_equivalent,
        }


def _dots_dense(w: np.ndarray, s: float, n_rows: int, rng: np.random.Generator) -> np.ndarray:
    """Unscaled row sums sum_j sigma_j w_j for n_rows independent matrix rows.

    Uses the same uniform-threshold decision as generate(), batched across
    rows; chunking bounds memory, not the distribution.
    """
    d = w.size
    per_chunk = max(1, (1 << 22) // max(d, 1))
    out = np.empty(n_rows)
    done = 0
    while done < n_rows:
        count = min(per_chunk, n_rows - done)
        uniforms = rng.random((count, d))
        plus, minus = _sign_masks(uniforms, s)
        signs = plus.astype(np.float64)
        signs -= minus
        out[done : done + count] = signs @ w
        done += count
    return out


def _dots_sparse(w: np.ndarray, s: float, n_rows: int, rng: np.random.Generator) -> np.ndarray:
    """Same distribution as _dots_dense, visiting only the nonzero cells.

    Cells are an i.i.d. Bernoulli(1/s) pattern, so gaps between hits are
    geometric; skip-sampling touches ~ n_rows * d / s cells instead of all.
    """
    d = w.size
    p = 1.0 / s
    total_cells = n_rows * d
    dots = np.zeros(n_rows)
    expected = total_cells * p
    # cap the gap batch so huge draw counts stream in bounded memory
    batch = min(int(expected + 8.0 * math.sqrt(expected) + 16.0), 1 << 22)
    position = -1
    while True:
        gaps = rng.geometric(p, size=batch)
        flats = position + np.cumsum(gaps)
        finished = flats[-1] >= total_cells
        flats = flats[flats < total_cells]
        signs = rng.integers(0, 2, size=flats.size).astype(np.float64) * 2.0 - 1.0
        if flats.size:
            row_idx = flats // d
            col_idx = flats - row_idx * d
            dots += np.bincount(row_idx, weights=signs * w[col_idx], minlength=n_rows)
            position = int(flats[-1])
        if finished:
            return dots


def jl_diagnostic(u, v, spec: ProjectionSpec, draws: int) -> JlDiagnostic:
    """Empirical mean and variance of ||R u - R v||^2 over independent draws.

    By linearity only w = u - v matters, so each draw reduces to k fresh
    matrix rows dotted with w. Very sparse settings (1/s <= 0.05) use
    geometric skip-sampling over the identical Bernoulli cell pattern.
    """
    if draws < _JL_MIN_DRAWS:
        raise ParameterError(f"draws must be at least {_JL_MIN_DRAWS}, got {draws}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != (spec.d,) or v.shape != (spec.d,):
        raise DimensionError(f"u and v must have shape ({spec.d},)")
    w = u - v
    exact = float(w @ w)
    predicted = predicted_distance_variance(w, spec.s, spec.k)

    if exact == 0.0:
        mean_sq = var_sq = 0.0
    else:
        rng = np.random.default_rng(
            seed_sequence(int(spec.seed), STREAM_DIAGNOSTIC)
        )
        n_rows = draws * spec.k
        if spec.nonzero_prob <= _SPARSE_SAMPLER_MAX_PROB:
            dots = _dots_sparse(w, spec.s, n_rows, rng)
        else:
            dots = _dots_dense(w, spec.s, n_rows, rng)
        sq = (dots ** 2).reshape(draws, spec.k).sum(axis=1) * (spec.s / spec.k)
        mean_sq = float(sq.mean())
        var_sq = float(sq.var(ddof=1))

    return JlDiagnostic(
        d=spec.d,
        k=spec.k,
        s=spec.s,
        draws=draws,
        exact_sq_dist=exact,
        mean_sq_dist=mean_sq,
        var_sq_dist=var_sq,
        predicted_var=predicted,
        gaussian_equivalent=(spec.s == 3.0),
    )


_CACHE_MAGIC = b"RPROJ1\x00"
_CACHE_HEADER = struct.Struct("<QQdQQ")


def save_projection(projection: SparseProjection, path: str) -> None:
    """Binary cache: magic, (k, d, s, seed, nnz) header, then triplet arrays."""
    spec = projection.spec
    if spec.k >= 2 ** 32 or spec.d >= 2 ** 32:
        raise ParameterError("binary cache stores indices as uint32; k and d must fit")
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(_CACHE_HEADER.pack(spec.k, spec.d, spec.s, int(spec.seed), projection.nnz))
        fh.write(projection.rows.astype("<u4").tobytes())
        fh.write(projection.cols.astype("<u4").tobytes())
        fh.write(projection.values.astype("<f8").tobytes())


def load_projection(path: str) -> SparseProjection:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CACHE_MAGIC))
        if magic != _CACHE_MAGIC:
            raise ValidationError(f"{path}: not a projection cache file")
        k, d, s, seed, nnz = _CACHE_HEADER.unpack(fh.read(_CACHE_HEADER.size))
        rows = np.frombuffer(fh.read(4 * nnz), dtype="<u4").astype(np.int64)
        cols = np.frombuffer(fh.read(4 * nnz), dtype="<u4").astype(np.int64)
        values = np.frombuffer(fh.read(8 * nnz), dtype="<f8").astype(np.float64)
    if rows.size != nnz or cols.size != nnz or values.size != nnz:
        raise ValidationError(f"{path}: truncated projection cache")
    spec = ProjectionSpec(k=int(k), d=int(d), s=float(s), seed=int(seed))
    return SparseProjection(spec, rows, cols, values)
