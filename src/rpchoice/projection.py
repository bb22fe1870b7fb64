"""Sparse random projections and the compressed-dataset representation.

A projection matrix R is k x d with i.i.d. three-point entries

    sqrt(s/k) * { +1 with prob 1/(2s),  0 with prob 1 - 1/s,  -1 with prob 1/(2s) }

so E[||R u - R v||^2] = ||u - v||^2 for any fixed u, v, with variance

    Var(||R u - R v||^2) = (2 ||u - v||^4 + (s - 3) * sum_j (u_j - v_j)^4) / k.

s = 1 gives dense +/-1 entries, s = 3 matches the variance a Gaussian matrix
would give, and s = sqrt(d) touches only a ~1/sqrt(d) fraction of cells.

`generate` realizes R as a CSC matrix and `apply` multiplies a dataset by it.
The estimator only ever needs the product R T, where T is the (d, n (b+1))
block of covariates and shares, so the replications go through `compress`
instead. T is taken once per run (`ExactSplit`) and split without error
(Ozaki, Ogita, Oishi & Rump, "Error-free transformations of matrix
multiplication", Numer. Algorithms 59, 2012) into slices whose products with
+/-1/0 signs are exact in float64. `compress` multiplies the signs of the
cells `generate` draws by the slices: in row blocks of dense signs from
`_sign_blocks` (the JL diagnostic's sampler too) when 1/s > 0.05, as a CSC
sign pattern when 1/s <= 0.05, where sparse generation is faster. The
slices' products are added in one fixed order and scaled by sqrt(s/k) once,
so neither that choice nor BLAS threads or blocking change a bit of the
result. scipy is imported by `_sign_pattern` alone, so a run that never
builds a CSC matrix never loads it.
"""

from __future__ import annotations

import copy
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._seeds import STREAM_DIAGNOSTIC, check_seed, seed_sequence
from .data import Dataset, _readonly
from .errors import DimensionError, ParameterError, ValidationError, as_index

if TYPE_CHECKING:
    from scipy import sparse


_JL_MIN_DRAWS = 1000
# at or below this nonzero probability the sparse routes (CSC generation,
# skip-sampling) beat drawing every cell
_SPARSE_SAMPLER_MAX_PROB = 0.05
# bytes of uniforms per block of every dense sign draw (`_sign_blocks`), which
# holds _BLOCK_BYTES / (8 d) rows, at least one, whatever the row count; with
# its two masks (an eighth its size each) it is a drawing thread's scratch
_BLOCK_BYTES = 1 << 21


def resolve_sparsity(value, d: int) -> float:
    """Turn "sqrt" (s = sqrt(d)) or a number into the sparsity parameter s."""
    if isinstance(value, str):
        key = value.strip().lower()
        if key == "sqrt":
            return math.sqrt(d)
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
        k, d = as_index(self.k, "k"), as_index(self.d, "d")
        if not 1 <= k:
            raise DimensionError(f"k must be at least 1, got {k}")
        if k > d:
            raise DimensionError(f"k={k} exceeds d={d}")
        if not (math.isfinite(self.s) and 1.0 <= self.s <= d):
            raise ParameterError(f"s must lie in [1, d]={d}, got {self.s!r}")
        check_seed(self.seed)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)

    @property
    def scale(self) -> float:
        return math.sqrt(self.s / self.k)

    @property
    def nonzero_prob(self) -> float:
        return 1.0 / self.s


def _sparse_route(s: float) -> bool:
    """Whether sparsity s takes the sparse routes: the CSC kernel of
    `compress`, skip-sampling in the JL diagnostic."""
    return 1.0 / s <= _SPARSE_SAMPLER_MAX_PROB


def _sign_masks(uniforms: np.ndarray, s: float, plus=None, minus=None):
    """Three-point thresholding shared by generation and the diagnostic sampler.

    A uniform below 1/(2s) becomes +1, at or above 1 - 1/(2s) becomes -1,
    anything in between is a structural zero. `plus` and `minus` are optional
    boolean output buffers.
    """
    half = 0.5 / s
    return np.less(uniforms, half, out=plus), np.greater_equal(uniforms, 1.0 - half, out=minus)


def _sign_blocks(rng: np.random.Generator, s: float, d: int, rows: int):
    """Yield (first row, (h, d) signs) for `rows` rows of dense +/-1/0 signs
    thresholded from `rng`'s uniforms in row-major order, at most
    _BLOCK_BYTES of uniforms a block. The signs overwrite the uniforms in one
    reused buffer, so each block is valid until the next is drawn."""
    height = max(1, min(rows, _BLOCK_BYTES // (8 * d)))
    block = np.empty((height, d))  # uniforms, then the signs drawn from them
    plus, minus = np.empty((2, height, d), dtype=bool)
    signs = plus.view(np.int8)  # int8 +/-1/0 in place: no float cast buffers
    for first in range(0, rows, height):
        h = min(height, rows - first)
        _sign_masks(rng.random(out=block[:h]), s, plus[:h], minus[:h])
        np.subtract(signs[:h], minus[:h].view(np.int8), out=signs[:h])
        np.copyto(block[:h], signs[:h])
        yield first, block[:h]


@dataclass(frozen=True)
class SparseProjection:
    """A realized k x d projection matrix in compressed sparse column (CSC)
    form, rows sorted within each column and each cell stored at most once.

    Column storage means applying the matrix is one streaming pass over the
    rows of the tall data, in row order.
    """

    spec: ProjectionSpec
    matrix: "sparse.csc_matrix"

    def __post_init__(self):
        m = self.matrix
        shape = (self.spec.k, self.spec.d)
        if m.shape != shape:
            raise DimensionError(f"matrix shape {m.shape} does not match k x d = {shape}")
        try:
            m.check_format(full_check=True)
        except ValueError as exc:
            raise DimensionError(f"invalid csc structure: {exc}") from None
        if not m.has_canonical_format:
            raise ValidationError(
                "rows must be sorted within each column, with no duplicate cell"
            )
        expected = self.spec.scale
        if m.dtype != np.float64 or not np.all(np.abs(m.data) == expected):
            raise ValidationError(
                f"every entry must be +/-sqrt(s/k) = {expected!r} exactly, as float64"
            )
        # binomial sanity bound, only meaningful once the cell count is large
        cells, p = m.shape[0] * m.shape[1], self.spec.nonzero_prob
        if cells >= 10_000 and abs(m.nnz / cells - p) > 5.0 * math.sqrt(p * (1.0 - p) / cells):
            raise ValidationError(
                f"nonzero fraction {m.nnz / cells:.6f} is more than 5 binomial sd "
                f"from 1/s = {p:.6f}"
            )
        for arr in (m.data, m.indices, m.indptr):
            arr.setflags(write=False)

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def nonzero_fraction(self) -> float:
        return self.nnz / (self.spec.k * self.spec.d)


def _sign_pattern(spec: ProjectionSpec) -> "sparse.csc_matrix":
    """The spec's cells as a k x d CSC matrix of +/-1 entries.

    Per-entry decisions are made from one uniform draw per cell, consumed in
    row-major order, so a seed pins down the exact pattern. The sign masks
    are written transposed, (d, k), so their row-major nonzeros list the
    cells by column, then row: exactly the csc order. scipy.sparse is
    imported here, the one place a csc matrix is built.
    """
    from scipy import sparse

    rng = np.random.default_rng(np.random.SeedSequence(int(spec.seed)))
    uniforms = rng.random((spec.k, spec.d)).T
    plus, hits = _sign_masks(uniforms, spec.s, *np.empty((2, spec.d, spec.k), dtype=bool))
    del uniforms  # the largest array; free it before the index arrays exist
    hits |= plus
    indptr = np.zeros(spec.d + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(hits, axis=1), out=indptr[1:])
    indices = np.flatnonzero(hits)
    data = np.where(plus.ravel()[indices], 1.0, -1.0)
    del plus, hits
    np.remainder(indices, spec.k, out=indices)
    return sparse.csc_matrix((data, indices, indptr), shape=(spec.k, spec.d))


def generate(spec: ProjectionSpec) -> SparseProjection:
    """Draw the projection matrix for a spec: its sign pattern times sqrt(s/k)."""
    matrix = _sign_pattern(spec)
    matrix.data *= spec.scale
    return SparseProjection(spec, matrix)


@dataclass(frozen=True)
class CompressedDataset:
    """All markets of a dataset pushed through one shared projection.

    `covariates` (n, k, b) and `shares` (n, k) hold market i's projected
    covariates and projected shares at index i. Projected shares routinely
    go negative; only finiteness is enforced.
    """

    covariates: np.ndarray
    shares: np.ndarray
    spec: ProjectionSpec

    def __post_init__(self):
        cov = _readonly(self.covariates)
        sh = _readonly(self.shares)
        if cov.ndim != 3 or sh.ndim != 2 or cov.shape[:2] != sh.shape:
            raise DimensionError("compressed covariates and shares are inconsistent")
        if not sh.shape[0]:
            raise ValidationError("compressed dataset has no markets")
        if sh.shape[1] != self.spec.k:
            raise DimensionError("compressed rows do not match the projection spec")
        if not (np.isfinite(cov).all() and np.isfinite(sh).all()):
            raise ValidationError("compressed data contain non-finite values")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "shares", sh)

    @property
    def n(self) -> int:
        return self.shares.shape[0]

    @property
    def b(self) -> int:
        return self.covariates.shape[2]

    def covariate_stack(self) -> np.ndarray:
        return self.covariates

    def share_stack(self) -> np.ndarray:
        return self.shares


def _tall_block(data: Dataset) -> np.ndarray:
    """Covariates and shares of all markets as one (d, n (b+1)) block: column
    i (b+1) + m holds market i's covariate m, column i (b+1) + b its shares.

    The block is filled market by market, so no stacked copy of the data
    exists beside it."""
    block = np.empty((data.d, data.n, data.b + 1))
    for i, market in enumerate(data.markets):
        block[:, i, :data.b] = market.covariates
        block[:, i, data.b] = market.shares
    return block.reshape(data.d, -1)


def _unstack(product: np.ndarray, data: Dataset, spec: ProjectionSpec) -> CompressedDataset:
    """The (k, n (b+1)) product R T as a CompressedDataset."""
    out = product.reshape(spec.k, data.n, data.b + 1).transpose(1, 0, 2)
    return CompressedDataset(covariates=out[:, :, :data.b], shares=out[:, :, data.b], spec=spec)


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
    return _unstack(projection.matrix @ _tall_block(data), data, projection.spec)


def _error_free_slices(rest: np.ndarray) -> np.ndarray:
    """Slices T_0, T_1, ... with T_0 + T_1 + ... = T exactly, side by side as
    one (d, count * c) array. `rest` holds T and is split in place: it ends
    all zero.

    In column j, slice i holds integer multiples of u_ij = 2^(e_j - beta (i+1)),
    where 2^e_j is the smallest power of two at or above max |T_j| and
    beta = 52 - ceil(log2 d); each multiple is at most 2^beta u_ij in size.
    A +/-1/0 row times a slice column then sums d such multiples, at most
    2^52 u_ij in total, so every partial sum is exact in float64, in any
    order. Each slice takes round(rest / u_ij) u_ij of what is left (one unit
    less where that is 2^1024), which is exact too (u_ij is a power of two),
    until the rest is 0. No unit is below 2^-1074, of which every float is a
    multiple, so a column whose entries span a ratio of 2^r needs about
    (r + 53) / beta slices, and none more than ceil(2098 / beta).

    The count is worked out first: slice i leaves column j's rest 0 exactly
    when u_ij is at or below the lowest set bit 2^p_j of every entry (no
    float has one below 2^-1074), so the column needs
    max(1, ceil((e_j - p_j) / beta)) slices. The output is allocated once
    at the largest such count and the slices are written into it in place.
    """
    d, c = rest.shape
    beta = 52 - (d - 1).bit_length()
    mantissa, exponent = np.frexp(np.maximum(rest.max(axis=0), -rest.min(axis=0)))
    exponent -= mantissa == 0.5  # a power of two is its own bound
    spread = int((exponent - _lowest_bits(rest)).max())
    count = max(1, -(-spread // beta))
    # 2^beta units of 2^(1024 - beta) would overflow: such columns keep one less
    top = np.ldexp(1.0, beta) - (exponent == 1024)
    out = np.empty((d, count * c))
    for i in range(count):
        unit = np.ldexp(1.0, np.maximum(exponent - beta * (i + 1), -1074))
        piece = out[:, i * c:(i + 1) * c]
        np.divide(rest, unit, out=piece)
        np.round(piece, out=piece)
        np.clip(piece, -top, top, out=piece)
        piece *= unit
        rest -= piece
    if rest.any():
        raise AssertionError(f"the rest is not 0 after {count} slices")
    return out


def _lowest_bits(block: np.ndarray) -> np.ndarray:
    """Per column, the exponent p of the lowest set bit 2^p over the column's
    nonzero entries (2^1024 for an all-zero column). It reads about 8,192
    entries at a time, so its scratch stays under half a MB."""
    lowest = np.full(block.shape[1], 1024)
    rows = max(1, 8192 // block.shape[1])
    for first in range(0, block.shape[0], rows):
        # x = m 2^e with m 2^53 an integer M below 2^53, whose lowest set
        # bit M & -M is 2^z (frexp gives z + 1); x's lowest bit is 2^(e - 53 + z)
        mantissa, exponent = np.frexp(block[first:first + rows])
        whole = np.ldexp(np.abs(mantissa), 53).astype(np.int64)
        exponent += np.frexp(whole & -whole)[1]
        exponent[whole == 0] = 1024 + 54
        np.minimum(lowest, exponent.min(axis=0) - 54, out=lowest)
    return lowest


@dataclass(frozen=True)
class ExactSplit:
    """The error-free slices of a dataset's (d, n (b+1)) block T, taken once
    per run and read, never written, by every replication's `compress`.

    The slices are split in place from a fresh T, which ends as the all-zero
    rest: they hold two copies of T on the usual two-slice split, and the
    build's only other array is that rest.
    """

    data: Dataset
    slices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        slices = _error_free_slices(_tall_block(self.data))
        slices.setflags(write=False)
        object.__setattr__(self, "slices", slices)

    @property
    def count(self) -> int:
        """Number of slices."""
        return self.slices.shape[1] // (self.data.n * (self.data.b + 1))


def _add_slices(products: np.ndarray, out: np.ndarray) -> None:
    """Add a sign block's products with the slices, (h, count c) side by
    side, into out (h, c) in slice order, the one order of both kernels."""
    c = out.shape[1]
    np.copyto(out, products[:, :c])
    for first in range(c, products.shape[1], c):
        out += products[:, first:first + c]


def compress(spec: ProjectionSpec, split: ExactSplit) -> CompressedDataset:
    """apply(generate(spec), split.data) without building the k x d matrix.

    The +/-1 signs of the cells `generate` draws multiply the split's slices,
    exactly; the products are added in slice order and scaled by sqrt(s/k)
    once, so the result depends on the spec and the data alone, not on the
    kernel, the BLAS thread count or the block height. It differs from the
    CSC product of T by rounding only (about 5e-15 relative at d = 5000).

    When 1/s > 0.05 the signs come in row blocks of dense +/-1/0 floats from
    `_sign_blocks`, each multiplying all slices in one product, so a call
    holds one _BLOCK_BYTES block, its two boolean masks and the
    (k, n (b+1)) output; the split is shared, read-only. When 1/s <= 0.05
    the CSC sign pattern multiplies them at once.
    """
    data = split.data
    if spec.d != data.d:
        raise DimensionError(f"projection expects d={spec.d}, dataset has d={data.d}")
    out = np.empty((spec.k, data.n * (data.b + 1)))
    if _sparse_route(spec.s):
        _add_slices(_sign_pattern(spec) @ split.slices, out)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(int(spec.seed)))
        for first, signs in _sign_blocks(rng, spec.s, spec.d, spec.k):
            _add_slices(signs @ split.slices, out[first : first + len(signs)])
    out *= spec.scale
    return _unstack(out, data, spec)


def predicted_distance_variance(w: np.ndarray, s: float, k: int) -> float:
    """Variance of ||R w||^2: (2 ||w||^4 + (s - 3) sum w^4) / k."""
    w = np.asarray(w, dtype=np.float64)
    sq = float(np.einsum("i,i->", w, w))  # not BLAS: see _dots_dense
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

    @property
    def gaussian_equivalent(self) -> bool:
        """s = 3 gives the variance a dense Gaussian matrix would."""
        return self.s == 3.0

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

    The signs come from `_sign_blocks`, thresholded as generate() does, on
    two threads, each over a contiguous half with its own blocks and its own
    copy of `rng`, advanced to the half's first uniform (one 64-bit draw per
    uniform). The two streams together are exactly `rng`'s stream, so the
    result does not depend on the split; `rng` ends advanced past every draw.
    Each row is summed by einsum, not BLAS, whose reduction order varies with
    its thread count, so neither count nor a row's block changes the result.
    """
    d = w.size
    out = np.empty(n_rows)
    split = (n_rows + 1) // 2

    def run(first: int, part: np.ndarray) -> None:
        bit_gen = copy.deepcopy(rng.bit_generator)
        bit_gen.advance(first * d)
        for row, signs in _sign_blocks(np.random.Generator(bit_gen), s, d, len(part)):
            np.einsum("ij,j->i", signs, w, out=part[row : row + len(signs)])

    with ThreadPoolExecutor(max_workers=2) as pool:
        for job in [pool.submit(run, 0, out[:split]), pool.submit(run, split, out[split:])]:
            job.result()
    rng.bit_generator.advance(n_rows * d)
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
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValidationError("u and v must be finite")
    w = u - v
    exact = float(np.einsum("i,i->", w, w))
    predicted = predicted_distance_variance(w, spec.s, spec.k)

    if exact == 0.0:
        mean_sq = var_sq = 0.0
    else:
        rng = np.random.default_rng(
            seed_sequence(int(spec.seed), STREAM_DIAGNOSTIC)
        )
        n_rows = draws * spec.k
        if _sparse_route(spec.s):
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
    )

