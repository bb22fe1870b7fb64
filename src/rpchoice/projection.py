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
+/-1/0 signs are exact in float64. `_project_rows` multiplies sign rows by
the slices: `compress` on the cells `generate` draws, the JL diagnostic on
w = u - v, split the same way, in seeded chunks of draws. Every projection's
signs come in row blocks from one sampler, `_sign_blocks`, whose route sets
the stream: when 1/s > 0.05 it thresholds one uniform per cell into dense
blocks; when 1/s <= 0.05 it finds the nonzero cells by geometric skips,
touching about 1/s of them, and yields CSR blocks. The slices' products are
added in one fixed order, so neither the block's form nor BLAS threads or
blocking change a bit of the result. scipy is imported by the skip route and
`generate` alone, so a run that builds no sparse matrix never loads it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._seeds import STREAM_DIAGNOSTIC, available_cpus, check_seed, seed_sequence
from .data import Dataset, _readonly
from .errors import DimensionError, ParameterError, ValidationError, as_index

if TYPE_CHECKING:
    from scipy import sparse


_JL_MIN_DRAWS = 1000
# at or below this nonzero probability `_sign_blocks` skip-samples the hits,
# else it thresholds one uniform per cell
_SPARSE_SAMPLER_MAX_PROB = 0.05
# a drawing thread's scratch: _BLOCK_BYTES of uniforms a dense block (at
# least one row, whatever the row count), plus two masks of an eighth that;
# about _BLOCK_BYTES / _HIT_BYTES expected hits a skip-route block, whose
# traced peak is about 64 bytes a hit (cell index, sign, CSR arrays and
# their temporaries)
_BLOCK_BYTES = 1 << 21
_HIT_BYTES = 64
# gaps a skip-route batch draws: a constant, so the stream up to any cell is
# the same whatever the row count and the block height
_SKIP_BATCH = 1 << 14
# draws a JL diagnostic chunk takes from a stream of its own: a constant, so
# the diagnostic reads the same whatever the CPU and BLAS thread counts
_JL_CHUNK = 256


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


def _sparse_route(s: float) -> bool:
    """Whether sparsity s takes the skip route of `_sign_blocks`."""
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
    """Yield (first row, (h, d) signs) for `rows` rows of +/-1/0 signs drawn
    from `rng`, the one sampler of every projection. The route sets the stream:

    - 1/s > 0.05: `_sign_masks` thresholds one uniform per cell, row-major,
      at most _BLOCK_BYTES of them a block, into dense floats that overwrite
      the uniforms in one reused buffer, valid until the next block is drawn;
    - 1/s <= 0.05: geometric gaps over the row-major cell index find the hits
      of the Bernoulli(1/s) pattern, in batches of _SKIP_BATCH gaps, each
      followed by one fair sign per gap (int8, 1 for +1), until a batch ends
      at or past the block's last cell. Blocks of about
      _BLOCK_BYTES / _HIT_BYTES expected hits come as h x d CSR matrices of
      +/-1 entries; scipy is imported here.

    The stream up to any cell depends on neither the row count nor the block
    height, and where `rng` ends after `rows` rows not on the block height.
    Every caller seeds a generator per stream, so none relies on how many
    64-bit draws a cell takes.
    """
    if _sparse_route(s):
        from scipy import sparse

        gap_scale = -1.0 / math.log1p(-1.0 / s)
        height = max(1, min(rows, int(_BLOCK_BYTES * s / (_HIT_BYTES * d))))
        flats, bits, last = [np.empty(0, np.int64)], [np.empty(0, np.int8)], -1
        for first in range(0, rows, height):
            stops = d * np.arange(first, min(first + height, rows) + 1)
            while last < stops[-1]:
                # floor(E / -log(1 - 1/s)) + 1 is geometric on 1, 2, ...: the
                # inversion numpy's `geometric` takes, its log taken once here
                gaps = (rng.standard_exponential(_SKIP_BATCH) * gap_scale).astype(np.int64) + 1
                flats.append(np.cumsum(gaps, out=gaps) + last)
                last = int(flats[-1][-1])
                bits.append(rng.integers(0, 2, size=_SKIP_BATCH, dtype=np.int8))
            cells, signs = np.concatenate(flats), np.concatenate(bits)
            indptr = np.searchsorted(cells, stops)
            hits = indptr[-1]
            yield first, sparse.csr_matrix((signs[:hits] * 2.0 - 1.0, cells[:hits] % d, indptr),
                                           shape=(len(stops) - 1, d))
            flats, bits = [cells[hits:]], [signs[hits:]]
        return
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


def generate(spec: ProjectionSpec) -> "sparse.csc_matrix":
    """Draw the projection matrix for a spec: its sign pattern times sqrt(s/k),
    as a k x d CSC matrix in canonical form (rows sorted within each column,
    each cell stored once) with read-only data, indices and indptr. Column
    storage makes applying it one streaming pass over the tall data's rows.
    The sign blocks of `_sign_blocks` are stacked as CSR matrices (a dense
    block converted), then turned column-major: at its peak a call holds
    about 24 bytes a stored cell and one block of scratch."""
    from scipy import sparse

    rng = np.random.default_rng(np.random.SeedSequence(int(spec.seed)))
    matrix = sparse.vstack(
        [sparse.csr_matrix(signs) for _, signs in _sign_blocks(rng, spec.s, spec.d, spec.k)],
        format="csr").tocsc()
    matrix.data *= spec.scale
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class CompressedDataset:
    """All markets of a dataset pushed through one shared projection.

    `covariates` (n, k, b) and `shares` (n, k) hold market i's projected
    covariates and projected shares at index i. Projected shares routinely
    go negative; only finiteness is enforced.
    """

    covariates: np.ndarray
    shares: np.ndarray

    def __post_init__(self):
        cov = _readonly(self.covariates)
        sh = _readonly(self.shares)
        if cov.ndim != 3 or sh.ndim != 2 or cov.shape[:2] != sh.shape:
            raise DimensionError("compressed covariates and shares are inconsistent")
        if not sh.shape[0]:
            raise ValidationError("compressed dataset has no markets")
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


def _unstack(product: np.ndarray, data: Dataset) -> CompressedDataset:
    """The (k, n (b+1)) product R T as a CompressedDataset."""
    out = product.reshape(product.shape[0], data.n, data.b + 1).transpose(1, 0, 2)
    return CompressedDataset(covariates=out[:, :, :data.b], shares=out[:, :, data.b])


def apply(matrix: "sparse.csc_matrix", data: Dataset) -> CompressedDataset:
    """Compress every market with the same realized matrix.

    Covariates and shares of all markets are projected together as one
    (d, n (b+1)) block in a single streaming pass. The sparse kernel sums
    each output entry over the columns of R in the same order whatever the
    block's width, so the result is bit-identical to projecting each market
    on its own.
    """
    if matrix.shape[1] != data.d:
        raise DimensionError(f"projection expects d={matrix.shape[1]}, dataset has d={data.d}")
    return _unstack(matrix @ _tall_block(data), data)


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


def _project_rows(rng: np.random.Generator, s: float, slices: np.ndarray, out: np.ndarray) -> None:
    """Fill out (h, c) with h sign rows drawn from `rng` by `_sign_blocks`
    times the (d, count c) slices: each block multiplies all slices in one
    exact product, a dense GEMM when 1/s > 0.05, a CSR product when
    1/s <= 0.05, added in slice order. Beside `out` a call holds one block
    (a _BLOCK_BYTES block of uniforms and its two boolean masks, or the skip
    route's hits and CSR arrays) and its (h, count c) products."""
    for first, signs in _sign_blocks(rng, s, slices.shape[0], out.shape[0]):
        _add_slices(signs @ slices, out[first : first + signs.shape[0]])


def compress(spec: ProjectionSpec, split: ExactSplit) -> CompressedDataset:
    """apply(generate(spec), split.data) without building the k x d matrix.

    `_project_rows` multiplies the +/-1 signs of the cells `generate` draws by
    the split's slices, exactly, and adds the products in slice order; the
    sums are scaled by sqrt(s/k) once, so the result depends on the spec and
    the data alone, not on the block's form, the BLAS thread count or the
    block height. It differs from the CSC product of T by rounding only
    (about 5e-15 relative at d = 5000). A call holds one sign block and the
    (k, n (b+1)) output; the split is shared, read-only.
    """
    data = split.data
    if spec.d != data.d:
        raise DimensionError(f"projection expects d={spec.d}, dataset has d={data.d}")
    out = np.empty((spec.k, data.n * (data.b + 1)))
    _project_rows(np.random.default_rng(np.random.SeedSequence(int(spec.seed))), spec.s,
                  split.slices, out)
    out *= spec.scale
    return _unstack(out, data)


def predicted_distance_variance(w: np.ndarray, s: float, k: int) -> float:
    """Variance of ||R w||^2: (2 ||w||^4 + (s - 3) sum w^4) / k."""
    w = np.asarray(w, dtype=np.float64)
    sq = float(np.einsum("i,i->", w, w))  # not BLAS, whose rounding varies with its threads
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


def jl_diagnostic(u, v, spec: ProjectionSpec, draws: int) -> JlDiagnostic:
    """Empirical mean and variance of ||R u - R v||^2 over independent draws.

    By linearity only w = u - v matters, so each draw reduces to k fresh
    matrix rows dotted with w. w is split without error like `compress`'s
    data, and `_project_rows` multiplies its slices by the rows, exactly,
    in chunks of _JL_CHUNK draws: chunk c draws from a stream of its own,
    seeded by (seed, STREAM_DIAGNOSTIC, c), into its rows of the row sums.
    The chunks run on a pool of one thread per CPU the process may use, so
    the result depends on neither the CPU nor the BLAS thread count. Beside
    the k * draws row sums a call holds one sign block per thread.
    """
    draws = as_index(draws, "draws")
    if draws < _JL_MIN_DRAWS:
        raise ParameterError(f"draws must be at least {_JL_MIN_DRAWS}, got {draws}")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != (spec.d,) or v.shape != (spec.d,):
        raise DimensionError(f"u and v must have shape ({spec.d},)")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValidationError("u and v must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        w = u - v
        exact = float(np.einsum("i,i->", w, w))
        predicted = predicted_distance_variance(w, spec.s, spec.k)
    if not (math.isfinite(exact) and math.isfinite(predicted)):
        raise ValidationError("||u - v||^2 or its predicted variance overflows float64")

    if exact == 0.0:
        mean_sq = var_sq = 0.0
    else:
        slices = _error_free_slices(w[:, None].copy())
        dots = np.empty((draws * spec.k, 1))
        rows = _JL_CHUNK * spec.k

        def chunk(c: int) -> None:
            rng = np.random.default_rng(seed_sequence(int(spec.seed), STREAM_DIAGNOSTIC, c))
            _project_rows(rng, spec.s, slices, dots[c * rows : (c + 1) * rows])

        with ThreadPoolExecutor(max_workers=available_cpus()) as pool:
            list(pool.map(chunk, range(-(-draws // _JL_CHUNK))))
        sq = np.square(dots, out=dots).reshape(draws, spec.k).sum(axis=1) * (spec.s / spec.k)
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

