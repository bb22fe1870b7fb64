"""Projection generation, streaming application, and JL diagnostics."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import rpchoice
from rpchoice import (
    Dataset,
    DimensionError,
    Market,
    ParameterError,
    ProjectionSpec,
    SparseProjection,
    ValidationError,
    apply,
    generate,
    jl_diagnostic,
    logit_oracle_dataset,
    predicted_distance_variance,
    resolve_sparsity,
)
from rpchoice._seeds import STREAM_DIAGNOSTIC, seed_sequence
from rpchoice import projection as projection_module
from rpchoice.projection import (
    ExactSplit,
    _dots_dense,
    _error_free_slices,
    _sign_blocks,
    _sign_masks,
    _tall_block,
    compress,
)


class TestSpec:
    def test_presets(self):
        assert resolve_sparsity("1", 100) == 1.0
        assert resolve_sparsity("3", 100) == 3.0
        assert resolve_sparsity(" 2.5 ", 100) == 2.5
        assert resolve_sparsity("sqrt", 100) == pytest.approx(10.0)
        assert resolve_sparsity("SQRT", 400) == pytest.approx(20.0)
        assert resolve_sparsity(2.5, 100) == 2.5

    @pytest.mark.parametrize("name", ["dense", "optimal", "gaussian-equivalent", "sparse"])
    def test_unknown_preset(self, name):
        with pytest.raises(ParameterError, match="unknown sparsity preset"):
            resolve_sparsity(name, 100)

    @pytest.mark.parametrize("seed", [1.7, -0.5, 1.0, "1", -1, 2 ** 64])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        """A float is refused rather than truncated to another seed's matrix."""
        with pytest.raises(ParameterError, match="seed must be a 64-bit unsigned integer"):
            ProjectionSpec(k=10, d=100, s=1.0, seed=seed)

    def test_numpy_integer_seed_draws_the_same_matrix(self):
        plain = generate(ProjectionSpec(k=10, d=100, s=3.0, seed=7))
        numpy_int = generate(ProjectionSpec(k=10, d=100, s=3.0, seed=np.uint64(7)))
        assert (plain.matrix != numpy_int.matrix).nnz == 0

    def test_k_bounds(self):
        with pytest.raises(DimensionError):
            ProjectionSpec(k=101, d=100, s=1.0, seed=0)
        with pytest.raises(DimensionError):
            ProjectionSpec(k=0, d=100, s=1.0, seed=0)

    def test_s_bounds(self):
        with pytest.raises(ParameterError):
            ProjectionSpec(k=10, d=100, s=0.5, seed=0)
        with pytest.raises(ParameterError):
            ProjectionSpec(k=10, d=100, s=101.0, seed=0)

    def test_scale_value(self):
        spec = ProjectionSpec(k=10, d=100, s=4.0, seed=0)
        assert spec.scale == pytest.approx(math.sqrt(4.0 / 10.0))
        assert spec.nonzero_prob == pytest.approx(0.25)


class TestGenerate:
    def test_s1_is_fully_dense(self):
        proj = generate(ProjectionSpec(k=10, d=100, s=1.0, seed=3))
        assert proj.nnz == 1000
        np.testing.assert_allclose(np.abs(proj.matrix.data), 1.0 / math.sqrt(10.0))

    def test_sqrt_d_sparsity_fraction(self):
        # d=5000, s=sqrt(5000): nonzero probability 1/s ~ 0.0141, so the
        # matrix is ~98.6% zeros
        s = math.sqrt(5000.0)
        proj = generate(ProjectionSpec(k=100, d=5000, s=s, seed=1))
        p = 1.0 / s
        sigma = math.sqrt(p * (1 - p) / (100 * 5000))
        assert abs(proj.nonzero_fraction - p) < 5 * sigma

    def test_determinism(self):
        spec = ProjectionSpec(k=2, d=2, s=2.0, seed=99)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.matrix.indptr, b.matrix.indptr)
        assert np.array_equal(a.matrix.indices, b.matrix.indices)
        assert np.array_equal(a.matrix.data, b.matrix.data)
        assert set(np.unique(a.matrix.data)).issubset({-1.0, 0.0, 1.0})

    def test_different_seeds_differ(self):
        a = generate(ProjectionSpec(k=5, d=50, s=1.0, seed=0))
        b = generate(ProjectionSpec(k=5, d=50, s=1.0, seed=1))
        assert not np.array_equal(a.matrix.data, b.matrix.data) or not np.array_equal(
            a.matrix.indices, b.matrix.indices
        )

    def test_no_duplicate_cells(self):
        coo = generate(ProjectionSpec(k=7, d=40, s=2.0, seed=4)).matrix.tocoo()
        cells = set(zip(coo.row.tolist(), coo.col.tolist()))
        assert len(cells) == coo.nnz

    def test_columns_sorted(self):
        # stored order: column-major cell numbers strictly increase
        coo = generate(ProjectionSpec(k=7, d=40, s=2.0, seed=4)).matrix.tocoo()
        assert np.all(np.diff(coo.col.astype(np.int64) * 7 + coo.row) > 0)

    def test_peak_memory_per_cell(self):
        # the uniforms take 8 bytes per cell; the masks and the csc index and
        # value arrays must fit in the rest of the bound
        spec = ProjectionSpec(k=200, d=2000, s=1.0, seed=5)
        generate(spec)  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (spec.k * spec.d) <= 40.0


class TestLeanPath:
    """generate() and apply() against the lexsort / COO route they replaced:
    the same csc arrays and the same compressed bits."""

    @pytest.mark.parametrize("s", [1.0, 3.0, math.sqrt(900.0)])
    def test_bit_identical_to_lexsort_coo_reference(self, s):
        data = logit_oracle_dataset(6, 900, 2, np.array([0.6, 0.8]), seed=3)
        spec = ProjectionSpec(k=40, d=900, s=s, seed=17)
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
        plus, minus = _sign_masks(rng.random((spec.k, spec.d)), spec.s)
        rows, cols = np.nonzero(plus | minus)
        values = np.where(plus[rows, cols], spec.scale, -spec.scale)
        order = np.lexsort((rows, cols))
        rows, cols, values = rows[order], cols[order], values[order]
        reference = sparse.csc_matrix((values, (rows, cols)), shape=(spec.k, spec.d))

        proj = generate(spec)
        np.testing.assert_array_equal(proj.matrix.indptr, reference.indptr)
        np.testing.assert_array_equal(proj.matrix.indices, reference.indices)
        np.testing.assert_array_equal(proj.matrix.data, reference.data)
        assert not proj.matrix.data.flags.writeable
        assert not proj.matrix.indices.flags.writeable
        compressed = apply(proj, data)
        for i, market in enumerate(data.markets):
            out = reference @ np.hstack([market.covariates, market.shares[:, None]])
            np.testing.assert_array_equal(compressed.covariates[i], out[:, :-1])
            np.testing.assert_array_equal(compressed.shares[i], out[:, -1])

    @pytest.mark.parametrize(
        "case, error, match",
        [
            ("shape", DimensionError, "does not match k x d"),
            ("unsorted", ValidationError, "sorted within each column"),
            ("repeated", ValidationError, "no duplicate cell"),
            ("out_of_range", DimensionError, "invalid csc structure"),
            ("value", ValidationError, r"sqrt\(s/k\)"),
        ],
        ids=["shape", "unsorted", "repeated", "out_of_range", "value"],
    )
    def test_constructor_rejects(self, case, error, match):
        proj = generate(ProjectionSpec(k=3, d=4, s=1.0, seed=2))
        m = proj.matrix
        data, indices, indptr = m.data.copy(), m.indices.copy(), m.indptr.copy()
        shape = (3, 4)
        if case == "shape":
            shape = (4, 4)
        elif case == "unsorted":
            indices[[0, 1]] = indices[[1, 0]]
        elif case == "repeated":
            indices[1] = indices[0]
        elif case == "out_of_range":
            indices[0] = 3
        else:
            data[0] *= 2.0
        SparseProjection(proj.spec, sparse.csc_matrix((m.data, m.indices, m.indptr), shape=(3, 4)))
        with pytest.raises(error, match=match):
            SparseProjection(proj.spec, sparse.csc_matrix((data, indices, indptr), shape=shape))


class TestApply:
    def test_matches_dense_product(self, rng):
        data = logit_oracle_dataset(3, 9, 2, np.array([0.6, 0.8]), seed=5)
        proj = generate(ProjectionSpec(k=4, d=9, s=2.0, seed=6))
        dense = proj.matrix.toarray()
        compressed = apply(proj, data)
        for i, market in enumerate(data.markets):
            np.testing.assert_allclose(
                compressed.covariates[i], dense @ market.covariates, atol=1e-12
            )
            np.testing.assert_allclose(
                compressed.shares[i], dense @ market.shares, atol=1e-12
            )

    def test_single_all_plus_row_sums_shares(self):
        # s=1, k=1: entries are exactly +/-1; pick a seed whose single row is
        # all +1 so the projected share vector is the plain share sum, 1
        d = 2
        seed = next(
            s
            for s in range(200)
            if (generate(ProjectionSpec(k=1, d=d, s=1.0, seed=s)).matrix.data == 1.0).all()
        )
        proj = generate(ProjectionSpec(k=1, d=d, s=1.0, seed=seed))
        data = logit_oracle_dataset(2, d, 2, np.array([0.6, 0.8]), seed=8)
        compressed = apply(proj, data)
        np.testing.assert_allclose(compressed.shares[:, 0], 1.0, atol=1e-12)

    def test_large_design_shapes(self):
        data = logit_oracle_dataset(30, 5000, 2, np.array([0.6, 0.8]), seed=0)
        proj = generate(ProjectionSpec(k=100, d=5000, s=1.0, seed=1))
        compressed = apply(proj, data)
        assert compressed.n == 30
        assert compressed.covariates.shape == (30, 100, 2)
        assert compressed.shares.shape == (30, 100)

    def test_dimension_mismatch(self):
        data = logit_oracle_dataset(3, 9, 2, np.array([0.6, 0.8]), seed=5)
        proj = generate(ProjectionSpec(k=4, d=10, s=1.0, seed=6))
        with pytest.raises(DimensionError):
            apply(proj, data)

    def test_linearity(self, rng):
        proj = generate(ProjectionSpec(k=6, d=30, s=3.0, seed=7))
        u = rng.standard_normal(30)
        v = rng.standard_normal(30)
        alpha = 2.75
        left = proj.apply_to(alpha * u + v)
        right = alpha * proj.apply_to(u) + proj.apply_to(v)
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_compressed_shares_can_go_negative(self):
        data = logit_oracle_dataset(2, 50, 2, np.array([0.6, 0.8]), seed=9)
        proj = generate(ProjectionSpec(k=10, d=50, s=1.0, seed=10))
        compressed = apply(proj, data)
        assert (compressed.shares < 0).any()


def _panel(covariates, shares) -> Dataset:
    return Dataset(tuple(Market(c, s) for c, s in zip(covariates, shares)))


_SPLIT_KINDS = ("one_slice", "two_slices", "three_slices", "four_slices", "zero_column",
                "nine_slices")


def _split_input(kind: str) -> Dataset:
    """Three markets, d = 64, b = 2, built to need a known number of slices
    (beta = 46 bits per slice at d = 64); normal covariates and Dirichlet
    shares need two."""
    rng = np.random.default_rng(21)
    cov = rng.standard_normal((3, 64, 2))
    shares = rng.dirichlet(np.ones(64), size=3)
    if kind == "one_slice":  # small integers and multiples of 1/256
        cov = rng.integers(-3, 4, size=(3, 64, 2)).astype(float)
        shares = rng.integers(0, 4, size=(3, 64)) / 256.0
    elif kind == "three_slices":  # a full mantissa 2^-60 below its column's peak
        cov[1, 5, 0] = 1e-18
    elif kind == "zero_column":
        cov[0, :, 1] = 0.0
    elif kind == "four_slices":  # about 2^-100 below its column's peak
        cov[1, 5, 0] = 1e-30
    elif kind == "nine_slices":  # 2^-330 below its column's peak
        cov[2, 7, 1] = 1e-100
    return _panel(cov, shares)


# signed zeros, subnormals down to the least, and values near the largest float
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0,
                1.7976931348623157e308, -1.7976931348623157e308, 1.7e308)


@st.composite
def _split_columns(draw):
    """A (d, c) block of finite floats, several entries drawn from the edges."""
    d = draw(st.sampled_from([1, 2, 3, 64, 1000]))
    c = draw(st.integers(1, 3))
    values = st.one_of(st.sampled_from(_EDGE_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))
    block = np.zeros((d, c))
    cells = draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, c - 1), values),
                          max_size=12))
    for row, col, value in cells:
        block[row, col] = value
    return block


def _slice_sum(slices: np.ndarray, c: int) -> np.ndarray:
    """The (d, c) slices, side by side in `slices`, added in slice order."""
    total = slices[:, :c].copy()
    for first in range(c, slices.shape[1], c):
        total += slices[:, first:first + c]
    return total


def _kernel(monkeypatch, name: str) -> None:
    """Send every `compress` to one kernel, whatever its s."""
    monkeypatch.setattr(projection_module, "_SPARSE_SAMPLER_MAX_PROB",
                        {"dense": 0.0, "csc": 1.0}[name])


class TestCompress:
    """The fused route against `apply(generate(spec), data)`, its reference."""

    @staticmethod
    def _stacked(compressed):
        return np.concatenate([compressed.covariates, compressed.shares[:, :, None]], axis=2)

    @pytest.mark.parametrize("kind, count", [("one_slice", 1), ("two_slices", 2),
                                             ("three_slices", 3), ("four_slices", 4),
                                             ("zero_column", 2), ("nine_slices", 9)])
    @pytest.mark.parametrize("s", [1.0, 3.0])
    def test_matches_the_csc_product(self, kind, count, s):
        """Write u = 2^-53 and M = |R| @ |T|. The reference rounds a sum of d
        products, so it is within d u M of R T (to first order, as below).
        The fused route's slice products are exact. Slice i rounds what
        slices 0 .. i-1 left to a multiple of its unit, so it is at most
        twice that rest, which is no larger than T, entry by entry: every
        partial sum of slices is T less a rest, at most 2 |T|. Each of the
        count - 1 additions of slice products therefore rounds by at most
        2 u M, and the scaling by sqrt(s/k) by u M. The two results differ by
        at most (d + 2 count - 1) u M; the test allows 2 (d + 2 count) u M."""
        data = _split_input(kind)
        assert ExactSplit(data).count == count
        spec = ProjectionSpec(k=16, d=64, s=s, seed=8)
        fused = compress(spec, ExactSplit(data))
        proj = generate(spec)
        csc = apply(proj, data)
        assert fused.spec == spec
        magnitude = (abs(proj.matrix) @ np.abs(_tall_block(data))).reshape(16, 3, 3)
        bound = 2 * (spec.d + 2 * count) * 2.0 ** -53 * magnitude.transpose(1, 0, 2)
        diff = np.abs(self._stacked(fused) - self._stacked(csc))
        assert (diff <= bound).all()
        if kind == "zero_column":
            assert not fused.covariates[0, :, 1].any()

    def test_split_adds_up_exactly(self):
        """The slices add up to T; T itself is not kept beside them."""
        for kind in _SPLIT_KINDS:
            data = _split_input(kind)
            split = ExactSplit(data)
            block = _tall_block(data)
            assert _slice_sum(split.slices, block.shape[1]).tobytes() == block.tobytes()
            assert not split.slices.flags.writeable

    @given(_split_columns())
    @settings(max_examples=150)
    def test_split_is_exact_on_any_finite_column(self, block):
        """The slices add up to T entry by entry; each entry of slice i is an
        integer multiple of its column's unit 2^max(e - beta (i+1), -1074),
        2^e the smallest power of two at or above the column's peak, and at
        most 2^beta of them; no T needs more than ceil(2098 / beta) slices."""
        d, c = block.shape
        beta = 52 - (d - 1).bit_length()
        slices = _error_free_slices(block.copy())
        count = slices.shape[1] // c
        assert slices.shape == (d, count * c)
        assert 1 <= count <= -(-2098 // beta)
        assert (_slice_sum(slices, c) == block).all()
        for j in range(c):
            mantissa, e = math.frexp(float(np.abs(block[:, j]).max()))
            e -= mantissa == 0.5
            for i in range(count):
                piece = slices[:, i * c + j]
                unit = 2.0 ** max(e - beta * (i + 1), -1074)
                assert (np.fmod(piece, unit) == 0).all()
                assert (np.abs(piece / unit) <= 2.0 ** beta).all()

    def test_split_of_the_widest_column_takes_the_bound(self):
        """From 1e300 down to the least subnormal at d = 64 (beta = 46) the
        units run down to the 2^-1074 floor: ceil(2098 / 46) = 46 slices."""
        block = np.zeros((64, 1))
        block[:2, 0] = 1e300, 5e-324
        slices = _error_free_slices(block.copy())
        assert slices.shape == (64, 46)
        assert (_slice_sum(slices, 1) == block).all()

    @pytest.mark.parametrize("kind", _SPLIT_KINDS)
    @pytest.mark.parametrize("s", [1.0, 3.0, 25.0])
    def test_kernels_return_the_same_bits(self, monkeypatch, kind, s):
        data = _split_input(kind)
        split = ExactSplit(data)
        spec = ProjectionSpec(k=16, d=64, s=s, seed=8)
        results = []
        for name in ("dense", "csc"):
            _kernel(monkeypatch, name)
            results.append(self._stacked(compress(spec, split)).tobytes())
        assert results[0] == results[1]

    def test_kernels_return_the_same_bits_at_sqrt_d(self, monkeypatch):
        data = logit_oracle_dataset(4, 900, 2, np.array([0.6, 0.8]), seed=3)
        spec = ProjectionSpec(k=30, d=900, s=resolve_sparsity("sqrt", 900), seed=4)
        assert spec.nonzero_prob <= projection_module._SPARSE_SAMPLER_MAX_PROB
        split = ExactSplit(data)
        csc = self._stacked(compress(spec, split)).tobytes()
        _kernel(monkeypatch, "dense")
        assert self._stacked(compress(spec, split)).tobytes() == csc

    def test_block_height_leaves_the_bits(self, monkeypatch):
        data = logit_oracle_dataset(3, 200, 2, np.array([0.6, 0.8]), seed=5)
        spec = ProjectionSpec(k=40, d=200, s=1.0, seed=6)
        whole = compress(spec, ExactSplit(data))
        monkeypatch.setattr(projection_module, "_BLOCK_BYTES", 3 * 8 * 200)  # 3 rows
        blocked = compress(spec, ExactSplit(data))
        assert self._stacked(whole).tobytes() == self._stacked(blocked).tobytes()

    def test_dimension_mismatch(self):
        split = ExactSplit(_split_input("two_slices"))
        with pytest.raises(DimensionError):
            compress(ProjectionSpec(k=4, d=65, s=1.0, seed=0), split)

    def test_result_independent_of_blas_threads(self):
        """On this design a plain `signs @ T` product rounds differently at
        one and at two OpenBLAS threads; the split's products are exact, so
        the output's hash must not change."""
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from rpchoice import ProjectionSpec, logit_oracle_dataset\n"
            "from rpchoice.projection import ExactSplit, compress\n"
            "data = logit_oracle_dataset(8, 1000, 2, np.array([0.6, 0.8]), seed=3)\n"
            "out = compress(ProjectionSpec(k=50, d=1000, s=1.0, seed=7), ExactSplit(data))\n"
            "print(hashlib.sha256(out.covariates.tobytes() + out.shares.tobytes()).hexdigest())"
        )
        src = str(Path(rpchoice.__file__).resolve().parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    def test_split_runs_in_place_and_keeps_only_the_slices(self):
        """On the usual two-slice split the build holds T, split in place, and
        the two slices beside it, and keeps only the slices: a traced peak of
        3 T and 2 T kept, where a copy of T kept beside them would be 4 T and 3 T."""
        data = logit_oracle_dataset(30, 5000, 2, np.array([0.6, 0.8]), seed=0)
        ExactSplit(data)  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            split = ExactSplit(data)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tall = 8 * data.d * data.n * (data.b + 1)
        assert split.count == 2
        assert peak < 3.2 * tall
        assert kept < 2.1 * tall

    def test_split_is_sized_once(self):
        """A column of normals with one entry at 2^-75 spans e - p = 77 > 2
        beta bits at d = 100,000 (beta = 35), so it needs 3 slices. Counted up
        front, the split holds T and the 3 slices, never a larger output or a
        trimmed copy of it; 64 kB covers the per-column counts and the block
        scratch beyond T's 800 kB. Made room for 4 slices and copied, the
        peak would be T + 4 + 3 slices."""
        column = np.random.default_rng(2).standard_normal((100_000, 1))
        column[7, 0] = 2.0 ** -75
        _error_free_slices(column.copy())  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            slices = _error_free_slices(column.copy())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert slices.shape == (100_000, 3)
        assert (_slice_sum(slices, 1) == column).all()
        assert peak <= column.nbytes + slices.nbytes + 64_000

    def test_peak_memory_is_one_row_block_plus_the_output(self):
        """`generate` peaks at 52.6 MB on this shape; the dense kernel holds one row block (uniforms overwritten by the signs, and two
        masks: 10 bytes a cell) and a few copies of the (k, n (b+1)) output."""
        data = logit_oracle_dataset(30, 5000, 2, np.array([0.6, 0.8]), seed=0)
        spec = ProjectionSpec(k=500, d=5000, s=1.0, seed=1)
        split = ExactSplit(data)
        compress(spec, split)  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            compress(spec, split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = projection_module._BLOCK_BYTES // (8 * spec.d)
        output = 8 * spec.k * data.n * (data.b + 1)
        assert peak <= 10 * rows * spec.d + 4 * output
        assert peak < 52.6e6 / 4


class TestPredictedVariance:
    def test_s3_matches_gaussian_benchmark(self, rng):
        # at s=3 the fourth-moment term drops out: var = 2 ||w||^4 / k
        w = rng.standard_normal(200)
        k = 25
        assert predicted_distance_variance(w, 3.0, k) == pytest.approx(
            2.0 * (w @ w) ** 2 / k
        )

    def test_formula(self, rng):
        w = rng.standard_normal(50)
        k, s = 10, 7.0
        expected = (2.0 * (w @ w) ** 2 + (s - 3.0) * (w**4).sum()) / k
        assert predicted_distance_variance(w, s, k) == pytest.approx(expected)


class TestJlDiagnostic:
    def test_identical_vectors(self):
        spec = ProjectionSpec(k=5, d=20, s=1.0, seed=0)
        u = np.arange(20.0)
        diag = jl_diagnostic(u, u, spec, draws=1000)
        assert diag.exact_sq_dist == 0.0
        assert diag.mean_sq_dist == 0.0
        assert diag.var_sq_dist == 0.0
        assert diag.predicted_var == 0.0

    def test_minimum_draws_enforced(self):
        spec = ProjectionSpec(k=5, d=20, s=1.0, seed=0)
        with pytest.raises(ParameterError):
            jl_diagnostic(np.ones(20), np.zeros(20), spec, draws=10)

    def test_dense_route_ties_to_generate_thresholds(self):
        """The dense sampler must consume uniforms exactly like generate().

        Rebuild the diagnostic's stream, threshold the same uniforms into sign
        matrices, and reproduce mean and variance to the last bit.
        """
        d, k, draws = 40, 4, 1000
        spec = ProjectionSpec(k=k, d=d, s=2.0, seed=21)
        rng = np.random.default_rng(np.random.SeedSequence(77))
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        diag = jl_diagnostic(u, v, spec, draws=draws)

        w = u - v
        stream = np.random.default_rng(seed_sequence(spec.seed, STREAM_DIAGNOSTIC))
        uniforms = stream.random((draws * k, d))
        half = 0.5 / spec.s
        signs = (uniforms < half).astype(float) - (uniforms >= 1.0 - half)
        dots = np.einsum("ij,j->i", signs, w)
        sq = (dots**2).reshape(draws, k).sum(axis=1) * (spec.s / spec.k)
        assert diag.mean_sq_dist == sq.mean()
        assert diag.var_sq_dist == sq.var(ddof=1)

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    def test_dense_chunks_on_two_threads_reproduce_one_stream(self, s):
        """The dense sampler splits its rows between two threads; the dots
        and the generator's final state must equal one generator drawing the
        same sign blocks one after another."""
        d = 1000
        per_block = projection_module._BLOCK_BYTES // (8 * d)
        n_rows = 2 * per_block + 123  # three blocks, the last one short
        w = np.random.default_rng(5).standard_normal(d)
        rng = np.random.default_rng(8)
        dots = _dots_dense(w, s, n_rows, rng)

        stream = np.random.default_rng(8)
        half = 0.5 / s
        expected = np.empty(n_rows)
        for lo in range(0, n_rows, per_block):
            uniforms = stream.random((min(per_block, n_rows - lo), d))
            signs = (uniforms < half).astype(float) - (uniforms >= 1.0 - half)
            expected[lo : lo + len(signs)] = np.einsum("ij,j->i", signs, w)
        assert dots.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == stream.bit_generator.state

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("d, rows", [
        (1000, 2 * (projection_module._BLOCK_BYTES // 8000) + 57),  # last block short
        (projection_module._BLOCK_BYTES // 8 + 11, 3),  # one-row blocks
    ])
    def test_sign_blocks_are_one_draw_thresholded(self, s, d, rows):
        """The blocks, copied and stacked, are the thresholds of one
        `random((rows, d))` call, and leave the generator where it leaves it."""
        rng = np.random.default_rng(13)
        blocks = [(first, signs.copy()) for first, signs in _sign_blocks(rng, s, d, rows)]
        assert [first for first, _ in blocks] == list(
            range(0, rows, max(1, projection_module._BLOCK_BYTES // (8 * d))))
        stream = np.random.default_rng(13)
        uniforms = stream.random((rows, d))
        half = 0.5 / s
        expected = (uniforms < half).astype(float) - (uniforms >= 1.0 - half)
        assert np.concatenate([signs for _, signs in blocks]).tobytes() == expected.tobytes()
        assert rng.bit_generator.state == stream.bit_generator.state

    def test_dense_peak_memory_is_two_sign_blocks_plus_the_output(self):
        """Each of the two threads holds one block of uniforms (overwritten by
        the signs) and its two boolean masks, whatever the row count, beside
        the output and about 20 kB of threads and generators."""
        d, n_rows = 1000, 10_000
        assert n_rows >= 4 * (projection_module._BLOCK_BYTES // (8 * d))
        w = np.random.default_rng(5).standard_normal(d)
        _dots_dense(w, 1.0, 2000, np.random.default_rng(8))  # warm caches outside the trace
        tracemalloc.start()
        try:
            _dots_dense(w, 1.0, n_rows, np.random.default_rng(8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = projection_module._BLOCK_BYTES
        assert peak < 2 * (block + 2 * block // 8) + 8 * n_rows + (1 << 16)

    def test_result_independent_of_blas_threads(self):
        """OpenBLAS splits a product by its thread count and rounds each split
        differently; the diagnostic must read the same at one BLAS thread and
        at two. Both designs differed in the last digits while BLAS formed
        the dense route's row sums (d = 1000) and ||w||^2 (d = 100,000)."""
        script = (
            "import numpy as np; from rpchoice import ProjectionSpec, jl_diagnostic\n"
            "for d, k, s, draws in ((1000, 50, 3.0, 10_000), (100_000, 5, 400.0, 1000)):\n"
            "    rng = np.random.default_rng(2026)\n"
            "    u, v = rng.standard_normal(d), rng.standard_normal(d)\n"
            "    spec = ProjectionSpec(k=k, d=d, s=s, seed=99)\n"
            "    print(repr(jl_diagnostic(u, v, spec, draws).to_dict()))"
        )
        src = str(Path(rpchoice.__file__).resolve().parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    def test_sparse_route_unbiased_and_variance(self):
        """Geometric skip-sampling route (1/s <= 0.05) against the formulas."""
        d, k, draws = 500, 5, 20000
        spec = ProjectionSpec(k=k, d=d, s=25.0, seed=31)
        assert spec.nonzero_prob <= 0.05  # confirms the sparse path is taken
        rng = np.random.default_rng(np.random.SeedSequence(78))
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        diag = jl_diagnostic(u, v, spec, draws=draws)
        w = u - v
        exact = float(w @ w)
        pred = predicted_distance_variance(w, spec.s, spec.k)
        # mean within 4 sigma of the MC error, variance within 10% relative
        assert abs(diag.mean_sq_dist - exact) < 4.0 * math.sqrt(pred / draws)
        assert abs(diag.var_sq_dist - pred) / pred < 0.10

    @given(st.integers(0, 2**32))
    @settings(max_examples=20)
    def test_diagnostic_deterministic_in_seed(self, seed):
        spec = ProjectionSpec(k=3, d=12, s=1.0, seed=seed)
        u = np.linspace(-1, 1, 12)
        v = np.zeros(12)
        a = jl_diagnostic(u, v, spec, draws=1000)
        b = jl_diagnostic(u, v, spec, draws=1000)
        assert a.mean_sq_dist == b.mean_sq_dist
        assert a.var_sq_dist == b.var_sq_dist

    def test_gaussian_equivalent_flag(self):
        spec = ProjectionSpec(k=3, d=12, s=3.0, seed=0)
        diag = jl_diagnostic(np.ones(12), np.zeros(12), spec, draws=1000)
        assert diag.gaussian_equivalent
        spec = ProjectionSpec(k=3, d=12, s=1.0, seed=0)
        diag = jl_diagnostic(np.ones(12), np.zeros(12), spec, draws=1000)
        assert not diag.gaussian_equivalent
