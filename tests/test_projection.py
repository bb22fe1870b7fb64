"""Projection generation, streaming application, caching, and JL diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from rpchoice import (
    DimensionError,
    ParameterError,
    ProjectionSpec,
    SparseProjection,
    ValidationError,
    apply,
    generate,
    jl_diagnostic,
    load_projection,
    logit_oracle_dataset,
    predicted_distance_variance,
    resolve_sparsity,
    save_projection,
)
from rpchoice._seeds import STREAM_DIAGNOSTIC, seed_sequence
from rpchoice.projection import _sign_masks


class TestSpec:
    def test_presets(self):
        assert resolve_sparsity("optimal", 100) == 1.0
        assert resolve_sparsity("1", 100) == 1.0
        assert resolve_sparsity("gaussian-equivalent", 100) == 3.0
        assert resolve_sparsity("3", 100) == 3.0
        assert resolve_sparsity("sqrt", 100) == pytest.approx(10.0)
        assert resolve_sparsity("sparse", 400) == pytest.approx(20.0)
        assert resolve_sparsity(2.5, 100) == 2.5

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            resolve_sparsity("dense", 100)

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
        np.testing.assert_allclose(np.abs(proj.values), 1.0 / math.sqrt(10.0))

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
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.values, b.values)
        assert set(np.unique(a.values)).issubset({-1.0, 0.0, 1.0})

    def test_different_seeds_differ(self):
        a = generate(ProjectionSpec(k=5, d=50, s=1.0, seed=0))
        b = generate(ProjectionSpec(k=5, d=50, s=1.0, seed=1))
        assert not np.array_equal(a.values, b.values) or not np.array_equal(
            a.cols, b.cols
        )

    def test_no_duplicate_cells(self):
        proj = generate(ProjectionSpec(k=7, d=40, s=2.0, seed=4))
        cells = set(zip(proj.rows.tolist(), proj.cols.tolist()))
        assert len(cells) == proj.nnz

    def test_columns_sorted(self):
        proj = generate(ProjectionSpec(k=7, d=40, s=2.0, seed=4))
        assert np.all(np.diff(proj.cols) >= 0)


class TestLeanPath:
    """generate() and apply() against the lexsort / COO route they replaced:
    the same triplets, the same csc arrays and the same compressed bits."""

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
        np.testing.assert_array_equal(proj.rows, rows)
        np.testing.assert_array_equal(proj.cols, cols)
        np.testing.assert_array_equal(proj.values, values)
        csc = proj._csc()
        np.testing.assert_array_equal(csc.indptr, reference.indptr)
        np.testing.assert_array_equal(csc.indices, reference.indices)
        np.testing.assert_array_equal(csc.data, reference.data)
        compressed = apply(proj, data)
        for market, cm in zip(data.markets, compressed.markets):
            out = reference @ np.hstack([market.covariates, market.shares[:, None]])
            np.testing.assert_array_equal(cm.covariates, out[:, :-1])
            np.testing.assert_array_equal(cm.shares, out[:, -1])

    @pytest.mark.parametrize("swap", [(0, 1), (2, 3)])
    def test_unsorted_triplets_rejected(self, swap):
        proj = generate(ProjectionSpec(k=3, d=4, s=1.0, seed=2))
        order = np.arange(proj.nnz)
        order[list(swap)] = order[list(reversed(swap))]
        with pytest.raises(ValidationError, match="sorted by column, then row"):
            SparseProjection(proj.spec, proj.rows[order], proj.cols[order],
                             proj.values[order])

    def test_duplicate_cell_rejected(self):
        proj = generate(ProjectionSpec(k=3, d=4, s=1.0, seed=2))
        keep = np.r_[0, np.arange(proj.nnz - 1)]
        with pytest.raises(ValidationError, match="no duplicate cell"):
            SparseProjection(proj.spec, proj.rows[keep], proj.cols[keep],
                             proj.values[keep])


class TestApply:
    def test_matches_dense_product(self, rng):
        data = logit_oracle_dataset(3, 9, 2, np.array([0.6, 0.8]), seed=5)
        proj = generate(ProjectionSpec(k=4, d=9, s=2.0, seed=6))
        dense = proj.dense()
        compressed = apply(proj, data)
        for market, cm in zip(data.markets, compressed.markets):
            np.testing.assert_allclose(
                cm.covariates, dense @ market.covariates, atol=1e-12
            )
            np.testing.assert_allclose(cm.shares, dense @ market.shares, atol=1e-12)

    def test_single_all_plus_row_sums_shares(self):
        # s=1, k=1: entries are exactly +/-1; pick a seed whose single row is
        # all +1 so the projected share vector is the plain share sum, 1
        d = 2
        seed = next(
            s
            for s in range(200)
            if (generate(ProjectionSpec(k=1, d=d, s=1.0, seed=s)).values == 1.0).all()
        )
        proj = generate(ProjectionSpec(k=1, d=d, s=1.0, seed=seed))
        data = logit_oracle_dataset(2, d, 2, np.array([0.6, 0.8]), seed=8)
        compressed = apply(proj, data)
        for cm in compressed.markets:
            assert cm.shares[0] == pytest.approx(1.0, abs=1e-12)

    def test_large_design_shapes(self):
        data = logit_oracle_dataset(30, 5000, 2, np.array([0.6, 0.8]), seed=0)
        proj = generate(ProjectionSpec(k=100, d=5000, s=1.0, seed=1))
        compressed = apply(proj, data)
        assert compressed.n == 30
        assert all(m.covariates.shape == (100, 2) for m in compressed.markets)
        assert all(m.shares.shape == (100,) for m in compressed.markets)

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
        stacked = np.concatenate([m.shares for m in compressed.markets])
        assert (stacked < 0).any()


class TestCache:
    def test_round_trip(self, tmp_path):
        proj = generate(ProjectionSpec(k=8, d=64, s=8.0, seed=11))
        path = str(tmp_path / "proj.bin")
        save_projection(proj, path)
        back = load_projection(path)
        assert back.spec == proj.spec
        assert np.array_equal(back.rows, proj.rows)
        assert np.array_equal(back.cols, proj.cols)
        assert np.array_equal(back.values, proj.values)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTAPROJ" + b"\x00" * 64)
        with pytest.raises(Exception):
            load_projection(str(path))


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
        dots = signs @ w
        sq = (dots**2).reshape(draws, k).sum(axis=1) * (spec.s / spec.k)
        assert diag.mean_sq_dist == sq.mean()
        assert diag.var_sq_dist == sq.var(ddof=1)

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
