"""Synthetic data generation: covariate modes, MC shares, and the logit oracle.

The moving-window errors e_j = (1/3)(eta_j + eta_{j+1} + eta_{j+2} + eta_{j+3})
have Var(e) = 4/9, Cov(e_j, e_{j+1}) = 3/9, Cov(e_j, e_{j+2}) = 2/9. The share
tests below go through the real MC path and compare against normal-CDF oracles
implied by that covariance structure, which pins the window arithmetic without
peeking at internals:

    d=2, u=(delta, 0):  p_1 = Phi(delta / sqrt(2/9))
    d=3, u=(delta, 0, 0): p_1 = MVN cdf at (delta, delta) with
        cov [[2/9, 2/9], [2/9, 4/9]]
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import rpchoice
from rpchoice import (
    ErrorSpec,
    ParameterError,
    SimConfig,
    compute_shares_mc,
    criterion,
    cycle_residual_dot,
    default_mc_draws,
    draw_covariates,
    enumerate_cycles,
    estimate_polar_grid,
    logit_oracle_dataset,
    simulate_dataset,
)
from rpchoice import simulate as simulate_module
from rpchoice._seeds import STREAM_SHARES, derive_seed
from rpchoice.simulate import MA_TAPS, MA_WEIGHT, _shares_mc

MA = ErrorSpec("ma-window")
GUMBEL = ErrorSpec("iid-gumbel")


class TestConfig:
    def test_defaults(self):
        cfg = SimConfig(d=100)
        assert cfg.n == 30
        assert cfg.theta0 == pytest.approx(0.75 * math.pi)
        assert cfg.covariate_mode == "iid"
        assert cfg.error.kind == "ma-window"
        assert cfg.b == 2

    def test_mc_draw_defaults(self):
        assert default_mc_draws(100) == 100_000
        assert default_mc_draws(1000) == 100_000
        assert default_mc_draws(1001) == 10_000
        assert SimConfig(d=100).resolved_mc_draws == 100_000
        assert SimConfig(d=2000).resolved_mc_draws == 10_000

    def test_mc_floor(self):
        with pytest.raises(ParameterError):
            SimConfig(d=10, mc_draws=999)

    @pytest.mark.parametrize("seed", [1.7, -0.5, 2.0, -1, 2 ** 64])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        with pytest.raises(ParameterError, match="seed must be a 64-bit unsigned integer"):
            SimConfig(d=10, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert SimConfig(d=10, seed=np.int64(5)).seed == 5
        assert SimConfig(d=10, seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            SimConfig(d=10, covariate_mode="random")

    def test_bad_error_kind(self):
        with pytest.raises(ParameterError):
            ErrorSpec("laplace")

    def test_beta0(self):
        cfg = SimConfig(d=10, theta0=0.75 * math.pi)
        np.testing.assert_allclose(
            cfg.beta0(), [math.cos(0.75 * math.pi), math.sin(0.75 * math.pi)]
        )


class TestCovariates:
    def test_iid_pooled_means(self):
        blocks = draw_covariates(SimConfig(d=100_000, n=2, seed=4))
        pooled = np.vstack(blocks)
        sigma = 1.0 / math.sqrt(pooled.shape[0])
        assert abs(pooled[:, 0].mean() - 1.0) < 3 * sigma
        assert abs(pooled[:, 1].mean() + 1.0) < 3 * sigma
        assert abs(pooled[:, 0].std() - 1.0) < 0.02

    def test_iid_independent_across_markets(self):
        blocks = draw_covariates(SimConfig(d=100_000, n=2, seed=5))
        r = np.corrcoef(blocks[0][:, 0], blocks[1][:, 0])[0, 1]
        assert abs(r) < 3.0 / math.sqrt(100_000)

    def test_brand_effects_cross_market_correlation(self):
        # common brand draw with variance 0.5 plus unit noise: corr 1/3
        blocks = draw_covariates(
            SimConfig(d=100_000, n=2, seed=6, covariate_mode="brand-effects")
        )
        for col in (0, 1):
            r = np.corrcoef(blocks[0][:, col], blocks[1][:, col])[0, 1]
            assert r == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_brand_effects_means(self):
        blocks = draw_covariates(
            SimConfig(d=100_000, n=2, seed=7, covariate_mode="brand-effects")
        )
        pooled = np.vstack(blocks)
        assert pooled[:, 0].mean() == pytest.approx(1.0, abs=0.02)
        assert pooled[:, 1].mean() == pytest.approx(-1.0, abs=0.02)

    def test_market_effects_within_market_correlation(self):
        # market-level draw shared by every choice in the market: across the
        # market population, choices within a market correlate at 1/3
        blocks = draw_covariates(
            SimConfig(d=2, n=20_000, seed=8, covariate_mode="market-effects")
        )
        stacked = np.stack(blocks)  # (n, 2, 2)
        r = np.corrcoef(stacked[:, 0, 0], stacked[:, 1, 0])[0, 1]
        assert r == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_deterministic(self):
        a = draw_covariates(SimConfig(d=50, n=3, seed=9))
        b = draw_covariates(SimConfig(d=50, n=3, seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestMaWindowLaw:
    def test_variance_and_covariances(self):
        """Direct construction at 1e6 draws: var 4/9, lag-1 cov 1/3, lag-2 2/9."""
        n = 1_000_000
        d = 3
        rng = np.random.default_rng(10)
        eta = rng.standard_normal((n, d + MA_TAPS - 1))
        eps = eta[:, 0:d].copy()
        for tap in range(1, MA_TAPS):
            eps += eta[:, tap : tap + d]
        eps *= MA_WEIGHT

        var = eps[:, 0].var()
        sigma_var = math.sqrt(2.0 / n) * (4.0 / 9.0)
        assert abs(var - 4.0 / 9.0) < 3 * sigma_var

        cov1 = np.cov(eps[:, 0], eps[:, 1])[0, 1]
        sigma_cov = math.sqrt(((4 / 9) ** 2 + (1 / 3) ** 2) / n)
        assert abs(cov1 - 1.0 / 3.0) < 3 * sigma_cov

        cov2 = np.cov(eps[:, 0], eps[:, 2])[0, 1]
        sigma_cov2 = math.sqrt(((4 / 9) ** 2 + (2 / 9) ** 2) / n)
        assert abs(cov2 - 2.0 / 9.0) < 3 * sigma_cov2


class TestSharesMc:
    def test_symmetric_binary(self):
        shares = compute_shares_mc(np.zeros(2), MA, 100_000, seed=1)
        assert abs(shares[0] - 0.5) < 3 * 0.5 / math.sqrt(100_000)

    def test_large_gap_saturates(self):
        shares = compute_shares_mc(np.array([10.0, 0.0]), MA, 1000, seed=2)
        assert shares[0] > 0.999

    def test_normal_cdf_oracle_binary(self):
        # p_1 = Phi(delta / sqrt(2/9)) pins var(e2 - e1) = 2 (4/9 - 1/3)
        delta, draws = 0.5, 400_000
        shares = compute_shares_mc(np.array([delta, 0.0]), MA, draws, seed=3)
        p = stats.norm.cdf(delta / math.sqrt(2.0 / 9.0))
        assert abs(shares[0] - p) < 3 * math.sqrt(p * (1 - p) / draws)

    def test_mvn_oracle_ternary(self):
        # joint win probability pins the lag-2 covariance as well
        delta, draws = 0.4, 400_000
        shares = compute_shares_mc(np.array([delta, 0.0, 0.0]), MA, draws, seed=4)
        cov = np.array([[2.0 / 9.0, 2.0 / 9.0], [2.0 / 9.0, 4.0 / 9.0]])
        p = stats.multivariate_normal(mean=[0.0, 0.0], cov=cov).cdf([delta, delta])
        assert abs(shares[0] - p) < 3 * math.sqrt(p * (1 - p) / draws)

    def test_window_reversal_symmetry(self):
        # the window covariance is symmetric under index reversal, so with
        # equal utilities the first and last of three choices tie
        draws = 400_000
        shares = compute_shares_mc(np.zeros(3), MA, draws, seed=5)
        assert abs(shares[0] - shares[2]) < 4 * math.sqrt(0.35 * 0.65 * 2 / draws)

    def test_gumbel_matches_logit_closed_form(self):
        u = np.array([0.8, -0.3, 0.1, 0.4])
        draws = 200_000
        shares = compute_shares_mc(u, GUMBEL, draws, seed=6)
        expected = np.exp(u - u.max())
        expected /= expected.sum()
        for j in range(4):
            band = 3 * math.sqrt(expected[j] * (1 - expected[j]) / draws)
            assert abs(shares[j] - expected[j]) < band

    def test_exact_unit_sum_and_nonnegative(self):
        for seed in range(5):
            shares = compute_shares_mc(np.array([0.3, -0.2, 0.1]), MA, 1000, seed=seed)
            assert math.fsum(shares.tolist()) == 1.0
            assert (shares >= 0).all()

    def test_deterministic(self):
        a = compute_shares_mc(np.array([0.5, 0.0, -0.5]), MA, 5000, seed=7)
        b = compute_shares_mc(np.array([0.5, 0.0, -0.5]), MA, 5000, seed=7)
        assert np.array_equal(a, b)

    def test_draw_floor(self):
        with pytest.raises(ParameterError):
            compute_shares_mc(np.zeros(2), MA, 999, seed=0)

    @pytest.mark.parametrize("error", [MA, GUMBEL], ids=["ma-window", "iid-gumbel"])
    def test_chunk_height_changes_no_bit(self, error):
        """The stream is read one draw's row at a time, so chunks of 1 and 7
        rows give the full budget's shares bit for bit."""
        u = np.random.default_rng(8).standard_normal(50)
        full = compute_shares_mc(u, error, 3000, seed=9)
        assert np.array_equal(_shares_mc(u, error, 3000, 9, budget_bytes=1), full)
        assert np.array_equal(_shares_mc(u, error, 3000, 9, budget_bytes=16 * (50 + MA_TAPS - 1) * 7), full)


class TestSimulateDataset:
    def test_shapes_and_reproducibility(self):
        cfg = SimConfig(d=12, n=4, seed=20, mc_draws=1000)
        a = simulate_dataset(cfg)
        b = simulate_dataset(cfg)
        assert (a.n, a.d, a.b) == (4, 12, 2)
        for ma, mb in zip(a.markets, b.markets):
            assert np.array_equal(ma.covariates, mb.covariates)
            assert np.array_equal(ma.shares, mb.shares)

    def test_true_angle_inside_unprojected_set(self, headline_dataset, cycles30):
        _, idset = estimate_polar_grid(headline_dataset, cycles30)
        assert idset.q_min == 0.0
        assert idset.contains(0.75 * math.pi)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("mode", ["iid", "brand-effects", "market-effects"])
    @pytest.mark.parametrize("error", [MA, GUMBEL], ids=["ma-window", "iid-gumbel"])
    def test_bit_identical_at_any_worker_count(self, monkeypatch, cpus, mode, error):
        """The pool's dataset equals a serial loop of compute_shares_mc, one
        market after another, whatever the CPU count sizing the pool."""
        cfg = SimConfig(d=300, n=6, seed=22, covariate_mode=mode, error=error, mc_draws=2000)
        covariates = draw_covariates(cfg)
        shares = [
            compute_shares_mc(cov @ cfg.beta0(), error, 2000, derive_seed(22, STREAM_SHARES, m))
            for m, cov in enumerate(covariates)
        ]
        monkeypatch.setattr(simulate_module, "available_cpus", lambda: cpus)
        data = simulate_dataset(cfg)
        assert data.covariate_stack().tobytes() == np.stack(covariates).tobytes()
        assert data.share_stack().tobytes() == np.stack(shares).tobytes()

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (8, 4), (30, 4)])
    def test_pool_gives_each_market_a_quarter_of_the_budget_or_more(self, monkeypatch, cpus,
                                                                    workers):
        """At most 4 markets run at once, so no chunk falls below
        _MIN_CHUNK_BYTES however many CPUs the process may use."""
        pools, budgets = [], []
        pool_class, shares_mc = simulate_module.ThreadPoolExecutor, simulate_module._shares_mc

        def pool(max_workers):
            pools.append(max_workers)
            return pool_class(max_workers=max_workers)

        def shares(u, error, mc_draws, seed, budget_bytes):
            budgets.append(budget_bytes)
            return shares_mc(u, error, mc_draws, seed, budget_bytes)

        monkeypatch.setattr(simulate_module, "available_cpus", lambda: cpus)
        monkeypatch.setattr(simulate_module, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(simulate_module, "_shares_mc", shares)
        simulate_dataset(SimConfig(d=50, n=6, seed=3, mc_draws=1000))
        assert pools == [workers]
        assert budgets == [simulate_module._CHUNK_BUDGET_BYTES // workers] * 6
        assert min(budgets) >= simulate_module._MIN_CHUNK_BYTES

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_memory_stays_below_twice_raw_size(self, monkeypatch, cpus):
        """d=5000 build: peak traced allocation under 2x the raw data bytes,
        with the scratch budget shared by the pool that 1, 2 or 8 CPUs size
        (1, 2 or 4 workers). The chunks, not the draw count, set the peak:
        5.33-5.40 MB at 1,000 draws, the fewest allowed, as at 1,500."""
        monkeypatch.setattr(simulate_module, "available_cpus", lambda: cpus)
        cfg = SimConfig(d=5000, n=30, seed=21, mc_draws=1000)
        raw_bytes = 30 * 5000 * 3 * 8  # covariates (2 cols) + shares
        tracemalloc.start()
        try:
            data = simulate_dataset(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.d == 5000
        assert peak < 2 * raw_bytes

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to compare")
    def test_simulate_writes_the_same_file_on_one_cpu_and_on_all(self, tmp_path):
        """`simulate` sizes its pool by the CPUs it may use; the dataset it
        writes must not depend on how many that is."""
        script = ("import os, sys; from rpchoice import cli; from rpchoice._seeds import "
                  "available_cpus\n"
                  "if sys.argv[1] == 'one': os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                  "print(available_cpus())\n"
                  "sys.exit(cli.main(['simulate', '--d', '300', '--n', '8', '--mc-draws', '1000', "
                  "'--out', sys.argv[2]]))")
        src = str(Path(rpchoice.__file__).resolve().parents[1])
        cpus = {}
        for affinity in ("one", "all"):
            cpus[affinity] = int(subprocess.run(
                [sys.executable, "-c", script, affinity, str(tmp_path / affinity)],
                env={**os.environ,
                     "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
                capture_output=True, text=True, check=True,
            ).stdout.split()[0])
        assert cpus == {"one": 1, "all": len(os.sched_getaffinity(0))}
        assert ((tmp_path / "one" / "dataset.csv").read_bytes()
                == (tmp_path / "all" / "dataset.csv").read_bytes())


class TestLogitOracle:
    def test_zero_criterion_at_truth_every_length(self):
        beta = np.array([math.cos(1.9), math.sin(1.9)])
        data = logit_oracle_dataset(6, 15, 2, beta, seed=30)
        for lengths in ((2,), (3,), (2, 3)):
            cycles = enumerate_cycles(6, lengths)
            assert criterion(beta, data, cycles) <= 1e-18
        # the criterion holds lengths 2 and 3 only; 4-cycles term by term
        four_cycles = [(c[0], *p) for c in itertools.combinations(range(6), 4)
                       for p in itertools.permutations(c[1:])]
        assert len(four_cycles) == 90
        assert sum(max(cycle_residual_dot(c, beta, data), 0.0) ** 2 for c in four_cycles) <= 1e-18

    def test_shares_match_softmax_recomputation(self):
        beta = np.array([0.6, 0.8])
        data = logit_oracle_dataset(3, 5, 2, beta, seed=31)
        for market in data.markets:
            u = market.covariates @ beta
            expected = np.exp(u - u.max())
            expected /= expected.sum()
            np.testing.assert_allclose(market.shares, expected, rtol=0, atol=1e-15)
            assert math.fsum(market.shares.tolist()) == 1.0

    def test_perturbed_beta_positive(self):
        beta = np.array([0.6, 0.8])
        data = logit_oracle_dataset(8, 20, 2, beta, seed=32)
        cycles = enumerate_cycles(8, (2,))
        assert criterion(np.array([-0.8, 0.6]), data, cycles) > 0

    def test_higher_dimensional_coefficients(self):
        beta = np.array([0.5, 0.5, 0.5, 0.5])
        data = logit_oracle_dataset(5, 10, 4, beta, seed=33)
        cycles = enumerate_cycles(5, (2, 3))
        assert data.b == 4
        assert criterion(beta, data, cycles) <= 1e-18
