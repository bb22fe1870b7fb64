"""Set estimation, sphere descent, replication studies, and diagnostics.

The embedding test freezes an 11-draw compressed design whose per-draw
third-coefficient estimates were verified against a dense grid search over
the unit sphere; the median is pinned to the value that run produced.
"""

import csv
import json
import math

import numpy as np
import pytest

from rpchoice import (
    CircleProfile,
    CriterionEvaluator,
    Dataset,
    Market,
    NumericalError,
    ParameterError,
    ProjectionSpec,
    SimConfig,
    apply,
    convergence_diagnostic,
    enumerate_cycles,
    estimate_polar_grid,
    estimate_subgradient,
    generate,
    logit_oracle_dataset,
    run_coefficient_replications,
    run_replications,
    simulate_dataset,
    write_grid_csv,
)
from rpchoice._seeds import STREAM_PROJECTION, STREAM_RESTARTS, derive_rng, derive_seed
from rpchoice.estimate import (
    TWO_PI,
    interval_contains_interval,
    interval_contains_point,
    interval_midpoint,
    interval_width,
)

THETA0 = 0.75 * math.pi
BETA0 = np.array([math.cos(THETA0), math.sin(THETA0)])


def angle_of(beta) -> float:
    return math.atan2(beta[1], beta[0]) % TWO_PI


def fibonacci_sphere(count: int) -> np.ndarray:
    """count near-uniform unit vectors as the columns of a (3, count) array."""
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z])


@pytest.fixture(scope="module")
def comp10(headline_dataset):
    proj = generate(ProjectionSpec(k=10, d=100, s=1.0, seed=12))
    return apply(proj, headline_dataset)


@pytest.fixture(scope="module")
def comp_b3():
    """Three covariates, 20 markets, d = 60 compressed to k = 6; the
    compression noise leaves the criterion minimum positive."""
    beta = np.array([0.6, -0.48, 0.64])
    data = logit_oracle_dataset(20, 60, 3, beta, seed=45)
    return apply(generate(ProjectionSpec(k=6, d=60, s=1.0, seed=13)), data)


@pytest.fixture(scope="module")
def cycles20():
    return enumerate_cycles(20, (2, 3))


@pytest.fixture(scope="module")
def b3_data():
    """Three covariates, 10 markets, d = 40; the solver's end point depends
    on its restart draws, so a wrong restart seed shows."""
    return logit_oracle_dataset(10, 40, 3, np.array([0.6, -0.48, 0.64]), seed=46)


@pytest.fixture(scope="module")
def small_mc_dataset():
    return simulate_dataset(SimConfig(d=40, n=10, seed=11, mc_draws=1000))


class TestIntervalHelpers:
    def test_width(self):
        assert interval_width((1.0, 2.5)) == pytest.approx(1.5)
        assert interval_width((5.5, 0.5)) == pytest.approx(TWO_PI - 5.0)

    def test_midpoint_wraps(self):
        assert interval_midpoint((1.0, 2.0)) == pytest.approx(1.5)
        assert interval_midpoint((5.8, 0.2)) == pytest.approx((5.8 + 0.2 + TWO_PI) / 2)

    def test_contains_point_modular(self):
        assert interval_contains_point((5.8, 0.2), 6.0)
        assert interval_contains_point((5.8, 0.2), 0.1)
        assert not interval_contains_point((5.8, 0.2), math.pi)

    def test_contains_interval_modular(self):
        assert interval_contains_interval((5.8, 0.2), (5.9, 0.1))
        assert not interval_contains_interval((1.0, 2.0), (1.5, 2.5))


def _circular_runs(mask):
    hits = np.flatnonzero(mask)
    if hits.size == mask.size:
        return [(0, mask.size - 1)]
    breaks = np.flatnonzero(np.diff(hits) > 1)
    runs = list(zip([int(hits[0])] + [int(hits[i + 1]) for i in breaks],
                    [int(hits[i]) for i in breaks] + [int(hits[-1])]))
    if mask[0] and mask[-1] and len(runs) > 1:
        first, last = runs.pop(0), runs.pop()
        runs.append((last[0], first[1]))
    return runs


def _run_contains(run, idx):
    start, stop = run
    return start <= idx <= stop if start <= stop else (idx >= start or idx <= stop)


def grid_scan_estimate(data, cycles, grid_size=2000, refine=10):
    """The coarse-scan + refine-pass interval estimate the angular sweep
    replaced, kept as a reference: the refined arc around the argmin, merged
    with the coarse run holding the coarse argmin."""
    evaluator = CriterionEvaluator(data, cycles)
    step = TWO_PI / grid_size
    thetas = np.arange(grid_size) * step
    values = evaluator.value_grid(thetas)
    tolerance = max(1e-12, 1e-6 * float(values.max()))
    coarse_min, coarse_argmin = float(values.min()), int(values.argmin())
    start, stop = next(run for run in _circular_runs(values <= coarse_min + tolerance)
                       if _run_contains(run, coarse_argmin))
    lo = thetas[start] - step
    hi = (thetas[stop] if stop >= start else thetas[stop] + TWO_PI) + step
    count = int(round((hi - lo) / (step / refine))) + 1
    fine_thetas = np.linspace(lo, hi, count)
    fine_values = evaluator.value_grid(fine_thetas % TWO_PI)
    threshold = min(coarse_min, float(fine_values.min())) + tolerance
    inside = fine_values <= threshold
    left = right = int(fine_values.argmin())
    while left > 0 and inside[left - 1]:
        left -= 1
    while right < count - 1 and inside[right + 1]:
        right += 1
    lb, ub = float(fine_thetas[left]), float(fine_thetas[right])
    for run in _circular_runs(values <= threshold):
        if _run_contains(run, coarse_argmin):
            lb = min(lb, float(thetas[start]) + ((run[0] - start) % grid_size) * step)
            ub = max(ub, float(thetas[start]) + ((run[1] - start) % grid_size) * step)
    return lb % TWO_PI, ub % TWO_PI


def angle_gap(a, b):
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


class TestPolarGrid:
    def test_matches_grid_scan_within_one_refined_step(self, headline_dataset,
                                                       comp10, cycles30):
        """The exact arc lands within one refined step, 2pi / (grid * refine),
        of the arc the coarse scan and refine pass reported."""
        step = TWO_PI / (2000 * 10)
        for data in (headline_dataset, comp10):
            _, idset = estimate_polar_grid(data, cycles30)
            old = grid_scan_estimate(data, cycles30)
            assert not idset.full_circle
            for new_end, old_end in zip(idset.interval_estimate, old):
                assert angle_gap(new_end, old_end) <= step

    def test_refine_changes_nothing(self, comp10, cycles30):
        grid_a, a = estimate_polar_grid(comp10, cycles30, grid_size=512, refine=1)
        grid_b, b = estimate_polar_grid(comp10, cycles30, grid_size=512, refine=8)
        assert a == b
        np.testing.assert_array_equal(grid_a.values, grid_b.values)

    def test_logit_truth_inside_zero_set(self):
        data = logit_oracle_dataset(10, 40, 2, BETA0, seed=40)
        grid, idset = estimate_polar_grid(data, enumerate_cycles(10, (2, 3)))
        assert grid.thetas.shape == (2000,)
        assert (grid.values >= 0).all()
        assert idset.q_min == 0.0
        assert idset.contains(THETA0)

    def test_arc_straddling_zero_angle(self):
        data = logit_oracle_dataset(10, 30, 2, np.array([1.0, 0.0]), seed=41)
        _, idset = estimate_polar_grid(data, enumerate_cycles(10, (2, 3)),
                                       grid_size=1000, refine=5)
        assert idset.q_min == 0.0
        for theta in (0.0, 0.05, TWO_PI - 0.05):
            assert idset.contains(theta)

    def test_duplicated_market_gives_full_circle(self):
        shares = np.array([0.25, 0.25, 0.25, 0.125, 0.125])
        cov = np.arange(10.0).reshape(5, 2)
        data = Dataset((Market(cov, shares), Market(cov.copy(), shares.copy())))
        _, idset = estimate_polar_grid(data, enumerate_cycles(2, (2,)),
                                       grid_size=64, refine=1)
        assert idset.full_circle
        for theta in (0.0, 1.0, math.pi, 5.0):
            assert idset.contains(theta)
        assert idset.covers_interval((0.1, 6.0))

    def test_intervals_match_level_set_on_grid(self, comp10, cycles30):
        grid, idset = estimate_polar_grid(comp10, cycles30, grid_size=512, refine=1)
        threshold = idset.q_min + idset.tolerance
        for theta, value in zip(grid.thetas, grid.values):
            assert idset.contains(float(theta)) == bool(value <= threshold)

    def test_refinement_never_raises_minimum(self, comp10, cycles30):
        _, coarse = estimate_polar_grid(comp10, cycles30, grid_size=512, refine=1)
        _, fine = estimate_polar_grid(comp10, cycles30, grid_size=512, refine=8)
        assert fine.q_min <= coarse.q_min + 1e-12

    def test_projection_noise_closes_zero_set(self, comp10, cycles30):
        _, idset = estimate_polar_grid(comp10, cycles30)
        assert idset.q_min > 0
        assert not idset.full_circle
        assert len(idset.intervals) >= 1


class TestDescent:
    def test_matches_grid_minimum(self, comp10, cycles30):
        _, idset = estimate_polar_grid(comp10, cycles30)
        res = estimate_subgradient(comp10, cycles30, restarts=10, steps=2000,
                                   seed=3)
        assert abs(res.value - idset.q_min) <= 1e-6 * idset.q_min
        gap = abs(angle_of(res.point.beta) - idset.argmin)
        assert min(gap, TWO_PI - gap) < 2e-3

    def test_start_at_truth_stays_there(self):
        data = logit_oracle_dataset(8, 20, 2, BETA0, seed=42)
        cycles = enumerate_cycles(8, (2, 3))
        res = estimate_subgradient(data, cycles, restarts=1, steps=10, initial=BETA0)
        assert res.value == 0.0
        np.testing.assert_array_equal(res.point.beta, BETA0)

    def test_unit_norm_and_restart_bookkeeping(self, comp10, cycles30):
        res = estimate_subgradient(comp10, cycles30, restarts=3, steps=50, seed=5)
        assert np.linalg.norm(res.point.beta) == pytest.approx(1.0, abs=1e-12)
        assert len(res.restart_values) == 3
        assert res.value == min(res.restart_values)

    def test_zero_value_short_circuits(self):
        beta = np.array([0.6, -0.48, 0.64])
        data = logit_oracle_dataset(8, 20, 3, beta, seed=42)
        cycles = enumerate_cycles(8, (2, 3))
        res = estimate_subgradient(data, cycles, restarts=5, steps=50, initial=beta)
        assert res.restart_values == (0.0,)

    def test_deterministic_in_seed(self, comp10, cycles30):
        a = estimate_subgradient(comp10, cycles30, restarts=2, steps=100, seed=9)
        b = estimate_subgradient(comp10, cycles30, restarts=2, steps=100, seed=9)
        np.testing.assert_array_equal(a.point.beta, b.point.beta)


class TestActiveSetSolver:
    def test_no_higher_than_sphere_grid_minimum(self, comp_b3, cycles20):
        """The minimum over 50,000 Fibonacci-lattice directions bounds the true
        minimum from above; the solver must reach it up to rounding, taken as
        1e-12 of the largest grid value."""
        D = CriterionEvaluator(comp_b3, cycles20).D
        points = fibonacci_sphere(50_000)
        values = np.concatenate([
            (np.maximum(D @ points[:, lo:lo + 1000], 0.0) ** 2).sum(axis=0)
            for lo in range(0, points.shape[1], 1000)
        ])
        res = estimate_subgradient(comp_b3, cycles20, seed=4)
        assert res.value > 0
        assert res.value <= values.min() + 1e-12 * values.max()

    def test_each_restart_strictly_descends_within_step_cap(
        self, comp_b3, cycles20, monkeypatch
    ):
        """With one restart from a fixed start, the value after a cap of t
        steps is the t-th iterate: it must fall strictly until the iteration
        stops, then stay put, and no run may take more than t eigen steps."""
        start = np.array([-0.6, 0.48, -0.64])
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(1)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        q = [CriterionEvaluator(comp_b3, cycles20).value(start)]
        for cap in range(1, 31):
            calls.clear()
            res = estimate_subgradient(comp_b3, cycles20, restarts=1, steps=cap,
                                       initial=start)
            assert len(calls) <= cap
            assert res.restart_values == (res.value,)
            q.append(res.value)
        stop = next(t for t in range(1, len(q)) if q[t] == q[t - 1]) - 1
        assert stop >= 1
        assert all(q[t] < q[t - 1] for t in range(1, stop + 1))
        assert all(value == q[stop] for value in q[stop:])


class TestIrrelevantCoefficientRecovery:
    def test_median_third_coefficient_near_zero(self):
        """Choices never depend on the third covariate; its estimate should
        concentrate near zero across independent compression draws.

        The compression noise makes each draw's minimizer unique, so descent
        has something to find; raw (uncompressed) runs leave the coefficient
        unidentified. Frozen reference: per-draw values from a dense sphere
        grid agreed with descent on all 11 draws, median +0.02568.
        """
        base = simulate_dataset(SimConfig(d=200, n=20, seed=2, mc_draws=100_000))
        rng = derive_rng(2, 9)
        markets = []
        for m in base.markets:
            extra = rng.standard_normal((200, 1))
            markets.append(Market(np.hstack([m.covariates, extra]), m.shares))
        data = Dataset(tuple(markets))
        cycles = enumerate_cycles(20, (2, 3))

        third = []
        for r in range(11):
            spec = ProjectionSpec(k=20, d=200, s=1.0, seed=derive_seed(1002, 3, r))
            comp = apply(generate(spec), data)
            res = estimate_subgradient(comp, cycles, restarts=8, steps=1500,
                                       seed=derive_seed(77, 5, r))
            assert res.value > 0
            third.append(res.point.beta[2])

        frozen = [-0.2665, 0.1510, 0.2633, 0.3437, -0.0445, -0.1090,
                  -0.0833, 0.0543, 0.0257, 0.1475, -0.2877]
        np.testing.assert_allclose(third, frozen, atol=1e-3)
        median = float(np.median(third))
        assert median == pytest.approx(0.0256798, abs=1e-6)
        assert abs(median) < 0.05


class TestReplications:
    def test_summary_statistics_recompute(self, small_mc_dataset):
        summary = run_replications(small_mc_dataset, k=8, s=1.0, replications=3,
                                   master_seed=5, grid_size=512)
        assert summary.replications == 3
        assert len(summary.records) == 3
        assert summary.failures == 0
        lbs = np.array([r.lb for r in summary.records])
        ubs = np.array([r.ub for r in summary.records])
        thetas = np.array([r.theta_hat for r in summary.records])
        assert summary.mean_lb == pytest.approx(lbs.mean(), abs=1e-12)
        assert summary.sd_lb == pytest.approx(lbs.std(), abs=1e-12)
        assert summary.mean_ub == pytest.approx(ubs.mean(), abs=1e-12)
        assert summary.sd_ub == pytest.approx(ubs.std(), abs=1e-12)
        assert summary.q25_lb == pytest.approx(np.quantile(lbs, 0.25), abs=1e-12)
        assert summary.q75_ub == pytest.approx(np.quantile(ubs, 0.75), abs=1e-12)
        assert summary.mean_theta == pytest.approx(thetas.mean(), abs=1e-12)
        assert summary.min_lb == lbs.min() and summary.max_ub == ubs.max()

    def test_nested_count_matches_manual_check(self, small_mc_dataset):
        summary = run_replications(small_mc_dataset, k=8, s=1.0, replications=3,
                                   master_seed=5, grid_size=512)
        manual = sum(
            summary.unprojected_set.covers_interval((r.lb, r.ub))
            for r in summary.records
        )
        assert summary.nested_count == manual

    def test_records_are_plain_python_values(self, small_mc_dataset):
        summary = run_replications(small_mc_dataset, k=8, s=1.0, replications=2,
                                   master_seed=6, grid_size=512)
        for rec in summary.records:
            assert type(rec.lb) is float and type(rec.ub) is float
            assert type(rec.wrapped) is bool
        json.dumps(summary.to_dict(), allow_nan=False)

    def test_theta_hat_is_interval_midpoint(self, small_mc_dataset):
        summary = run_replications(small_mc_dataset, k=8, s=1.0, replications=2,
                                   master_seed=6, grid_size=512)
        for rec in summary.records:
            assert rec.theta_hat == pytest.approx(
                interval_midpoint((rec.lb, rec.ub)), abs=1e-12
            )

    def test_single_replication_zero_spread(self, small_mc_dataset):
        summary = run_replications(small_mc_dataset, k=8, s=1.0, replications=1,
                                   master_seed=7, grid_size=512)
        assert summary.sd_lb == 0.0
        assert summary.sd_ub == 0.0
        assert summary.sd_theta == 0.0

    def test_threads_do_not_change_results(self, small_mc_dataset):
        one = run_replications(small_mc_dataset, k=8, s=1.0, replications=4,
                               master_seed=8, grid_size=512, threads=1)
        three = run_replications(small_mc_dataset, k=8, s=1.0, replications=4,
                                 master_seed=8, grid_size=512, threads=3)
        for a, b in zip(one.records, three.records):
            assert (a.lb, a.ub, a.theta_hat, a.q_min) == (b.lb, b.ub, b.theta_hat, b.q_min)

    def test_coefficient_replications(self, small_mc_dataset):
        coef = run_coefficient_replications(small_mc_dataset, k=8, s=1.0,
                                            replications=3, master_seed=5,
                                            restarts=4, steps=200)
        assert coef.betas.shape == (3, 2)
        np.testing.assert_allclose(np.linalg.norm(coef.betas, axis=1), 1.0, atol=1e-12)
        assert (coef.values >= 0).all()
        assert coef.failures == ()
        again = run_coefficient_replications(small_mc_dataset, k=8, s=1.0,
                                             replications=3, master_seed=5,
                                             restarts=4, steps=200)
        np.testing.assert_array_equal(coef.betas, again.betas)


class TestReplicationDriver:
    """The shared replication driver against an inline serial loop: seed from
    (master_seed, STREAM_PROJECTION, r), generate, apply, then the circle
    sweep or the sphere solver; results must be bit-equal."""

    @staticmethod
    def _serial_compress(data, master_seed, r, k=8):
        spec = ProjectionSpec(k=k, d=data.d, s=1.0,
                              seed=derive_seed(master_seed, STREAM_PROJECTION, r))
        return apply(generate(spec), data)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_intervals_bit_equal_to_serial_loop(self, small_mc_dataset, threads):
        cycles = enumerate_cycles(small_mc_dataset.n, (2, 3))
        summary = run_replications(small_mc_dataset, k=8, s=1.0, replications=3,
                                   master_seed=12, grid_size=64, threads=threads)
        assert [rec.index for rec in summary.records] == [0, 1, 2]
        for r, rec in enumerate(summary.records):
            compressed = self._serial_compress(small_mc_dataset, 12, r)
            _, idset = estimate_polar_grid(compressed, cycles, 64, 1)
            lb, ub = idset.interval_estimate
            assert (rec.lb, rec.ub, rec.q_min) == (lb, ub, idset.q_min)
            assert rec.theta_hat == interval_midpoint((lb, ub))
            assert rec.wrapped == (ub < lb)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_coefficients_bit_equal_to_serial_loop(self, b3_data, threads):
        cycles = enumerate_cycles(b3_data.n, (2, 3))
        coef = run_coefficient_replications(b3_data, k=8, s=1.0, replications=3,
                                            master_seed=12, restarts=2, steps=50,
                                            threads=threads)
        assert coef.betas.shape == (3, 3)
        for r in range(3):
            res = estimate_subgradient(self._serial_compress(b3_data, 12, r),
                                       cycles, restarts=2, steps=50,
                                       seed=derive_seed(12, STREAM_RESTARTS, r))
            np.testing.assert_array_equal(coef.betas[r], res.beta)
            assert coef.values[r] == res.value

    def test_coefficient_threads_do_not_change_results(self, b3_data):
        one, two = (
            run_coefficient_replications(b3_data, k=8, s=1.0, replications=4,
                                         master_seed=8, restarts=2, steps=50,
                                         threads=threads)
            for threads in (1, 2)
        )
        np.testing.assert_array_equal(one.betas, two.betas)
        np.testing.assert_array_equal(one.values, two.values)

    def test_convergence_gap_recomputed_by_hand(self, small_mc_dataset):
        diag = convergence_diagnostic(small_mc_dataset, k_values=(4, 8), s=1.0,
                                      draws=2, master_seed=3)
        cycles = enumerate_cycles(small_mc_dataset.n, (2, 3))
        thetas = np.arange(1024) * (TWO_PI / 1024)
        spec = ProjectionSpec(k=8, d=40, s=1.0,
                              seed=derive_seed(3, STREAM_PROJECTION, 1, 1))
        compressed = apply(generate(spec), small_mc_dataset)
        base, projected = (
            CircleProfile(CriterionEvaluator(data, cycles).D).values(thetas) / len(cycles)
            for data in (small_mc_dataset, compressed)
        )
        assert diag.gaps[1, 1] == float(np.abs(projected - base).max())

    def test_thread_count_below_one_rejected(self, small_mc_dataset):
        with pytest.raises(ParameterError, match="threads"):
            run_replications(small_mc_dataset, k=8, s=1.0, replications=1,
                             master_seed=1, grid_size=64, threads=0)
        with pytest.raises(ParameterError, match="threads"):
            run_coefficient_replications(small_mc_dataset, k=8, s=1.0, replications=1,
                                         master_seed=1, restarts=1, steps=5, threads=0)


class TestReplicationFailures:
    """Package errors become failed records; anything else is a bug and
    propagates, whatever the thread count."""

    @staticmethod
    def _broken_generate(exc):
        def generate(spec):
            raise exc
        return generate

    @pytest.mark.parametrize("threads", [1, 2])
    def test_package_error_is_recorded(self, small_mc_dataset, monkeypatch, threads):
        monkeypatch.setattr("rpchoice.estimate.generate",
                            self._broken_generate(NumericalError("injected")))
        summary = run_replications(small_mc_dataset, k=8, s=1.0, replications=2,
                                   master_seed=5, grid_size=64, threads=threads)
        assert summary.failures == 2
        assert all(r.error == "NumericalError: injected" for r in summary.records)
        coef = run_coefficient_replications(small_mc_dataset, k=8, s=1.0,
                                            replications=2, master_seed=5,
                                            restarts=1, steps=5, threads=threads)
        assert coef.failures == ((0, "NumericalError: injected"),
                                 (1, "NumericalError: injected"))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_programming_error_propagates(self, small_mc_dataset, monkeypatch, threads):
        monkeypatch.setattr("rpchoice.estimate.generate",
                            self._broken_generate(TypeError("injected")))
        with pytest.raises(TypeError, match="injected"):
            run_replications(small_mc_dataset, k=8, s=1.0, replications=2,
                             master_seed=5, grid_size=64, threads=threads)
        with pytest.raises(TypeError, match="injected"):
            run_coefficient_replications(small_mc_dataset, k=8, s=1.0,
                                         replications=2, master_seed=5,
                                         restarts=1, steps=5, threads=threads)


class TestConvergenceDiagnostic:
    def test_profile_matches_value_grid_on_shared_grid(self, small_mc_dataset):
        """The diagnostic reads criteria off circle profiles at its shared
        grid; they must equal the literal grid within 1e-12 of max Q."""
        cycles = enumerate_cycles(small_mc_dataset.n, (2, 3))
        thetas = np.arange(1024) * (TWO_PI / 1024)
        comp = apply(generate(ProjectionSpec(k=4, d=40, s=1.0, seed=3)), small_mc_dataset)
        for data in (small_mc_dataset, comp):
            evaluator = CriterionEvaluator(data, cycles)
            literal = evaluator.value_grid(thetas)
            swept = CircleProfile(evaluator.D).values(thetas)
            assert np.abs(swept - literal).max() <= 1e-12 * literal.max()

    def test_structure_and_determinism(self, small_mc_dataset):
        diag = convergence_diagnostic(small_mc_dataset, k_values=(4, 8), s=1.0,
                                      draws=2, master_seed=3)
        assert tuple(diag.k_values) == (4, 8)
        assert len(diag.mean_gaps) == 2
        gaps = np.asarray(diag.gaps, dtype=float)
        assert gaps.shape[0] == 2
        assert np.isfinite(gaps).all() and (gaps >= 0).all()
        assert 0 <= diag.decreasing_pairs <= 1
        assert diag.strictly_decreasing == (diag.decreasing_pairs == 1)
        again = convergence_diagnostic(small_mc_dataset, k_values=(4, 8), s=1.0,
                                       draws=2, master_seed=3)
        np.testing.assert_array_equal(diag.mean_gaps, again.mean_gaps)


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        data = logit_oracle_dataset(4, 8, 2, BETA0, seed=44)
        grid, _ = estimate_polar_grid(data, enumerate_cycles(4, (2,)),
                                      grid_size=32, refine=1)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "value"]
        assert len(rows) == 33
        thetas = np.array([float(r[0]) for r in rows[1:]])
        values = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_array_equal(thetas, grid.thetas)
        np.testing.assert_array_equal(values, grid.values)
