"""Set estimation, sphere descent, replication studies, and diagnostics.

The embedding test freezes an 11-draw compressed design whose per-draw
third-coefficient estimates were verified against a dense grid search over
the unit sphere; the median is pinned to the value that run produced.
"""

import csv
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpchoice import (
    CircleProfile,
    CriterionEvaluator,
    Dataset,
    IdentifiedSet,
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
    run_replications,
    simulate_dataset,
    write_grid_csv,
)
from rpchoice._seeds import STREAM_PROJECTION, STREAM_RESTARTS, derive_rng, derive_seed
from rpchoice import projection as projection_module
from rpchoice.projection import ExactSplit, compress
from rpchoice.estimate import (
    TWO_PI,
    ReplicationRecord,
    _replicate,
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


class TestResultTypes:
    """Result types store what was computed; the rest is derived when read."""

    def test_identified_set_rejects_argmin_outside_every_arc(self):
        with pytest.raises(NumericalError, match="lies in no arc"):
            IdentifiedSet(((1.0, 2.0), (4.0, 5.0)), q_min=0.5, tolerance=1e-6, argmin=3.0)

    def test_identified_set_derives_estimate_and_full_circle(self):
        idset = IdentifiedSet(((1.0, 2.0), (5.8, 0.2)), q_min=0.5, tolerance=1e-6, argmin=0.1)
        assert idset.interval_estimate == (5.8, 0.2)
        assert not idset.full_circle
        flat = IdentifiedSet(((0.0, TWO_PI),), q_min=0.0, tolerance=1e-12, argmin=0.0)
        assert flat.full_circle and flat.interval_estimate == (0.0, TWO_PI)
        assert flat.contains(math.pi) and flat.covers_interval((0.1, 6.0))

    def test_record_derives_midpoint_and_wrap(self):
        rec = ReplicationRecord(index=0, lb=5.8, ub=0.2, q_min=0.1)
        assert rec.theta_hat == interval_midpoint((5.8, 0.2))
        assert rec.wrapped is True
        failed = ReplicationRecord(index=1, error="NumericalError: x")
        assert math.isnan(failed.theta_hat) and failed.wrapped is False

    def test_summary_statistics_skip_failed_records(self, small_mc_dataset):
        summary = run_replications(small_mc_dataset, k=8, s=1.0, replications=2,
                                   master_seed=6, grid_size=64)
        failed = ReplicationRecord(index=2, error="NumericalError: injected")
        both = dataclasses.replace(summary, records=(*summary.records, failed))
        assert (both.replications, both.successes, both.failures) == (3, 2, 1)
        assert both.nested_count == summary.nested_count
        assert both.to_dict()["summary"] == {**summary.to_dict()["summary"], "failures": 1}
        none = dataclasses.replace(summary, records=(failed,))
        assert none.nested_count == 0 and math.isnan(none.mean_lb)
        assert math.isnan(none.nested_fraction)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_initial_rejected(self, bad):
        """Refused up front, not reported later as a non-finite criterion."""
        data = logit_oracle_dataset(8, 20, 3, np.array([0.6, -0.48, 0.64]), seed=42)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="nonzero finite vector of length 3"):
                estimate_subgradient(data, enumerate_cycles(8, (2, 3)), restarts=1,
                                     initial=[bad, 1.0, 0.0])

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


def reference_subgradient(data, cycles, restarts=20, steps=5000, seed=0, initial=None):
    """The sphere solver's loop as it was before its steps were made copy-light
    and its restarts merged: (value, restart_values, beta)."""
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
    best_beta = None
    restart_values = []

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

    return best_value, tuple(restart_values), best_beta


def assert_matches_reference(data, cycles, **kwargs):
    res = estimate_subgradient(data, cycles, **kwargs)
    value, restart_values, beta = reference_subgradient(data, cycles, **kwargs)
    assert res.value.hex() == value.hex()
    assert [q.hex() for q in res.restart_values] == [q.hex() for q in restart_values]
    np.testing.assert_array_equal(res.beta, beta, strict=True)
    return res


class TestSolverMatchesReference:
    """The solver returns the reference loop's value, restart values and beta
    bit for bit."""

    def test_default_budget(self, comp_b3, cycles20):
        res = assert_matches_reference(comp_b3, cycles20, restarts=20, seed=4)
        assert len(res.restart_values) == 20

    @pytest.mark.parametrize("steps", [1, 2, 3, 9, 10, 12])
    def test_step_cap(self, comp_b3, cycles20, steps):
        """No restart stops before a cap of 1 to 3 steps. At 9, 10 and 12 a
        later restart meets a stopped restart's path too late to finish it
        within the cap, so it must take its own steps to the cap."""
        assert_matches_reference(comp_b3, cycles20, restarts=20, steps=steps, seed=4)

    def test_zero_minimum_stops_early(self):
        """From the far pole the first 12 restarts stop above 0 and the 13th
        reaches Q = 0, which ends the call."""
        beta = np.array([0.6, -0.48, 0.64])
        data = logit_oracle_dataset(12, 60, 3, beta, seed=40)
        res = assert_matches_reference(data, enumerate_cycles(12, (2, 3)), restarts=20,
                                       seed=40, initial=-beta)
        assert len(res.restart_values) == 13
        assert res.value == 0.0

    def test_four_covariates(self):
        data = logit_oracle_dataset(12, 40, 4, np.array([0.5, -0.5, 0.5, 0.5]), seed=47)
        comp = apply(generate(ProjectionSpec(k=5, d=40, s=1.0, seed=4)), data)
        res = assert_matches_reference(comp, enumerate_cycles(12, (2, 3)), restarts=20, seed=2)
        assert res.value > 0

    @given(
        n=st.integers(4, 8),
        b=st.integers(3, 4),
        d=st.integers(4, 12),
        k=st.integers(2, 6),
        steps=st.integers(1, 12),
        restarts=st.integers(1, 8),
        seeds=st.tuples(st.integers(0, 999), st.integers(0, 999), st.integers(0, 999)),
    )
    @settings(max_examples=80)
    def test_small_designs(self, n, b, d, k, steps, restarts, seeds):
        """Random designs, compressed when k < d so the minimum is usually
        positive, under short step caps."""
        beta = derive_rng(seeds[0], 0).standard_normal(b)
        data = logit_oracle_dataset(n, d, b, beta / np.linalg.norm(beta), seed=seeds[0])
        if k < d:
            data = apply(generate(ProjectionSpec(k=k, d=d, s=1.0, seed=seeds[1])), data)
        assert_matches_reference(data, enumerate_cycles(n, (2, 3)), restarts=restarts,
                                 steps=steps, seed=seeds[2])

    def test_restart_merging_saves_eigen_steps(self, comp_b3, cycles20, monkeypatch):
        """Most restarts reach an earlier restart's path and stop there, so
        the solver takes fewer eigen steps than the reference loop."""
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(1)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        estimate_subgradient(comp_b3, cycles20, restarts=20, seed=4)
        merged = len(calls)
        calls.clear()
        reference_subgradient(comp_b3, cycles20, restarts=20, seed=4)
        assert merged < len(calls)


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

    def test_sphere_solver_on_compressed_circle_data(self, small_mc_dataset):
        """The sphere solver runs at b = 2 too (run_replications takes the
        circle sweep there): unit betas, nonnegative values, same bits twice."""
        cycles = enumerate_cycles(small_mc_dataset.n, (2, 3))
        split = ExactSplit(small_mc_dataset)
        for r in range(3):
            spec = ProjectionSpec(k=8, d=small_mc_dataset.d, s=1.0,
                                  seed=derive_seed(5, STREAM_PROJECTION, r))
            first, again = (
                estimate_subgradient(compress(spec, split), cycles, restarts=4, steps=200,
                                     seed=derive_seed(5, STREAM_RESTARTS, r))
                for _ in range(2)
            )
            assert first.beta.shape == (2,)
            assert abs(np.linalg.norm(first.beta) - 1.0) <= 1e-12
            assert first.value >= 0
            np.testing.assert_array_equal(first.beta, again.beta)

    def test_sphere_replications(self, b3_data):
        """With b = 3 the records hold betas and criterion minima, and the
        summary's betas, values and errors are read off them."""
        summary = run_replications(b3_data, k=8, s=1.0, replications=3, master_seed=5,
                                   restarts=4, steps=200)
        assert summary.unprojected_set is None and summary.unprojected_grid is None
        assert summary.betas.shape == (3, 3)
        np.testing.assert_allclose(np.linalg.norm(summary.betas, axis=1), 1.0, atol=1e-12)
        assert (summary.values >= 0).all()
        assert summary.errors == ()
        assert (summary.replications, summary.successes, summary.failures) == (3, 3, 0)
        for r, rec in enumerate(summary.records):
            assert rec.index == r and rec.ok
            assert all(type(x) is float for x in rec.beta)
            np.testing.assert_array_equal(rec.beta, summary.betas[r])
            assert rec.q_min == summary.values[r]
        payload = summary.to_dict()
        json.dumps(payload, allow_nan=False)
        assert payload["records"] == [
            {"index": r, "beta": list(rec.beta), "q_min": rec.q_min, "error": None}
            for r, rec in enumerate(summary.records)
        ]
        assert payload["betas"] == summary.betas.tolist()
        assert payload["summary"]["mean_value"] == float(summary.values.mean())
        assert "unprojected" not in payload
        again = run_replications(b3_data, k=8, s=1.0, replications=3, master_seed=5,
                                 restarts=4, steps=200)
        assert again.records == summary.records


class TestReplicationDriver:
    """The shared replication driver against an inline serial loop: seed from
    (master_seed, STREAM_PROJECTION, r), compress, then the circle sweep or
    the sphere solver; results must be bit-equal."""

    @staticmethod
    def _serial_compress(data, master_seed, r, k=8):
        spec = ProjectionSpec(k=k, d=data.d, s=1.0,
                              seed=derive_seed(master_seed, STREAM_PROJECTION, r))
        return compress(spec, ExactSplit(data))

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
        summary = run_replications(b3_data, k=8, s=1.0, replications=3, master_seed=12,
                                   restarts=2, steps=50, threads=threads)
        assert [rec.index for rec in summary.records] == [0, 1, 2]
        for r, rec in enumerate(summary.records):
            res = estimate_subgradient(self._serial_compress(b3_data, 12, r),
                                       cycles, restarts=2, steps=50,
                                       seed=derive_seed(12, STREAM_RESTARTS, r))
            np.testing.assert_array_equal(rec.beta, res.beta)
            assert rec.q_min == res.value

    def test_coefficient_threads_do_not_change_results(self, b3_data):
        one, two = (
            run_replications(b3_data, k=8, s=1.0, replications=4, master_seed=8,
                             restarts=2, steps=50, threads=threads)
            for threads in (1, 2)
        )
        assert one.records == two.records

    def test_convergence_gap_recomputed_by_hand(self, small_mc_dataset):
        diag = convergence_diagnostic(small_mc_dataset, k_values=(4, 8), s=1.0,
                                      draws=2, master_seed=3)
        cycles = enumerate_cycles(small_mc_dataset.n, (2, 3))
        thetas = np.arange(1024) * (TWO_PI / 1024)
        spec = ProjectionSpec(k=8, d=40, s=1.0,
                              seed=derive_seed(3, STREAM_PROJECTION, 1, 1))
        compressed = compress(spec, ExactSplit(small_mc_dataset))
        base, projected = (
            CircleProfile(CriterionEvaluator(data, cycles).D).values(thetas) / len(cycles)
            for data in (small_mc_dataset, compressed)
        )
        assert diag.gaps[1, 1] == float(np.abs(projected - base).max())

    def test_sqrt_sparsity_bit_equal_to_serial_dense_loop(self, monkeypatch):
        """At s = sqrt(d) = 20 every replication takes the CSC kernel; the
        serial loop forces the dense kernel, which must give the same bits."""
        data = logit_oracle_dataset(6, 400, 2, np.array([0.6, 0.8]), seed=47)
        cycles = enumerate_cycles(data.n, (2, 3))
        summary = run_replications(data, k=8, s="sqrt", replications=3, master_seed=12,
                                   grid_size=64, threads=2)
        assert summary.successes == 3
        monkeypatch.setattr(projection_module, "_SPARSE_SAMPLER_MAX_PROB", 0.0)
        split = ExactSplit(data)
        for r, rec in enumerate(summary.records):
            spec = ProjectionSpec(k=8, d=400, s=20.0,
                                  seed=derive_seed(12, STREAM_PROJECTION, r))
            _, idset = estimate_polar_grid(compress(spec, split), cycles, 64, 1)
            lb, ub = idset.interval_estimate
            assert (rec.lb, rec.ub, rec.q_min) == (lb, ub, idset.q_min)

    def test_threads_add_only_their_row_blocks(self):
        """Each extra replication thread adds one `compress` call's scratch,
        one row block and a few copies of the (k, n (b+1)) output; the split
        is shared, read-only, so it is held once at any thread count."""
        data = logit_oracle_dataset(30, 5000, 2, np.array([0.6, 0.8]), seed=0)
        k = 500
        peaks = {}
        for threads in (1, 4, 1):  # the first call warms imports and caches
            tracemalloc.start()
            try:
                _replicate(data, k, 1.0, 4, 5, threads, lambda r, compressed: r)
                _, peaks[threads] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        rows = projection_module._BLOCK_BYTES // (8 * data.d)
        per_call = 10 * rows * data.d + 4 * 8 * k * data.n * (data.b + 1)
        assert peaks[4] - peaks[1] <= 3 * per_call

    def test_thread_count_below_one_rejected(self, small_mc_dataset, b3_data):
        with pytest.raises(ParameterError, match="threads"):
            run_replications(small_mc_dataset, k=8, s=1.0, replications=1,
                             master_seed=1, grid_size=64, threads=0)
        with pytest.raises(ParameterError, match="threads"):
            run_replications(b3_data, k=8, s=1.0, replications=1,
                             master_seed=1, restarts=1, steps=5, threads=0)


class TestReplicationFailures:
    """Package errors become failed records; anything else is a bug and
    propagates, whatever the thread count."""

    @staticmethod
    def _broken_compress(exc):
        def compress(spec, split):
            raise exc
        return compress

    @pytest.mark.parametrize("threads", [1, 2])
    def test_package_error_is_recorded(self, small_mc_dataset, b3_data, monkeypatch,
                                       threads):
        monkeypatch.setattr("rpchoice.estimate.compress",
                            self._broken_compress(NumericalError("injected")))
        summary = run_replications(small_mc_dataset, k=8, s=1.0, replications=2,
                                   master_seed=5, grid_size=64, threads=threads)
        assert summary.failures == 2
        assert all(r.error == "NumericalError: injected" for r in summary.records)
        sphere = run_replications(b3_data, k=8, s=1.0, replications=2, master_seed=5,
                                  restarts=1, steps=5, threads=threads)
        assert sphere.errors == ((0, "NumericalError: injected"),
                                 (1, "NumericalError: injected"))
        assert (sphere.replications, sphere.successes, sphere.failures) == (2, 0, 2)
        assert sphere.betas.shape == (0, 3)
        assert math.isnan(sphere.mean_value)
        payload = sphere.to_dict()
        assert payload["betas"] == [] and payload["summary"]["median"] == []
        assert [r["error"] for r in payload["records"]] == ["NumericalError: injected"] * 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_programming_error_propagates(self, small_mc_dataset, b3_data, monkeypatch,
                                          threads):
        monkeypatch.setattr("rpchoice.estimate.compress",
                            self._broken_compress(TypeError("injected")))
        with pytest.raises(TypeError, match="injected"):
            run_replications(small_mc_dataset, k=8, s=1.0, replications=2,
                             master_seed=5, grid_size=64, threads=threads)
        with pytest.raises(TypeError, match="injected"):
            run_replications(b3_data, k=8, s=1.0, replications=2, master_seed=5,
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
