"""Acceptance gate: one test per shipped claim, one [PASS]/[FAIL] line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.
Every tolerance here is part of the package contract; loosening one is a
release decision, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from rpchoice import (
    Dataset,
    Market,
    ProjectionSpec,
    SimConfig,
    apply,
    convergence_diagnostic,
    criterion,
    enumerate_cycles,
    generate,
    logit_oracle_dataset,
    run_replications,
    simulate_dataset,
)
from rpchoice.projection import jl_diagnostic, predicted_distance_variance

THETA0 = 0.75 * math.pi
BETA0 = np.array([math.cos(THETA0), math.sin(THETA0)])


def report(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def jl_vectors():
    rng = np.random.default_rng(2026)
    u, v = rng.standard_normal((2, 1000))
    return u, v


@pytest.fixture(scope="module")
def study_runs(headline_dataset):
    t0 = time.monotonic()
    optimal = run_replications(headline_dataset, k=10, s=1.0, replications=100,
                               master_seed=7)
    elapsed = time.monotonic() - t0
    sparse = run_replications(headline_dataset, k=10, s=10.0, replications=100,
                              master_seed=7)
    return optimal, sparse, elapsed


def random_shares(rng, d):
    p = rng.dirichlet(np.ones(d))
    return p / p.sum()


def test_jl_unbiasedness(jl_vectors):
    u, v = jl_vectors
    t0 = time.monotonic()
    errs = {}
    for s in (1.0, 3.0, math.sqrt(1000.0)):
        diag = jl_diagnostic(u, v, ProjectionSpec(k=50, d=1000, s=s, seed=99),
                             10_000)
        errs[s] = diag.mean_rel_err
    elapsed = time.monotonic() - t0
    ok = all(e < 0.01 for e in errs.values()) and elapsed < 30.0
    detail = ", ".join(f"s={s:g} err={e:.3%}" for s, e in errs.items())
    report(ok, "projection mean preserves squared distance",
           f"{detail}, {elapsed:.1f}s (limits 1%, 30s)")


def test_jl_variance_law(jl_vectors):
    u, v = jl_vectors
    w = u - v
    errs = {}
    for s in (1.0, 3.0, math.sqrt(1000.0)):
        diag = jl_diagnostic(u, v, ProjectionSpec(k=50, d=1000, s=s, seed=99),
                             100_000)
        errs[s] = diag.var_rel_err
    gaussian = 2.0 * float(w @ w) ** 2 / 50
    predicted3 = predicted_distance_variance(w, 3.0, 50)
    equiv = abs(predicted3 - gaussian) <= 1e-12 * gaussian
    ok = all(e < 0.05 for e in errs.values()) and equiv
    detail = ", ".join(f"s={s:g} err={e:.3%}" for s, e in errs.items())
    report(ok, "squared-distance variance matches the sparsity law",
           f"{detail}, s=3 equals the Gaussian benchmark: {equiv} (limit 5%)")


def test_criterion_form_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 21))
        markets = tuple(
            Market(rng.standard_normal((d, 2)), random_shares(rng, d))
            for _ in range(n)
        )
        data = Dataset(markets)
        cycles = enumerate_cycles(n, (2, 3) if n >= 3 else (2,))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        beta = np.array([math.cos(theta), math.sin(theta)])
        q_dot = criterion(beta, data, cycles, form="dot")
        q_euclid = criterion(beta, data, cycles, form="euclid")
        scale = max(q_euclid, 4.0 * q_dot, 1e-300)
        worst = max(worst, abs(q_euclid - 4.0 * q_dot) / scale)
    ok = worst <= 1e-10
    report(ok, "distance form equals four times the inner-product form",
           f"worst relative gap {worst:.3e} over 100 instances (limit 1e-10)")


def test_criterion_convexity():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(3, 13))
        markets = tuple(
            Market(rng.standard_normal((d, 2)), random_shares(rng, d))
            for _ in range(n)
        )
        data = Dataset(markets)
        cycles = enumerate_cycles(n, (2, 3))
        for _ in range(100):
            beta_a = rng.standard_normal(2) * rng.uniform(0.2, 2.0)
            beta_b = rng.standard_normal(2) * rng.uniform(0.2, 2.0)
            lam = rng.uniform(0.0, 1.0)
            q_a = criterion(beta_a, data, cycles)
            q_b = criterion(beta_b, data, cycles)
            q_mid = criterion(lam * beta_a + (1 - lam) * beta_b, data, cycles)
            slack = 1e-10 * max(1.0, q_a, q_b)
            worst = max(worst, (q_mid - (lam * q_a + (1 - lam) * q_b)) / slack)
    ok = worst <= 1.0
    report(ok, "criterion is convex along 1000 random chords",
           f"worst violation {worst:.3e} in units of the 1e-10 band")


def test_logit_oracle():
    # closed-form datasets: exact zero at the generating coefficients
    zeros_ok = True
    for n, d, b, seed in ((6, 15, 2, 50), (8, 40, 2, 51), (5, 10, 4, 52)):
        beta = np.full(b, 1.0 / math.sqrt(b))
        data = logit_oracle_dataset(n, d, b, beta, seed=seed)
        zeros_ok &= criterion(beta, data, enumerate_cycles(n, (2, 3))) <= 1e-18

    # a rank-one perturbation design whose zero set is a sliver around the
    # truth: every one of 100 random angles must sit strictly above zero
    rng = np.random.default_rng(42)
    base = rng.standard_normal((8, 2))
    z = rng.standard_normal(8)
    across = np.array([-BETA0[1], BETA0[0]])
    along = np.linspace(-1.5, 1.5, 12)
    pinch = 5e-5 * (-1.0) ** np.arange(12)
    markets = []
    for i in range(12):
        shift = along[i] * across + pinch[i] * BETA0
        covs = base + np.outer(z, shift)
        util = covs @ BETA0
        shares = np.exp(util - util.max())
        shares /= shares.sum()
        markets.append(Market(covs, shares))
    data = Dataset(tuple(markets))
    cycles = enumerate_cycles(12, (2, 3))
    q_true = criterion(BETA0, data, cycles)
    angles = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, 100)
    q_away = min(
        criterion(np.array([math.cos(t), math.sin(t)]), data, cycles)
        for t in angles
    )
    ok = zeros_ok and q_true <= 1e-18 and q_away > 0.0
    report(ok, "logit data zero the criterion only at the truth",
           f"generic zeros ok={zeros_ok}, pinched Q(true)={q_true:.2e} "
           f"(limit 1e-18), min off-truth Q={q_away:.2e} over 100 angles")


def test_replicated_interval_study(study_runs):
    optimal, _, elapsed = study_runs
    covered = optimal.unprojected_set.contains(THETA0)
    mean_gap = abs(optimal.mean_theta - THETA0)
    ok = (covered and mean_gap <= 0.15 and optimal.nested_count >= 95
          and elapsed < 600.0)
    report(ok, "100-replication interval study recovers the truth",
           f"true angle covered={covered}, |mean-true|={mean_gap:.4f} "
           f"(limit 0.15), nested {optimal.nested_count}/100 (limit 95), "
           f"{elapsed:.0f}s (limit 600)")


def test_sparse_matches_optimal(study_runs):
    optimal, sparse, _ = study_runs
    mean_gap = abs(optimal.mean_theta - sparse.mean_theta)
    sd_gap = abs(optimal.sd_theta - sparse.sd_theta)
    ok = mean_gap <= 0.1 and sd_gap <= 0.1
    report(ok, "root-d sparsity matches the dense projection",
           f"mean gap {mean_gap:.4f}, sd gap {sd_gap:.4f} (limits 0.1)")


def test_compression_gap_shrinks_with_k(d500_dataset):
    wins = sum(
        convergence_diagnostic(d500_dataset, k_values=(10, 20, 40, 80), s=1.0,
                               draws=8, master_seed=seed).strictly_decreasing
        for seed in range(20)
    )
    ok = wins >= 18
    report(ok, "criterion gap falls monotonically in the projected dimension",
           f"strictly decreasing across k in {wins}/20 seeds (limit 18)")


def test_generation_performance():
    rng = np.random.default_rng(5)
    markets = tuple(
        Market(rng.standard_normal((5000, 2)), random_shares(rng, 5000))
        for _ in range(30)
    )
    data = Dataset(markets)
    t0 = time.monotonic()
    proj = generate(ProjectionSpec(k=500, d=5000, s=math.sqrt(5000.0), seed=31))
    comp = apply(proj, data)
    elapsed = time.monotonic() - t0
    frac = proj.nonzero_fraction
    ok = elapsed < 5.0 and 0.012 <= frac <= 0.016 and comp.covariates.shape == (30, 500, 2)
    report(ok, "projection touches about 1.4% of cells and applies fast",
           f"{frac:.4%} of cells, {elapsed:.2f}s for 30 markets (limits 1.2-1.6%, 5s)")
