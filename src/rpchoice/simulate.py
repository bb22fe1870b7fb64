"""Synthetic dataset generation for the estimation pipeline.

Markets get covariates X (d x 2), a true direction beta0 = (cos theta0,
sin theta0), and shares equal to the frequency with which each choice
maximizes X beta0 + noise over Monte Carlo noise draws. A closed-form logit
generator provides datasets whose shares satisfy the cycle inequalities
exactly, which pins the criterion's zero set for tests.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._seeds import (
    STREAM_COVARIATES,
    STREAM_SHARES,
    available_cpus,
    check_seed,
    derive_rng,
    derive_seed,
)
from .data import Dataset, Market, exact_unit_sum
from .errors import ParameterError, ValidationError, as_index

DEFAULT_THETA = 0.75 * math.pi

# moving-window error: eps_j = (1/3) * (eta_j + eta_{j+1} + eta_{j+2} + eta_{j+3}),
# eta i.i.d. standard normal. The window runs past the last choice, so each
# market needs d + 3 innovations; the vector is extended rather than wrapped.
MA_TAPS = 4
MA_WEIGHT = 1.0 / 3.0

COVARIATE_MODES = ("iid", "brand-effects", "market-effects")
ERROR_KINDS = ("ma-window", "iid-gumbel")

_MEANS = np.array([1.0, -1.0])
# common-effect modes split the unit variance: effect variance 0.5, noise
# variance 1, so the correlation across markets at a fixed choice is 1/3
_EFFECT_SD = math.sqrt(0.5)

_MIN_MC_DRAWS = 1000
# cap on the scratch bytes of the share simulation, shared by every market
# simulated at once: each holds two float buffers of chunk x (d + 3), so a
# pool of w workers gives each market a w-th of it
_CHUNK_BUDGET_BYTES = 1_500_000
# smallest share of the budget a worker gets, which caps the pool at 4: each
# chunk costs about ten numpy calls whose dispatch holds the GIL, and with two
# threads on a two-core VM, chunks of 4 rows at d = 5000 (or 38 rows at
# d = 100) cost 20% (or 2x) more per draw than chunks of 750 KB
_MIN_CHUNK_BYTES = _CHUNK_BUDGET_BYTES // 4


def default_mc_draws(d: int) -> int:
    """Share-simulation draws: enough that MC noise is negligible next to
    projection noise, relaxed for large choice sets where draws cost d each."""
    return 100_000 if d <= 1000 else 10_000


def _check_error_kind(kind) -> None:
    if kind not in ERROR_KINDS:
        raise ParameterError(f"unknown error kind {kind!r}, expected one of {ERROR_KINDS}")


@dataclass(frozen=True)
class SimConfig:
    """Design of one synthetic dataset. b is fixed at 2 covariates."""

    d: int
    n: int = 30
    theta0: float = DEFAULT_THETA
    covariate_mode: str = "iid"
    error: str = "ma-window"
    mc_draws: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("d", "n", "mc_draws"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_index(getattr(self, name), name))
        if self.n < 2:
            raise ParameterError(f"need at least 2 markets, got n={self.n}")
        if self.d < 2:
            raise ParameterError(f"need at least 2 choices, got d={self.d}")
        if not math.isfinite(self.theta0):
            raise ParameterError(f"theta0 must be finite, got {self.theta0!r}")
        if self.covariate_mode not in COVARIATE_MODES:
            raise ParameterError(
                f"unknown covariate mode {self.covariate_mode!r}, "
                f"expected one of {COVARIATE_MODES}"
            )
        _check_error_kind(self.error)
        if self.mc_draws is not None and self.mc_draws < _MIN_MC_DRAWS:
            raise ParameterError(
                f"mc_draws must be at least {_MIN_MC_DRAWS}, got {self.mc_draws}"
            )
        check_seed(self.seed)

    @property
    def b(self) -> int:
        return 2

    @property
    def resolved_mc_draws(self) -> int:
        return self.mc_draws if self.mc_draws is not None else default_mc_draws(self.d)

    def beta0(self) -> np.ndarray:
        return np.array([math.cos(self.theta0), math.sin(self.theta0)])


def draw_covariates(config: SimConfig) -> list[np.ndarray]:
    """All markets' d x 2 covariate matrices, in market order, from a single
    stream; a fixed seed gives identical output.

    iid: every entry independent, column means (1, -1), unit variance.
    brand-effects: one choice-level draw shared by all markets plus unit
    noise. market-effects: one market-level draw shared by all choices plus
    unit noise. Effect variances are 0.5 in both modes.
    """
    rng = derive_rng(config.seed, STREAM_COVARIATES)
    d, n = config.d, config.n
    if config.covariate_mode == "iid":
        return [rng.normal(_MEANS, 1.0, size=(d, 2)) for _ in range(n)]
    if config.covariate_mode == "brand-effects":
        base = rng.normal(_MEANS, _EFFECT_SD, size=(d, 2))
        return [base + rng.standard_normal((d, 2)) for _ in range(n)]
    return [rng.normal(_MEANS, _EFFECT_SD, size=2) + rng.standard_normal((d, 2))
            for _ in range(n)]


def compute_shares_mc(utilities, error: str, mc_draws: int, seed: int) -> np.ndarray:
    """Share vector: frequency each choice maximizes utility + noise, the
    noise of kind `error`, one of ERROR_KINDS.

    Draws arrive in chunks sized to the whole scratch budget,
    _CHUNK_BUDGET_BYTES, so the peak footprint does not grow with mc_draws
    or d; simulate_dataset splits the same budget across its pool. Argmax
    ties break toward the lowest index (a measure-zero event for continuous
    noise). The returned shares are nonnegative and sum to exactly 1.
    """
    _check_error_kind(error)
    check_seed(seed)
    return _shares_mc(utilities, error, as_index(mc_draws, "mc_draws"), seed, _CHUNK_BUDGET_BYTES)


def _shares_mc(utilities, error: str, mc_draws: int, seed: int,
               budget_bytes: int) -> np.ndarray:
    """compute_shares_mc with `budget_bytes` of scratch.

    The noise stream is consumed row by row, one row of d (+ 3) draws per MC
    draw, so the chunk height, and with it the budget, changes no bit of the
    result. Both buffers are allocated once and filled in place.
    """
    u = np.asarray(utilities, dtype=np.float64)
    if u.ndim != 1 or u.size < 2:
        raise ParameterError(f"utilities must be a vector of length >= 2, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValidationError("utilities contain non-finite values")
    if mc_draws < _MIN_MC_DRAWS:
        raise ParameterError(f"mc_draws must be at least {_MIN_MC_DRAWS}, got {mc_draws}")

    d = u.size
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    chunk = max(1, min(mc_draws, budget_bytes // (16 * (d + MA_TAPS - 1))))
    moving = error == "ma-window"
    eta = np.empty((chunk, d + MA_TAPS - 1)) if moving else None
    total = np.empty((chunk, d))
    counts = np.zeros(d, dtype=np.int64)
    done = 0
    while done < mc_draws:
        rows = min(chunk, mc_draws - done)
        block = total[:rows]
        if moving:
            noise = rng.standard_normal(out=eta[:rows])
            np.copyto(block, noise[:, 0:d])
            for tap in range(1, MA_TAPS):
                block += noise[:, tap : tap + d]
            block *= MA_WEIGHT
        else:
            block[...] = rng.gumbel(0.0, 1.0, size=(rows, d))
        block += u
        counts += np.bincount(block.argmax(axis=1), minlength=d)
        done += rows

    return exact_unit_sum(counts / mc_draws)


def simulate_dataset(config: SimConfig) -> Dataset:
    """Draw covariates, compute shares at beta0, assemble the Dataset.

    All covariate blocks are drawn first, in market order, from the one
    covariate stream. Market m's share simulation then runs on its own seed
    derived from (config.seed, m), on a pool of min(n, available_cpus(), 4)
    threads whose results are collected in market order, so the dataset is
    the same bit for bit at any CPU count. The pool's markets share one
    scratch budget, _CHUNK_BUDGET_BYTES, of which each gets at least
    _MIN_CHUNK_BYTES, and covariate blocks are handed over without copying,
    keeping peak memory near the size of the finished dataset.
    """
    beta0 = config.beta0()
    covariates = draw_covariates(config)
    workers = min(config.n, available_cpus(), _CHUNK_BUDGET_BYTES // _MIN_CHUNK_BYTES)
    budget = _CHUNK_BUDGET_BYTES // workers

    def shares(m: int) -> np.ndarray:
        return _shares_mc(covariates[m] @ beta0, config.error, config.resolved_mc_draws,
                          derive_seed(config.seed, STREAM_SHARES, m), budget)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        markets = tuple(map(Market, covariates, pool.map(shares, range(config.n))))
    return Dataset(markets=markets)


def logit_oracle_dataset(n: int, d: int, b: int, beta_true, seed: int = 0) -> Dataset:
    """Dataset whose shares are closed-form softmax choice probabilities.

    With p = exp(u) / sum exp(u) the cycle inequalities hold with strict
    slack at beta_true, so the criterion there is exactly zero in floating
    point. Covariates are standard normal.
    """
    if n < 2 or d < 2 or b < 1:
        raise ParameterError(f"need n >= 2, d >= 2, b >= 1, got ({n}, {d}, {b})")
    beta = np.asarray(beta_true, dtype=np.float64)
    if beta.shape != (b,):
        raise ParameterError(f"beta_true must have shape ({b},), got {beta.shape}")
    if not np.isfinite(beta).all():
        raise ValidationError("beta_true contains non-finite values")

    rng = derive_rng(seed, STREAM_COVARIATES)
    markets = []
    for _ in range(n):
        cov = rng.standard_normal((d, b))
        z = cov @ beta
        z -= z.max()
        p = np.exp(z)
        p /= p.sum()
        markets.append(Market(covariates=cov, shares=exact_unit_sum(p)))
    return Dataset(markets=tuple(markets))
