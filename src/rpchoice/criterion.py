"""Cyclic-monotonicity cycles and the squared-violation criterion.

For a cycle of markets (a_1, ..., a_L, a_1) and a candidate coefficient
vector beta, utilities u^(i) = X^(i) beta must satisfy

    r = sum_l (u^(a_{l+1}) - u^(a_l)) . p^(a_l)  <=  0,

so the criterion aggregates violations across a cycle set:

    Q(beta) = sum_cycles max(r, 0)^2.

Q is convex in beta: each residual is linear in beta, max(., 0) preserves
convexity, and squares of nonnegative convex functions stay convex. An
equivalent squared-distance form of the residual,

    r_e = sum_l (||u^(a_{l+1}) - p^(a_{l+1})||^2 - ||u^(a_{l+1}) - p^(a_l)||^2),

expands to exactly 2 r (the quadratic terms telescope around the cycle), so
the euclid-form criterion equals 4 Q. Both forms are implemented on separate
floating-point paths so each can check the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, ValidationError

UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Cycle:
    """An ordered tuple of distinct market indices; closure back to the start is implicit."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) < 2:
            raise ValidationError("a cycle needs at least 2 markets")
        if len(set(idx)) != len(idx):
            raise ValidationError(f"cycle {idx} repeats a market")
        if min(idx) < 0:
            raise ValidationError("market indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @property
    def length(self) -> int:
        return len(self.indices)


class CycleSet:
    """Cycles grouped by length into (m, L) index arrays for vector evaluation."""

    def __init__(self, groups: dict[int, np.ndarray]):
        cleaned: dict[int, np.ndarray] = {}
        for length in sorted(groups):
            arr = np.asarray(groups[length], dtype=np.int64)
            if arr.size == 0:
                continue
            if arr.ndim != 2 or arr.shape[1] != length:
                raise DimensionError(
                    f"group for length {length} must have shape (m, {length})"
                )
            if arr.min() < 0:
                raise ValidationError("market indices must be nonnegative")
            repeats = (np.diff(np.sort(arr, axis=1), axis=1) == 0).any(axis=1)
            if repeats.any():
                first = tuple(arr[int(repeats.argmax())].tolist())
                raise ValidationError(f"cycle {first} repeats a market")
            cleaned[length] = arr
        if not cleaned:
            raise ParameterError("cycle set is empty")
        self._groups = cleaned

    @classmethod
    def from_cycles(cls, cycles) -> "CycleSet":
        groups: dict[int, list] = {}
        for c in cycles:
            cyc = c if isinstance(c, Cycle) else Cycle(tuple(c))
            groups.setdefault(cyc.length, []).append(cyc.indices)
        return cls({length: np.array(rows) for length, rows in groups.items()})

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(self._groups)

    @property
    def max_index(self) -> int:
        return max(int(arr.max()) for arr in self._groups.values())

    def index_arrays(self):
        return [self._groups[length] for length in self._groups]

    def cycles(self) -> list[Cycle]:
        out = []
        for arr in self.index_arrays():
            out.extend(Cycle(tuple(row)) for row in arr.tolist())
        return out

    def __len__(self) -> int:
        return sum(arr.shape[0] for arr in self._groups.values())


def enumerate_cycles(n: int, lengths=(2, 3), both_orientations: bool = True) -> CycleSet:
    """All distinct cycles over n markets for the requested lengths.

    Each cycle is anchored at its smallest market index, and the remaining
    members are permuted, which de-duplicates rotations. For length 2 the two
    orientations coincide so one copy is kept; for longer cycles both
    orientations are kept unless both_orientations is False, in which case
    the copy whose second element is smaller than its last survives.

    The count grows as (L-1)! * C(n, L) per length, so long cycles on many
    markets get expensive quickly.
    """
    if n < 2:
        raise ParameterError(f"need at least 2 markets, got n={n}")
    lengths = sorted(set(int(L) for L in lengths))
    if not lengths:
        raise ParameterError("no cycle lengths requested")
    for L in lengths:
        if not 2 <= L <= n:
            raise ParameterError(f"cycle length {L} outside [2, {n}]")
    groups: dict[int, np.ndarray] = {}
    for L in lengths:
        rows = []
        for combo in itertools.combinations(range(n), L):
            anchor, rest = combo[0], combo[1:]
            for perm in itertools.permutations(rest):
                if L > 2 and not both_orientations and perm[0] > perm[-1]:
                    continue
                rows.append((anchor, *perm))
        groups[L] = np.array(rows, dtype=np.int64)
    return CycleSet(groups)


@dataclass(frozen=True)
class ParamPoint:
    """A coefficient vector on the unit sphere."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size < 1:
            raise DimensionError("beta must be a nonempty vector")
        norm = float(np.linalg.norm(beta))
        if not math.isfinite(norm) or abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValidationError(f"beta must have unit norm, got {norm!r}")
        beta = np.ascontiguousarray(beta)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def from_angle(cls, theta: float) -> "ParamPoint":
        return cls(np.array([math.cos(theta), math.sin(theta)]))

    @property
    def angle(self) -> float:
        if self.beta.size != 2:
            raise DimensionError("angle is only defined for 2-d coefficients")
        return float(np.arctan2(self.beta[1], self.beta[0]) % (2.0 * math.pi))


def _as_beta(beta, b: int) -> np.ndarray:
    vec = beta.beta if isinstance(beta, ParamPoint) else np.asarray(beta, dtype=np.float64)
    if vec.shape != (b,):
        raise DimensionError(f"beta has shape {vec.shape}, data has b={b}")
    if not np.isfinite(vec).all():
        raise ValidationError("beta contains non-finite values")
    return vec


def _check_cycles(cycles: CycleSet, n: int) -> None:
    if cycles.max_index >= n:
        raise DimensionError(
            f"cycle index {cycles.max_index} out of range for n={n} markets"
        )


def cross_moments(data) -> np.ndarray:
    """Cached blocks C[i, j, :] = X^(i)' p^(j), the only data reduction the
    dot-form criterion needs: residuals become gathers plus a dot with beta."""
    X = data.covariate_stack()
    P = data.share_stack()
    return np.einsum("irb,jr->ijb", X, P)


def _difference_rows(C: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-cycle gradient rows: sum_l C[a_{l+1}, a_l] - C[a_l, a_l]."""
    m, L = idx.shape
    out = np.zeros((m, C.shape[2]))
    for l in range(L):
        cur = idx[:, l]
        nxt = idx[:, (l + 1) % L]
        out += C[nxt, cur] - C[cur, cur]
    return out


class CriterionEvaluator:
    """Reusable dot-form evaluator for one (data, cycles) pair.

    Residuals are linear in beta: r = D beta with D precomputed from the
    cross-moment blocks, so values, subgradients and whole angle grids cost
    one small matrix product each.
    """

    def __init__(self, data, cycles: CycleSet):
        _check_cycles(cycles, data.n)
        C = cross_moments(data)
        self.b = int(C.shape[2])
        self.D = np.vstack([_difference_rows(C, idx) for idx in cycles.index_arrays()])
        self.n_cycles = self.D.shape[0]

    def residuals(self, beta) -> np.ndarray:
        return self.D @ _as_beta(beta, self.b)

    def value(self, beta) -> float:
        viol = np.maximum(self.residuals(beta), 0.0)
        return float(viol @ viol)

    def subgradient(self, beta) -> np.ndarray:
        viol = np.maximum(self.residuals(beta), 0.0)
        return 2.0 * (viol @ self.D)

    def value_and_subgradient(self, beta) -> tuple[float, np.ndarray]:
        viol = np.maximum(self.residuals(beta), 0.0)
        return float(viol @ viol), 2.0 * (viol @ self.D)

    def value_grid(self, thetas: np.ndarray, chunk: int = 512) -> np.ndarray:
        """Criterion along unit-circle angles; b = 2 only."""
        if self.b != 2:
            raise DimensionError("angle grids require exactly 2 covariates")
        thetas = np.asarray(thetas, dtype=np.float64)
        values = np.empty(thetas.shape[0])
        for start in range(0, thetas.shape[0], chunk):
            block = thetas[start : start + chunk]
            B = np.vstack([np.cos(block), np.sin(block)])
            viol = np.maximum(self.D @ B, 0.0)
            values[start : start + len(block)] = (viol * viol).sum(axis=0)
        return values


def cycle_residual_dot(cycle: Cycle, beta, data) -> float:
    """Literal evaluation of sum_l (u^(next) - u^(cur)) . p^(cur)."""
    idx = cycle.indices if isinstance(cycle, Cycle) else Cycle(tuple(cycle)).indices
    _check_cycles(CycleSet.from_cycles([idx]), data.n)
    vec = _as_beta(beta, data.b)
    markets = data.markets
    u = {i: markets[i].covariates @ vec for i in idx}
    p = {i: markets[i].shares for i in idx}
    total = 0.0
    L = len(idx)
    for l in range(L):
        cur, nxt = idx[l], idx[(l + 1) % L]
        total += float((u[nxt] - u[cur]) @ p[cur])
    return total


def cycle_residual_euclid(cycle: Cycle, beta, data) -> float:
    """Literal squared-distance form; equals 2x the dot form by telescoping."""
    idx = cycle.indices if isinstance(cycle, Cycle) else Cycle(tuple(cycle)).indices
    _check_cycles(CycleSet.from_cycles([idx]), data.n)
    vec = _as_beta(beta, data.b)
    markets = data.markets
    u = {i: markets[i].covariates @ vec for i in idx}
    p = {i: markets[i].shares for i in idx}
    total = 0.0
    L = len(idx)
    for l in range(L):
        cur, nxt = idx[l], idx[(l + 1) % L]
        total += float(np.sum((u[nxt] - p[nxt]) ** 2)) - float(
            np.sum((u[nxt] - p[cur]) ** 2)
        )
    return total


def _euclid_residual_groups(data, cycles: CycleSet, vec: np.ndarray):
    """Vectorized euclid residuals per cycle group, via pairwise squared
    distances between utility vectors and share vectors (no inner products)."""
    X = data.covariate_stack()
    P = data.share_stack()
    U = X @ vec
    E = ((U[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)
    out = []
    for idx in cycles.index_arrays():
        m, L = idx.shape
        r = np.zeros(m)
        for l in range(L):
            cur = idx[:, l]
            nxt = idx[:, (l + 1) % L]
            r += E[nxt, nxt] - E[nxt, cur]
        out.append(r)
    return out


def criterion(beta, data, cycles: CycleSet, form: str = "dot") -> float:
    """Q(beta) = sum of squared positive residuals over the cycle set.

    form "dot" is the computational default; form "euclid" recomputes every
    residual through squared distances and costs O(n^2 d) extra, which is
    what makes it an independent check rather than a reparametrization.
    """
    if form == "dot":
        return CriterionEvaluator(data, cycles).value(beta)
    if form == "euclid":
        _check_cycles(cycles, data.n)
        vec = _as_beta(beta, data.b)
        total = 0.0
        for r in _euclid_residual_groups(data, cycles, vec):
            viol = np.maximum(r, 0.0)
            total += float(viol @ viol)
        return total
    raise ParameterError(f"unknown criterion form {form!r}")


def criterion_subgradient(beta, data, cycles: CycleSet, form: str = "dot") -> np.ndarray:
    """A subgradient of Q at beta: sum over violated cycles of
    2 max(r, 0) * sum_l (X^(a_{l+1}) - X^(a_l))' p^(a_l).

    Where no residual is exactly zero this is the gradient. The euclid form
    differentiates the squared-distance residuals directly and comes out 4x
    the dot form, matching the criterion identity.
    """
    if form == "dot":
        return CriterionEvaluator(data, cycles).subgradient(beta)
    if form == "euclid":
        _check_cycles(cycles, data.n)
        vec = _as_beta(beta, data.b)
        X = data.covariate_stack()
        P = data.share_stack()
        grad = np.zeros(data.b)
        residual_groups = _euclid_residual_groups(data, cycles, vec)
        for idx, r in zip(cycles.index_arrays(), residual_groups):
            m, L = idx.shape
            drdb = np.zeros((m, data.b))
            for l in range(L):
                cur = idx[:, l]
                nxt = idx[:, (l + 1) % L]
                drdb += 2.0 * np.einsum("mrb,mr->mb", X[nxt], P[cur] - P[nxt])
            grad += 2.0 * (np.maximum(r, 0.0) @ drdb)
        return grad
    raise ParameterError(f"unknown criterion form {form!r}")
