"""Cyclic-monotonicity cycles and the squared-violation criterion.

For a cycle of markets (a_1, ..., a_L, a_1) and a candidate coefficient
vector beta, utilities u^(i) = X^(i) beta must satisfy

    r = sum_l (u^(a_{l+1}) - u^(a_l)) . p^(a_l)  <=  0,

so the criterion aggregates violations across a cycle set:

    Q(beta) = sum_cycles max(r, 0)^2.

Q is convex in beta: each residual is linear in beta, max(., 0) preserves
convexity, and squares of nonnegative convex functions stay convex. The
residuals are computed in this dot form only, as r = D beta with D built
once per (data, cycles) pair (`CriterionEvaluator`). An equivalent
squared-distance form of the residual, which telescopes to exactly 2 r, is
kept in the tests as a literal per-cycle reference that checks D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError, ValidationError, as_index

# how far from 1 a minimizer's norm may be; the benchmark's gate reads it
UNIT_NORM_TOL = 1e-12

_TWO_PI = 2.0 * math.pi
# level-set pieces whose ends lie this close in angle belong to one arc
_MERGE_GAP = 1e-12
# the cycle lengths a CycleSet may hold
_LENGTHS = (2, 3)
# most triangles per block of 3-cycle rows: bounds the block's index arrays
# and edge gathers, whatever n
_TRIPLE_BLOCK = 1 << 14


@dataclass(frozen=True)
class CycleSet:
    """Every cycle of the given lengths over markets 0, ..., n - 1.

    Lengths 2 and 3 are supported. A cycle is anchored at its smallest
    market, which de-duplicates rotations; a 2-cycle's two orientations
    coincide, so one is kept, and each triangle comes in both orientations.
    Rows follow one fixed order: the pairs (i, j), i < j, in row-major
    order, then the triples a < j < k in lexicographic order, each as
    (a, j, k) followed by (a, k, j). Nothing per cycle is stored.
    """

    n: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        n = as_index(self.n, "n")
        if n < 2:
            raise ParameterError(f"need at least 2 markets, got n={n}")
        lengths = tuple(sorted(set(as_index(L, "a cycle length") for L in self.lengths)))
        if not lengths:
            raise ParameterError("no cycle lengths requested")
        for L in lengths:
            if L not in _LENGTHS:
                raise ParameterError(
                    f"cycle length {L} is not supported; supported lengths are 2 and 3"
                )
            if L > n:
                raise ParameterError(f"cycle length {L} outside [2, {n}]")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lengths", lengths)

    def __len__(self) -> int:
        return sum(math.factorial(L - 1) * math.comb(self.n, L) for L in self.lengths)


def enumerate_cycles(n: int, lengths=_LENGTHS) -> CycleSet:
    """All distinct cycles over n markets for the requested lengths (2, 3).

    There are C(n, 2) 2-cycles and 2 C(n, 3) 3-cycles; the rows are built
    from an n x n edge table when a criterion is evaluated.
    """
    return CycleSet(n, lengths)


def _as_beta(beta, b: int) -> np.ndarray:
    vec = np.asarray(beta, dtype=np.float64)
    if vec.shape != (b,):
        raise DimensionError(f"beta has shape {vec.shape}, data has b={b}")
    if not np.isfinite(vec).all():
        raise ValidationError("beta contains non-finite values")
    return vec


def cross_moments(data) -> np.ndarray:
    """Cached blocks C[i, j, :] = X^(i)' p^(j), the only data reduction the
    dot-form criterion needs: residuals become gathers plus a dot with beta.
    One batched product, C[i] = P X^(i), with P the (n, d) stacked shares."""
    X = data.covariate_stack()
    P = data.share_stack()
    return np.matmul(P[None, :, :], X)


def _cycle_rows(edge: np.ndarray, cycles: CycleSet) -> np.ndarray:
    """Per-cycle sums of an (n, n, ...) edge table: the row of a cycle
    (a_0, ..., a_{L-1}) is sum_l edge[a_l, a_{l+1}], in the set's row order.

    Terms are added left to right as from a zero start; `+ 0.0` turns a -0.0
    entry into the +0.0 that such a start leaves. The 3-cycles are built a
    block of whole pairs (a, j) at a time, at most _TRIPLE_BLOCK triangles,
    so the temporaries beside the output do not grow with their count.
    """
    edge = edge + 0.0
    out = np.empty((len(cycles), *edge.shape[2:]))
    i, j = np.triu_indices(cycles.n, 1)
    start = 0
    if 2 in cycles.lengths:
        out[: i.size] = edge[i, j] + edge[j, i]
        start = i.size
    if 3 in cycles.lengths:
        # each pair a < j once per k above j: the triples in lexicographic order
        both = out[start:].reshape(-1, 2, *edge.shape[2:])
        row = 0
        pairs = max(1, _TRIPLE_BLOCK // (cycles.n - 2))  # a pair has at most n - 2 triangles
        for first in range(0, i.size, pairs):
            per_pair = cycles.n - 1 - j[first : first + pairs]
            a = np.repeat(i[first : first + pairs], per_pair)
            m = np.repeat(j[first : first + pairs], per_pair)
            k = np.arange(a.size) - np.repeat(np.cumsum(per_pair) - per_pair, per_pair) + m + 1
            rows = both[row : row + a.size]
            rows[:, 0] = edge[a, m] + edge[m, k] + edge[k, a]
            rows[:, 1] = edge[a, k] + edge[k, m] + edge[m, a]
            row += a.size
    return out


class CriterionEvaluator:
    """Reusable dot-form evaluator for one (data, cycles) pair.

    Residuals are linear in beta: r = D beta with D precomputed from the
    cross-moment blocks, so values and whole angle grids cost one small
    matrix product each.
    """

    def __init__(self, data, cycles: CycleSet):
        if cycles.n > data.n:
            raise DimensionError(
                f"cycle index {cycles.n - 1} out of range for n={data.n} markets"
            )
        C = cross_moments(data)
        self.b = int(C.shape[2])
        # E[i, j] = C[j, i] - C[i, i]: the term of the step from market i to j
        self.D = _cycle_rows(C.transpose(1, 0, 2) - C.diagonal().T[:, None, :], cycles)
        self.n_cycles = self.D.shape[0]

    def residuals(self, beta) -> np.ndarray:
        return self.D @ _as_beta(beta, self.b)

    def value(self, beta) -> float:
        viol = np.maximum(self.residuals(beta), 0.0)
        return float(viol @ viol)

    def value_and_subgradient(self, beta) -> tuple[float, np.ndarray]:
        # no solver calls this; the benchmark's tracer counts calls to it by
        # name (bench/run.py), so it stays until the next benchmark change
        viol = np.maximum(self.residuals(beta), 0.0)
        return float(viol @ viol), 2.0 * (viol @ self.D)

    def value_grid(self, thetas: np.ndarray) -> np.ndarray:
        """Criterion along unit-circle angles; b = 2 only."""
        if self.b != 2:
            raise DimensionError("angle grids require exactly 2 covariates")
        thetas = np.asarray(thetas, dtype=np.float64)
        values = np.empty(thetas.shape[0])
        chunk = 512  # angles per block: bounds the (cycles x angles) temporary
        for start in range(0, thetas.shape[0], chunk):
            block = thetas[start : start + chunk]
            B = np.vstack([np.cos(block), np.sin(block)])
            viol = np.maximum(self.D @ B, 0.0)
            values[start : start + len(block)] = (viol * viol).sum(axis=0)
        return values


def _circle_form(M: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """u' M u at u = (cos theta, sin theta), with M stored as rows (p, q, r)
    for the symmetric matrix [[p, q], [q, r]]."""
    c, s = np.cos(thetas), np.sin(thetas)
    return M[:, 0] * c * c + 2.0 * M[:, 1] * c * s + M[:, 2] * s * s


def _circle_phase(M: np.ndarray):
    """Q = mean + amp * cos(2 theta - psi) for each row (p, q, r) of M."""
    mean = 0.5 * (M[:, 0] + M[:, 2])
    half_diff = 0.5 * (M[:, 0] - M[:, 2])
    return mean, np.hypot(half_diff, M[:, 1]), np.arctan2(M[:, 1], half_diff)


def _piece_extremes(M, active, starts, stops):
    """Minimum and maximum of u' M u over each piece [start, stop], with the
    minimizing angle; pieces where `active` is False are exactly 0."""
    mean, amp, psi = _circle_phase(M)
    at_start = _circle_form(M, starts)
    at_stop = _circle_form(M, stops)
    lo = np.minimum(at_start, at_stop)
    where_lo = np.where(at_start <= at_stop, starts, stops)
    interior_min = starts + (0.5 * psi + 0.5 * math.pi - starts) % math.pi
    inside = interior_min < stops
    at_min = _circle_form(M, interior_min)
    better = inside & (at_min < lo)
    lo = np.where(better, at_min, lo)
    where_lo = np.where(better, interior_min, where_lo)
    interior_max = starts + (0.5 * psi - starts) % math.pi
    hi = np.maximum(at_start, at_stop)
    hi = np.where(interior_max < stops, np.maximum(hi, mean + amp), hi)
    lo = np.where(active, np.maximum(lo, 0.0), 0.0)
    hi = np.where(active, np.maximum(hi, 0.0), 0.0)
    return lo, hi, where_lo


class CircleProfile:
    """The b = 2 criterion along the unit circle, exactly, by angular sweep.

    Row c of D gives the residual r_c(theta) = rho_c cos(theta - phi_c),
    positive on the open half-circle (phi_c - pi/2, phi_c + pi/2). Sorting
    the 2m entry and exit angles cuts the circle into pieces with a fixed
    active set A, on which

        Q(theta) = u' M u = a + R cos(2 theta - psi),   M = sum_{c in A} D_c' D_c,

    so the minimum, the maximum and the roots of Q = t on each piece have
    closed forms. Piece j runs from breaks[j] to breaks[j + 1]; the last
    piece wraps to breaks[0] + 2pi. M comes from prefix sums over the sweep,
    which carry rounding of order eps * sum_c rho_c^2; the minimum and the
    level-set roots are therefore taken from M recomputed from its rows for
    the pieces involved. An integer active count makes Q exactly 0 where no
    cycle is violated. All-zero rows never contribute and are dropped.
    """

    _EXACT_CHUNK = 1 << 22  # cells of the (pieces, rows) active mask per block
    _SWEEP_SLACK = 1e-10  # rounding band of the prefix sums, times sum rho^2

    def __init__(self, D: np.ndarray):
        D = np.asarray(D, dtype=np.float64)
        if D.ndim != 2 or D.shape[1] != 2:
            raise DimensionError("a circle profile needs residual rows of 2 coefficients")
        if not np.isfinite(D).all():
            raise NumericalError("residual rows contain non-finite values")
        D = D[(D != 0.0).any(axis=1)]
        m = D.shape[0]
        self._outer = np.column_stack([D[:, 0] * D[:, 0], D[:, 0] * D[:, 1], D[:, 1] * D[:, 1]])
        phi = np.arctan2(D[:, 1], D[:, 0])
        angles = np.concatenate([phi - 0.5 * math.pi, phi + 0.5 * math.pi]) % _TWO_PI
        angles[angles >= _TWO_PI] = 0.0
        # stable: on a tie an entry sweeps before an exit, so no spurious
        # zero-length piece without active cycles appears between them
        order = np.argsort(angles, kind="stable")
        self.breaks = angles[order]
        position = np.empty(2 * m, dtype=np.int64)
        position[order] = np.arange(2 * m)
        self._enter, self._leave = position[:m], position[m:]
        # rows whose half-circle wraps through the sweep start are active on
        # the last piece, before any event
        initial = self._leave < self._enter
        sign = np.where(order < m, 1, -1)
        self._counts = int(initial.sum()) + np.cumsum(sign)
        self._M = self._outer[initial].sum(axis=0) + np.cumsum(
            sign[:, None] * self._outer[order % m], axis=0
        )
        self._scale = float(self._outer[:, 0].sum() + self._outer[:, 2].sum())
        self._stops = np.append(self.breaks[1:], self.breaks[:1] + _TWO_PI)
        self._lo, self._hi, _ = _piece_extremes(self._M, self._counts > 0, self.breaks, self._stops)

    @property
    def pieces(self) -> int:
        return self.breaks.size

    def _exact(self, pieces: np.ndarray) -> np.ndarray:
        """M for the given pieces, summed from the rows active on each."""
        out = np.empty((pieces.size, 3))
        block = max(1, self._EXACT_CHUNK // max(1, self._enter.size))
        enter, leave = self._enter, self._leave
        plain = enter < leave
        for lo in range(0, pieces.size, block):
            j = pieces[lo : lo + block, None]
            active = np.where(plain, (enter <= j) & (j < leave), (j >= enter) | (j < leave))
            out[lo : lo + block] = active.astype(np.float64) @ self._outer
        return out

    def values(self, thetas) -> np.ndarray:
        """Q at each angle, from the prefix-summed piece matrices."""
        thetas = np.asarray(thetas, dtype=np.float64) % _TWO_PI
        if self.pieces == 0:
            return np.zeros(thetas.shape)
        j = np.searchsorted(self.breaks, thetas, side="right") - 1
        out = _circle_form(self._M[j], thetas)
        return np.where(self._counts[j] > 0, np.maximum(out, 0.0), 0.0)

    @property
    def max_value(self) -> float:
        return float(self._hi.max()) if self.pieces else 0.0

    def minimum(self) -> tuple[float, float]:
        """(min Q, an angle attaining it) over the circle.

        Where some piece has no active cycle, the minimum is exactly 0 and
        the angle is the midpoint of the first such piece.
        """
        if self.pieces == 0:
            return 0.0, 0.0
        idle = np.flatnonzero(self._counts == 0)
        if idle.size:
            j = idle[0]
            return 0.0, float((0.5 * (self.breaks[j] + self._stops[j])) % _TWO_PI)
        near = np.flatnonzero(self._lo <= self._lo.min() + self._SWEEP_SLACK * self._scale)
        lo, _, where = _piece_extremes(
            self._exact(near), True, self.breaks[near], self._stops[near]
        )
        best = int(lo.argmin())
        return float(lo[best]), float(where[best] % _TWO_PI)

    def level_set(self, threshold: float) -> tuple[tuple[float, float], ...]:
        """Exact arcs of {Q <= threshold} as (lb, ub) pairs in [0, 2pi),
        sorted by lb; ub < lb wraps through 0. The whole circle comes back as
        the single arc (0, 2pi). threshold must be at least min Q."""
        whole_circle = ((0.0, _TWO_PI),)
        if self.pieces == 0 or self.max_value <= threshold:
            return whole_circle
        slack = self._SWEEP_SLACK * self._scale
        whole = (self._hi <= threshold - slack) | (self._counts == 0)
        crossing = np.flatnonzero(~whole & (self._lo <= threshold + slack))
        parts = [
            part
            for j, M in zip(crossing, self._exact(crossing))
            for part in _sublevel_segments(M, threshold, self.breaks[j], self._stops[j])
        ]
        seg_lo = np.append(self.breaks[whole], [lo for lo, _ in parts])
        seg_hi = np.append(self._stops[whole], [hi for _, hi in parts])
        if seg_lo.size == 0:
            raise NumericalError(f"level set below {threshold!r} is empty")
        order = np.argsort(seg_lo, kind="stable")
        seg_lo, seg_hi = seg_lo[order], seg_hi[order]
        # pieces tile the circle, so touching segments share an endpoint up
        # to the rounding of a root
        gap = np.flatnonzero(seg_lo[1:] - seg_hi[:-1] > _MERGE_GAP)
        run_lo = seg_lo[np.append(0, gap + 1)]
        run_hi = seg_hi[np.append(gap, seg_lo.size - 1)]
        if run_lo[0] - self.breaks[0] <= _MERGE_GAP and self._stops[-1] - run_hi[-1] <= _MERGE_GAP:
            if run_lo.size == 1:
                return whole_circle
            # the first and last runs meet across the sweep start
            run_lo = np.append(run_lo[1:-1], run_lo[-1])
            run_hi = np.append(run_hi[1:-1], run_hi[0] + _TWO_PI)
        return tuple(
            sorted((float(lo % _TWO_PI), float(hi % _TWO_PI)) for lo, hi in zip(run_lo, run_hi))
        )


def _sublevel_segments(M: np.ndarray, threshold: float, lo: float, hi: float):
    """Sub-intervals of [lo, hi] where u' M u <= threshold (M as (p, q, r))."""
    mean, amp, psi = (float(v[0]) for v in _circle_phase(M[None, :]))
    if amp == 0.0:
        return [(lo, hi)] if mean <= threshold else []
    ratio = (threshold - mean) / amp
    if ratio >= 1.0:
        return [(lo, hi)]
    if ratio <= -1.0:
        return []
    # cos(2 theta - psi) <= ratio on [first + k pi, first + k pi + width]
    alpha = math.acos(ratio)
    first = 0.5 * (psi + alpha)
    width = math.pi - alpha
    out = []
    k = math.floor((lo - first - width) / math.pi)
    while first + k * math.pi <= hi:
        a = max(lo, first + k * math.pi)
        b = min(hi, first + k * math.pi + width)
        if a <= b:
            out.append((a, b))
        k += 1
    return out


def criterion(beta, data, cycles: CycleSet) -> float:
    """Q(beta) = sum of squared positive residuals over the cycle set."""
    return CriterionEvaluator(data, cycles).value(beta)
