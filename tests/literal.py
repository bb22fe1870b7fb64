"""Literal references for the criterion, one cycle at a time.

The package computes residuals in one way only, r = D beta with D built from
an edge table (`CriterionEvaluator`). These references recompute them from
the definitions, market by market around a cycle (a_1, ..., a_L, a_1), in
the dot form

    r = sum_l (u^(a_{l+1}) - u^(a_l)) . p^(a_l)

and in the squared-distance form

    r_e = sum_l (||u^(a_{l+1}) - p^(a_{l+1})||^2 - ||u^(a_{l+1}) - p^(a_l)||^2),

whose quadratic terms telescope around the cycle, so r_e = 2 r exactly and
the distance-form criterion is 4 Q.
"""

import itertools

import numpy as np

from rpchoice import DimensionError, ValidationError


def literal_cycles(n, lengths):
    """Every cycle as a tuple, from the nested combinations/permutations
    loop: per length, each combination anchored at its smallest market,
    then each order of the rest. The criterion's rows follow this listing."""
    return [
        (combo[0], *perm)
        for length in sorted(lengths)
        for combo in itertools.combinations(range(n), length)
        for perm in itertools.permutations(combo[1:])
    ]


def _literal_cycle(cycle, beta, data):
    """One cycle's validated indices, with each member's utilities and shares."""
    idx = tuple(int(i) for i in cycle)
    if len(idx) < 2:
        raise ValidationError("a cycle needs at least 2 markets")
    if min(idx) < 0:
        raise ValidationError("market indices must be nonnegative")
    if len(set(idx)) < len(idx):
        raise ValidationError(f"cycle {idx} repeats a market")
    if max(idx) >= data.n:
        raise DimensionError(f"cycle index {max(idx)} out of range for n={data.n} markets")
    vec = np.asarray(beta, dtype=np.float64)
    X, P = data.covariate_stack(), data.share_stack()
    return idx, {i: X[i] @ vec for i in idx}, {i: P[i] for i in idx}


def cycle_residual_dot(cycle, beta, data) -> float:
    """Literal evaluation of sum_l (u^(next) - u^(cur)) . p^(cur)."""
    idx, u, p = _literal_cycle(cycle, beta, data)
    total = 0.0
    L = len(idx)
    for l in range(L):
        cur, nxt = idx[l], idx[(l + 1) % L]
        total += float((u[nxt] - u[cur]) @ p[cur])
    return total


def cycle_residual_euclid(cycle, beta, data) -> float:
    """Literal squared-distance form; equals 2x the dot form by telescoping."""
    idx, u, p = _literal_cycle(cycle, beta, data)
    total = 0.0
    L = len(idx)
    for l in range(L):
        cur, nxt = idx[l], idx[(l + 1) % L]
        total += float(np.sum((u[nxt] - p[nxt]) ** 2)) - float(
            np.sum((u[nxt] - p[cur]) ** 2)
        )
    return total


def criterion_euclid(beta, data, cycles) -> float:
    """The squared-distance criterion, 4 Q(beta): squared positive euclid
    residuals summed over the literal listing of the cycle set."""
    return sum(
        max(cycle_residual_euclid(c, beta, data), 0.0) ** 2
        for c in literal_cycles(cycles.n, cycles.lengths)
    )
