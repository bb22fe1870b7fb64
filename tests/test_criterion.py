"""Cycle enumeration and the violation criterion in both forms.

The two hand oracles: markets with utility vectors u1=(1,0), u2=(0,1) (b=1,
covariates equal to the utilities, beta=1) and shares p1=(1,0), p2=(0,1) give
the 2-cycle residual (u2-u1).p1 + (u1-u2).p2 = -1 + -1 = -2; swapping the
shares flips it to +2. The Euclidean form doubles residuals, so -4 and +4,
and the summed criterion picks up a factor 4.
"""

import itertools
import math
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpchoice import (
    CircleProfile,
    CriterionEvaluator,
    CycleSet,
    Dataset,
    Market,
    DimensionError,
    ParameterError,
    ParamPoint,
    ValidationError,
    ProjectionSpec,
    apply,
    criterion,
    cross_moments,
    cycle_residual_dot,
    cycle_residual_euclid,
    enumerate_cycles,
    generate,
    logit_oracle_dataset,
)
from rpchoice.estimate import interval_contains_point


def _utility_markets(swap=False):
    """b=1 markets whose single covariate column is the utility vector."""
    u1 = np.array([[1.0], [0.0]])
    u2 = np.array([[0.0], [1.0]])
    p1 = np.array([1.0, 0.0])
    p2 = np.array([0.0, 1.0])
    if swap:
        p1, p2 = p2, p1
    return Dataset((Market(u1, p1), Market(u2, p2)))


BETA1 = np.array([1.0])
TWO_CYCLE = (0, 1)


class TestCycleSet:
    @pytest.mark.parametrize(
        "cycles, error, message",
        [
            ([(0, 1), (3,)], ValidationError, "a cycle needs at least 2 markets"),
            ([(0, 1, 0)], ValidationError, "cycle (0, 1, 0) repeats a market"),
            ([(0, -1)], ValidationError, "market indices must be nonnegative"),
            ([], ParameterError, "cycle set is empty"),
        ],
        ids=["length_one", "repeated_market", "negative_index", "empty_set"],
    )
    def test_from_cycles_rejects(self, cycles, error, message):
        """One validator: from_cycles and the grouped constructor it builds
        on reject the same cycles with the same message."""
        groups = {len(cycle): np.array([cycle]) for cycle in cycles}
        for build, arg in ((CycleSet.from_cycles, cycles), (CycleSet, groups)):
            with pytest.raises(error) as info:
                build(arg)
            assert str(info.value) == message

    @given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                    min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_repeat_check_matches_row_loop(self, rows):
        """Reference: the per-row set() test; the first repeating row is named."""
        bad = [row for row in rows if len(set(row)) != len(row)]
        if not bad:
            assert len(CycleSet({3: np.array(rows)})) == len(rows)
            return
        with pytest.raises(ValidationError, match="repeats a market") as info:
            CycleSet({3: np.array(rows)})
        assert str(info.value) == f"cycle {tuple(bad[0])} repeats a market"


class TestEnumerateCycles:
    def test_two_markets(self):
        assert len(enumerate_cycles(2, (2,))) == 1

    def test_three_markets(self):
        cs = enumerate_cycles(3, (2, 3))
        assert len(cs) == 5  # 3 pairs + both orientations of the one triangle

    def test_n30_count(self):
        # C(30,2) + 2*C(30,3) = 435 + 8120
        assert len(enumerate_cycles(30, (2, 3))) == 8555

    def test_exhaustive_oracle_n5(self):
        """Independent enumeration: all distinct-index tuples, deduplicated by
        rotation for every length and by reflection for length 2 only."""
        n = 5
        seen = set()
        for length in (2, 3):
            for perm in permutations(range(n), length):
                rotations = [
                    tuple(perm[i:] + perm[:i]) for i in range(length)
                ]
                canon = min(rotations)
                if length == 2:
                    canon = min(canon, tuple(reversed(canon)))
                seen.add(canon)
        ours = enumerate_cycles(n, (2, 3))
        assert len(ours) == len(seen) == 10 + 20

    def test_length_two_single_orientation(self):
        pairs = enumerate_cycles(4, (2,)).cycles()
        assert len(pairs) == 6
        assert all(a < b for a, b in pairs)

    def test_length_three_both_orientations(self):
        triples = set(enumerate_cycles(3, (3,)).cycles())
        assert triples == {(0, 1, 2), (0, 2, 1)}

    def test_smallest_index_anchored(self):
        for cycle in enumerate_cycles(5, (3,)).cycles():
            assert cycle[0] == min(cycle)

    def test_length_above_n_rejected(self):
        with pytest.raises(ParameterError):
            enumerate_cycles(3, (2, 4))

    def test_matches_itertools_loop_order(self):
        """Same rows in the same order as the nested combinations/permutations
        loop the vectorised enumeration replaced."""
        for n in range(2, 9):
            for length in range(2, min(n, 5) + 1):
                rows = []
                for combo in itertools.combinations(range(n), length):
                    anchor, rest = combo[0], combo[1:]
                    for perm in itertools.permutations(rest):
                        rows.append((anchor, *perm))
                expected = np.array(rows, dtype=np.int64)
                (got,) = enumerate_cycles(n, (length,)).index_arrays()
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)

    def test_from_cycles_round_trip(self):
        original = enumerate_cycles(4, (2, 3))
        rebuilt = CycleSet.from_cycles(original.cycles())
        assert set(rebuilt.cycles()) == set(original.cycles())


class TestResiduals:
    def test_hand_satisfied_cycle(self):
        data = _utility_markets()
        assert cycle_residual_dot(TWO_CYCLE, BETA1, data) == pytest.approx(-2.0)

    def test_hand_violated_cycle(self):
        data = _utility_markets(swap=True)
        assert cycle_residual_dot(TWO_CYCLE, BETA1, data) == pytest.approx(2.0)

    def test_hand_euclid_doubles(self):
        data = _utility_markets()
        assert cycle_residual_euclid(TWO_CYCLE, BETA1, data) == pytest.approx(-4.0)

    def test_duplicated_market_residual_zero(self):
        m = Market(np.array([[0.3, -1.0], [2.0, 0.5]]), np.array([0.4, 0.6]))
        data = Dataset((m, m))
        beta = np.array([0.6, 0.8])
        assert cycle_residual_dot(TWO_CYCLE, beta, data) == pytest.approx(0.0)
        assert cycle_residual_euclid(TWO_CYCLE, beta, data) == pytest.approx(0.0)

    def test_euclid_dot_ratio_random_instance(self, rng):
        data = logit_oracle_dataset(3, 4, 2, np.array([0.6, 0.8]), seed=3)
        beta = np.array([math.cos(1.1), math.sin(1.1)])
        for cycle in enumerate_cycles(3, (2, 3)).cycles():
            r_dot = cycle_residual_dot(cycle, beta, data)
            r_euc = cycle_residual_euclid(cycle, beta, data)
            assert r_euc == pytest.approx(2.0 * r_dot, rel=1e-12, abs=1e-12)

    def test_literal_residuals_on_compressed_data(self):
        data = logit_oracle_dataset(4, 30, 2, np.array([0.6, 0.8]), seed=14)
        proj = generate(ProjectionSpec(k=6, d=30, s=1.0, seed=2))
        compressed = apply(proj, data)
        R = proj.dense()
        beta = np.array([-0.6, -0.8])
        cycles = enumerate_cycles(4, (2, 3))
        total = 0.0
        for idx in cycles.cycles():
            u = [R @ data.markets[i].covariates @ beta for i in idx]
            p = [R @ data.markets[i].shares for i in idx]
            expected = sum((u[(l + 1) % len(idx)] - u[l]) @ p[l] for l in range(len(idx)))
            r_dot = cycle_residual_dot(idx, beta, compressed)
            assert r_dot == pytest.approx(expected, rel=1e-10, abs=1e-12)
            r_euc = cycle_residual_euclid(idx, beta, compressed)
            assert r_euc == pytest.approx(2.0 * r_dot, rel=1e-9, abs=1e-12)
            total += max(r_dot, 0.0) ** 2
        assert total > 0.0
        assert total == pytest.approx(criterion(beta, compressed, cycles), rel=1e-9)

    def test_two_cycle_orientation_symmetry(self):
        data = logit_oracle_dataset(3, 4, 2, np.array([0.6, 0.8]), seed=4)
        beta = np.array([0.0, 1.0])
        fwd = cycle_residual_dot((0, 2), beta, data)
        rev = cycle_residual_dot((2, 0), beta, data)
        assert fwd == pytest.approx(rev, rel=1e-12, abs=1e-15)


class TestCriterion:
    def test_all_satisfied_gives_zero(self):
        data = _utility_markets()
        cs = CycleSet.from_cycles([TWO_CYCLE])
        assert criterion(BETA1, data, cs) == 0.0

    def test_single_violation_squares(self):
        data = _utility_markets(swap=True)
        cs = CycleSet.from_cycles([TWO_CYCLE])
        assert criterion(BETA1, data, cs) == pytest.approx(4.0)  # (+2)^2
        assert criterion(BETA1, data, cs, form="euclid") == pytest.approx(16.0)

    def test_empty_cycles_rejected(self):
        data = _utility_markets()
        with pytest.raises(ParameterError):
            CycleSet.from_cycles([])

    def test_logit_oracle_zero_at_truth(self):
        beta = np.array([math.cos(0.75 * math.pi), math.sin(0.75 * math.pi)])
        data = logit_oracle_dataset(8, 20, 2, beta, seed=11)
        cycles = enumerate_cycles(8, (2, 3))
        assert criterion(beta, data, cycles) <= 1e-18

    def test_logit_oracle_positive_off_truth(self):
        beta = np.array([0.6, 0.8])
        data = logit_oracle_dataset(8, 20, 2, beta, seed=11)
        cycles = enumerate_cycles(8, (2, 3))
        assert criterion(-beta, data, cycles) > 0.0

    def test_form_equivalence_on_compressed_data(self):
        data = logit_oracle_dataset(5, 40, 2, np.array([0.6, 0.8]), seed=12)
        compressed = apply(generate(ProjectionSpec(k=8, d=40, s=1.0, seed=1)), data)
        cycles = enumerate_cycles(5, (2, 3))
        beta = np.array([math.cos(2.0), math.sin(2.0)])
        q_dot = criterion(beta, compressed, cycles)
        q_euc = criterion(beta, compressed, cycles, form="euclid")
        assert q_euc == pytest.approx(4.0 * q_dot, rel=1e-10)

    def test_translation_invariance(self):
        """A choice-specific constant added to one covariate column in every
        market differences out of every cycle residual."""
        data = logit_oracle_dataset(4, 6, 2, np.array([0.6, 0.8]), seed=13)
        rng = np.random.default_rng(0)
        shift = rng.standard_normal(6)
        shifted = Dataset(
            tuple(
                Market(
                    np.column_stack([m.covariates[:, 0] + shift, m.covariates[:, 1]]),
                    m.shares,
                )
                for m in data.markets
            )
        )
        cycles = enumerate_cycles(4, (2, 3))
        beta = np.array([math.cos(0.4), math.sin(0.4)])
        for cycle in cycles.cycles():
            assert cycle_residual_dot(cycle, beta, shifted) == pytest.approx(
                cycle_residual_dot(cycle, beta, data), rel=1e-9, abs=1e-12
            )

    def test_reversed_two_cycles_leave_q_unchanged(self):
        data = logit_oracle_dataset(5, 8, 2, np.array([0.6, 0.8]), seed=14)
        fwd = enumerate_cycles(5, (2,))
        rev = CycleSet.from_cycles([tuple(reversed(c)) for c in fwd.cycles()])
        for theta in np.linspace(0.0, 2 * math.pi, 17):
            beta = np.array([math.cos(theta), math.sin(theta)])
            assert criterion(beta, data, rev) == pytest.approx(
                criterion(beta, data, fwd), rel=1e-12, abs=1e-15
            )

    @given(
        beta=st.tuples(
            st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
        ),
        beta2=st.tuples(
            st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
        ),
        lam=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_convexity_property(self, beta, beta2, lam):
        data = logit_oracle_dataset(4, 6, 2, np.array([0.6, 0.8]), seed=15)
        cycles = enumerate_cycles(4, (2, 3))
        b1, b2 = np.array(beta), np.array(beta2)
        mix = lam * b1 + (1 - lam) * b2
        q_mix = criterion(mix, data, cycles)
        bound = lam * criterion(b1, data, cycles) + (1 - lam) * criterion(
            b2, data, cycles
        )
        assert q_mix <= bound + 1e-10

    def test_degree_two_homogeneity(self):
        data = logit_oracle_dataset(4, 6, 2, np.array([0.6, 0.8]), seed=16)
        cycles = enumerate_cycles(4, (2, 3))
        beta = np.array([0.3, -1.2])
        q1 = criterion(beta, data, cycles)
        q2 = criterion(2.5 * beta, data, cycles)
        assert q2 == pytest.approx(2.5**2 * q1, rel=1e-12)


class TestSubgradient:
    """CriterionEvaluator.value_and_subgradient: value and gradient of Q."""

    def test_zero_vector_where_q_zero(self):
        data = _utility_markets()
        cs = CycleSet.from_cycles([TWO_CYCLE])
        value, grad = CriterionEvaluator(data, cs).value_and_subgradient(BETA1)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(1))

    def test_hand_violated_two_cycle(self):
        # with swapped shares r(beta) = 2*beta, so Q = 4 beta^2 and the
        # subgradient at beta=1 is 8
        data = _utility_markets(swap=True)
        cs = CycleSet.from_cycles([TWO_CYCLE])
        value, grad = CriterionEvaluator(data, cs).value_and_subgradient(BETA1)
        assert value == pytest.approx(4.0)
        np.testing.assert_allclose(grad, [8.0])

    def test_finite_difference_match(self):
        data = logit_oracle_dataset(5, 8, 2, np.array([0.6, 0.8]), seed=17)
        cycles = enumerate_cycles(5, (2, 3))
        ev = CriterionEvaluator(data, cycles)
        rng = np.random.default_rng(1)
        h = 1e-6
        checked = 0
        while checked < 100:
            beta = rng.standard_normal(2) * 1.5
            residuals = ev.residuals(beta)
            # smooth point: no residual near the kink
            if np.abs(residuals).min() < 1e-4:
                continue
            value, grad = ev.value_and_subgradient(beta)
            assert value == pytest.approx(criterion(beta, data, cycles), rel=1e-12)
            for axis in range(2):
                e = np.zeros(2)
                e[axis] = h
                fd = (
                    criterion(beta + e, data, cycles)
                    - criterion(beta - e, data, cycles)
                ) / (2 * h)
                if abs(fd) > 1e-8:
                    assert grad[axis] == pytest.approx(fd, rel=1e-5)
                else:
                    assert abs(grad[axis] - fd) < 1e-6
            checked += 1


class TestParamPoint:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValidationError):
            ParamPoint(np.array([0.5, 0.5]))


class TestEvaluator:
    def test_value_matches_criterion(self):
        data = logit_oracle_dataset(4, 6, 2, np.array([0.6, 0.8]), seed=19)
        cycles = enumerate_cycles(4, (2, 3))
        ev = CriterionEvaluator(data, cycles)
        beta = np.array([0.8, -0.6])
        assert ev.value(beta) == pytest.approx(criterion(beta, data, cycles))

    def test_value_grid_matches_pointwise(self):
        data = logit_oracle_dataset(4, 6, 2, np.array([0.6, 0.8]), seed=19)
        cycles = enumerate_cycles(4, (2, 3))
        ev = CriterionEvaluator(data, cycles)
        thetas = np.linspace(0, 2 * math.pi, 37)
        values = ev.value_grid(thetas)
        for theta, val in zip(thetas, values):
            beta = np.array([math.cos(theta), math.sin(theta)])
            assert val == pytest.approx(ev.value(beta), rel=1e-12, abs=1e-15)


    @pytest.mark.parametrize("beta", [[0.6, 0.8], [0.6, -0.48, 0.64]])
    def test_cross_moments_match_einsum_reference(self, beta):
        """The batched product sums in another order than the einsum it
        replaced; it must agree within 1e-12 of the largest block entry, on
        raw shares and on compressed (partly negative) shares."""
        beta = np.array(beta)
        data = logit_oracle_dataset(12, 400, beta.size, beta, seed=23)
        compressed = apply(generate(ProjectionSpec(k=40, d=400, s=1.0, seed=24)), data)
        for d in (data, compressed):
            reference = np.einsum("irb,jr->ijb", d.covariate_stack(), d.share_stack())
            C = cross_moments(d)
            assert C.shape == (12, 12, beta.size)
            assert np.abs(C - reference).max() <= 1e-12 * np.abs(reference).max()

def literal_grid(D, thetas):
    """CriterionEvaluator.value_grid on bare residual rows."""
    return CriterionEvaluator.value_grid(SimpleNamespace(D=D, b=2), thetas)


def contained(arcs, theta, slack):
    return any(interval_contains_point(arc, theta, slack) for arc in arcs)


@st.composite
def residual_rows(draw):
    """Random D with some all-zero rows; row directions cluster around a
    center, and a center near pi puts the low arcs across angle 0."""
    m = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    center = draw(st.one_of(st.just(math.pi), st.floats(0.0, 2.0 * math.pi)))
    spread = draw(st.floats(0.05, math.pi))
    zero_frac = draw(st.sampled_from([0.0, 0.3]))
    rng = np.random.default_rng(seed)
    angles = center + rng.uniform(-spread, spread, m)
    radii = rng.uniform(0.1, 3.0, m) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    D = np.column_stack([np.cos(angles), np.sin(angles)]) * radii[:, None]
    D[rng.random(m) < zero_frac] = 0.0
    return D


class TestCircleProfile:
    GRID = np.arange(20_000) * (2.0 * math.pi / 20_000)

    @given(residual_rows())
    @settings(max_examples=60)
    def test_matches_literal_grid_and_level_set(self, D):
        literal = literal_grid(D, self.GRID)
        scale = max(float(literal.max()), 1e-300)
        profile = CircleProfile(D)
        values = profile.values(self.GRID)
        assert np.abs(values - literal).max() <= 1e-12 * scale
        np.testing.assert_array_equal(values[literal == 0.0] == 0.0, True)

        q_min, argmin = profile.minimum()
        assert 0.0 <= q_min <= literal.min() + 1e-12 * scale
        assert literal_grid(D, np.array([argmin]))[0] <= q_min + 1e-12 * scale

        threshold = q_min + max(1e-12, 1e-6 * profile.max_value)
        arcs = profile.level_set(threshold)
        if arcs == ((0.0, 2.0 * math.pi),):
            assert literal.max() <= threshold + 1e-12 * scale
            return
        assert arcs == tuple(sorted(arcs))
        assert all(type(x) is float for arc in arcs for x in arc)
        # disjoint and never touching, also across angle 0
        for (_, ub), (lb, _) in zip(arcs, arcs[1:] + arcs[:1]):
            assert len(arcs) == 1 or (lb - ub) % (2.0 * math.pi) > 1e-12
        inside = np.array([contained(arcs, t, 1e-12) for t in self.GRID])
        near = np.array([contained(arcs, t, 1e-9) for t in self.GRID])
        below = literal <= threshold
        assert inside[below].all()
        assert (literal[~near] > threshold).all()
        assert contained(arcs, argmin, 1e-12)

    def test_no_active_cycle_is_exactly_zero(self):
        # both rows are violated only on the left half-circle
        D = np.array([[-1.0, 0.2], [-2.0, -0.3]])
        profile = CircleProfile(D)
        assert profile.minimum()[0] == 0.0
        thetas = np.array([-0.5, 0.0, 0.5]) % (2.0 * math.pi)
        np.testing.assert_array_equal(profile.values(thetas), 0.0)

    def test_all_zero_rows_give_a_flat_circle(self):
        profile = CircleProfile(np.zeros((4, 2)))
        assert profile.pieces == 0
        assert profile.minimum() == (0.0, 0.0)
        assert profile.level_set(1e-12) == ((0.0, 2.0 * math.pi),)
        np.testing.assert_array_equal(profile.values(self.GRID[:10]), 0.0)

    def test_rejects_other_widths(self):
        with pytest.raises(DimensionError):
            CircleProfile(np.ones((3, 3)))
