"""Cycle enumeration and the violation criterion in both forms.

The two hand oracles: markets with utility vectors u1=(1,0), u2=(0,1) (b=1,
covariates equal to the utilities, beta=1) and shares p1=(1,0), p2=(0,1) give
the 2-cycle residual (u2-u1).p1 + (u1-u2).p2 = -1 + -1 = -2; swapping the
shares flips it to +2. The Euclidean form doubles residuals, so -4 and +4,
and the summed criterion picks up a factor 4.
"""

import importlib
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpchoice import (
    CircleProfile,
    CriterionEvaluator,
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
from rpchoice.criterion import _cycle_rows
from rpchoice.estimate import interval_width


# the module, which `rpchoice.criterion` (the function) shadows as an attribute
criterion_module = importlib.import_module("rpchoice.criterion")


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


def difference_rows(C, idx):
    """Reference rows over an (m, L) index array, summed from a zero start:
    sum_l C[a_{l+1}, a_l] - C[a_l, a_l]."""
    m, L = idx.shape
    out = np.zeros((m, C.shape[2]))
    for l in range(L):
        cur = idx[:, l]
        nxt = idx[:, (l + 1) % L]
        out += C[nxt, cur] - C[cur, cur]
    return out


def reference_rows(C, n, lengths):
    """The rows the criterion builds, from literal index arrays per length."""
    return np.vstack([
        difference_rows(C, np.array(literal_cycles(n, (length,)), dtype=np.int64))
        for length in sorted(lengths)
    ])


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


LENGTH_SETS = [(2,), (3,), (2, 3)]


class TestLiteralCycleChecks:
    @pytest.mark.parametrize(
        "cycle, error, message",
        [
            ((3,), ValidationError, "a cycle needs at least 2 markets"),
            ((0, 1, 0), ValidationError, "cycle (0, 1, 0) repeats a market"),
            ((0, -1), ValidationError, "market indices must be nonnegative"),
            ((0, 5), DimensionError, "cycle index 5 out of range for n=2 markets"),
        ],
        ids=["length_one", "repeated_market", "negative_index", "out_of_range"],
    )
    def test_literal_cycle_rejects(self, cycle, error, message):
        """Both literal residual forms validate a cycle the same way."""
        data = _utility_markets()
        for residual in (cycle_residual_dot, cycle_residual_euclid):
            with pytest.raises(error) as info:
                residual(cycle, BETA1, data)
            assert str(info.value) == message


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
            for perm in itertools.permutations(range(n), length):
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
        pairs = literal_cycles(4, (2,))
        assert len(pairs) == len(enumerate_cycles(4, (2,))) == 6
        assert all(a < b for a, b in pairs)

    def test_length_three_both_orientations(self):
        assert literal_cycles(3, (3,)) == [(0, 1, 2), (0, 2, 1)]

    def test_smallest_index_anchored(self):
        for cycle in literal_cycles(5, (3,)):
            assert cycle[0] == min(cycle)

    def test_length_above_n_rejected(self):
        with pytest.raises(ParameterError):
            enumerate_cycles(3, (2, 4))

    def test_only_lengths_two_and_three(self):
        with pytest.raises(ParameterError, match="supported lengths are 2 and 3"):
            enumerate_cycles(5, (4,))

    def test_count_matches_listing(self):
        for n in range(2, 9):
            for lengths in LENGTH_SETS:
                if max(lengths) <= n:
                    assert len(enumerate_cycles(n, lengths)) == len(literal_cycles(n, lengths))

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_rows_match_literal_reference(self, b):
        """D is bit for bit the reference rows over literal index arrays."""
        beta = np.array([0.6, -0.48, 0.64][:b])
        for n in [*range(2, 12), 30]:
            data = logit_oracle_dataset(n, 12, b, beta / np.linalg.norm(beta), seed=n)
            compressed = apply(generate(ProjectionSpec(k=5, d=12, s=3.0, seed=n)), data)
            for d in (data, compressed):
                C = cross_moments(d)
                for lengths in LENGTH_SETS:
                    if max(lengths) <= n:
                        D = CriterionEvaluator(d, enumerate_cycles(n, lengths)).D
                        assert_same_bits(D, reference_rows(C, n, lengths))

    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_edge_sums_keep_signed_zeros(self, b):
        """An edge table with -0.0 and +0.0 entries sums as the reference does
        from its zero start: a row of -0.0 terms comes out +0.0."""
        rng = np.random.default_rng(b)
        for n in (2, 3, 4, 7):
            edge = rng.standard_normal((n, n, b))
            edge[rng.random((n, n, b)) < 0.3] = -0.0
            edge[rng.random((n, n, b)) < 0.1] = 0.0
            edge[0, 1] = edge[1, 0] = -0.0
            # C[j, i] - C[i, i] = edge[i, j] with a +0.0 diagonal
            C = edge.transpose(1, 0, 2).copy()
            C[np.arange(n), np.arange(n)] = 0.0
            for lengths in LENGTH_SETS:
                if max(lengths) <= n:
                    cycles = enumerate_cycles(n, lengths)
                    expected = reference_rows(C, n, lengths)
                    assert_same_bits(_cycle_rows(edge, cycles), expected)
                    assert_same_bits(_cycle_rows(edge[:, :, 0], cycles), expected[:, 0].copy())
            assert not np.signbit(_cycle_rows(edge, enumerate_cycles(n, (2,)))[0]).any()

    @pytest.mark.parametrize("budget", [1, 5, 40])
    def test_triangle_blocks_leave_the_bits(self, budget, monkeypatch):
        """Triangles built a few pairs at a time, down to one pair per block,
        still give the reference rows bit for bit."""
        monkeypatch.setattr(criterion_module, "_TRIPLE_BLOCK", budget)
        for n in (3, 4, 7, 12):
            data = logit_oracle_dataset(n, 12, 2, np.array([0.6, 0.8]), seed=n)
            C = cross_moments(data)
            for lengths in ((3,), (2, 3)):
                D = CriterionEvaluator(data, enumerate_cycles(n, lengths)).D
                assert_same_bits(D, reference_rows(C, n, lengths))

    def test_peak_memory_is_the_rows_plus_one_block(self):
        """At n = 100, b = 2, D holds 328,350 rows (5.3 MB). Building all
        161,700 triangles at once would hold 9.5 MB more; one block of at most
        _TRIPLE_BLOCK triangles holds its index arrays and gathers, 64 + 32 b
        bytes a triangle, beside O(n^2 b) for the edge table and pairs."""
        n, b = 100, 2
        data = logit_oracle_dataset(n, 60, b, np.array([0.6, 0.8]), seed=1)
        cycles = enumerate_cycles(n, (2, 3))
        CriterionEvaluator(data, enumerate_cycles(5, (2, 3)))  # warm caches outside the trace
        tracemalloc.start()
        try:
            D = CriterionEvaluator(data, cycles).D
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = (64 + 32 * b) * criterion_module._TRIPLE_BLOCK + 64 * n * n * b
        assert peak <= D.nbytes + budget

    def test_rows_follow_literal_listing(self):
        """Row c of D is the residual of the c-th cycle of the listing."""
        data = logit_oracle_dataset(5, 8, 2, np.array([0.6, 0.8]), seed=21)
        beta = np.array([math.cos(2.3), math.sin(2.3)])
        for lengths in LENGTH_SETS:
            residuals = CriterionEvaluator(data, enumerate_cycles(5, lengths)).residuals(beta)
            literal = [cycle_residual_dot(c, beta, data) for c in literal_cycles(5, lengths)]
            np.testing.assert_allclose(residuals, literal, rtol=1e-12, atol=1e-14)

    def test_fewer_cycle_markets_use_the_first(self):
        """A cycle set over n markets uses markets 0..n-1 of larger data."""
        data = logit_oracle_dataset(8, 12, 2, np.array([0.6, 0.8]), seed=22)
        D = CriterionEvaluator(data, enumerate_cycles(5, (2, 3))).D
        assert_same_bits(D, reference_rows(cross_moments(data), 5, (2, 3)))
        head = Dataset(data.markets[:5])
        np.testing.assert_allclose(
            D, CriterionEvaluator(head, enumerate_cycles(5, (2, 3))).D, rtol=1e-12, atol=1e-15
        )

    def test_more_cycle_markets_than_data_rejected(self):
        data = logit_oracle_dataset(4, 6, 2, np.array([0.6, 0.8]), seed=22)
        cycles = enumerate_cycles(5, (2, 3))
        for build in (
            lambda: CriterionEvaluator(data, cycles),
            lambda: criterion(np.array([0.6, 0.8]), data, cycles, form="euclid"),
        ):
            with pytest.raises(DimensionError, match=r"^cycle index 4 out of range for n=4 markets$"):
                build()


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
        for cycle in literal_cycles(3, (2, 3)):
            r_dot = cycle_residual_dot(cycle, beta, data)
            r_euc = cycle_residual_euclid(cycle, beta, data)
            assert r_euc == pytest.approx(2.0 * r_dot, rel=1e-12, abs=1e-12)

    def test_literal_residuals_on_compressed_data(self):
        data = logit_oracle_dataset(4, 30, 2, np.array([0.6, 0.8]), seed=14)
        proj = generate(ProjectionSpec(k=6, d=30, s=1.0, seed=2))
        compressed = apply(proj, data)
        R = proj.matrix.toarray()
        beta = np.array([-0.6, -0.8])
        cycles = enumerate_cycles(4, (2, 3))
        total = 0.0
        for idx in literal_cycles(4, (2, 3)):
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
        cs = enumerate_cycles(2, (2,))
        assert criterion(BETA1, data, cs) == 0.0

    def test_single_violation_squares(self):
        data = _utility_markets(swap=True)
        cs = enumerate_cycles(2, (2,))
        assert criterion(BETA1, data, cs) == pytest.approx(4.0)  # (+2)^2
        assert criterion(BETA1, data, cs, form="euclid") == pytest.approx(16.0)

    def test_empty_cycles_rejected(self):
        with pytest.raises(ParameterError, match="no cycle lengths requested"):
            enumerate_cycles(2, ())

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
        for cycle in literal_cycles(4, (2, 3)):
            assert cycle_residual_dot(cycle, beta, shifted) == pytest.approx(
                cycle_residual_dot(cycle, beta, data), rel=1e-9, abs=1e-12
            )

    def test_reversed_two_cycles_leave_q_unchanged(self):
        data = logit_oracle_dataset(5, 8, 2, np.array([0.6, 0.8]), seed=14)
        fwd = enumerate_cycles(5, (2,))
        for theta in np.linspace(0.0, 2 * math.pi, 17):
            beta = np.array([math.cos(theta), math.sin(theta)])
            rev = sum(
                max(cycle_residual_dot((j, i), beta, data), 0.0) ** 2
                for i, j in literal_cycles(5, (2,))
            )
            assert rev == pytest.approx(criterion(beta, data, fwd), rel=1e-12, abs=1e-15)

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
        cs = enumerate_cycles(2, (2,))
        value, grad = CriterionEvaluator(data, cs).value_and_subgradient(BETA1)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(1))

    def test_hand_violated_two_cycle(self):
        # with swapped shares r(beta) = 2*beta, so Q = 4 beta^2 and the
        # subgradient at beta=1 is 8
        data = _utility_markets(swap=True)
        cs = enumerate_cycles(2, (2,))
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
    """theta lies within `slack` radians of an arc, across angle 0 too."""
    for arc in arcs:
        offset = (theta - arc[0]) % (2.0 * math.pi)
        if offset <= interval_width(arc) + slack or offset >= 2.0 * math.pi - slack:
            return True
    return False


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
