"""Dataset construction, CSV round-trips and outside options."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpchoice
from rpchoice import (
    CsvSchema,
    Dataset,
    DimensionError,
    InfeasibleError,
    Market,
    ParseError,
    ValidationError,
    build_outside_option,
    enumerate_cycles,
    estimate_polar_grid,
    exact_unit_sum,
    load_csv,
    logit_oracle_dataset,
    save_metadata,
    write_csv,
)
from rpchoice.data import _sort_ids


def _write(path, text):
    path.write_text(text)
    return str(path)


BASIC_CSV = """market,choice,x1,x2,share
1,a,0.5,1.0,0.2
1,b,-0.25,2.0,0.3
1,c,1.5,-1.0,0.5
2,a,0.0,0.5,0.6
2,b,1.0,1.0,0.1
2,c,-0.5,0.25,0.3
"""


class TestMarket:
    def test_rejects_negative_share(self):
        with pytest.raises(ValidationError):
            Market(np.zeros((2, 1)), np.array([1.1, -0.1]))

    def test_rejects_share_sum_above_one(self):
        with pytest.raises(ValidationError):
            Market(np.zeros((2, 1)), np.array([0.7, 0.5]))

    def test_allows_zero_shares(self):
        m = Market(np.zeros((3, 1)), np.array([1.0, 0.0, 0.0]))
        assert m.shares[1] == 0.0

    def test_allows_sum_below_one(self):
        # outside option not represented as a row
        m = Market(np.zeros((2, 1)), np.array([0.2, 0.3]))
        assert math.fsum(m.shares.tolist()) == pytest.approx(0.5)

    def test_rejects_nonfinite_covariates(self):
        with pytest.raises(ValidationError):
            Market(np.array([[np.inf], [0.0]]), np.array([0.5, 0.5]))

    def test_arrays_frozen(self):
        m = Market(np.zeros((2, 1)), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            m.shares[0] = 0.9


class TestDataset:
    def test_requires_two_markets(self):
        m = Market(np.zeros((2, 1)), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            Dataset((m,))

    def test_rejects_mixed_dimensions(self):
        m1 = Market(np.zeros((2, 1)), np.array([0.5, 0.5]))
        m2 = Market(np.zeros((3, 1)), np.array([0.5, 0.25, 0.25]))
        with pytest.raises(DimensionError):
            Dataset((m1, m2))

    @pytest.mark.parametrize("field, values", [
        ("market_ids", ("a", "a")),
        ("choice_ids", ("x", "x")),
        ("covariate_names", ("z", "z")),
    ])
    def test_rejects_repeated_ids_and_names(self, field, values):
        with pytest.raises(ValidationError, match="repeated .*" + repr(values[0])):
            Dataset(_two_markets(b=2), **{field: values})

    @pytest.mark.parametrize("shape", [(0, 1), (2, 0)])
    def test_rejects_empty_choice_set_or_covariates(self, shape):
        m = Market(np.zeros(shape), np.zeros(shape[0]))
        with pytest.raises(DimensionError, match="need a choice and a covariate"):
            Dataset((m, m))

    def test_shape_properties(self):
        data = logit_oracle_dataset(4, 7, 3, np.array([1.0, 0.0, 0.0]), seed=0)
        assert (data.n, data.d, data.b) == (4, 7, 3)
        assert data.covariate_stack().shape == (4, 7, 3)
        assert data.share_stack().shape == (4, 7)


class TestLoadCsv:
    def test_basic_shapes(self, tmp_path):
        data = load_csv(_write(tmp_path / "d.csv", BASIC_CSV))
        assert (data.n, data.d, data.b) == (2, 3, 2)
        assert data.covariate_names == ("x1", "x2")
        assert data.market_ids == ("1", "2")
        np.testing.assert_allclose(data.markets[0].shares, [0.2, 0.3, 0.5])

    def test_bad_share_sum_names_market(self, tmp_path):
        text = BASIC_CSV.replace("2,c,-0.5,0.25,0.3", "2,c,-0.5,0.25,0.9")
        with pytest.raises(ValidationError, match="'2'"):
            load_csv(_write(tmp_path / "d.csv", text))

    def test_malformed_cell_reports_row(self, tmp_path):
        text = BASIC_CSV.replace("1,b,-0.25,2.0,0.3", "1,b,oops,2.0,0.3")
        with pytest.raises(Exception, match="row 3"):
            load_csv(_write(tmp_path / "d.csv", text))

    def test_repeated_header_column_rejected(self, tmp_path):
        text = BASIC_CSV.replace("market,choice,x1,x2,share", "market,choice,x1,x1,share")
        with pytest.raises(ParseError, match="repeats column.*'x1'"):
            load_csv(_write(tmp_path / "d.csv", text))

    def test_row_longer_than_header_rejected(self, tmp_path):
        text = BASIC_CSV.replace("1,b,-0.25,2.0,0.3", "1,b,-0.25,2.0,0.3,7.0")
        with pytest.raises(ParseError, match="row 3: 6 cells, header has 5"):
            load_csv(_write(tmp_path / "d.csv", text))

    def test_duplicate_pair_rejected(self, tmp_path):
        text = BASIC_CSV + "2,c,0.0,0.0,0.0\n"
        with pytest.raises(ValidationError, match="duplicate"):
            load_csv(_write(tmp_path / "d.csv", text))

    def test_missing_rows_require_flag(self, tmp_path):
        text = BASIC_CSV.replace("2,c,-0.5,0.25,0.3\n", "")
        path = _write(tmp_path / "d.csv", text)
        with pytest.raises(DimensionError, match="missing choices"):
            load_csv(path)
        data = load_csv(path, CsvSchema(fill_missing=True, has_outside=True))
        assert data.d == 3
        assert data.markets[1].shares[2] == 0.0
        assert np.all(data.markets[1].covariates[2] == 0.0)

    def test_numeric_id_ordering(self, tmp_path):
        # market "10" must come after "2", not between "1" and "2"
        text = BASIC_CSV + "10,a,0,0,1\n10,b,0,0,0\n10,c,0,0,0\n"
        data = load_csv(_write(tmp_path / "d.csv", text))
        assert data.market_ids == ("1", "2", "10")

    @pytest.mark.parametrize("ids, expected", [
        (["1.0", "2", "1"], ["1", "1.0", "2"]),  # "1" and "1.0" tie as numbers
        (["nan", "2", "10"], ["10", "2", "nan"]),  # NaN has no numeric place
    ], ids=["numeric_tie", "nan"])
    def test_sort_ids_ignores_input_order(self, ids, expected):
        for order in (ids, ids[::-1], ids[1:] + ids[:1]):
            assert _sort_ids(order) == expected

    def test_choice_order_independent_of_hash_seed(self, tmp_path):
        """load_csv gathers choice ids in a set, whose iteration order follows
        the string hash seed; the loaded layout must not."""
        path = _write(tmp_path / "d.csv", "market,choice,x1,share\n"
                      "1,1,0.5,0.25\n1,1.0,1.5,0.75\n2,1,0.0,0.5\n2,1.0,1.0,0.5\n")
        script = ("import sys; from rpchoice import load_csv; d = load_csv(sys.argv[1]); "
                  "print(d.choice_ids, d.covariate_stack().tolist())")
        src = str(Path(rpchoice.__file__).resolve().parents[1])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script, path],
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2", "3", "4")
        }
        assert outputs == {"('1', '1.0') [[[0.5], [1.5]], [[0.0], [1.0]]]\n"}

    def test_quantity_mode(self, tmp_path):
        side = _write(tmp_path / "cust.csv", "market,custcount\nm1,100\nm2,100\n")
        text = (
            "market,choice,x1,quantity\n"
            "m1,a,0.5,30\nm1,b,1.0,10\n"
            "m2,a,0.25,50\nm2,b,0.5,25\n"
        )
        data = load_csv(
            _write(tmp_path / "q.csv", text),
            CsvSchema(quantity="quantity", custcount_path=side),
        )
        assert data.d == 3  # outside row appended
        assert data.choice_ids[-1] == "outside"
        np.testing.assert_allclose(data.markets[0].shares, [0.30, 0.10, 0.60])
        np.testing.assert_allclose(data.markets[1].shares, [0.50, 0.25, 0.25])
        assert np.all(data.markets[0].covariates[-1] == 0.0)

    @pytest.mark.parametrize("sidecar, error, match", [
        ("market,custcount\nm1,100\nm2,100\nm1,40\n", ValidationError,
         "row 4: repeated custcount entry for market 'm1'"),
        ("market,custcount\nm1,100,7\nm2,100\n", ParseError, "row 2: 3 cells, header has 2"),
        ("market,custcount,custcount\nm1,100,40\nm2,100,40\n", ParseError,
         "repeats column.*'custcount'"),
    ], ids=["repeated_market", "long_row", "repeated_column"])
    def test_custcount_sidecar_checked_like_main_file(self, tmp_path, sidecar, error, match):
        text = "market,choice,x1,quantity\nm1,a,0.5,10\nm1,b,1.0,20\nm2,a,0.25,5\nm2,b,0.5,5\n"
        schema = CsvSchema(quantity="quantity", custcount_path=_write(tmp_path / "c.csv", sidecar))
        with pytest.raises(error, match=match):
            load_csv(_write(tmp_path / "q.csv", text), schema)


def _two_markets(b=1):
    m = Market(np.zeros((2, b)), np.array([0.5, 0.5]))
    return (m, m)


class TestRoundTrip:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        markets = []
        for _ in range(3):
            raw = np.abs(rng.standard_normal(4)) + 0.01
            shares = exact_unit_sum(raw / raw.sum())
            markets.append(Market(rng.standard_normal((4, 2)), shares))
        data = Dataset(tuple(markets))
        path = str(tmp_path / "rt.csv")
        write_csv(data, path)
        back = load_csv(path)
        for a, b in zip(data.markets, back.markets):
            assert np.array_equal(a.covariates, b.covariates)
            assert np.array_equal(a.shares, b.shares)

    @pytest.mark.parametrize("name", ["market", "choice", "share"])
    def test_write_refuses_covariate_named_like_a_column(self, tmp_path, name):
        path = tmp_path / "d.csv"
        with pytest.raises(ValidationError, match=repr(name)):
            write_csv(Dataset(_two_markets(), covariate_names=(name,)), str(path))
        assert not path.exists()

    def test_write_refuses_nul_in_an_id(self, tmp_path):
        path = tmp_path / "d.csv"
        with pytest.raises(ValidationError, match="NUL"):
            write_csv(Dataset(_two_markets(), market_ids=("a\x00", "b")), str(path))
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 3),
        d=st.integers(0, 3),
        b=st.integers(0, 2),
        labels=st.lists(
            st.text(max_size=2) | st.sampled_from(["market", "choice", "share", "1", "1.0"]),
            min_size=8, max_size=8,
        ),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=18, max_size=18),
        shares=st.lists(st.floats(0.0, 1.0 / 3.0), min_size=9, max_size=9),
    )
    def test_every_written_dataset_loads_back_bit_exact(self, tmp_path_factory, n, d, b, labels,
                                                        values, shares):
        """Whatever Dataset and write_csv accept, load_csv reads back: the same
        ids and names, and bit-identical values for every (market, choice)."""
        cov = np.array(values[: n * d * b]).reshape(n, d, b)
        sh = np.array(shares[: n * d]).reshape(n, d)
        try:
            data = Dataset(tuple(Market(cov[i], sh[i]) for i in range(n)),
                           covariate_names=labels[:b], market_ids=labels[2:2 + n],
                           choice_ids=labels[5:5 + d])
        except (ValidationError, DimensionError):
            return
        path = str(tmp_path_factory.mktemp("rt") / "d.csv")
        try:
            write_csv(data, path)
        except ValidationError:
            return
        back = load_csv(path, CsvSchema(has_outside=True))
        assert back.covariate_names == data.covariate_names
        assert sorted(back.market_ids) == sorted(data.market_ids)
        assert sorted(back.choice_ids) == sorted(data.choice_ids)
        rows = [back.market_ids.index(m) for m in data.market_ids]
        cols = [back.choice_ids.index(c) for c in data.choice_ids]
        got_cov = back.covariate_stack()[np.ix_(rows, cols)]
        got_sh = back.share_stack()[np.ix_(rows, cols)]
        assert got_cov.tobytes() == data.covariate_stack().tobytes()
        assert got_sh.tobytes() == data.share_stack().tobytes()

    def test_metadata_export(self, tmp_path):
        data = logit_oracle_dataset(3, 4, 2, np.array([0.6, 0.8]), seed=1)
        path = tmp_path / "meta.json"
        save_metadata(data, str(path))
        meta = json.loads(path.read_text())
        assert meta == {"schema_version": 1, "n": 3, "d": 4, "b": 2,
                        "covariate_names": ["x1", "x2"]}


class TestOutsideOption:
    def test_all_zero_quantities(self):
        shares = build_outside_option(np.zeros(3), 100.0)
        assert shares[-1] == 1.0
        assert shares.sum() == 1.0

    def test_exhausted_market(self):
        shares = build_outside_option(np.array([60.0, 40.0]), 100.0)
        assert shares[-1] == 0.0
        assert math.fsum(shares.tolist()) == 1.0

    def test_arithmetic(self):
        np.testing.assert_allclose(
            build_outside_option(np.array([50.0, 25.0]), 100.0), [0.5, 0.25, 0.25]
        )

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            build_outside_option(np.array([80.0, 40.0]), 100.0)

    @given(
        st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
        st.floats(1.0, 1e7),
    )
    @settings(max_examples=200)
    def test_exact_sum_property(self, quantities, custcount):
        q = np.array(quantities)
        if math.fsum(quantities) > custcount:
            return
        shares = build_outside_option(q, custcount)
        assert math.fsum(shares.tolist()) == 1.0
        assert (shares >= 0.0).all()


class TestRescaling:
    """The circle estimate follows a hand rescaling of the covariate columns."""

    def test_argmin_set_invariant_up_to_reparametrization(self):
        """Rescaling columns maps the minimizing angles through the factors."""
        data = logit_oracle_dataset(6, 12, 2, np.array([0.6, 0.8]), seed=7)
        cycles = enumerate_cycles(6, (2, 3))
        grid_size = 720
        _, base_set = estimate_polar_grid(data, cycles, grid_size=grid_size)
        factors = np.array([2.0, 0.5])
        rescaled = Dataset(tuple(Market(m.covariates * factors, m.shares) for m in data.markets))
        _, new_set = estimate_polar_grid(rescaled, cycles, grid_size=grid_size)
        step = 2 * math.pi / grid_size
        # map each endpoint of the rescaled set back: beta_orig = beta_new * f
        for (lb, ub), (nlb, nub) in zip(base_set.intervals, new_set.intervals):
            for orig, new in ((lb, nlb), (ub, nub)):
                mapped = math.atan2(
                    math.sin(new) * factors[1], math.cos(new) * factors[0]
                ) % (2 * math.pi)
                diff = abs(mapped - orig)
                diff = min(diff, 2 * math.pi - diff)
                assert diff <= 3 * step
