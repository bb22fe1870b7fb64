"""Dataset construction, CSV loading and round-trips."""

import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpchoice
from rpchoice import (
    Dataset,
    DimensionError,
    Market,
    ParseError,
    SimConfig,
    ValidationError,
    enumerate_cycles,
    estimate_polar_grid,
    exact_unit_sum,
    load_csv,
    logit_oracle_dataset,
    save_metadata,
    simulate_dataset,
    write_csv,
)
from rpchoice import data as data_module
from rpchoice.data import (
    SHARE_SUM_TOL,
    _sort_ids,
    _table_by_rows,
    _table_in_bulk,
    load_csv_with_digest,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


# numeric cells for the float() differential test: every float64 repr, digit
# runs with underscores, exponents, nan/inf spellings, hex, near misses and
# empty strings, with signs and surrounding whitespace
_SPACES = st.sampled_from(["", " ", "\t", "\n", " \t\n "])
_CELL_BODIES = st.one_of(
    st.floats().map(repr),
    st.from_regex(
        r"[0-9](_?[0-9]){0,6}(\.([0-9](_?[0-9]){0,3})?)?([eE][+-]?[0-9](_?[0-9]){0,3})?",
        fullmatch=True,
    ),
    st.sampled_from([
        "nan", "NaN", "nAn", "inf", "Inf", "INF", "infinity", "Infinity", "iNfInItY",
        "infinit", "0x10", "0x1p3", "0X1.8P1", "1e", "e5", ".", ".5", "5.", "1__0", "_1",
        "1_", "1_.5", "1._5", "1e_5", "", "1e400", "1e-400", "0e0", "-0", "-0.0",
    ]),
    st.text(alphabet="0123456789_+-.eExXpPnaifNAIFty ", max_size=8),
)
NUMERIC_CELLS = st.builds(
    lambda pre, sign, body, post: pre + sign + body + post,
    _SPACES, st.sampled_from(["", "+", "-"]), _CELL_BODIES, _SPACES,
)

# Generated CSV files for the differential test of load_csv's bulk route
# against its row loop: ids that may hold spaces; numbers in repr, exponent
# and integer spellings, one in twenty padded with whitespace or the ASCII
# separators \x1c-\x1f; \n, \r\n, \r or mixed line ends. Then up to three
# edits: blank and whitespace-only lines, long and short rows, repeated
# rows, odd cells (padded, inf/nan, quoted, multi-line, 1_000, non-ASCII
# digits), odd ids (commas, quotes, line breaks, NUL), quoting, and, in one
# file of ten, a repeated header column.
_IDS = st.sampled_from(["1", "2", "10", "1.0", "01", "a", "b", " a", "b ", "x y", "é", ""])
_ODD_IDS = st.sampled_from(["a,b", 'q"', "a\nb", "a\rb", "a\x00", "\x1cz"])
_PLAIN_NUMBERS = st.one_of(
    st.floats(0.0, 0.3).map(repr),
    st.floats(0.0, 0.3).map("{:e}".format),
    st.floats(0.0, 0.3).map("{:E}".format),
    st.sampled_from(["0", "-0.0", "1e-3", ".25"]),
)
_PADS = st.sampled_from(["", " ", "\t", "\x0b\x0c", "\xa0", "\u2003",
                         "\x1c", "\x1d", "\x1e", "\x1f"])
_PADDED = st.builds(lambda pre, number, post: pre + number + post, _PADS, _PLAIN_NUMBERS, _PADS)
_ROW_NUMBERS = st.integers(0, 19).flatmap(lambda i: _PADDED if i == 0 else _PLAIN_NUMBERS)
_ODD_NUMBERS = st.one_of(
    _PADDED,
    _PADDED,
    st.sampled_from(["inf", "-Infinity", "nan", "1_000", "0_0.1", "١", "٠.٥", "0x1p-2", "",
                     "oops", "0.\n5", "0.1\r"]),
    NUMERIC_CELLS,
)


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def _csv_files(draw):
    columns = draw(st.permutations(["market", "choice", "x1", "share"]))
    if draw(st.integers(0, 9)) == 0:
        columns.append(draw(st.sampled_from(columns)))
    markets = draw(st.lists(_IDS, min_size=1, max_size=4, unique=True))
    choices = draw(st.lists(_IDS, min_size=1, max_size=3, unique=True))
    lines = []
    for market in markets:
        for choice in choices:
            ids = {"market": market, "choice": choice}
            lines.append([ids[c] if c in ids else draw(_ROW_NUMBERS) for c in columns])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        edit = draw(st.sampled_from(["blank", "space", "long", "short", "repeat", "cell",
                                     "cell", "quote", "id"]))
        row = draw(st.sampled_from(lines))
        at = draw(st.integers(0, len(lines)))
        if edit == "blank":
            lines.insert(at, [])
        elif edit == "space":
            lines.insert(at, [draw(st.sampled_from([" ", "\t", " \t "]))])
        elif edit == "long":
            row.append("0.5")
        elif edit == "short" and row:
            row.pop()
        elif edit == "repeat":
            lines.insert(at, list(row))
        else:
            kind = {"cell": ["x1", "share"], "id": ["market", "choice"]}.get(edit, columns)
            j = columns.index(draw(st.sampled_from(kind)))
            if j < len(row):
                odd = draw({"cell": _ODD_NUMBERS, "id": _ODD_IDS}.get(edit, st.just(row[j])))
                row[j] = _quoted(odd) if edit == "quote" or draw(st.booleans()) else odd
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = ",".join(columns)
    for cells in lines:
        end = draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends
        text += end + ",".join(cells)
    return text + (ends if ends != "mixed" and draw(st.booleans()) else "")


def _outcome(load):
    """What a load returns, as comparable values, or its error's type and message."""
    try:
        data = load()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return (data.market_ids, data.choice_ids, data.covariate_names,
            data.covariate_stack().tobytes(), data.share_stack().tobytes())


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
        # only the CSV layout requires a sum of exactly 1
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

    def test_opposite_infinite_shares_name_the_market(self, tmp_path):
        # math.fsum raises its own ValueError on inf and -inf together
        text = BASIC_CSV.replace("1,a,0.5,1.0,0.2", "1,a,0.5,1.0,inf").replace(
            "1,b,-0.25,2.0,0.3", "1,b,-0.25,2.0,-inf")
        with pytest.raises(ValidationError,
                           match="^market '1': shares contain non-finite values$"):
            load_csv(_write(tmp_path / "d.csv", text))

    def test_malformed_cell_reports_row(self, tmp_path):
        text = BASIC_CSV.replace("1,b,-0.25,2.0,0.3", "1,b,oops,2.0,0.3")
        with pytest.raises(Exception, match="row 3"):
            load_csv(_write(tmp_path / "d.csv", text))

    def test_repeated_header_column_rejected(self, tmp_path):
        text = BASIC_CSV.replace("market,choice,x1,x2,share", "market,choice,x1,x1,share")
        with pytest.raises(ParseError, match="repeats column.*'x1'"):
            load_csv(_write(tmp_path / "d.csv", text))

    @pytest.mark.parametrize("text, match", [
        (BASIC_CSV.replace("1,b,-0.25,2.0,0.3", "1,b,-0.25,2.0,0.3,7.0"),
         "row 3: 6 cells, header has 5"),
        ("x1,x2,share,market,choice\n1,2,0.5,a,1\n1,2,0.5,a,2\n1,2,0.5,b,1\n1,2,0.5,b\n",
         "row 5: 4 cells, header has 5"),
        (BASIC_CSV.replace("1,b,-0.25,2.0,0.3", "1,b,-0.25,0.3"),
         "row 3: 4 cells, header has 5"),
    ], ids=["long_row", "short_row_missing_id", "short_row_missing_number"])
    def test_row_cell_count_must_match_header(self, tmp_path, text, match):
        with pytest.raises(ParseError, match=match):
            load_csv(_write(tmp_path / "d.csv", text))

    @settings(max_examples=300, deadline=None)
    @given(cell=NUMERIC_CELLS, column=st.sampled_from(["x1", "share"]))
    def test_numeric_cells_parse_exactly_as_float(self, tmp_path_factory, cell, column):
        """A covariate or share cell loads exactly when float() accepts it, as
        float()'s value bit for bit (-0.0 included). A cell float() rejects is
        a ParseError naming the row and column; a non-finite value, or a share
        outside [0, 1], is a ValidationError. The share cell's market holds
        its complement, clipped to [0, 1], in the other row, so the market of
        an in-range share sums to 1 within SHARE_SUM_TOL."""
        rows = [["a", "1", "0.5", "1.0"], ["a", "2", "0.5", "0.0"],
                ["b", "1", "0.5", "0.5"], ["b", "2", "0.5", "0.5"]]
        if column == "x1":
            rows[0][2] = cell
        else:
            rows[0][3] = cell
            try:
                rows[1][3] = repr(min(max(1.0 - float(cell), 0.0), 1.0))
            except ValueError:
                pass
        path = str(tmp_path_factory.mktemp("cell") / "d.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["market", "choice", "x1", "share"])
            writer.writerows(rows)
        try:
            expected = float(cell)
        except ValueError:
            line = 2 + cell.count("\n")  # the header, then the cell's own line breaks
            with pytest.raises(ParseError, match=f"row {line}: .* in column '{column}'"):
                load_csv(path)
            return
        in_range = column == "x1" or 0.0 <= expected and expected - 1.0 <= SHARE_SUM_TOL
        if not (math.isfinite(expected) and in_range):
            with pytest.raises(ValidationError):
                load_csv(path)
            return
        market = load_csv(path).markets[0]
        got = market.covariates[0, 0] if column == "x1" else market.shares[0]
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_duplicate_pair_rejected(self, tmp_path):
        text = BASIC_CSV + "2,c,0.0,0.0,0.0\n"
        with pytest.raises(ValidationError, match="duplicate"):
            load_csv(_write(tmp_path / "d.csv", text))

    @pytest.mark.parametrize("extra, error, message", [
        ("1,a,0.0,0.0,0.2\n3,a,oops,0.0,0.2\n", ValidationError,
         "row 8: duplicate entry for market '1', choice 'a'"),
        ("3,a,oops,0.0,0.2\n1,a,0.0,0.0,0.2\n", ParseError,
         "row 8: cannot parse 'oops' in column 'x1' as a number"),
        ("3,a,0.0,0.2\n1,a,0.0,0.0,0.2\n", ParseError, "row 8: 4 cells, header has 5"),
    ], ids=["duplicate_then_unparsable", "unparsable_then_duplicate", "short_row_then_duplicate"])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, extra, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_csv(_write(tmp_path / "d.csv", BASIC_CSV + extra))

    @settings(max_examples=50, deadline=None)
    @given(order=st.permutations(range(12)), blanks=st.lists(st.integers(0, 12), max_size=4))
    def test_row_order_and_blank_lines_leave_the_result_unchanged(self, tmp_path_factory,
                                                                  order, blanks):
        data = logit_oracle_dataset(3, 4, 2, np.array([0.6, 0.8]), seed=2)
        data = Dataset(data.markets, market_ids=("10", "2", "1.0"), choice_ids=("b", "a", "1", "c"))
        folder = tmp_path_factory.mktemp("order")
        written = str(folder / "written.csv")
        write_csv(data, written)
        header, *rows = Path(written).read_text().splitlines()
        lines = [rows[i] for i in order]
        for at in sorted(blanks, reverse=True):
            lines.insert(at, "")
        expected = load_csv(written)
        got = load_csv(_write(folder / "shuffled.csv", "\n".join([header, *lines]) + "\n"))
        assert (got.market_ids, got.choice_ids) == (expected.market_ids, expected.choice_ids)
        assert got.covariate_names == expected.covariate_names
        assert got.covariate_stack().tobytes() == expected.covariate_stack().tobytes()
        assert got.share_stack().tobytes() == expected.share_stack().tobytes()

    def test_missing_choice_names_the_market(self, tmp_path):
        text = BASIC_CSV.replace("2,c,-0.5,0.25,0.3\n", "")
        with pytest.raises(DimensionError, match=r"^market '2' is missing choices \['c'\]$"):
            load_csv(_write(tmp_path / "d.csv", text))

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


class TestBulkRoute:
    """load_csv reads a file in one np.loadtxt pass and leaves every file it
    cannot vouch for to the row loop, the reference."""

    @settings(max_examples=500, deadline=None)
    @given(text=_csv_files())
    def test_bulk_route_matches_the_row_loop(self, tmp_path_factory, text):
        """The row loop, the bulk route and then the remembered load give one
        outcome bit for bit. The third load returns the second's Dataset
        unless the load failed."""
        path = str(tmp_path_factory.mktemp("bulk") / "d.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with mock.patch.object(data_module, "_table_in_bulk", return_value=None):
            expected = _outcome(lambda: _parse(path))
        assert _outcome(lambda: _parse(path)) == expected
        served = []
        assert _outcome(lambda: _load_noting_hit(path, served)) == expected
        assert served == ([True] if len(expected) == 5 else [])

        bulk = _table_in_bulk(path)
        if bulk is not None:
            names, market_ids, choice_ids, table, present = _table_by_rows(path)
            assert (bulk[0], bulk[1], bulk[2]) == (names, market_ids, choice_ids)
            assert bulk[3].tobytes() == table.tobytes()
            assert np.array_equal(bulk[4], present)

    @pytest.mark.parametrize("text", [
        BASIC_CSV,
        BASIC_CSV.replace("\n", "\r\n"),
        BASIC_CSV.replace("\n", "\r"),
        BASIC_CSV.replace("\n2,a", "\n\n\r\n2,a").rstrip("\n"),
        BASIC_CSV.replace("\n1,", "\n m 1,").replace("\n2,", "\n2 ,"),
        BASIC_CSV.replace("0.5,1.0", "5e-1,1E0").replace("2.0", " 2.0\t"),
    ], ids=["lf", "crlf", "cr", "blank_lines_no_final_end", "ids_with_spaces", "exponents"])
    def test_clean_files_take_the_bulk_route(self, tmp_path, monkeypatch, text):
        path = _write(tmp_path / "d.csv", text)
        expected = _outcome(lambda: _parse(path))
        monkeypatch.setattr(data_module, "_table_by_rows", _refuse)
        assert _outcome(lambda: _parse(path)) == expected
        assert len(expected) == 5

    def test_benchmark_shaped_file_takes_the_bulk_route(self, tmp_path, monkeypatch):
        path = _benchmark_shaped(tmp_path)
        expected = _outcome(lambda: _parse(path))
        monkeypatch.setattr(data_module, "_table_by_rows", _refuse)
        assert _outcome(lambda: _parse(path)) == expected

    @pytest.mark.parametrize("text", [
        BASIC_CSV.replace("\n2,a", "\n \n2,a"),
        BASIC_CSV.replace("0.5,1.0", "1_0,1.0"),
        BASIC_CSV.replace("0.5,1.0", "٠.٥,1.0"),
        BASIC_CSV.replace("0.5,1.0", "\x1c0.5,1.0"),
        BASIC_CSV.replace("1,a", '"1",a'),
        BASIC_CSV.replace("0.5,1.0", '"0.5",1.0'),
        BASIC_CSV.replace("x2", '"x\n2"').replace(",x2,", ",x\n2,"),
        BASIC_CSV + "2,c,0.0,0.0,0.0\n",
        BASIC_CSV.replace("1,b,-0.25,2.0,0.3", "1,b,-0.25,2.0"),
        "market,choice,x1,share\n1,a,0.5,0.5\n1,b,1.0,0.5\n",
        BASIC_CSV.replace("1,a", "1\x00,a"),
    ], ids=["whitespace_line", "underscore", "non_ascii_digits", "separator", "quoted_id",
            "quoted_cell", "multi_line_header", "duplicate", "short_row", "one_market", "nul"])
    def test_doubtful_files_take_the_row_loop(self, tmp_path, monkeypatch, text):
        path = _write(tmp_path / "d.csv", text)
        calls = []

        def counting(*args):
            calls.append(args)
            return _table_by_rows(*args)

        monkeypatch.setattr(data_module, "_table_by_rows", counting)
        _outcome(lambda: _parse(path))
        assert len(calls) == 1

    def test_both_routes_give_the_pinned_parse(self, tmp_path):
        """Today's parse of the pinned bytes, on either route, is the pinned
        table: a change to what load_csv makes of a file shows here."""
        path = tmp_path / "d.csv"
        path.write_bytes(_PINNED_CSV.encode("ascii"))
        pinned = _PINNED_ENTRY[:3], np.array(_PINNED_ENTRY[3]).tobytes()
        bulk = _table_in_bulk(str(path))
        assert bulk is not None
        for parse in (bulk, _table_by_rows(str(path))):
            assert (tuple(map(tuple, parse[:3])), parse[3].tobytes()) == pinned

    def test_byte_order_mark_is_dropped_on_either_route(self, tmp_path, monkeypatch):
        """Excel's "CSV UTF-8" export opens the file with a byte-order mark;
        kept in the first header cell, it hid the market column. The marked
        copy of a written file parses as the plain file does, on the bulk
        route and on the row loop."""
        monkeypatch.setattr(data_module.locale, "getpreferredencoding", lambda _: "utf-8")
        plain = tmp_path / "plain.csv"
        write_csv(logit_oracle_dataset(3, 5, 2, np.array([0.6, 0.8]), seed=2), str(plain))
        assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())

        def parses(path):
            bulk = _table_in_bulk(path)
            assert bulk is not None
            return [(parse[:3], parse[3].tobytes(), parse[4].tobytes())
                    for parse in (bulk, _table_by_rows(path))]

        assert parses(str(marked)) == parses(str(plain))
        assert _outcome(lambda: _parse(str(marked))) == _outcome(lambda: _parse(str(plain)))

    def test_undecodable_byte_is_reported_by_the_row_loop(self, tmp_path):
        """The decoder names the byte's position in the chunk it was given,
        which differs between a bulk read and the row loop's reads."""
        rows = [f"{m},{c},0.5,0.0" for m in range(2) for c in range(20000)]
        rows[30000] = rows[30000].replace("0.5", "\udcff0.5")
        path = tmp_path / "d.csv"
        path.write_bytes("\n".join(["market,choice,x1,share", *rows, ""]).encode(
            "utf-8", "surrogateescape"))
        with mock.patch.object(data_module, "_table_in_bulk", return_value=None):
            expected = _outcome(lambda: load_csv(str(path)))
        assert _outcome(lambda: load_csv(str(path))) == expected

    def test_line_near_the_csv_field_limit_takes_the_row_loop(self, tmp_path):
        """csv refuses a cell over its field size limit; load_csv reports it
        as a ParseError naming the row."""
        path = _write(tmp_path / "d.csv", BASIC_CSV.replace("0.5,1.0", "0." + "0" * 60 + "5,1.0"))
        limit = csv.field_size_limit(40)
        try:
            with pytest.raises(ParseError, match="^row 2: field larger than field limit"):
                load_csv(path)
        finally:
            csv.field_size_limit(limit)

    def test_memory_stays_below_half_the_row_loops_peak(self, tmp_path):
        """The traced peak of loading this d = 5000 file (150,000 rows, 10.5
        MB) stays under half of the row loop's 66.6 MB. The bulk route peaks
        at 27.7 MB; parsing an in-memory copy of the text instead peaked at
        50-63 MB, and keeping a Python list per row at 102 MB."""
        rng = np.random.default_rng(0)
        n, d = 30, 5000
        covariates = rng.standard_normal((n, d, 2))
        shares = rng.dirichlet(np.ones(d), size=n)
        path = str(tmp_path / "d.csv")
        write_csv(Dataset(tuple(map(Market, covariates, shares))), path)
        tracemalloc.start()
        try:
            load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 66.6e6 / 2, f"{peak / 1e6:.1f} MB"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS")
    @pytest.mark.parametrize("quote", [False, True], ids=["bulk", "row_loop"])
    def test_loaded_ids_free_the_parsers_memory(self, tmp_path, quote):
        """A d = 5000 file leaves the process at most 12 MB above its
        resident size before the load: about 7 MB here, with 3.6 MB of data.
        A Dataset that kept the parsed id strings kept every allocator arena
        they sat in, among the parse's other strings: 19 MB on the bulk route
        and 28 MB on the row loop, which a quoted cell sends the file to."""
        data = logit_oracle_dataset(30, 5000, 2, np.array([0.6, 0.8]), seed=0)
        path = tmp_path / "d.csv"
        write_csv(data, str(path))
        if quote:
            text = path.read_text()
            path.write_text(text.replace("\n0,0,", '\n0,"0",', 1))
        script = ("import sys; from rpchoice import load_csv\n"
                  "def rss():\n"
                  "    with open('/proc/self/status') as fh:\n"
                  "        return next(int(line.split()[1]) for line in fh\n"
                  "                    if line.startswith('VmRSS:'))\n"
                  "before = rss(); data = load_csv(sys.argv[1]); print((rss() - before) / 1024)")
        src = str(Path(rpchoice.__file__).resolve().parents[1])
        grown_mb = float(subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True, check=True,
        ).stdout)
        assert grown_mb <= 12, f"{grown_mb:.1f} MB"


@pytest.mark.usefixtures("forget_last_load")
class TestLastLoad:
    """load_csv remembers the Dataset of its last successful load, keyed by
    the SHA-256 of the file's bytes; a load of the same bytes returns it."""

    def test_a_repeat_load_returns_the_same_read_only_dataset(self, tmp_path):
        path = _benchmark_shaped(tmp_path)
        parsed, digest, hit = load_csv_with_digest(path)
        assert not hit
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        again, again_digest, hit = load_csv_with_digest(path)
        assert hit and again_digest == digest
        assert again is parsed
        assert not any(array.flags.writeable for market in again.markets
                       for array in (market.covariates, market.shares))
        assert os.listdir(tmp_path) == ["d.csv"]

    def test_an_edited_file_of_the_same_size_and_mtime_is_parsed_again(self, tmp_path):
        path = _write(tmp_path / "d.csv", BASIC_CSV)
        load_csv(path)
        stat = os.stat(path)
        _write(tmp_path / "d.csv", BASIC_CSV.replace("1,b,-0.25,", "1,b,-0.75,"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(path).st_size == stat.st_size
        data, _, hit = load_csv_with_digest(path)
        assert not hit
        assert data.markets[0].covariates[1, 0] == -0.75
        assert load_csv_with_digest(path)[2]

    def test_the_same_bytes_under_another_name_are_remembered(self, tmp_path):
        data = load_csv(_write(tmp_path / "d.csv", BASIC_CSV))
        again, _, hit = load_csv_with_digest(_write(tmp_path / "copy.csv", BASIC_CSV))
        assert hit and again is data

    def test_only_the_last_load_is_remembered(self, tmp_path):
        first = _write(tmp_path / "first.csv", BASIC_CSV)
        second = _write(tmp_path / "second.csv", BASIC_CSV.replace("0.5,1.0", "0.25,1.0"))
        assert [load_csv_with_digest(path)[2] for path in (first, second, second, first)] == [
            False, False, True, False]

    def test_a_repeat_load_in_another_text_encoding_is_parsed_again(
            self, tmp_path, monkeypatch):
        """The parse decodes the bytes in the locale's encoding, which
        locale.setlocale can change within a process: the same bytes read as
        Latin-1 give another choice id than they gave read as UTF-8."""
        path = tmp_path / "d.csv"
        path.write_bytes(BASIC_CSV.replace(",b,", ",\u00e9,").encode("utf-8"))
        data, _, hit = load_csv_with_digest(str(path))
        assert not hit and "\u00e9" in data.choice_ids
        monkeypatch.setattr(data_module.locale, "getpreferredencoding",
                            lambda do_setlocale=True: "latin-1")
        data, _, hit = load_csv_with_digest(str(path))
        assert not hit and "\u00c3\u00a9" in data.choice_ids
        again, _, hit = load_csv_with_digest(str(path))
        assert hit and again is data

    def test_a_failed_load_leaves_the_last_load_remembered(self, tmp_path):
        good = _write(tmp_path / "good.csv", BASIC_CSV)
        data = load_csv(good)
        with pytest.raises(ParseError):
            load_csv(_write(tmp_path / "bad.csv", BASIC_CSV.replace("0.5,1.0", "oops,1.0")))
        again, _, hit = load_csv_with_digest(good)
        assert hit and again is data

    @pytest.mark.parametrize("text", [
        BASIC_CSV.replace("2,c,-0.5,0.25,0.3\n", ""),
        BASIC_CSV.replace("0.5,1.0", "oops,1.0"),
        BASIC_CSV.replace("1,c,1.5,-1.0,0.5", "1,c,1.5,-1.0,0.6"),
        BASIC_CSV.replace("1,a,0.5,1.0", "1,a,inf,1.0"),
    ], ids=["missing_choice", "unparsable_cell", "share_sum", "infinite_covariate"])
    def test_a_failed_load_raises_every_time(self, tmp_path, text):
        path = _write(tmp_path / "d.csv", text)
        outcomes = [_outcome(lambda: load_csv(path)) for _ in range(3)]
        assert outcomes[0][0] in (DimensionError, ParseError, ValidationError)
        assert outcomes == [outcomes[0]] * 3

    def test_a_file_rewritten_during_the_parse_is_not_remembered(self, tmp_path, monkeypatch):
        """The parse here reads the new bytes after the digest of the old
        ones was taken. Returned, the old digest would name the new bytes'
        Dataset (an estimate's manifest would record it); remembered, the
        pair would serve that Dataset for the old bytes. The load is refused,
        and the next one parses."""
        path = _write(tmp_path / "d.csv", BASIC_CSV)

        def edit_then_parse(file):
            _write(tmp_path / "d.csv", BASIC_CSV.replace("0.5,1.0", "0.25,1.0"))
            return _table_in_bulk(file)

        with monkeypatch.context() as patch:
            patch.setattr(data_module, "_table_in_bulk", edit_then_parse)
            changed = f"^{re.escape(path)}: the file changed while it was read$"
            with pytest.raises(ParseError, match=changed):
                load_csv_with_digest(path)
        data, digest, hit = load_csv_with_digest(path)
        assert not hit and data.markets[0].covariates[0, 0] == 0.25
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        _write(tmp_path / "d.csv", BASIC_CSV)
        data, _, hit = load_csv_with_digest(path)
        assert not hit and data.markets[0].covariates[0, 0] == 0.5

    def test_a_trailing_nul_id_loads_the_same_on_a_repeat(self, tmp_path):
        """csv refuses the NUL before Python 3.11, so there the load fails
        every time."""
        path = _write(tmp_path / "d.csv", BASIC_CSV.replace(",b,", ",b\x00,"))
        with mock.patch.object(data_module, "_table_in_bulk", return_value=None):
            expected = _outcome(lambda: load_csv(path))
        if sys.version_info >= (3, 11):
            assert expected[1] == ("a", "b\x00", "c")
        else:
            assert expected[0] is ParseError
        served = []
        for _ in range(2):
            assert _outcome(lambda: _load_noting_hit(path, served)) == expected
        assert served == ([True, True] if len(expected) == 5 else [])

    def test_threads_loading_one_file_all_succeed(self, tmp_path):
        """Four threads, more than the test machines' cores, load one file
        from nothing remembered on, with frequent thread switches: every load
        gives the parse's outcome, whether it parsed or was remembered."""
        path = _benchmark_shaped(tmp_path)
        expected = _outcome(lambda: _parse(path))
        data_module._last_load = None
        start = threading.Barrier(4, timeout=60)

        def loads(_):
            start.wait()
            return [_outcome(lambda: load_csv(path)) for _ in range(4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                outcomes = [o for result in pool.map(loads, range(4), timeout=120)
                            for o in result]
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == [expected] * 16
        assert load_csv_with_digest(path)[2]


# What load_csv's parse makes of _PINNED_CSV: market ids in numeric order,
# choice ids in lexicographic order, and numbers with an exponent, a signed
# zero, a subnormal and surrounding whitespace.
_PINNED_CSV = (
    "market,choice,x1,x2,share\r\n"
    "10,b,5e-1,-0.0,0.25\r\n"
    "10,a, 2.0\t,1E0,0.5\r\n"
    "10,B,5e-324,-1.5,0.25\r\n"
    "9,a,0.1,0.2,0.2\r\n"
    "9,B,1e300,3,0.3\r\n"
    "9,b,-7,.5,0.5\r\n"
)
_PINNED_ENTRY = (
    ("x1", "x2"),
    ("9", "10"),
    ("B", "a", "b"),
    [[[1e300, 3.0, 0.3], [0.1, 0.2, 0.2], [-7.0, 0.5, 0.5]],
     [[5e-324, -1.5, 0.25], [2.0, 1.0, 0.5], [0.5, -0.0, 0.25]]],
)


def _refuse(*args):
    raise AssertionError("the row loop ran")


def _benchmark_shaped(tmp_path):
    """simulate_dataset written by write_csv, as the benchmark makes its input."""
    path = str(tmp_path / "d.csv")
    write_csv(simulate_dataset(SimConfig(d=40, n=30, mc_draws=1000, seed=1)), path)
    return path


def _parse(path):
    """load_csv with no load remembered, so that it parses the file."""
    data_module._last_load = None
    return load_csv(path)


def _load_noting_hit(path, served):
    data, _, hit = load_csv_with_digest(path)
    served.append(hit)
    return data


def _two_markets(b=1):
    m = Market(np.zeros((2, b)), np.array([0.5, 0.5]))
    return (m, m)


def _row_loop_csv(data, path):
    """The reference writer: a csv.writer row per (market, choice), each
    number written as repr(float(x))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["market", "choice", *data.covariate_names, "share"])
        for mid, market in zip(data.market_ids, data.markets):
            for cid, cov, share in zip(data.choice_ids, market.covariates, market.shares):
                writer.writerow([mid, cid, *(repr(float(x)) for x in cov), repr(float(share))])


# labels the csv module must quote (comma, quote, CR, LF), that it must not
# (spaces, non-ASCII, the empty string), and any other text without a NUL
_LABELS = st.sampled_from(["a,b", 'q"', '"', "a\nb", "a\rb", "\r\n", " a ", " ", "é",
                           "日本", "", "1", "x1"]) | st.text(
    alphabet=st.characters(blacklist_characters="\x00"), max_size=4)
# negative zero, subnormals and values near the largest float64
_EDGE_VALUES = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
                                2.2250738585072014e-308, 1.7e308, -1.7e308])
_VALUES = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_VALUES


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

    def test_write_refuses_an_id_the_encoding_cannot_hold(self, tmp_path):
        """A lone surrogate has no UTF-8 bytes: refused before the file is
        opened, not halfway through the write."""
        path = tmp_path / "d.csv"
        with pytest.raises(ValidationError, match="cannot be written"):
            write_csv(Dataset(_two_markets(), market_ids=("a", "\ud800")), str(path))
        assert not path.exists()

    def test_write_refuses_shares_that_do_not_sum_to_one(self, tmp_path):
        """load_csv requires each market to sum to 1, so write_csv does too."""
        path = tmp_path / "d.csv"
        half = Market(np.zeros((2, 1)), np.array([0.25, 0.25]))
        with pytest.raises(ValidationError, match=r"^market 'b': shares sum to 0\.5, expected 1$"):
            write_csv(Dataset((_two_markets()[0], half), market_ids=("a", "b")), str(path))
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
        shares=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
    )
    def test_every_written_dataset_loads_back_bit_exact(self, tmp_path_factory, n, d, b, labels,
                                                        values, shares):
        """Whatever Dataset and write_csv accept, load_csv reads back: the same
        ids and names, and bit-identical values for every (market, choice).
        Each market's shares are drawn to sum to 1 through exact_unit_sum."""
        cov = np.array(values[: n * d * b]).reshape(n, d, b)
        sh = np.array(shares[: n * d]).reshape(n, d)
        if d:
            sh[sh.sum(axis=1) == 0] = 1.0  # an all-zero market becomes uniform
            sh = np.array([exact_unit_sum(row / row.sum()) for row in sh])
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
        back = load_csv(path)
        assert back.covariate_names == data.covariate_names
        assert sorted(back.market_ids) == sorted(data.market_ids)
        assert sorted(back.choice_ids) == sorted(data.choice_ids)
        rows = [back.market_ids.index(m) for m in data.market_ids]
        cols = [back.choice_ids.index(c) for c in data.choice_ids]
        got_cov = back.covariate_stack()[np.ix_(rows, cols)]
        got_sh = back.share_stack()[np.ix_(rows, cols)]
        assert got_cov.tobytes() == data.covariate_stack().tobytes()
        assert got_sh.tobytes() == data.share_stack().tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 3),
        d=st.integers(1, 4),
        b=st.integers(1, 2),
        market_ids=st.lists(_LABELS, min_size=3, max_size=3, unique=True),
        choice_ids=st.lists(_LABELS, min_size=4, max_size=4, unique=True),
        names=st.lists(_LABELS.filter(lambda t: t not in ("market", "choice", "share")),
                       min_size=2, max_size=2, unique=True),
        values=st.lists(_VALUES, min_size=24, max_size=24),
        weights=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
        tiny=st.lists(st.sampled_from([-0.0, 0.0, 5e-324, 1.1125369292536007e-308]),
                      min_size=12, max_size=12),
        tiny_at=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_bytes_equal_the_row_loop(self, tmp_path_factory, n, d, b, market_ids, choice_ids,
                                      names, values, weights, tiny, tiny_at):
        """write_csv's one pass writes the reference row loop's bytes: ids
        quoted by the csv module's rules, every number as repr(float(x)),
        negative zero, subnormals and values near 1.7e308 included. Ids and
        names with no UTF-8 bytes are refused, with no file left behind."""
        cov = np.array(values[: n * d * b]).reshape(n, d, b)
        sh = np.array(weights[: n * d]).reshape(n, d)
        sh[sh.sum(axis=1) == 0] = 1.0
        sh /= sh.sum(axis=1, keepdims=True)
        at = np.array(tiny_at[: n * d]).reshape(n, d)
        sh[at] = np.array(tiny[: n * d]).reshape(n, d)[at]
        sh = np.array([exact_unit_sum(row) for row in sh])
        data = Dataset(tuple(Market(cov[i], sh[i]) for i in range(n)),
                       covariate_names=names[:b], market_ids=market_ids[:n],
                       choice_ids=choice_ids[:d])
        folder = tmp_path_factory.mktemp("bytes")
        try:
            "".join((*data.market_ids, *data.choice_ids, *data.covariate_names)).encode("utf-8")
        except UnicodeEncodeError:
            # a lone surrogate: the row loop cannot write it, write_csv refuses it
            with pytest.raises(ValidationError, match="cannot be written"):
                write_csv(data, str(folder / "one_pass.csv"))
            assert not (folder / "one_pass.csv").exists()
            return
        write_csv(data, str(folder / "one_pass.csv"))
        _row_loop_csv(data, str(folder / "row_loop.csv"))
        assert (folder / "one_pass.csv").read_bytes() == (folder / "row_loop.csv").read_bytes()

    def test_metadata_export(self, tmp_path):
        data = logit_oracle_dataset(3, 4, 2, np.array([0.6, 0.8]), seed=1)
        path = tmp_path / "meta.json"
        save_metadata(data, str(path))
        meta = json.loads(path.read_text())
        assert meta == {"schema_version": 1, "n": 3, "d": 4, "b": 2,
                        "covariate_names": ["x1", "x2"]}


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
