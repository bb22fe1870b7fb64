"""Containers and CSV ingestion for market-level choice data.

A dataset is a balanced panel: n markets, each with the same d choices and
b covariates per choice, plus an observed share per choice. It is stored in
one CSV layout, written by write_csv and read by load_csv, in which every
market lists every choice and each market's shares sum to 1.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import locale
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, ParseError, ValidationError

SHARE_SUM_TOL = 1e-9


def _repeats(items) -> list:
    """The items that occur more than once, sorted."""
    return sorted(item for item, count in Counter(items).items() if count > 1)


def _readonly(values, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    arr.setflags(write=False)
    return arr


def exact_unit_sum(shares: np.ndarray) -> np.ndarray:
    """Nudge one entry so math.fsum(result) == 1.0 exactly.

    The residual 1 - fsum(shares) is a few ulp at most; folding it into the
    largest entry keeps every other entry untouched. Two rounds suffice
    because fsum is correctly rounded.
    """
    out = np.array(shares, dtype=np.float64, copy=True)
    slot = int(np.argmax(out))
    for _ in range(4):
        residual = 1.0 - math.fsum(out.tolist())
        if residual == 0.0:
            break
        out[slot] += residual
    return out


@dataclass(frozen=True)
class Market:
    """One market: a d x b covariate matrix and a length-d share vector.

    Shares must be finite, nonnegative, and sum to at most 1 (+1e-9 slack).
    That each market's shares sum to exactly 1 is a rule of the CSV layout,
    which load_csv and write_csv both check (_require_unit_sum); a Market
    built in code may leave mass unassigned.
    """

    covariates: np.ndarray
    shares: np.ndarray

    def __post_init__(self):
        cov = _readonly(self.covariates)
        sh = _readonly(self.shares)
        if cov.ndim != 2:
            raise DimensionError(f"covariates must be 2-d, got shape {cov.shape}")
        if sh.ndim != 1 or sh.shape[0] != cov.shape[0]:
            raise DimensionError(
                f"shares shape {sh.shape} does not match covariates shape {cov.shape}"
            )
        if not np.isfinite(cov).all():
            raise ValidationError("covariates contain non-finite values")
        if not np.isfinite(sh).all():
            raise ValidationError("shares contain non-finite values")
        if (sh < 0).any():
            raise ValidationError("shares must be nonnegative")
        total = math.fsum(sh.tolist())
        if total > 1.0 + SHARE_SUM_TOL:
            raise ValidationError(f"shares sum to {total!r}, above 1")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "shares", sh)

    @property
    def d(self) -> int:
        return self.shares.shape[0]

    @property
    def b(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True)
class Dataset:
    """Balanced panel of markets sharing one choice set and covariate layout.

    Market ids, choice ids and covariate names must each be distinct, so the
    dataset can be written as one long CSV and read back.
    """

    markets: tuple[Market, ...]
    covariate_names: tuple[str, ...] = ()
    market_ids: tuple[str, ...] = ()
    choice_ids: tuple[str, ...] = ()

    def __post_init__(self):
        markets = tuple(self.markets)
        if len(markets) < 2:
            raise ValidationError("a dataset needs at least 2 markets")
        d, b = markets[0].d, markets[0].b
        if d < 1 or b < 1:
            raise DimensionError(f"markets need a choice and a covariate, got shape ({d}, {b})")
        for i, m in enumerate(markets):
            if m.d != d or m.b != b:
                raise DimensionError(
                    f"market {i} has shape ({m.d}, {m.b}), expected ({d}, {b})"
                )
        names = tuple(self.covariate_names) or tuple(f"x{j + 1}" for j in range(b))
        if len(names) != b:
            raise DimensionError("covariate name count does not match covariate count")
        mids = tuple(self.market_ids) or tuple(str(i) for i in range(len(markets)))
        if len(mids) != len(markets):
            raise DimensionError("market id count does not match market count")
        cids = tuple(self.choice_ids) or tuple(str(j) for j in range(d))
        if len(cids) != d:
            raise DimensionError("choice id count does not match choice count")
        for label, ids in (("market ids", mids), ("choice ids", cids), ("covariate names", names)):
            repeated = _repeats(ids)
            if repeated:
                raise ValidationError(f"repeated {label} {repeated}")
        object.__setattr__(self, "markets", markets)
        object.__setattr__(self, "covariate_names", names)
        object.__setattr__(self, "market_ids", mids)
        object.__setattr__(self, "choice_ids", cids)

    @property
    def n(self) -> int:
        return len(self.markets)

    @property
    def d(self) -> int:
        return self.markets[0].d

    @property
    def b(self) -> int:
        return self.markets[0].b

    def covariate_stack(self) -> np.ndarray:
        """All covariates as one (n, d, b) array."""
        return np.stack([m.covariates for m in self.markets])

    def share_stack(self) -> np.ndarray:
        """All shares as one (n, d) array."""
        return np.stack([m.shares for m in self.markets])

    def to_metadata(self) -> dict:
        return {
            "schema_version": 1,
            "n": self.n,
            "d": self.d,
            "b": self.b,
            "covariate_names": list(self.covariate_names),
        }


# The one CSV layout, written by write_csv and read by load_csv: a row per
# (market, choice) pair with the columns market, choice, <covariates...>,
# share. Columns are found by name, so the header may order them freely.
ID_COLUMNS = ("market", "choice")
SHARE_COLUMN = "share"


def _require_unit_sum(market_id: str, shares: np.ndarray) -> None:
    """The layout's share rule: math.fsum(shares) is 1 within SHARE_SUM_TOL.

    Finiteness is checked first: fsum raises its own ValueError on inf and
    -inf together, and a NaN total would pass the tolerance test."""
    if not np.isfinite(shares).all():
        raise ValidationError(f"market {market_id!r}: shares contain non-finite values")
    total = math.fsum(shares.tolist())
    if abs(total - 1.0) > SHARE_SUM_TOL:
        raise ValidationError(f"market {market_id!r}: shares sum to {total!r}, expected 1")


def _sort_ids(ids) -> list[str]:
    """Numeric order when every id parses as a number other than NaN, else
    lexicographic.

    Numerically equal ids ("1" and "1.0") are ordered by their strings, so
    the order never depends on the order of the input. NaN compares false
    with every number, so an id that parses as NaN would not have a place.
    """
    ids = list(ids)
    try:
        keys = [float(i) for i in ids]
    except ValueError:
        return sorted(ids)
    if any(math.isnan(k) for k in keys):
        return sorted(ids)
    return [i for _, i in sorted(zip(keys, ids))]


def _parse_cell(raw: str, column: str, line_num: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(
            f"row {line_num}: cannot parse {raw!r} in column {column!r} as a number"
        ) from None


def _csv_rows(reader):
    """reader's rows; the csv module's own error (a cell over
    csv.field_size_limit(), or a NUL before Python 3.11) becomes a
    ParseError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"row {reader.line_num}: {exc}") from None


def _checked_rows(fh, path: str):
    """Header, covariate names and (line number, cells) pairs of an open CSV
    file in the layout.

    A missing header, a header that repeats a column name, lacks one of the
    id and share columns or has no other column, and a row whose cell count
    differs from the header's raise ParseError. Blank lines are skipped. A
    byte-order mark (U+FEFF) opening the file, as Excel's "CSV UTF-8" writes
    it, is dropped from the first header cell.
    """
    reader = csv.reader(fh)
    rows = _csv_rows(reader)
    header = next(rows, None)
    if header is None:
        raise ParseError(f"{path}: empty file, expected a header row")
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    repeated = _repeats(header)
    if repeated:
        raise ParseError(f"{path}: header repeats column(s) {repeated}")
    for column in (*ID_COLUMNS, SHARE_COLUMN):
        if column not in header:
            raise ParseError(f"{path}: missing required column {column!r}")
    cov_names = tuple(c for c in header if c not in (*ID_COLUMNS, SHARE_COLUMN))
    if not cov_names:
        raise ParseError(f"{path}: no covariate columns found")

    def records():
        for row in rows:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"row {reader.line_num}: {len(row)} cells, header has {len(header)}"
                )
            yield reader.line_num, row

    return header, cov_names, records()


def _table_by_rows(path: str):
    """The reference reader: one csv.reader pass, float() on every number.

    Returns (covariate names, market ids, choice ids, table, present): the
    ids sorted by _sort_ids, table the (n, d, b + 1) covariates and shares
    and present the (n, d) mask of the pairs the file holds. It defines what
    load_csv accepts and every error it raises, first fault in file order.
    """
    cells: dict[tuple[str, str], list[float]] = {}
    with open(path, newline="", encoding=_text_encoding()) as fh:
        header, cov_names, records = _checked_rows(fh, path)
        mid_at, cid_at = (header.index(c) for c in ID_COLUMNS)
        number_at = [header.index(c) for c in (*cov_names, SHARE_COLUMN)]
        for line_num, row in records:
            numbers = [_parse_cell(row[j], header[j], line_num) for j in number_at]
            key = (row[mid_at], row[cid_at])
            if key in cells:
                raise ValidationError(
                    f"row {line_num}: duplicate entry for market {key[0]!r}, choice {key[1]!r}"
                )
            cells[key] = numbers

    # copies made while every parsed string lives, so none lands in the parse's arenas
    market_ids = _sort_ids(_fresh({mid for mid, _ in cells}))
    if len(market_ids) < 2:
        raise ValidationError(f"{path}: found {len(market_ids)} market(s), need at least 2")
    choice_ids = _sort_ids(_fresh({cid for _, cid in cells}))
    market_at = {mid: i for i, mid in enumerate(market_ids)}
    choice_at = {cid: j for j, cid in enumerate(choice_ids)}
    at = (np.array([market_at[mid] for mid, _ in cells]),
          np.array([choice_at[cid] for _, cid in cells]))
    table = np.zeros((len(market_ids), len(choice_ids), len(cov_names) + 1))
    table[at] = list(cells.values())
    present = np.zeros(table.shape[:2], dtype=bool)
    present[at] = True
    return cov_names, market_ids, choice_ids, table, present


def _fresh(labels) -> tuple[str, ...]:
    """New str objects equal to `labels` (any str, lone surrogates too).

    A parsed id kept in a Dataset would keep the whole pymalloc arena it
    was allocated in, among the parser's other strings, from being freed:
    about 12 MB at d = 5000."""
    return tuple(label.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")
                 for label in labels)


def _codes(ids: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct ids in _sort_ids order, and each entry's index into them."""
    # copies made while every parsed string lives, so none lands in the parse's arenas
    distinct = _sort_ids(_fresh(dict.fromkeys(ids)))
    at = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(at.__getitem__, ids), dtype=np.intp, count=len(ids))


# Characters that send a file to the row loop: the quote, whose csv quoting
# loadtxt does not read; NUL, which csv refuses before Python 3.11; and the
# ASCII separators \x1c-\x1f, which loadtxt strips from around a number and
# float() does not.
_ROW_LOOP_CHARS = '"\x00\x1c\x1d\x1e\x1f'


def _plain_text(fh) -> bool:
    """Whether the open file holds none of _ROW_LOOP_CHARS and no line long
    enough for a cell over csv.field_size_limit(), which csv refuses."""
    # when every aligned block of `half` characters holds a line end, every
    # line is shorter than 2 * half; read(n) returns n characters until EOF
    half = max(1, min(csv.field_size_limit(), 1 << 21) // 2)
    for chunk in iter(partial(fh.read, half * max(1, (1 << 20) // half)), ""):
        if any(c in chunk for c in _ROW_LOOP_CHARS):
            return False
        for at in range(0, len(chunk) - half + 1, half):
            if chunk.find("\n", at, at + half) < 0 and chunk.find("\r", at, at + half) < 0:
                return False
    return True


def _table_in_bulk(path: str):
    """_table_by_rows's result from one np.loadtxt pass, or None where the
    row loop must read the file (see load_csv).

    loadtxt parses a number with the routine float() uses, so a file it
    reads gives the row loop's values bit for bit; it rejects every cell
    float() rejects, and the text check covers the cells it accepts and
    float() does not.
    """
    with open(path, newline="", encoding=_text_encoding()) as fh:
        # a fault of any kind, an undecodable byte included, is the row
        # loop's to report
        try:
            if not _plain_text(fh):
                return None
            fh.seek(0)
            header, cov_names, _ = _checked_rows(fh, path)
            id_at = [header.index(c) for c in ID_COLUMNS]
            dtype = np.dtype([(f"f{j}", object if j in id_at else np.float64)
                              for j in range(len(header))])
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None

    market_ids, mi = _codes(rows[f"f{id_at[0]}"])
    choice_ids, ci = _codes(rows[f"f{id_at[1]}"])
    if len(market_ids) < 2:
        return None
    n, d = len(market_ids), len(choice_ids)
    flat = mi * d + ci
    counts = np.bincount(flat, minlength=n * d)
    if counts.max() > 1:
        return None
    table = np.zeros((n, d, len(cov_names) + 1))
    cells = table.reshape(n * d, -1)
    for j, name in enumerate((*cov_names, SHARE_COLUMN)):
        cells[flat, j] = rows[f"f{header.index(name)}"]
    return cov_names, market_ids, choice_ids, table, counts.reshape(n, d) > 0


def load_csv(path: str) -> Dataset:
    """Read a CSV in the module's layout into a Dataset.

    The file needs the market, choice and share columns; every other column
    is a covariate, in header order. Every market must list every choice,
    and each market's shares must sum to 1 within SHARE_SUM_TOL. Markets are
    ordered by market id and choices by choice id (numeric order when the
    ids parse as numbers, lexicographic otherwise), so the result does not
    depend on the order of the rows.

    float() and a row loop over csv.reader define what is accepted and
    every error: the first fault in file order is raised. A row whose cell
    count differs from the header's, a cell float() rejects, or a line the
    csv module refuses is a ParseError, and a repeated (market, choice) pair
    a ValidationError. The file is first read in one np.loadtxt pass, which
    gives the same result. The row loop reads it instead when the file holds
    a quote, a NUL, an ASCII separator (\\x1c-\\x1f) or a line near the
    length of csv.field_size_limit(); a row loadtxt rejects (a fault, a
    whitespace-only line, or a number float() reads but loadtxt does not,
    such as 1_000 or non-ASCII digits); a repeated pair; or fewer than two
    markets.

    A load of the bytes the last successful load read, by SHA-256, in the
    same text encoding, returns that load's Dataset again, which is safe to
    share: Dataset is frozen and its arrays are read-only. A failed load is
    not remembered; a file that changed during the parse is a ParseError.
    """
    return load_csv_with_digest(path)[0]


# ((SHA-256, text encoding), Dataset) of the last load that succeeded; read
# and replaced whole, so threads that load at once need no lock (the last to
# finish is remembered)
_last_load: tuple[tuple[str, str], Dataset] | None = None


def load_csv_with_digest(path: str) -> tuple[Dataset, str, bool]:
    """load_csv's Dataset, the SHA-256 (hex) of the bytes it was read from,
    and whether it is the last load's Dataset, returned without a parse."""
    global _last_load
    digest = _sha256(path)
    # the parse decodes the bytes in the locale's encoding, which
    # locale.setlocale can change within a process
    key = digest, _text_encoding()
    last = _last_load
    if last is not None and last[0] == key:
        return last[1], digest, True
    cov_names, market_ids, choice_ids, table, present = (
        _table_in_bulk(path) or _table_by_rows(path))
    b = len(cov_names)

    incomplete = np.flatnonzero(~present.all(axis=1))
    if incomplete.size:
        first = incomplete[0]
        missing = sorted(choice_ids[j] for j in np.flatnonzero(~present[first]))
        raise DimensionError(f"market {market_ids[first]!r} is missing choices {missing}")

    markets = []
    for mid, block in zip(market_ids, table):
        _require_unit_sum(mid, block[:, b])
        try:
            markets.append(Market(block[:, :b], block[:, b]))
        except ValidationError as exc:
            raise ValidationError(f"market {mid!r}: {exc}") from None

    data = Dataset(
        markets=tuple(markets),
        covariate_names=cov_names,
        market_ids=tuple(market_ids),
        choice_ids=tuple(choice_ids),
    )
    # `data` may mix both versions' bytes, which no digest names
    if _sha256(path) != digest:
        raise ParseError(f"{path}: the file changed while it was read")
    _last_load = key, data
    return data, digest, False


def _text_encoding() -> str:
    """The encoding open() reads and writes text in by default."""
    return locale.getpreferredencoding(False)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(partial(fh.read, 1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _csv_cells(labels) -> list[str]:
    """Each label as csv.writer writes it among the cells of a longer row:
    quoted, by the writer's own rules, where it holds a comma, a quote or a
    line break."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    tail = len(writer.dialect.delimiter + writer.dialect.lineterminator)
    cells = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        # a second, empty cell: a row of one empty cell is written as "" alone
        writer.writerow((label, ""))
        cells.append(buf.getvalue()[:-tail])
    return cells


def write_csv(data: Dataset, path: str) -> None:
    """Write the dataset in the CSV layout that load_csv reads.

    repr round-trips float64 exactly. What load_csv could not read back is
    refused before the file is opened: a covariate named like the id or
    share columns would repeat a header column, a NUL character in an id or
    name is unreadable for the csv module before Python 3.11, an id or name
    the file's text encoding cannot hold (a lone surrogate, say) would stop
    the write halfway, and a market whose shares do not sum to 1 breaks the
    layout's share rule.

    The bytes are those of a csv.writer row per (market, choice): each id is
    quoted once, by _csv_cells. Each market is one list of string slots, its
    numbers filled a column at a time by slice assignment and joined once.
    At d = 5000, n = 30 that takes 0.36 s against 0.53 s for a formatted
    line per row, and csv.writer.writerows over the same rows took 0.81 s.
    """
    clash = sorted({*ID_COLUMNS, SHARE_COLUMN} & set(data.covariate_names))
    if clash:
        raise ValidationError(f"covariate name(s) {clash} collide with the csv's own columns")
    labels = (*data.market_ids, *data.choice_ids, *data.covariate_names)
    if any("\x00" in label for label in labels):
        raise ValidationError("ids and covariate names must not contain NUL characters")
    encoding = _text_encoding()
    for label in labels:
        try:
            label.encode(encoding)
        except UnicodeEncodeError as exc:
            raise ValidationError(f"id or covariate name {label!r} cannot be written "
                                  f"in the {encoding} encoding: {exc.reason}") from None
    for mid, market in zip(data.market_ids, data.markets):
        _require_unit_sum(mid, market.shares)
    width = 2 * data.b + 4  # slots a row takes
    with open(path, "w", newline="", encoding=encoding) as fh:
        writer = csv.writer(fh)
        writer.writerow([*ID_COLUMNS, *data.covariate_names, SHARE_COLUMN])
        end = writer.dialect.lineterminator
        # per row: market, ",choice,", then x1, ",", ..., xb, ",", share, end
        slots: list = []
        for choice_cell in _csv_cells(data.choice_ids):
            slots += [None, f",{choice_cell},", *[None, ","] * data.b, None, end]
        for market_cell, market in zip(_csv_cells(data.market_ids), data.markets):
            slots[::width] = [market_cell] * data.d
            for j, column in enumerate(market.covariates.T):
                slots[2 + 2 * j::width] = map(repr, column.tolist())
            slots[width - 2::width] = map(repr, market.shares.tolist())
            fh.write("".join(slots))


def save_metadata(data: Dataset, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data.to_metadata(), fh, indent=2, sort_keys=True)
        fh.write("\n")
