"""Containers and CSV ingestion for market-level choice data.

A dataset is a balanced panel: n markets, each with the same d choices and
b covariates per choice, plus an observed share per choice. Shares within a
market live on the probability simplex; markets whose file omits the
outside alternative may sum to less than one when the schema says so.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleError, ParseError, ValidationError

SHARE_SUM_TOL = 1e-9


def _repeats(items) -> list:
    """The items that occur more than once, sorted."""
    return sorted(item for item, count in Counter(items).items() if count > 1)


def _readonly(values, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    arr.setflags(write=False)
    return arr


def exact_unit_sum(shares: np.ndarray, adjust: int | None = None) -> np.ndarray:
    """Nudge one entry so math.fsum(result) == 1.0 exactly.

    The residual 1 - fsum(shares) is a few ulp at most; folding it into a
    single entry (the largest by default, or the index given by `adjust`)
    keeps every other entry untouched. Two rounds suffice because fsum is
    correctly rounded.
    """
    out = np.array(shares, dtype=np.float64, copy=True)
    slot = int(np.argmax(out)) if adjust is None else int(adjust)
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
    Whether the sum must equal 1 is a dataset-level question: a file that
    omits the outside alternative legitimately leaves mass on the table,
    so the strict check lives in the loader, not here.
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


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for the long-format CSV layout.

    One row per (market, choice) pair. Either `share` holds observed shares
    directly, or `quantity` holds purchase counts and `custcount_path` names
    a sidecar CSV (columns market,custcount) with per-market customer counts;
    in quantity mode shares are quantity/custcount and an outside alternative
    with zero covariates absorbs the remaining mass.

    covariates: names of the covariate columns, in order. Empty means every
    column other than the id and share/quantity columns, in header order.
    fill_missing: absent (market, choice) rows become share 0, covariates 0.
    has_outside: inside shares may sum to less than 1 (an outside option
    exists but is not a row); without it each market must sum to 1.
    """

    market: str = "market"
    choice: str = "choice"
    covariates: tuple[str, ...] = ()
    share: str = "share"
    quantity: str | None = None
    custcount_path: str | None = None
    fill_missing: bool = False
    has_outside: bool = False


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
    except (TypeError, ValueError):
        raise ParseError(
            f"row {line_num}: cannot parse {raw!r} in column {column!r} as a number"
        ) from None


def _checked_rows(fh, path: str, required: tuple[str, ...]):
    """Header and (line number, row dict) pairs of an open CSV file.

    A missing header, a header that repeats a column name or lacks a
    `required` column, and a row with more cells than the header raise
    ParseError.
    """
    reader = csv.DictReader(fh)
    header = reader.fieldnames
    if header is None:
        raise ParseError(f"{path}: empty file, expected a header row")
    repeated = _repeats(header)
    if repeated:
        raise ParseError(f"{path}: header repeats column(s) {repeated}")
    for column in required:
        if column not in header:
            raise ParseError(f"{path}: missing required column {column!r}")

    def records():
        for row in reader:
            if None in row:  # DictReader's restkey: cells beyond the header
                raise ParseError(
                    f"row {reader.line_num}: {len(header) + len(row[None])} cells, "
                    f"header has {len(header)}"
                )
            yield reader.line_num, row

    return header, records()


def _load_custcounts(path: str) -> dict[str, float]:
    counts: dict[str, float] = {}
    with open(path, newline="") as fh:
        _, records = _checked_rows(fh, path, ("market", "custcount"))
        for line_num, row in records:
            mid = row["market"]
            if mid in counts:
                raise ValidationError(
                    f"{path}: row {line_num}: repeated custcount entry for market {mid!r}"
                )
            counts[mid] = _parse_cell(row["custcount"], "custcount", line_num)
    return counts


def load_csv(path: str, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Read a long-format CSV into a Dataset.

    Markets are ordered by market id and choices by choice id (numeric order
    when the ids parse as numbers, lexicographic otherwise), so the same file
    always produces the same array layout. A header that repeats a column
    name, or a row with more cells than the header, raises ParseError.
    """
    value_col = schema.quantity if schema.quantity is not None else schema.share
    rows: dict[str, dict[str, tuple[list[float], float]]] = {}
    cov_names: tuple[str, ...] = schema.covariates

    with open(path, newline="") as fh:
        header, records = _checked_rows(fh, path, (schema.market, schema.choice, value_col))
        if not cov_names:
            reserved = {schema.market, schema.choice, value_col}
            cov_names = tuple(c for c in header if c not in reserved)
        else:
            missing = [c for c in cov_names if c not in header]
            if missing:
                raise ParseError(f"{path}: missing covariate columns {missing}")
        if not cov_names:
            raise ParseError(f"{path}: no covariate columns found")

        for line_num, row in records:
            mid, cid = row[schema.market], row[schema.choice]
            cov = [_parse_cell(row[c], c, line_num) for c in cov_names]
            val = _parse_cell(row[value_col], value_col, line_num)
            per_market = rows.setdefault(mid, {})
            if cid in per_market:
                raise ValidationError(
                    f"row {line_num}: duplicate entry for market {mid!r}, choice {cid!r}"
                )
            per_market[cid] = (cov, val)

    if len(rows) < 2:
        raise ValidationError(f"{path}: found {len(rows)} market(s), need at least 2")

    market_ids = _sort_ids(rows.keys())
    universe: set[str] = set()
    for per_market in rows.values():
        universe |= per_market.keys()
    choice_ids = _sort_ids(universe)

    if not schema.fill_missing:
        for mid in market_ids:
            missing = universe - rows[mid].keys()
            if missing:
                raise DimensionError(
                    f"market {mid!r} is missing choices {sorted(missing)}; "
                    "pass fill_missing to zero-fill"
                )

    b = len(cov_names)
    zero_row = ([0.0] * b, 0.0)
    quantity_mode = schema.quantity is not None
    custcounts = _load_custcounts(schema.custcount_path) if quantity_mode else {}

    markets = []
    for mid in market_ids:
        per_market = rows[mid]
        cov = np.array(
            [per_market.get(cid, zero_row)[0] for cid in choice_ids], dtype=np.float64
        )
        vals = np.array(
            [per_market.get(cid, zero_row)[1] for cid in choice_ids], dtype=np.float64
        )
        if quantity_mode:
            if mid not in custcounts:
                raise ValidationError(f"market {mid!r} has no custcount entry")
            try:
                shares = build_outside_option(vals, custcounts[mid])
            except InfeasibleError as exc:
                raise InfeasibleError(f"market {mid!r}: {exc}") from None
            cov = np.vstack([cov, np.zeros((1, b))])
        else:
            shares = vals
            total = math.fsum(shares.tolist())
            if not schema.has_outside and abs(total - 1.0) > SHARE_SUM_TOL:
                raise ValidationError(
                    f"market {mid!r}: shares sum to {total!r}, expected 1"
                )
        try:
            markets.append(Market(cov, shares))
        except (ValidationError, DimensionError) as exc:
            raise type(exc)(f"market {mid!r}: {exc}") from None

    out_choice_ids = list(choice_ids)
    if quantity_mode:
        outside_id = "outside"
        while outside_id in universe:
            outside_id = "_" + outside_id
        out_choice_ids.append(outside_id)

    return Dataset(
        markets=tuple(markets),
        covariate_names=cov_names,
        market_ids=tuple(market_ids),
        choice_ids=tuple(out_choice_ids),
    )


def write_csv(data: Dataset, path: str) -> None:
    """Write the long-format CSV. repr round-trips float64 exactly.

    What load_csv could not read back is refused before the file is opened:
    a covariate named like the id or share columns would repeat a header
    column, and a NUL character in an id or name is unreadable for the csv
    module before Python 3.11.
    """
    clash = sorted({"market", "choice", "share"} & set(data.covariate_names))
    if clash:
        raise ValidationError(f"covariate name(s) {clash} collide with the csv's own columns")
    labels = (*data.market_ids, *data.choice_ids, *data.covariate_names)
    if any("\x00" in label for label in labels):
        raise ValidationError("ids and covariate names must not contain NUL characters")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["market", "choice", *data.covariate_names, "share"])
        for mid, market in zip(data.market_ids, data.markets):
            for cid, cov, share in zip(data.choice_ids, market.covariates, market.shares):
                writer.writerow([mid, cid, *(repr(float(x)) for x in cov), repr(float(share))])


def build_outside_option(quantities, custcount: float) -> np.ndarray:
    """Shares from raw counts, with the outside alternative appended.

    Inside share j is quantities[j]/custcount; the last entry is the leftover
    1 - sum of inside shares. Compensated summation plus a residual fold into
    the outside entry keep the full vector summing to 1.0 exactly.
    """
    q = np.asarray(quantities, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise DimensionError("quantities must be a nonempty vector")
    if not np.isfinite(q).all() or (q < 0).any():
        raise ValidationError("quantities must be finite and nonnegative")
    if not np.isfinite(custcount) or custcount <= 0:
        raise ValidationError(f"custcount must be positive, got {custcount!r}")
    total_q = math.fsum(q.tolist())
    if total_q > custcount * (1.0 + 1e-12):
        raise InfeasibleError(
            f"quantities sum to {total_q!r}, above custcount {custcount!r}"
        )
    inside = q / custcount
    outside = max(0.0, 1.0 - math.fsum(inside.tolist()))
    shares = exact_unit_sum(np.append(inside, outside), adjust=len(inside))
    if shares[-1] < 0.0:
        # the residual fold can only undershoot when quantities fill the
        # market exactly; push the leftover into the largest inside share
        shares[-1] = 0.0
        shares = exact_unit_sum(shares, adjust=int(np.argmax(shares[:-1])))
    return shares


def save_metadata(data: Dataset, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data.to_metadata(), fh, indent=2, sort_keys=True)
        fh.write("\n")
