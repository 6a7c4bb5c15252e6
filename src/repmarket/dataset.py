"""Three-table data model for pooled replication-forecasting data.

The canonical schema is three delimited text files:

* outcomes: one row per replicated finding (id, project, binary outcome,
  p-value category, optional numeric p-value, market open/close times)
* surveys:  one elicited belief per (finding, forecaster)
* trades:   one market transaction per row, ordered within each market

Raw exports with different headers are adapted through a column mapping
(canonical field -> source column name). The loader keeps the records that
pass the same record rules `validate` audits, and reports each row it rejects.
"""

from __future__ import annotations

import csv
import json
import re
from collections import defaultdict
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone
from functools import cached_property
from itertools import chain, count, islice
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import (InvalidMapping, MissingColumn, MissingInput, OutOfRange, UnknownFinding,
                     UnreadableInput)

PROJECTS = ("RPP", "EERP", "ML2", "SSRP")
SIDES = ("YES", "NO")

# p-value evidence categories relative to the significance threshold
CATEGORY_ABOVE = "above"                # p > threshold (suggestive evidence)
CATEGORY_AT_OR_BELOW = "at_or_below"    # p <= threshold (significant evidence)
CATEGORIES = (CATEGORY_ABOVE, CATEGORY_AT_OR_BELOW)
DEFAULT_P_THRESHOLD = 0.005

OUTCOME_FIELDS = (
    "finding_id",
    "project",
    "outcome",
    "p_value_category",
    "original_p_value",
    "market_open",
    "market_close",
)
SURVEY_FIELDS = ("finding_id", "forecaster_id", "belief")
TRADE_FIELDS = (
    "finding_id",
    "trader_id",
    "timestamp",
    "side",
    "quantity",
    "post_trade_price",
)
TABLE_FIELDS = {"outcomes": OUTCOME_FIELDS, "surveys": SURVEY_FIELDS, "trades": TRADE_FIELDS}

# Fields a raw export is allowed to lack entirely (column may be unmapped).
# Some public exports carry prices only; side/quantity are then unavailable
# and only price-taking replay is possible.
OPTIONAL_FIELDS = frozenset({"original_p_value", "side", "quantity"})

MS_PER_HOUR = 3_600_000
# the instants format_timestamp can write: 0001-01-01T00:00:00.000Z to
# 9999-12-31T23:59:59.999Z
MIN_TIMESTAMP_MS = -62_135_596_800_000
MAX_TIMESTAMP_MS = 253_402_300_799_999
_OUTSIDE_YEARS = "outside the years 0001-9999 UTC"
# an int64 column holds instants below this many ms from the epoch: their
# differences then stay below 2**53, where float64 holds them exactly
_EXACT_MS = 2**52
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
# the text format_timestamp writes, "0" for any ASCII digit, and each
# character's lowest byte and its span above it
_SHAPE = "0000-00-00T00:00:00.000Z"
_SHAPE_LOW = np.frombuffer(_SHAPE.encode("ascii"), np.uint8)
_SHAPE_SPAN = np.where(_SHAPE_LOW == ord("0"), 9, 0).astype(np.uint8)
# the data rows a table is read in at a time: only one block's texts are held
_BLOCK_ROWS = 65_536
# the rows write_columns formats at a time: their texts, a few objects a
# field, are held until the block is written, so the block is kept small
# (at 8,192 rows writing the fixture raised a process's peak RSS by ~1 MB)
_WRITE_ROWS = 2_048

_CATEGORY_ALIASES = {
    "above": CATEGORY_ABOVE,
    "above_threshold": CATEGORY_ABOVE,
    "suggestive": CATEGORY_ABOVE,
    "p>0.005": CATEGORY_ABOVE,
    ">0.005": CATEGORY_ABOVE,
    "at_or_below": CATEGORY_AT_OR_BELOW,
    "at_or_below_threshold": CATEGORY_AT_OR_BELOW,
    "significant": CATEGORY_AT_OR_BELOW,
    "p<=0.005": CATEGORY_AT_OR_BELOW,
    "<=0.005": CATEGORY_AT_OR_BELOW,
}


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp (or integer epoch milliseconds) to ms since epoch.

    Naive timestamps are taken as UTC. An instant outside the years 0001-9999
    UTC, which :func:`format_timestamp` cannot write, is refused.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty timestamp")
    if text.lstrip("-").isdigit():
        ms = int(text)
    else:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        # exact integers: microseconds since the epoch, rounded half to even
        ms, us = divmod((dt - _EPOCH) // _MICROSECOND, 1000)
        if us > 500 or us == 500 and ms % 2:
            ms += 1
    if not _writable(ms):
        raise ValueError(f"timestamp {text!r} {_OUTSIDE_YEARS}")
    return ms


def _canonical_instants(texts: list[str]) -> np.ndarray | None:
    """The ms since the epoch of every text, as int64, when each text has
    format_timestamp's shape and numpy reads each as an instant of the years
    0001-9999 UTC; else None. On such texts numpy's parse equals
    parse_timestamp's, several times faster."""
    joined = "".join(texts)
    # the joined length and the longest text together give every length
    if (not joined.isascii() or len(joined) != len(_SHAPE) * len(texts)
            or max(map(len, texts), default=0) != len(_SHAPE)):
        return None
    chars = np.frombuffer(joined.encode("ascii"), np.uint8).reshape(len(texts), len(_SHAPE))
    del joined
    # a digit lies 0-9 above "0"; any other character equals the shape's
    if np.any(chars - _SHAPE_LOW > _SHAPE_SPAN):
        return None
    try:
        # without the Z, on which numpy warns
        ms = (np.ascontiguousarray(chars[:, :-1]).view(f"S{len(_SHAPE) - 1}").ravel()
              .astype("datetime64[ms]").view(np.int64))
    except ValueError:  # a date or time out of range
        return None
    # numpy reads the year 0000, which parse_timestamp refuses
    return ms if ms.min() >= MIN_TIMESTAMP_MS else None


def _writable(ms: int) -> bool:
    """Whether ms lies in the years 0001-9999 UTC, which format_timestamp can write."""
    return MIN_TIMESTAMP_MS <= ms <= MAX_TIMESTAMP_MS


def _instant(ms: int) -> str:
    """format_timestamp's text, or the integer milliseconds it cannot write."""
    return format_timestamp(ms) if _writable(ms) else str(ms)


def format_timestamp(ms: int) -> str:
    """Render epoch milliseconds as a canonical ISO-8601 UTC string. An
    instant outside the years 0001-9999 UTC, which parse_timestamp refuses,
    is refused."""
    if not _writable(ms):
        raise ValueError(f"timestamp {ms} {_OUTSIDE_YEARS}")
    # numpy writes the year in four digits, padded before 1000, and the
    # milliseconds in three; it takes a Python int, not a numpy one
    return str(np.datetime64(int(ms), "ms")) + "Z"


@dataclass(frozen=True)
class Finding:
    finding_id: str
    project: str
    outcome: int
    p_value_category: str
    original_p_value: float | None
    market_open: int     # ms since epoch
    market_close: int    # ms since epoch
    source_row: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SurveyResponse:
    finding_id: str
    forecaster_id: str
    belief: float
    source_row: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Trade:
    finding_id: str
    trader_id: str
    timestamp: int       # ms since epoch
    side: str
    quantity: float | None
    post_trade_price: float
    seq: int = field(default=0, compare=False)
    source_row: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Violation:
    table: str
    row: int | None      # 1-based data row within the source file, None if in-memory
    column: str
    kind: str            # invalid_value | dangling_reference | duplicate_key | ...
    message: str


@dataclass
class ValidationReport:
    errors: list[Violation] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)
    counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "ok": self.ok(),
            "counts": self.counts,
            "errors": [vars(v) for v in self.errors],
            "warnings": [vars(v) for v in self.warnings],
        }


class _Columns:
    """What the two column tables share. A table holds the distinct ids of
    the findings (`finding_ids`) and one column per field of its rows: each
    field of the row's record, the index of its finding id in `finding_ids`
    (`finding`, -1 for an id the findings lack) and its place in load order
    (`load_index`). One builder a table (`_trade_columns`, `_survey_columns`)
    serves `load_dataset` and `from_fields`, which takes each field's values
    as lists for `from_records`, `for_findings` and synth, and `grouped`
    sorts the built rows by the table's ORDER, the finding first. LOAD_ORDER
    names the columns that number a loaded row in load order."""

    def __len__(self) -> int:
        return len(self.load_index)

    def __getitem__(self, rows):
        """The given rows, in the given order (a slice gives views)."""
        # every field but finding_ids is a column
        return replace(self, **{f.name: getattr(self, f.name)[rows] for f in fields(self)[1:]})

    def order(self, rows=slice(None)) -> np.ndarray:
        """The places of the given rows, all of them by default, sorted by
        ORDER: grouped by finding in the order of `finding_ids`, and the rows
        of unknown findings first."""
        return np.lexsort([getattr(self, name)[rows] for name in reversed(self.ORDER)])

    def grouped(self):
        """The rows sorted by ORDER."""
        return self[self.order()]

    @cached_property
    def bounds(self) -> list[int]:
        """Finding k's rows are bounds[k]:bounds[k + 1] in a grouped table."""
        return np.searchsorted(self.finding, np.arange(len(self.finding_ids) + 1)).tolist()

    def in_load_order(self):
        """The rows in load order."""
        return self[np.argsort(self.load_index)]

    @classmethod
    def concatenated(cls, blocks: list):
        """The rows of the blocks, one block after another, numbered 0...n-1
        in load order: a table read in blocks as one. The list is emptied, and
        each column of the blocks goes as soon as it is joined."""
        if len(blocks) == 1:
            return blocks.pop()
        finding_ids = blocks[0].finding_ids
        parts = {f.name: [getattr(b, f.name) for b in blocks] for f in fields(cls)[1:]}
        blocks.clear()
        joined = {name: np.concatenate(parts.pop(name)) for name in list(parts)}
        joined["load_index"] = np.arange(len(joined["load_index"]))
        return cls(finding_ids, **joined)

    @classmethod
    def from_records(cls, records: list, findings: list[Finding]):
        """The columns of the records, grouped for the findings."""
        return cls.from_fields([list(map(attrgetter(f.name), records))
                                 for f in fields(cls.RECORD)], findings)

    def for_findings(self, findings: list[Finding]):
        """The rows grouped for the findings: these columns when they were
        grouped for them (the findings' distinct ids, in order, and the
        timestamps' dtype), else the rows coded and grouped again, taken in
        load order. No record is built."""
        if self.finding_ids == list(first_by_id(findings)) and self._keeps_instants(findings):
            return self
        return self.from_fields(self.in_load_order().values(), findings)

    def _keeps_instants(self, findings: list[Finding]) -> bool:
        """Whether the findings leave the dtypes as they are: only a trades
        table has instants."""
        return True

    def records(self, rows=slice(None)) -> list:
        """The record of each of the given rows."""
        return list(map(self.RECORD, *self[rows].values()))


@dataclass(frozen=True, eq=False)
class TradeColumns(_Columns):
    """A trades table as columns, one entry per trade.

    A Dataset holds its trades grouped, in trade order: by market in the
    order the finding ids first occur, each market's rows sorted by
    (timestamp, seq), and the rows of unknown findings first. `records`
    gives the rows as `Trade` records.
    """
    finding_ids: list[str]    # the distinct ids of the findings
    finding_id: np.ndarray    # object: each row's finding id
    finding: np.ndarray       # int64 index of each row's finding id (see _Columns)
    trader: np.ndarray        # object: the trader ids
    timestamp: np.ndarray     # int64 ms since epoch; as given when one is past _EXACT_MS
    side: np.ndarray          # object: the side texts
    yes: np.ndarray           # bool: the side is YES
    no: np.ndarray            # bool: the side is NO (neither: not a side)
    quantity: np.ndarray      # float64; NaN where no quantity is recorded
    has_quantity: np.ndarray  # bool: a quantity (NaN too) is recorded
    price: np.ndarray         # float64 post-trade YES price
    seq: np.ndarray           # the record's load sequence; load_index for a loaded row
    load_index: np.ndarray    # int64 position of each row in load order
    source_row: np.ndarray    # the data row of each row: int64, or objects with None

    ORDER = ("finding", "timestamp", "seq")
    LOAD_ORDER = ("seq", "load_index")
    RECORD = Trade

    @classmethod
    def from_fields(cls, values: list[list], findings: list[Finding]) -> TradeColumns:
        """The columns of the values of each field of `Trade`, one list a
        field in load order, grouped for the findings in trade order."""
        fids, traders, times, sides, quantities, prices, seqs, rows = values
        return _trade_columns(list(first_by_id(findings)), fids, traders,
                              _instants(times, findings), sides, quantities, prices,
                              _int_column(seqs), _int_column(rows)).grouped()

    def _keeps_instants(self, findings: list[Finding]) -> bool:
        """Whether `_instants` gives the timestamps' dtype for these findings.
        An int64 column holds no timestamp past _EXACT_MS, so only the market
        bounds can move it, and its timestamps are not read."""
        times = self.timestamp
        return _instants([] if times.dtype == np.int64 else times.tolist(),
                         findings).dtype == times.dtype

    def values(self) -> list[list]:
        """Each row's value of each field of its `Trade`, one list a field."""
        return [self.finding_id.tolist(), self.trader.tolist(), self.timestamp.tolist(),
                self.side.tolist(), np.where(self.has_quantity, self.quantity, None).tolist(),
                self.price.tolist(), self.seq.tolist(), self.source_row.tolist()]


@dataclass(frozen=True, eq=False)
class SurveyColumns(_Columns):
    """A surveys table as columns, one entry per response.

    A Dataset holds its responses grouped: by finding in the order the
    finding ids first occur, each finding's rows in load order, and the rows
    of unknown findings first. `records` gives the rows as `SurveyResponse`
    records.
    """
    finding_ids: list[str]    # the distinct ids of the findings
    finding_id: np.ndarray    # object: each row's finding id
    finding: np.ndarray       # int64 index of each row's finding id (see _Columns)
    forecaster: np.ndarray    # object: the forecaster ids
    belief: np.ndarray        # float64
    load_index: np.ndarray    # int64 position of each row in load order
    source_row: np.ndarray    # the data row of each row: int64, or objects with None

    ORDER = ("finding", "load_index")
    LOAD_ORDER = ("load_index",)
    RECORD = SurveyResponse

    @classmethod
    def from_fields(cls, values: list[list], findings: list[Finding]) -> SurveyColumns:
        """The columns of the values of each field of `SurveyResponse`, one
        list a field in load order, grouped for the findings."""
        fids, forecasters, beliefs, rows = values
        return _survey_columns(list(first_by_id(findings)), fids, forecasters, beliefs,
                               _int_column(rows)).grouped()

    def values(self) -> list[list]:
        """Each row's value of each field of its `SurveyResponse`, one list a field."""
        return [self.finding_id.tolist(), self.forecaster.tolist(), self.belief.tolist(),
                self.source_row.tolist()]


def first_by_id(findings: list[Finding]) -> dict[str, Finding]:
    """The finding each id names, the first with it, keyed in the order the
    ids first occur: how every stage reads a list of findings."""
    by_id: dict[str, Finding] = {}
    for f in findings:
        by_id.setdefault(f.finding_id, f)
    return by_id


def _distinct(values) -> tuple[list, np.ndarray]:
    """The distinct values in the order they first occur, and the index of
    each value among them: one dict lookup a value, made in C."""
    index = defaultdict(count().__next__)
    inverse = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
    return list(index), inverse


def _shared(values, convert=None) -> np.ndarray:
    """The values, or convert(value) of each, as an object column that holds
    one object a distinct value: equal texts read from a file can go, and
    convert runs once a distinct value."""
    distinct, inverse = _distinct(values)
    return np.array(list(map(convert, distinct)) if convert else distinct, dtype=object)[inverse]


def _coded(fids, finding_ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The fids as a column of one object a distinct id, and each fid's index
    into finding_ids, -1 where finding_ids lacks it."""
    distinct, inverse = _distinct(fids)
    group = {fid: k for k, fid in enumerate(finding_ids)}
    return (np.array(distinct, dtype=object)[inverse],
            np.array([group.get(fid, -1) for fid in distinct], dtype=np.int64)[inverse])


def _survey_columns(finding_ids: list[str], fids, forecasters, beliefs,
                    source_row: np.ndarray) -> SurveyColumns:
    """Columns of the rows' values, numbered 0...n-1 in load order as given."""
    fid_column, finding = _coded(fids, finding_ids)
    return SurveyColumns(finding_ids, fid_column, finding, np.asarray(forecasters, dtype=object),
                         np.asarray(beliefs, dtype=float), np.arange(len(fid_column)), source_row)


def _trade_columns(finding_ids: list[str], fids, traders, timestamp: np.ndarray, sides,
                   quantities, prices, seq: np.ndarray, source_row: np.ndarray) -> TradeColumns:
    """Columns of the rows' values, numbered 0...n-1 in load order as given.
    A quantity is recorded unless it is None, which reads as NaN; in a
    float64 column, which numpy's reader gives and which holds no empty
    number (see _numpy_block), every quantity is recorded."""
    fid_column, finding = _coded(fids, finding_ids)
    sides = np.asarray(sides, dtype=object)
    if isinstance(quantities, np.ndarray) and quantities.dtype == np.float64:
        has_quantity = np.ones(len(quantities), dtype=bool)
    else:
        has_quantity = np.not_equal(np.array(quantities, dtype=object), None)
    return TradeColumns(
        finding_ids, fid_column, finding, np.asarray(traders, dtype=object), timestamp, sides,
        sides == "YES", sides == "NO", np.asarray(quantities, dtype=float), has_quantity,
        np.asarray(prices, dtype=float), seq, np.arange(len(timestamp)), source_row)


def _instants(times: list, findings: list[Finding]) -> np.ndarray:
    """The trade timestamps as a column: int64 only when every timestamp and
    every market bound lies within +-_EXACT_MS (the bounds are instants too:
    an instant is subtracted from them), else exact Python ints."""
    bounds = [ms for f in findings for ms in (f.market_open, f.market_close)]
    return _int_column([*bounds, *times], _EXACT_MS)[len(bounds):]


def _int_column(values: list, limit: int | None = None) -> np.ndarray:
    """The values as int64, or as given (None, say, or Python ints, exact at
    any size) when one is not an int64 or, given a limit, not below it in size."""
    column = np.array(values) if values else np.zeros(0, np.int64)
    if column.dtype != np.int64 or limit and not np.all((-limit < column) & (column < limit)):
        return np.array(values, dtype=object)
    return column


class _Records(Sequence):
    """The records of a Dataset's column table (`surveys` or `trades`), in load
    order: a read-only list of them, built from the columns on first use.
    Their number is the columns' row count: counting builds none. The
    forecast and score tables (`aggregate.PairTable`) are viewed the same way."""

    def __init__(self, columns):
        self.columns = columns

    @cached_property
    def _records(self) -> list:
        return self.columns.in_load_order().records()

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, rows):
        return self._records[rows]

    def __iter__(self):
        return iter(self._records)

    def __eq__(self, other) -> bool:
        """Whether the records are equal. Two views of one record type
        compare the columns of the record's compared fields in load order,
        building no record: the values of one field, as lists, compare item
        by item as the records' fields do."""
        if self is other:
            return True
        if not (isinstance(other, _Records) and other.columns.RECORD is self.columns.RECORD):
            return self._records == (other._records if isinstance(other, _Records) else other)
        compared = [f.compare for f in fields(self.columns.RECORD)]
        return all(mine == theirs for mine, theirs, used in zip(
            self.columns.in_load_order().values(), other.columns.in_load_order().values(),
            compared) if used)

    def __add__(self, other) -> list:
        return self._records + list(other)

    def __radd__(self, other) -> list:
        return list(other) + self._records

    def __repr__(self) -> str:
        return repr(self._records)


@dataclass(frozen=True)
class Dataset:
    """The three tables. Survey responses and trades are held as columns
    only (`survey_columns`, `trade_columns`), each grouped by finding once.
    Each table is taken one way, whether it is given as a record list (taken
    as columns through the builder the loader uses, keeping no reference to
    the list), as another dataset's `surveys` or `trades`, or as columns: the
    columns are kept when they were grouped for these findings, and are
    otherwise coded and grouped again (`for_findings`), building no record.
    `surveys` and `trades` are read-only record views that build their
    records from the columns on first use, as `surveys_for`, `trades_for` and
    the columns' `records` do. An id names the first finding with it; rows
    of unknown findings join no group. `closed` is the one closed-window
    row mask of the trades, built on first use. A changed dataset is rebuilt
    with `dataclasses.replace`: its fields cannot be set."""
    findings: list[Finding]
    surveys: list[SurveyResponse]
    trades: list[Trade]
    load_report: ValidationReport | None = field(default=None, compare=False)
    p_threshold: float = DEFAULT_P_THRESHOLD  # the cut the categories were taken at

    def __post_init__(self):
        if not 0.0 < self.p_threshold < 1.0:
            raise OutOfRange(f"p-value threshold must be in (0, 1), got {self.p_threshold}")
        # each table is taken as columns grouped for the findings, and written
        # past the frozen fields: a record view gives its columns back
        for name, table in (("surveys", SurveyColumns), ("trades", TradeColumns)):
            value = getattr(self, name)
            if isinstance(value, _Records):
                value = value.columns
            elif not isinstance(value, table):
                value = table.from_records(list(value), self.findings)
            vars(self)[name] = _Records(value.for_findings(self.findings))
        by_id = first_by_id(self.findings)
        # rows are grouped by finding id, in the order the ids first occur
        vars(self).update(_by_id=by_id, _group={fid: k for k, fid in enumerate(by_id)})

    @property
    def survey_columns(self) -> SurveyColumns:
        return self.surveys.columns

    @property
    def trade_columns(self) -> TradeColumns:
        return self.trades.columns

    def finding(self, finding_id: str) -> Finding:
        try:
            return self._by_id[finding_id]
        except KeyError:
            raise UnknownFinding(finding_id) from None

    def group(self, finding_id: str) -> int:
        """The index of the finding id in `finding_ids`: the group of its rows
        in both column tables."""
        try:
            return self._group[finding_id]
        except KeyError:
            raise UnknownFinding(finding_id) from None

    def finding_ids(self) -> list[str]:
        """The finding ids, each once, in the order they first occur: the
        order of the groups of both column tables."""
        return list(self._group)

    def markets(self) -> list[Finding]:
        """The finding each id names, in the order of `finding_ids`: the
        findings the analysis reads, one a market."""
        return list(self._by_id.values())

    @cached_property
    def market_columns(self) -> dict[str, np.ndarray]:
        """The market_open, market_close and outcome of each market, one array
        a field in the order of `finding_ids`. The instants take the dtype of
        the trade timestamps: past _EXACT_MS both hold exact Python ints."""
        instants = self.trade_columns.timestamp.dtype
        return {name: np.array([getattr(f, name) for f in self.markets()], dtype=dtype)
                for name, dtype in (("market_open", instants), ("market_close", instants),
                                    ("outcome", None))}

    @cached_property
    def closed(self) -> np.ndarray:
        """The closed-window mask of `trade_columns`: whether each row is a
        trade of a market at or before its close. A market's rows are sorted
        by time, so its closed rows are one run from its first row; no row
        of an unknown finding is closed. The final price, the error series
        and curves, late-trade smoothing and `validate` read it."""
        return at_or_before(self, self.market_columns["market_close"])

    @cached_property
    def closed_ends(self) -> np.ndarray:
        """The end row of each market's closed window in `trade_columns`, in
        the order of `finding_ids`."""
        trades = self.trade_columns
        return np.array(trades.bounds[:-1], dtype=np.int64) + np.bincount(
            trades.finding[self.closed], minlength=len(trades.bounds) - 1)


@contextmanager
def _opened(path: str | Path, what: str, **kwargs):
    """The input file `what` open for reading text: MissingInput when it does
    not exist, UnreadableInput when it cannot be opened or is not UTF-8."""
    try:
        fh = open(path, encoding="utf-8-sig", **kwargs)
    except FileNotFoundError:
        raise MissingInput(what, path) from None
    except OSError as exc:
        raise UnreadableInput(what, path, exc.strerror) from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise UnreadableInput(what, path, "not UTF-8 text") from None


def load_mapping(path: str | Path) -> dict:
    """Read a column-mapping file: {table: {canonical_field: source_column}},
    checked against the schema."""
    with _opened(path, "mapping") as fh:
        try:
            mapping = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidMapping(f"{path} is not JSON: {exc}") from None
    _check_mapping(mapping)
    return mapping


def _check_mapping(mapping: dict) -> None:
    """Refuse a mapping that is not {table: {field: column}} over the schema's
    tables and fields: a misspelt name would otherwise leave its field unmapped."""
    if not isinstance(mapping, dict) or not all(isinstance(v, dict) for v in mapping.values()):
        raise InvalidMapping("a column mapping is an object of {table: {field: column}}")
    for table, names in mapping.items():
        if table not in TABLE_FIELDS:
            raise InvalidMapping(f"mapping names unknown table {table!r}")
        for name, column in names.items():
            if not isinstance(column, str):
                raise InvalidMapping(f"mapping gives {table} field {name!r} the column "
                                     f"{column!r}, which is not a column name")
        unknown = [name for name in names if name not in TABLE_FIELDS[table]]
        if unknown:
            raise InvalidMapping(f"mapping names unknown {table} fields {unknown}; the "
                                 f"fields are {', '.join(TABLE_FIELDS[table])}")


def _category_at(p_value: float, p_threshold: float) -> str:
    """The p-value category of a numeric p-value at the given threshold."""
    return CATEGORY_AT_OR_BELOW if p_value <= p_threshold else CATEGORY_ABOVE


class _Rejected(Exception):
    """A row whose text makes no record; args are (column, kind, message)."""


def _parse_column(convert, texts: list[str] | np.ndarray, column: str, name: str | None,
                  faults: dict) -> list | np.ndarray:
    """convert(text) of every text. A text that does not parse reads as None
    and gives its row the fault (column, "invalid_value", "cannot parse <name>
    <text>" or, without a name, what the converter said), unless an earlier
    column gave it one (faults maps row number to the first fault). A float64
    column, the numbers numpy's reader parsed (see _numpy_block), is given
    back as it is."""
    if isinstance(texts, np.ndarray) and texts.dtype == np.float64:
        return texts
    try:
        return list(map(convert, texts))
    except ValueError:
        pass  # some text does not parse: take the column row by row
    values = []
    for row, text in enumerate(texts, start=1):
        try:
            values.append(convert(text))
        except ValueError as exc:
            values.append(None)
            faults.setdefault(row, (column, "invalid_value",
                                    f"cannot parse {name} {text!r}" if name else str(exc)))
    return values


def _empty_ids(finding_ids: list[str], other_ids: list[str], other_column: str) -> dict:
    """The fault of each row (by number) that lacks one of its two ids."""
    if all(finding_ids) and all(other_ids):
        return {}
    fault = (f"finding_id/{other_column}", "invalid_value", "empty identifier")
    return {row: fault for row, (fid, other) in enumerate(zip(finding_ids, other_ids), start=1)
            if not fid or not other}


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


def _category(stated: str, p_value: float | None, p_threshold: float, warn) -> str:
    """The category of an outcomes row: the stated label (an alias of one, or
    the text as read, for the finding rule to reject), derived from the
    p-value when none is stated, and moved to p_threshold when the p-value is
    on the other side of it."""
    if not stated:
        if p_value is None:
            raise _Rejected("p_value_category", "invalid_value",
                            "no p-value category and no numeric p-value to derive one")
        warn(("p_value_category", "derived_value",
              f"category derived from original_p_value={p_value}"))
        return _category_at(p_value, p_threshold)
    category = _CATEGORY_ALIASES.get(stated.lower().replace(" ", "_"), stated)
    if category not in CATEGORIES:
        return category
    if p_value is None:
        if p_threshold != DEFAULT_P_THRESHOLD:
            warn(("p_value_category", "not_recategorized",
                  f"no numeric p-value: category {category!r} stays as stated "
                  f"at threshold {DEFAULT_P_THRESHOLD}"))
        return category
    # stated labels (and their aliases) are named for the default cut
    if _category_at(p_value, DEFAULT_P_THRESHOLD) != category:
        raise _Rejected("p_value_category", "invalid_value",
                        f"category {category!r} inconsistent with p-value {p_value} "
                        f"at threshold {DEFAULT_P_THRESHOLD}")
    if _category_at(p_value, p_threshold) != category:
        category = _category_at(p_value, p_threshold)
        warn(("p_value_category", "recategorized",
              f"p-value {p_value} is {category!r} at threshold {p_threshold}"))
    return category


def _finding_from(values: list, row: int, time_fault: tuple | None, p_threshold: float,
                  warn) -> Finding:
    """The finding an outcomes row states, its market times as ms since the
    epoch (see `_load_findings`). A project, outcome or category that is not
    one of the known values is kept as read (the project upper-cased) for the
    finding rule to reject. A row is rejected on its first text fault: an
    empty id, then its category, then time_fault, the fault of a market time
    that did not parse."""
    fid, project, outcome, stated, p_text, market_open, market_close = values
    if not fid:
        raise _Rejected("finding_id", "invalid_value", "empty finding_id")
    p_value = None
    if p_text:
        try:
            p_value = float(p_text)
        except ValueError:
            warn(("original_p_value", "unparsed_value",
                  f"cannot parse {p_text!r} as a number; stored as missing"))
    category = _category(stated, p_value, p_threshold, warn)
    if time_fault:
        raise _Rejected(*time_fault)
    return Finding(fid, project.upper(), int(outcome) if outcome in ("0", "1") else outcome,
                   category, p_value, market_open, market_close, source_row=row)


# The record rules. A finding is checked as one record given the records before
# it: a clean one gets the empty tuple, so checking it allocates nothing. The
# survey and trade rules are stated over whole columns.

def _unknown_finding(finding_id: str) -> str:
    return f"unknown finding_id {finding_id!r}"


def _finding_faults(f: Finding, seen_ids, p_threshold: float) -> tuple:
    if f.finding_id in seen_ids:
        return (("finding_id", "duplicate_key", f"duplicate finding_id {f.finding_id!r}"),)
    faults = ()
    if f.project not in PROJECTS:
        faults += (("project", "invalid_value", f"unknown project {f.project!r}"),)
    if f.outcome not in (0, 1):
        faults += (("outcome", "invalid_value",
                    f"outcome must be 0 or 1, got {f.outcome!r}"),)
    p_value = f.original_p_value
    if p_value is not None and p_value < 0:
        faults += (("original_p_value", "invalid_value", f"negative p-value {p_value}"),)
    elif p_value is not None and not p_value <= 1:  # above 1, inf or nan
        faults += (("original_p_value", "invalid_value", f"p-value {p_value} outside [0, 1]"),)
    if f.p_value_category not in CATEGORIES:
        faults += (("p_value_category", "invalid_value",
                    f"unknown category {f.p_value_category!r}"),)
    elif p_value is not None and _category_at(p_value, p_threshold) != f.p_value_category:
        faults += (("p_value_category", "invalid_value",
                    f"category {f.p_value_category!r} inconsistent with p-value {p_value}"),)
    if not f.market_open < f.market_close:
        faults += (("market_open", "invalid_value", "market_open must precede market_close"),)
    for column, ms in (("market_open", f.market_open), ("market_close", f.market_close)):
        if not _writable(ms):
            faults += ((column, "invalid_value", f"{column} {ms} {_OUTSIDE_YEARS}"),)
    return faults


def _repeats(s: SurveyColumns, seen: np.ndarray) -> np.ndarray:
    """The rows whose (finding, forecaster) pair is on an earlier row that
    `seen` marks. The rows of one pair lie in load order in every table."""
    forecasters, forecaster = _distinct(s.forecaster)
    # one number a pair: an unknown finding's -1 gives numbers below 0
    pair = s.finding * len(forecasters) + forecaster
    counted = np.flatnonzero(seen)
    if not len(counted):
        return np.zeros(len(s), dtype=bool)
    pairs, first = np.unique(pair[counted], return_index=True)
    at = np.minimum(np.searchsorted(pairs, pair), len(pairs) - 1)
    return (pairs[at] == pair) & (np.arange(len(s)) > counted[first[at]])


def _survey_rule(s: SurveyColumns, counted: np.ndarray | None = None) -> list[tuple]:
    """The survey rule over whole columns, in rule order (see _trade_rule).
    A row of an unknown finding has that fault only. A duplicate repeats the
    pair of an earlier row that counts as seen: any earlier row, or, given
    `counted`, one that it marks and that is accepted."""
    known = s.finding >= 0
    in_range = (0.0 <= s.belief) & (s.belief <= 1.0)
    seen = np.ones(len(s), dtype=bool) if counted is None else counted & known & in_range
    return [
        ("finding_id", "dangling_reference", ~known,
         lambda r: _unknown_finding(r.finding_id)),
        ("forecaster_id", "duplicate_key", known & _repeats(s, seen),
         lambda r: f"duplicate response {(r.finding_id, r.forecaster_id)!r}"),
        ("belief", "invalid_value", known & ~in_range,
         lambda r: f"belief {r.belief} outside [0, 1]"),
    ]


def _trade_rule(t: TradeColumns) -> list[tuple]:
    """The trade rule over whole columns: (column, kind, mask of the rows at
    fault, message given a faulty row's record) for each of its parts, in
    rule order. A row of an unknown finding has that fault only."""
    known = t.finding >= 0
    return [
        ("finding_id", "dangling_reference", ~known,
         lambda r: _unknown_finding(r.finding_id)),
        ("side", "invalid_value", known & ~(t.yes | t.no),
         lambda r: f"side must be YES or NO, got {r.side!r}"),
        ("quantity", "invalid_value",
         known & t.has_quantity & ~((0.0 < t.quantity) & (t.quantity < np.inf)),
         lambda r: f"quantity must be {'positive' if r.quantity <= 0 else 'finite'}, "
                   f"got {r.quantity}"),
        ("post_trade_price", "invalid_value", known & ~((0.0 < t.price) & (t.price < 1.0)),
         lambda r: f"price {r.post_trade_price} outside (0, 1)"),
        ("timestamp", "invalid_value",
         known & ~((MIN_TIMESTAMP_MS <= t.timestamp) & (t.timestamp <= MAX_TIMESTAMP_MS)),
         lambda r: f"timestamp {r.timestamp} {_OUTSIDE_YEARS}"),
    ]


def _faulty_rows(faults: list[tuple]) -> np.ndarray:
    """The rows that some mask of (column, kind, mask, message) faults marks."""
    return np.flatnonzero(np.logical_or.reduce([mask for _, _, mask, _ in faults]))


# The characters besides the line ends that `str.strip` takes off a field of
# an ASCII text, and NUL, which csv refuses before Python 3.11
_UNCLEAN = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x00")
# The fields numpy's reader parses as numbers; every other field stays text
_NUMBERS = frozenset({"belief", "quantity", "post_trade_price"})
# An empty field after a comma: one scan of a block's text for it costs far
# less than the two-character `in` tests would
_EMPTY_FIELD = re.compile(",[,\r\n]")


def _read_blocks(path: str | Path, table: str, fields: tuple[str, ...],
                 mapping: dict | None) -> Iterator[list]:
    """The value of each field in each data row, one column per field, for
    each block of _BLOCK_ROWS lines of the file in turn (a header-only table
    gives one empty block).

    The file is read as csv.DictReader reads it, each field stripped: blank
    lines are skipped and get no number, a short row reads its missing fields
    as empty, and of repeated column names the last one is read. An unmapped
    optional field without its column reads as empty; any other field
    without its column raises MissingColumn.

    When the header has every field's column, a clean block (see
    `_numpy_block`) is read by numpy's reader: the _NUMBERS fields as
    float64 columns, the others as object columns of texts, with the values
    csv.reader gives. Any other block is read by csv.reader from its lines, as
    stripped texts in lists; when a quoted field runs past the block's last
    line, the block reads on to the end of that record. A field over
    csv.field_size_limit() raises UnreadableInput.
    """
    names = (mapping or {}).get(table, {})
    what = f"{table} table"
    with _opened(path, what, newline="") as fh:
        reader = csv.reader(fh)
        done = 0  # the lines read before `reader`'s first
        try:
            position = {name: i for i, name in enumerate(next(reader, []))}
            read = []  # (a field's index in `fields`, its index in a row)
            for k, fld in enumerate(fields):
                col = names.get(fld, fld)
                if col not in position and (fld in names or fld not in OPTIONAL_FIELDS):
                    raise MissingColumn(table, col)
                if col in position:
                    read.append((k, position[col]))
            width = max(i for _, i in read) + 1
            dtype = [(fields[k], "f8" if fields[k] in _NUMBERS else "O") for k, _ in read]
            usecols = [i for _, i in read]
            done = reader.line_num
            while True:
                lines = list(islice(fh, _BLOCK_ROWS))
                parsed = _numpy_block(lines, dtype, usecols) if len(read) == len(fields) else None
                if parsed is not None:
                    done += len(lines)
                    yield parsed
                else:
                    reader = csv.reader(chain(lines, fh))
                    yield _csv_block(reader, len(lines), width, read, len(fields))
                    done += reader.line_num
                if len(lines) < _BLOCK_ROWS:
                    return
        except csv.Error as exc:
            raise UnreadableInput(what, path, f"line {done + reader.line_num}: {exc}") from None


def _numpy_block(lines: list[str], dtype: list[tuple], usecols: list[int]) -> list | None:
    """The columns of a clean block of lines as numpy's reader reads them,
    one column a field of `dtype`, else None. A block is clean when its text
    is ASCII without a quote, it has a line that is not blank and none is
    longer than csv.field_size_limit(), and no character but the line ends is
    one `str.strip` takes off: then each line is one record whose fields
    need no stripping, and csv.reader reads the same texts. Nor is a block
    with an empty field after a comma (`,,`, or a comma that ends a line)
    clean: numpy's reader refuses an empty number only after parsing the
    lines before it. A clean block that numpy refuses (a short row, an empty
    first field that is a number, an odd number: `1_0`, say, which float()
    reads) gives None too."""
    text = "".join(lines)
    if (not text or text.isspace() or not text.isascii() or '"' in text
            or any(c in text for c in _UNCLEAN)
            or _EMPTY_FIELD.search(text) or text[-1] == ","
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    del text
    try:
        block = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, usecols=usecols,
                           ndmin=1)
    except ValueError:
        return None
    # each column a copy: a view would keep every text of the block alive
    return [block[name].copy() for name, _ in dtype]


def _csv_block(reader, lines: int, width: int, read: list[tuple], n_fields: int) -> list:
    """The stripped texts of the rows csv.reader reads from a block's lines
    (and on to the end of the record it is in at the last), one list a field."""
    columns = [[] for _ in range(n_fields)]
    appends = [(columns[k].append, i) for k, i in read]
    # a row's list goes as soon as its values are taken: rows kept alive by
    # the thousand would set off the garbage collector again and again
    for raw in reader:
        if raw:
            if len(raw) < width:
                raw += [""] * (width - len(raw))
            for append, i in appends:
                append(raw[i].strip())
        if reader.line_num >= lines:
            break
    rows = len(columns[read[0][0]])
    return [column or [""] * rows for column in columns]


def load_dataset(outcomes_path: str | Path, surveys_path: str | Path,
                 trades_path: str | Path, mapping: dict | None = None,
                 p_threshold: float = DEFAULT_P_THRESHOLD) -> Dataset:
    """Load the three tables, keeping the records that pass the record rules.

    The loader and :func:`validate` share one set of record rules. Only the
    loader faults a row on its text: an empty id, a number or timestamp that
    does not parse, or a stated category that disagrees with the p-value at
    0.005, the cut the labels are named for. A rejected row is left out and
    gets exactly one error in ``Dataset.load_report`` (its first text fault,
    else its first rule fault) and no warnings. A key counts as seen once a
    row with it is accepted. Trades outside their market's window are kept:
    ``outside_window`` is reported by :func:`validate` only. Survey responses
    and trades are kept as columns and build no records. Categories are taken
    at ``p_threshold``. A column that the mapping names, or a required
    field's own column, missing from its file header raises
    :class:`MissingColumn`. An optional field (``original_p_value``,
    ``side``, ``quantity``) that the mapping leaves out may lack its column
    and then reads as empty. A mapping that is not an object of
    {table: {field: column name}} over the schema's tables and fields raises
    :class:`InvalidMapping`; ``None`` is no mapping.

    Each table is read in blocks of lines (see ``_read_blocks``): numpy's
    reader takes a block of ASCII lines with no quote, no whitespace but the
    line ends, no empty field after a comma and every field's column in the
    header, and ``csv.reader`` (each field stripped, numbers read by
    ``float``) takes every other block and any block numpy refuses, with the
    same values and faults. A
    field longer than ``csv.field_size_limit()`` raises
    :class:`UnreadableInput`, which names its line.
    """
    _check_mapping({} if mapping is None else mapping)
    report = ValidationReport()
    findings = _load_findings(_read_blocks(outcomes_path, "outcomes", OUTCOME_FIELDS, mapping),
                              p_threshold, report)
    finding_ids = [f.finding_id for f in findings]
    surveys = _load_table("surveys", _read_blocks(surveys_path, "surveys", SURVEY_FIELDS, mapping),
                          _survey_block, _survey_rule, finding_ids, report)
    # a trade has no key: which rows are clean does not change the trade rule
    trades = _load_table("trades", _read_blocks(trades_path, "trades", TRADE_FIELDS, mapping),
                         _trade_block, lambda t, clean: _trade_rule(t), finding_ids, report)
    return Dataset(findings, surveys, trades, load_report=report, p_threshold=p_threshold)


def _load_findings(blocks: Iterator[list], p_threshold: float,
                   report: ValidationReport) -> list[Finding]:
    """The accepted rows of an outcomes table read in blocks, as records. A
    rejected row gets one error, its first text fault, else its first rule
    fault, and no warnings. Each block's market_open and market_close columns
    are parsed by `_parse_instants`, as the trades' timestamps are; a row's
    fault is market_open's when neither time parses."""
    findings: list[Finding] = []
    ids: set[str] = set()
    notes: list[tuple[str, str, str]] = []  # the warnings of the row being read
    row = 0
    for *texts, opens, closes in blocks:
        time_faults = {}
        times = [_parse_instants(column, time_faults, "market_open/market_close").tolist()
                 for column in (opens, closes)]
        for i, values in enumerate(zip(*texts, *times), start=1):
            row += 1
            notes.clear()
            try:
                finding = _finding_from(values, row, time_faults.get(i), p_threshold,
                                        notes.append)
                faults = _finding_faults(finding, ids, p_threshold)
            except _Rejected as rejected:
                faults = (rejected.args,)
            if faults:
                report.errors.append(Violation("outcomes", row, *faults[0]))
                continue
            report.warnings += [Violation("outcomes", row, *note) for note in notes]
            findings.append(finding)
            ids.add(finding.finding_id)
    report.counts["outcomes"] = {"lines": row, "accepted": len(findings),
                                 "rejected": row - len(findings)}
    return findings


def _accepted(table: str, columns: _Columns, clean: np.ndarray, text_faults: dict,
              rule: list[tuple], report: ValidationReport) -> np.ndarray:
    """The accepted rows of a loaded table. A rejected row gets one error: its
    first text fault, else its first fault under the rule, worded from the
    record of its row."""
    rejected = ~clean
    rejected[_faulty_rows(rule)] = True
    rows = np.flatnonzero(rejected)
    for i, faulty in zip(rows.tolist(), columns.records(rows)):
        fault = text_faults.get(i + 1) or next((column, kind, message(faulty))
                                               for column, kind, mask, message in rule if mask[i])
        report.errors.append(Violation(table, i + 1, *fault))
    kept = np.flatnonzero(~rejected)
    report.counts[table] = {"lines": len(clean), "accepted": len(kept),
                            "rejected": len(clean) - len(kept)}
    return kept


def _load_table(table: str, blocks: Iterator[list], parse, rule,
                finding_ids: list[str], report: ValidationReport) -> _Columns:
    """The accepted rows of a table read in blocks, as columns grouped in the
    table's ORDER. parse(texts, finding_ids, first) gives the columns of a
    block whose first row has load index `first`, and its text faults numbered
    from 1 in the block; the block's texts then go. rule(columns, clean) gives
    the table's rule over the whole columns, where `clean` marks the rows
    without a text fault. Each column is built once: a block's column goes
    as it is joined into the table's, and each of these goes once its
    accepted rows are gathered in the table's order."""
    parts, faults = [], {}
    lines = 0
    for texts in blocks:
        columns, block_faults = parse(texts, finding_ids, lines)
        faults.update((lines + row, fault) for row, fault in block_faults.items())
        parts.append(columns)
        lines += len(columns)
    kind = type(parts[0])
    columns = kind.concatenated(parts)
    clean = np.ones(lines, dtype=bool)
    clean[[row - 1 for row in faults]] = False
    kept = _accepted(table, columns, clean, faults, rule(columns, clean), report)
    # the accepted rows in the table's ORDER; an accepted row's place in load
    # order is its place among the accepted rows, which keeps their order
    order = columns.order(kept)
    rows = kept[order]
    values = {f.name: getattr(columns, f.name) for f in fields(kind)}
    del columns
    for name in values.keys() - {"finding_ids"}:
        values[name] = order if name in kind.LOAD_ORDER else values[name][rows]
    return kind(**values)


def _survey_block(texts: list, finding_ids: list[str], first: int) -> tuple[SurveyColumns, dict]:
    """The columns of a block of a surveys table, and its text faults. A
    belief that did not parse reads as NaN, and the row is rejected on its
    text alone."""
    fids, forecasters, beliefs = texts
    texts.clear()  # each text column goes once it is parsed
    faults = _empty_ids(fids, forecasters, "forecaster_id")
    beliefs = _parse_column(float, beliefs, "belief", "belief", faults)
    return _survey_columns(finding_ids, fids, _shared(forecasters), beliefs,
                           np.arange(first + 1, first + len(fids) + 1)), faults


def _parse_instants(texts, faults: dict, column: str = "timestamp") -> np.ndarray:
    """parse_timestamp of every text as an int64 column, 0 where a text does
    not parse and its row gets the fault `_parse_column` words under the
    column's name. The loader parses every time column it reads here, the
    trades' and the outcomes' alike. Texts of format_timestamp's shape are
    parsed by numpy at once (_canonical_instants); any other block goes row
    by row."""
    ms = _canonical_instants(texts)
    if ms is not None:
        return ms
    values = _parse_column(parse_timestamp, texts, column, None, faults)
    return np.array([0 if v is None else v for v in values] if faults else values,
                    dtype=np.int64)


def _parse_trades(columns: list) -> tuple[list, dict]:
    """The value columns of a trades table, and the first text fault of each
    row that has one (ids, then timestamp, quantity and price). A timestamp
    that does not parse reads as 0 and any other text as None; a row without
    a side buys YES."""
    fids, traders, timestamps, sides, quantities, prices = columns
    columns.clear()  # each text column goes once it is parsed
    faults = _empty_ids(fids, traders, "trader_id")
    timestamps = _parse_instants(timestamps, faults)
    quantities = _parse_column(_optional_float, quantities, "quantity", "quantity", faults)
    prices = _parse_column(float, prices, "post_trade_price", "price", faults)
    sides = _shared(sides, lambda side: side.upper() or "YES")  # once a distinct text
    return [fids, _shared(traders), timestamps, sides, quantities, prices], faults


def _trade_block(texts: list, finding_ids: list[str], first: int) -> tuple[TradeColumns, dict]:
    """The columns of a block of a trades table, and its text faults. Loaded
    instants lie in the years 0001-9999, well inside _EXACT_MS; a price that
    did not parse reads as NaN, and the row is rejected on its text alone."""
    values, faults = _parse_trades(texts)
    rows = np.arange(first, first + len(values[0]))
    return _trade_columns(finding_ids, *values, rows, rows + 1), faults


def validate(ds: Dataset) -> ValidationReport:
    """Audit an in-memory Dataset: every fault the record rules of
    :func:`load_dataset` find in each record, and every trade outside its
    market's window. Every earlier record counts as seen. A survey forecaster
    with no trades anywhere gets a warning: in the pooled studies every
    surveyed forecaster traded in some market, so one who did not signals
    schema drift.

    Pure: the same Dataset always yields an identical report. Violations are
    reported with row provenance where the records carry it; nothing is
    modified or excluded.
    """
    report = ValidationReport()
    seen: set[str] = set()
    for f in ds.findings:
        report.errors += [Violation("outcomes", f.source_row, *fault)
                          for fault in _finding_faults(f, seen, ds.p_threshold)]
        seen.add(f.finding_id)
    surveys = ds.survey_columns
    _audit(report, "surveys", surveys, _survey_rule(surveys))

    trades = ds.trade_columns
    # a trade before its market opens, or past its market's closed window
    outside = (trades.finding >= 0) & (
        (trades.timestamp < _by_trade(ds, ds.market_columns["market_open"])) | ~ds.closed)
    _audit(report, "trades", trades, _trade_rule(trades) + [(
        "timestamp", "outside_window", outside, lambda t: (
            f"trade at {_instant(t.timestamp)} outside "
            f"[{_instant(ds.finding(t.finding_id).market_open)}, "
            f"{_instant(ds.finding(t.finding_id).market_close)}]"))])

    report.counts = {
        "outcomes": {"records": len(ds.findings)},
        "surveys": {"records": len(surveys)},
        "trades": {
            "records": len(trades),
            # whether the export records both sides or is normalized to the
            # YES-price convention is an empirical property of the data
            "yes_side": int(np.count_nonzero(trades.yes)),
            "no_side": int(np.count_nonzero(trades.no)),
        },
    }
    for forecaster in sorted(set(surveys.forecaster.tolist()) - set(trades.trader.tolist())):
        report.warnings.append(Violation(
            "surveys", None, "forecaster_id", "forecaster_never_traded",
            f"forecaster {forecaster!r} has survey responses but no trades"))
    return report


def _audit(report: ValidationReport, table: str, columns: _Columns, rule: list[tuple]) -> None:
    """Report every fault the rule finds in each row, the rows in load order."""
    flagged = _faulty_rows(rule)
    flagged = flagged[np.argsort(columns.load_index[flagged], kind="stable")]
    for i, record in zip(flagged.tolist(), columns.records(flagged)):
        report.errors += [Violation(table, record.source_row, column, kind, message(record))
                          for column, kind, mask, message in rule if mask[i]]


def _by_trade(ds: Dataset, per_market: np.ndarray) -> np.ndarray:
    """Each trade's market's entry of an array with one entry a market, in the
    order of `finding_ids`; 0 for a trade of an unknown finding."""
    return np.concatenate(([0], per_market))[ds.trade_columns.finding + 1]


def at_or_before(ds: Dataset, instants: np.ndarray) -> np.ndarray:
    """Whether each row of ``ds.trade_columns`` is a trade of a market at or
    before the market's instant (one a market, in the order of
    ``ds.finding_ids()``); no row of an unknown finding is."""
    trades = ds.trade_columns
    return (trades.finding >= 0) & (trades.timestamp <= _by_trade(ds, instants))


def _finding_rows(ds: Dataset, finding_id: str, columns: _Columns) -> slice:
    k = ds.group(finding_id)
    return slice(columns.bounds[k], columns.bounds[k + 1])


def market_rows(ds: Dataset, finding_id: str) -> slice:
    """The rows of one market's trades in ``ds.trade_columns``, in trade order."""
    return _finding_rows(ds, finding_id, ds.trade_columns)


def survey_rows(ds: Dataset, finding_id: str) -> slice:
    """The rows of one finding's survey responses in ``ds.survey_columns``, in
    load order."""
    return _finding_rows(ds, finding_id, ds.survey_columns)


def closed_rows(ds: Dataset, finding: Finding) -> slice:
    """The rows of the closed window of the finding's market (that of the
    first finding with its id): the window its final price and its error
    curve are taken from (see ``Dataset.closed``)."""
    k = ds.group(finding.finding_id)
    return slice(ds.trade_columns.bounds[k], int(ds.closed_ends[k]))


def trade_counts(ds: Dataset) -> list[int]:
    """The number of trades of each market, in the order of ``ds.finding_ids()``."""
    return np.diff(ds.trade_columns.bounds).tolist()


def trades_for(ds: Dataset, finding_id: str) -> list[Trade]:
    """All trades of one market as records, sorted by (timestamp, load sequence)."""
    return ds.trade_columns.records(market_rows(ds, finding_id))


def surveys_for(ds: Dataset, finding_id: str) -> list[SurveyResponse]:
    """All survey responses for one finding as records, in load order."""
    return ds.survey_columns.records(survey_rows(ds, finding_id))


# the characters that make csv.writer quote a field (QUOTE_MINIMAL)
_QUOTED = (",", '"', "\r", "\n")


def _field(value) -> str:
    """One field's text as csv.writer writes it: a str as it is, None as
    '', anything else by str."""
    if isinstance(value, str):
        return value
    return "" if value is None else str(value)


def _texts(column) -> list[str]:
    """The column's fields as csv.writer writes them. A column of floats
    alone or of ints alone (a bool is not an int here) is written by repr,
    `float.__repr__` or `int.__repr__`, which is the type's str and quotes
    nothing; any other column field by field (`_field`), and quoted as csv
    quotes when its joined text holds a character that needs it."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    kinds = set(map(type, values))
    if kinds == {float} or kinds == {int}:
        return list(map(repr, values))
    texts = values if kinds <= {str} else list(map(_field, values))
    joined = "".join(texts)
    if any(c in joined for c in _QUOTED):
        texts = ['"' + t.replace('"', '""') + '"' if any(c in t for c in _QUOTED) else t
                 for t in texts]
    return texts


def _lines(columns: list) -> str:
    """The rows of the columns as csv.writer writes them, each line ended by
    CR LF. csv writes a row of one empty field as "" so that it is not read
    as a blank line."""
    texts = [_texts(c) for c in columns]
    if len(texts) == 1:
        texts[0] = [t or '""' for t in texts[0]]
    lines = list(map(",".join, zip(*texts)))
    lines.append("")
    return "\r\n".join(lines)


def write_columns(path: str | Path, header, columns: list) -> None:
    """Write a header row and the rows of the columns, one column a field:
    the bytes csv.writer writes for the rows (excel dialect). A column is a
    sequence or a numpy array, read through `tolist`. The columns are
    formatted a block of _WRITE_ROWS rows at a time, each column of the block
    whole: only one block's text is held."""
    n_rows = len(columns[0]) if len(columns) else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_lines([[name] for name in header]))
        for start in range(0, n_rows, _WRITE_ROWS):
            fh.write(_lines([c[start:start + _WRITE_ROWS] for c in columns]))


class _Formatted:
    """A column whose values `write_columns` writes as `fn` gives them: each
    block is formatted when it is sliced, so no more is held than the block."""

    def __init__(self, fn, column):
        self.fn, self.column = fn, column

    def __len__(self) -> int:
        return len(self.column)

    def __getitem__(self, rows: slice) -> list:
        return list(map(self.fn, self.column[rows]))


def write_csv(path: str | Path, header, rows) -> None:
    """Write a header row and the data rows, through `write_columns`."""
    write_columns(path, header, list(zip(*rows)) or [()] * len(header))


def write_dataset(ds: Dataset, outcomes_path: str | Path, surveys_path: str | Path,
                  trades_path: str | Path) -> None:
    """Write the three tables with canonical headers.

    Floats are rendered with full round-trip precision so that
    load(write(ds)) reproduces ds exactly.
    """
    *head, opens, closes = ([getattr(f, name) for f in ds.findings] for name in OUTCOME_FIELDS)
    write_columns(outcomes_path, OUTCOME_FIELDS,
                  [*head, *(_Formatted(format_timestamp, c) for c in (opens, closes))])
    # the written columns alone are taken in load order, and no record is built
    s = ds.survey_columns
    order = np.argsort(s.load_index)
    write_columns(surveys_path, SURVEY_FIELDS,
                  [s.finding_id[order], s.forecaster[order], s.belief[order]])
    t = ds.trade_columns
    order = np.argsort(t.load_index)
    write_columns(trades_path, TRADE_FIELDS,
                  [t.finding_id[order], t.trader[order],
                   _Formatted(format_timestamp, t.timestamp[order]), t.side[order],
                   np.where(t.has_quantity, t.quantity, None)[order], t.price[order]])
