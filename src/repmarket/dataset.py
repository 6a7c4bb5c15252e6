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
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cached_property
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import InvalidMapping, MissingColumn, MissingInput, OutOfRange, UnknownFinding

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
        ms = int(round(dt.timestamp() * 1000))
    if not _writable(ms):
        raise ValueError(f"timestamp {text!r} {_OUTSIDE_YEARS}")
    return ms


def _writable(ms: int) -> bool:
    """Whether ms lies in the years 0001-9999 UTC, which format_timestamp can write."""
    return MIN_TIMESTAMP_MS <= ms <= MAX_TIMESTAMP_MS


def _instant(ms: int) -> str:
    """format_timestamp's text, or the integer milliseconds it cannot write."""
    return format_timestamp(ms) if _writable(ms) else str(ms)


def format_timestamp(ms: int) -> str:
    """Render epoch milliseconds as a canonical ISO-8601 UTC string."""
    seconds, millis = divmod(int(ms), 1000)
    # isoformat pads a year before 1000 to four digits; strftime's %Y may not
    return datetime.fromtimestamp(seconds, tz=timezone.utc).isoformat()[:19] + f".{millis:03d}Z"


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
    serves `load_dataset` and `from_records`, and `grouped` sorts the built
    rows by the table's ORDER, the finding first."""

    def __len__(self) -> int:
        return len(self.load_index)

    def __getitem__(self, rows):
        """The given rows, in the given order (a slice gives views)."""
        # every field but finding_ids is a column
        return replace(self, **{f.name: getattr(self, f.name)[rows] for f in fields(self)[1:]})

    @classmethod
    def _fields_of(cls, records: list) -> list[list]:
        """Each field of the records, one list a field."""
        return [list(map(attrgetter(f.name), records)) for f in fields(cls.RECORD)]

    def grouped(self):
        """The rows sorted by ORDER: grouped by finding in the order of
        `finding_ids`, and the rows of unknown findings first."""
        return self[np.lexsort([getattr(self, name) for name in reversed(self.ORDER)])]

    @cached_property
    def bounds(self) -> list[int]:
        """Finding k's rows are bounds[k]:bounds[k + 1] in a grouped table."""
        return np.searchsorted(self.finding, np.arange(len(self.finding_ids) + 1)).tolist()

    def in_load_order(self):
        """The rows in load order."""
        return self[np.argsort(self.load_index)]

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
    RECORD = Trade

    @classmethod
    def from_records(cls, trades: list[Trade], findings: list[Finding]) -> TradeColumns:
        """The columns of the records, in trade order."""
        fids, traders, times, sides, quantities, prices, seqs, rows = cls._fields_of(trades)
        # the market bounds are instants too: an instant is subtracted from them
        bounds = [ms for f in findings for ms in (f.market_open, f.market_close)]
        times = _int_column([*bounds, *times], _EXACT_MS)[len(bounds):]
        return _trade_columns(_ids_of(findings), fids, traders, times, sides, quantities,
                              prices, _int_column(seqs), _int_column(rows)).grouped()

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
    RECORD = SurveyResponse

    @classmethod
    def from_records(cls, surveys: list[SurveyResponse],
                     findings: list[Finding]) -> SurveyColumns:
        """The columns of the records, grouped by finding."""
        fids, forecasters, beliefs, rows = cls._fields_of(surveys)
        return _survey_columns(_ids_of(findings), fids, forecasters, beliefs,
                               _int_column(rows)).grouped()

    def values(self) -> list[list]:
        """Each row's value of each field of its `SurveyResponse`, one list a field."""
        return [self.finding_id.tolist(), self.forecaster.tolist(), self.belief.tolist(),
                self.source_row.tolist()]


def _ids_of(findings: list[Finding]) -> list[str]:
    """The distinct finding ids, in the order they first occur."""
    return list(dict.fromkeys(f.finding_id for f in findings))


def _codes(fids: list[str], finding_ids: list[str]) -> np.ndarray:
    """Each fid's index into finding_ids, or -1 where finding_ids lacks it."""
    group = {fid: k for k, fid in enumerate(finding_ids)}
    return np.array([group.get(fid, -1) for fid in fids], dtype=np.int64)


def _survey_columns(finding_ids: list[str], fids, forecasters, beliefs,
                    source_row: np.ndarray) -> SurveyColumns:
    """Columns of the rows' values, numbered 0...n-1 in load order as given."""
    return SurveyColumns(
        finding_ids, np.array(fids, dtype=object), _codes(fids, finding_ids),
        np.array(forecasters, dtype=object), np.array(beliefs, dtype=float),
        np.arange(len(fids)), source_row)


def _trade_columns(finding_ids: list[str], fids, traders, timestamp: np.ndarray, sides,
                   quantities, prices, seq: np.ndarray, source_row: np.ndarray) -> TradeColumns:
    """Columns of the rows' values, numbered 0...n-1 in load order as given."""
    sides = np.array(sides, dtype=object)
    return TradeColumns(
        finding_ids, np.array(fids, dtype=object), _codes(fids, finding_ids),
        np.array(traders, dtype=object), timestamp, sides, sides == "YES", sides == "NO",
        np.array(quantities, dtype=float),
        np.array([q is not None for q in quantities], dtype=bool),
        np.array(prices, dtype=float), seq, np.arange(len(timestamp)), source_row)


def _int_column(values: list, limit: int | None = None) -> np.ndarray:
    """The values as int64, or as given (None, say, or Python ints, exact at
    any size) when one is not an int64 or, given a limit, not below it in size."""
    column = np.array(values) if values else np.zeros(0, np.int64)
    if column.dtype != np.int64 or limit and not np.all((-limit < column) & (column < limit)):
        return np.array(values, dtype=object)
    return column


class _Records:
    """A table field of a Dataset, `surveys` or `trades`. It is set once, to a
    record list, which it takes as columns, or to a loaded table's columns,
    and builds its records from the columns on the first read."""

    def __init__(self, table: type[_Columns], columns: str):
        self.table, self.columns = table, columns  # columns: the Dataset attribute

    def __set_name__(self, owner, name):
        self.name, self.built = name, f"_{name}_built"

    def __get__(self, ds, owner=None):
        if ds is None:
            raise AttributeError(self.name)  # the field has no default
        if self.built not in vars(ds):
            vars(ds)[self.built] = getattr(ds, self.columns).in_load_order().records()
        return vars(ds)[self.built]

    def __set__(self, ds, value):
        if self.columns in vars(ds):
            raise AttributeError(f"a Dataset's {self.name} are grouped when it is built: "
                                 "rebuild it with dataclasses.replace")
        if not isinstance(value, self.table):
            # `findings`, the field before this one, is set
            value = self.table.from_records(list(value), ds.findings)
        vars(ds)[self.columns] = value


@dataclass
class Dataset:
    """The three tables. Survey responses and trades are held as columns
    only (`survey_columns`, `trade_columns`), each grouped by finding once:
    a loaded dataset is built from them, and a dataset built from record
    lists takes the lists as columns, through the builder the loader uses,
    and keeps no reference to them. `surveys`, `trades`, `surveys_for`,
    `trades_for` and the columns' `records` build records from the columns,
    on request only. An id names the first finding with it; rows of unknown
    findings join no group. A changed dataset must be rebuilt with
    `dataclasses.replace`, not mutated in place."""
    findings: list[Finding]
    surveys: list[SurveyResponse] = _Records(SurveyColumns, "survey_columns")
    trades: list[Trade] = _Records(TradeColumns, "trade_columns")
    load_report: ValidationReport | None = field(default=None, compare=False)
    p_threshold: float = DEFAULT_P_THRESHOLD  # the cut the categories were taken at

    def __post_init__(self):
        if not 0.0 < self.p_threshold < 1.0:
            raise OutOfRange(f"p-value threshold must be in (0, 1), got {self.p_threshold}")
        # an id names the first finding with it, as in the loader; rows are
        # grouped by finding id, in the order the ids first occur
        self._by_id = {f.finding_id: f for f in reversed(self.findings)}
        self._group = {fid: k for k, fid in enumerate(_ids_of(self.findings))}

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
        return [self._by_id[fid] for fid in self._group]

    @cached_property
    def closed_ends(self) -> np.ndarray:
        """The end row of each market's closed window in `trade_columns`, in
        the order of `finding_ids`. A market's rows are sorted by time, so its
        closed window, its trades at or before its close, is a prefix of them."""
        trades = self.trade_columns
        starts = np.array(trades.bounds[:-1], dtype=np.int64)
        return starts + np.bincount(trades.finding[_closed(self)], minlength=len(starts))


def load_mapping(path: str | Path) -> dict:
    """Read a column-mapping file: {table: {canonical_field: source_column}}.
    :func:`load_dataset` checks it against the schema."""
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise MissingInput("mapping", path) from None
    with fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidMapping(f"{path} is not JSON: {exc}") from None


def _check_mapping(mapping: dict) -> None:
    """Refuse a mapping that is not {table: {field: column}} over the schema's
    tables and fields: a misspelt name would otherwise leave its field unmapped."""
    if not isinstance(mapping, dict) or not all(isinstance(v, dict) for v in mapping.values()):
        raise InvalidMapping("a column mapping is an object of {table: {field: column}}")
    for table, names in mapping.items():
        if table not in TABLE_FIELDS:
            raise InvalidMapping(f"mapping names unknown table {table!r}")
        unknown = [name for name in names if name not in TABLE_FIELDS[table]]
        if unknown:
            raise InvalidMapping(f"mapping names unknown {table} fields {unknown}; the "
                                 f"fields are {', '.join(TABLE_FIELDS[table])}")


def _category_at(p_value: float, p_threshold: float) -> str:
    """The p-value category of a numeric p-value at the given threshold."""
    return CATEGORY_AT_OR_BELOW if p_value <= p_threshold else CATEGORY_ABOVE


class _Rejected(Exception):
    """A row whose text makes no record; args are (column, kind, message)."""


def _parse(convert, text: str, column: str, name: str | None = None):
    """convert(text), or a rejection of the row that says "cannot parse <name>
    <text>" or, without a name, what the converter said."""
    try:
        return convert(text)
    except ValueError as exc:
        raise _Rejected(column, "invalid_value",
                        f"cannot parse {name} {text!r}" if name else str(exc)) from None


def _parse_column(convert, texts: list[str], column: str, name: str | None,
                  faults: dict) -> list:
    """convert(text) of every text. A text that does not parse reads as None
    and gives its row the fault `_parse` words, unless an earlier column gave
    it one (faults maps row number to the first fault)."""
    try:
        return list(map(convert, texts))
    except ValueError:
        pass  # some text does not parse: take the column row by row
    values = []
    for row, text in enumerate(texts, start=1):
        try:
            values.append(_parse(convert, text, column, name))
        except _Rejected as rejected:
            values.append(None)
            faults.setdefault(row, rejected.args)
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


def _finding_from(values: list[str], row: int, p_threshold: float, warn) -> Finding:
    """The finding an outcomes row states. A project, outcome or category that
    is not one of the known values is kept as read (the project upper-cased)
    for the finding rule to reject."""
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
    return Finding(fid, project.upper(), int(outcome) if outcome in ("0", "1") else outcome,
                   _category(stated, p_value, p_threshold, warn), p_value,
                   _parse(parse_timestamp, market_open, "market_open/market_close"),
                   _parse(parse_timestamp, market_close, "market_open/market_close"),
                   source_row=row)


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
    codes: dict[str, int] = {}
    forecaster = np.array([codes.setdefault(f, len(codes)) for f in s.forecaster.tolist()],
                          dtype=np.int64)
    # one number a pair: an unknown finding's -1 gives numbers below 0
    pair = s.finding * len(codes) + forecaster
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
         lambda r: f"quantity must be {'finite' if r.quantity > 0 else 'positive'}, "
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


def _read_columns(path: str | Path, table: str, fields: tuple[str, ...],
                  mapping: dict | None) -> list[list[str]]:
    """The stripped value of each field in each data row, one list per field.

    The file is read whole, as csv.DictReader reads it: blank lines are
    skipped and get no number, a short row reads its missing fields as empty,
    and of repeated column names the last one is read. An optional field
    without a column reads as empty; a required one raises MissingColumn.
    """
    names = (mapping or {}).get(table, {})
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise MissingInput(f"{table} table", path) from None
    with fh:
        reader = csv.reader(fh)
        position = {name: i for i, name in enumerate(next(reader, []))}
        columns = [[] for _ in fields]
        read = []  # (append to a field's column, the field's index in a row)
        for fld, column in zip(fields, columns):
            col = names.get(fld, fld)
            if col not in position and fld not in OPTIONAL_FIELDS:
                raise MissingColumn(table, col)
            if col in position:
                read.append((column.append, position[col]))
        width = max(i for _, i in read) + 1
        # a row's list goes as soon as its values are taken: rows kept alive
        # by the thousand would set off the garbage collector again and again
        for raw in filter(None, reader):
            if len(raw) < width:
                raw += [""] * (width - len(raw))
            for append, i in read:
                append(raw[i].strip())
    lines = max(map(len, columns))
    return [column or [""] * lines for column in columns]


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
    at ``p_threshold``. A mapping column missing from a file header raises
    :class:`MissingColumn` for required fields; optional fields
    (``original_p_value``, ``side``, ``quantity``) may be absent. A mapping
    that names a table or field the schema lacks raises
    :class:`InvalidMapping`.
    """
    _check_mapping(mapping or {})
    report = ValidationReport()
    findings = _load_findings(_read_columns(outcomes_path, "outcomes", OUTCOME_FIELDS, mapping),
                              p_threshold, report)
    finding_ids = [f.finding_id for f in findings]
    surveys = _load_surveys(_read_columns(surveys_path, "surveys", SURVEY_FIELDS, mapping),
                            finding_ids, report)
    trades = _load_trades(_read_columns(trades_path, "trades", TRADE_FIELDS, mapping),
                          finding_ids, report)
    ds = Dataset(findings, surveys, trades, load_report=report, p_threshold=p_threshold)
    _check_forecasters_traded(ds, report)
    return ds


def _load_findings(columns: list[list[str]], p_threshold: float,
                   report: ValidationReport) -> list[Finding]:
    """The accepted rows of an outcomes table as records. A rejected row gets
    one error, its first text fault, else its first rule fault, and no
    warnings."""
    findings: list[Finding] = []
    ids: set[str] = set()
    notes: list[tuple[str, str, str]] = []  # the warnings of the row being read
    for row, values in enumerate(zip(*columns), start=1):
        notes.clear()
        try:
            finding = _finding_from(values, row, p_threshold, notes.append)
            faults = _finding_faults(finding, ids, p_threshold)
        except _Rejected as rejected:
            faults = (rejected.args,)
        if faults:
            report.errors.append(Violation("outcomes", row, *faults[0]))
            continue
        report.warnings += [Violation("outcomes", row, *note) for note in notes]
        findings.append(finding)
        ids.add(finding.finding_id)
    lines = len(columns[0])
    report.counts["outcomes"] = {"lines": lines, "accepted": len(findings),
                                 "rejected": lines - len(findings)}
    return findings


def _clean_rows(lines: int, text_faults: dict) -> np.ndarray:
    """The mask of the rows without a text fault."""
    clean = np.ones(lines, dtype=bool)
    clean[[row - 1 for row in text_faults]] = False
    return clean


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


def _load_surveys(columns: list[list[str]], finding_ids: list[str],
                  report: ValidationReport) -> SurveyColumns:
    """The accepted rows of a surveys table as columns grouped by finding,
    each finding's rows in load order."""
    fids, forecasters, beliefs = columns
    columns.clear()  # each text column goes once it is parsed
    faults = _empty_ids(fids, forecasters, "forecaster_id")
    beliefs = _parse_column(float, beliefs, "belief", "belief", faults)
    lines = len(fids)
    # a belief that did not parse reads as NaN, and the row is rejected on its text alone
    table = _survey_columns(finding_ids, list(map(sys.intern, fids)),
                            list(map(sys.intern, forecasters)), beliefs,
                            np.arange(1, lines + 1))
    del fids, forecasters, beliefs
    clean = _clean_rows(lines, faults)
    kept = _accepted("surveys", table, clean, faults, _survey_rule(table, clean), report)
    # an accepted row's load index is its place among the accepted rows
    return replace(table[kept], load_index=np.arange(len(kept))).grouped()


def _parse_trades(columns: list[list[str]]) -> tuple[list[list], dict]:
    """The value columns of a trades table, and the first text fault of each
    row that has one (ids, then timestamp, quantity and price). A text that
    does not parse reads as None; a row without a side buys YES."""
    fids, traders, timestamps, sides, quantities, prices = columns
    columns.clear()  # each text column goes once it is parsed
    faults = _empty_ids(fids, traders, "trader_id")
    timestamps = _parse_column(parse_timestamp, timestamps, "timestamp", None, faults)
    # float alone where no quantity is empty: the same values, without a Python call a row
    quantities = _parse_column(float if all(quantities) else _optional_float, quantities,
                               "quantity", "quantity", faults)
    prices = _parse_column(float, prices, "post_trade_price", "price", faults)
    # one string per finding id, trader id and side text: the texts read can go
    return [list(map(sys.intern, fids)), list(map(sys.intern, traders)), timestamps,
            [sys.intern(s.upper() or "YES") for s in sides], quantities, prices], faults


def _load_trades(columns: list[list[str]], finding_ids: list[str],
                 report: ValidationReport) -> TradeColumns:
    """The accepted rows of a trades table as columns in trade order."""
    values, faults = _parse_trades(columns)
    fids, traders, timestamps, sides, quantities, prices = values
    rows = np.arange(len(fids))
    # loaded instants lie in the years 0001-9999, well inside _EXACT_MS; a
    # timestamp that did not parse reads as 0 and a price as NaN, and the row
    # is rejected on its text alone
    table = _trade_columns(
        finding_ids, fids, traders,
        np.array([0 if ms is None else ms for ms in timestamps] if faults else timestamps,
                 dtype=np.int64), sides, quantities, prices, rows, rows + 1)
    # the parsed values go before the accepted rows are copied
    del values, fids, traders, timestamps, sides, quantities, prices
    kept = _accepted("trades", table, _clean_rows(len(rows), faults), faults,
                     _trade_rule(table), report)
    # an accepted row's load sequence is its place among the accepted rows
    number = np.arange(len(kept))
    return replace(table[kept], seq=number, load_index=number).grouped()


def _check_forecasters_traded(ds: Dataset, report: ValidationReport) -> None:
    """Warn about survey forecasters with no trades anywhere.

    In the pooled studies every surveyed forecaster traded in at least one
    market, so a non-trading forecaster signals schema drift; tolerated as a
    warning, not an error.
    """
    traders = set(ds.trade_columns.trader.tolist())
    flagged = sorted(set(ds.survey_columns.forecaster.tolist()) - traders)
    for forecaster in flagged:
        report.warnings.append(Violation(
            "surveys", None, "forecaster_id", "forecaster_never_traded",
            f"forecaster {forecaster!r} has survey responses but no trades"))


def validate(ds: Dataset) -> ValidationReport:
    """Audit an in-memory Dataset: every fault the record rules of
    :func:`load_dataset` find in each record, and every trade outside its
    market's window. Every earlier record counts as seen.

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
    opened = _market_edge(ds, "market_open") <= trades.timestamp
    outside = (trades.finding >= 0) & ~(opened & _closed(ds))
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
    _check_forecasters_traded(ds, report)
    return report


def _audit(report: ValidationReport, table: str, columns: _Columns, rule: list[tuple]) -> None:
    """Report every fault the rule finds in each row, the rows in load order."""
    flagged = _faulty_rows(rule)
    flagged = flagged[np.argsort(columns.load_index[flagged], kind="stable")]
    for i, record in zip(flagged.tolist(), columns.records(flagged)):
        report.errors += [Violation(table, record.source_row, column, kind, message(record))
                          for column, kind, mask, message in rule if mask[i]]


def _market_edge(ds: Dataset, edge: str) -> np.ndarray:
    """The `edge` (market_open or market_close) of each trade's market, in
    the dtype of the timestamp column; 0 for a trade of an unknown finding. A
    trade's market is that of the first finding with its id."""
    trades = ds.trade_columns
    edges = [0] + [getattr(f, edge) for f in ds.markets()]
    return np.array(edges, dtype=trades.timestamp.dtype)[trades.finding + 1]


def _closed(ds: Dataset) -> np.ndarray:
    """The mask of the trades in their market's closed window: the trades of a
    known finding at or before its market's close."""
    trades = ds.trade_columns
    return (trades.finding >= 0) & (trades.timestamp <= _market_edge(ds, "market_close"))


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
    curve are taken from (see ``Dataset.closed_ends``)."""
    k = ds.group(finding.finding_id)
    return slice(ds.trade_columns.bounds[k], int(ds.closed_ends[k]))


def closed_windows(ds: Dataset, markets: slice) -> tuple[np.ndarray, np.ndarray]:
    """The start and end rows in ``ds.trade_columns`` of the closed windows of
    a run of markets, given as a slice of the indexes of ``ds.finding_ids()``."""
    return np.array(ds.trade_columns.bounds[markets], dtype=np.int64), ds.closed_ends[markets]


def trade_counts(ds: Dataset) -> list[int]:
    """The number of trades of each market, in the order of ``ds.finding_ids()``."""
    return np.diff(ds.trade_columns.bounds).tolist()


def trades_for(ds: Dataset, finding_id: str) -> list[Trade]:
    """All trades of one market as records, sorted by (timestamp, load sequence)."""
    return ds.trade_columns.records(market_rows(ds, finding_id))


def surveys_for(ds: Dataset, finding_id: str) -> list[SurveyResponse]:
    """All survey responses for one finding as records, in load order."""
    return ds.survey_columns.records(survey_rows(ds, finding_id))


def write_csv(path: str | Path, header, rows) -> None:
    """Write a header row and the data rows. csv writes None as an empty field
    and floats by repr (convert numpy scalars first: their repr names the type)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_dataset(ds: Dataset, outcomes_path: str | Path, surveys_path: str | Path,
                  trades_path: str | Path) -> None:
    """Write the three tables with canonical headers.

    Floats are rendered with full round-trip precision so that
    load(write(ds)) reproduces ds exactly.
    """
    write_csv(outcomes_path, OUTCOME_FIELDS,
              ([f.finding_id, f.project, f.outcome, f.p_value_category,
                f.original_p_value, format_timestamp(f.market_open),
                format_timestamp(f.market_close)] for f in ds.findings))
    # the rows are written from the columns in load order, and no record is built
    write_csv(surveys_path, SURVEY_FIELDS,
              zip(*ds.survey_columns.in_load_order().values()[:len(SURVEY_FIELDS)]))
    fids, traders, times, *rest = ds.trade_columns.in_load_order().values()[:len(TRADE_FIELDS)]
    write_csv(trades_path, TRADE_FIELDS,
              zip(fids, traders, map(format_timestamp, times), *rest))
