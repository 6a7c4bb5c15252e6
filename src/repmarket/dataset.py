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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import MissingColumn, UnknownFinding

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

# Fields a raw export is allowed to lack entirely (column may be unmapped).
# Some public exports carry prices only; side/quantity are then unavailable
# and only price-taking replay is possible.
OPTIONAL_FIELDS = frozenset({"original_p_value", "side", "quantity"})

MS_PER_HOUR = 3_600_000

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

    Naive timestamps are taken as UTC.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty timestamp")
    if text.lstrip("-").isdigit():
        return int(text)
    iso = text.replace("Z", "+00:00")
    dt = datetime.fromisoformat(iso)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(round(dt.timestamp() * 1000))


def format_timestamp(ms: int) -> str:
    """Render epoch milliseconds as a canonical ISO-8601 UTC string."""
    seconds, millis = divmod(int(ms), 1000)
    dt = datetime.fromtimestamp(seconds, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S") + f".{millis:03d}Z"


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


@dataclass
class Dataset:
    """The three tables. Trades and survey responses are grouped by finding when
    the object is built (records of unknown findings join no group), so a changed
    dataset must be rebuilt with `dataclasses.replace`, not mutated in place."""
    findings: list[Finding]
    surveys: list[SurveyResponse]
    trades: list[Trade]
    load_report: ValidationReport | None = field(default=None, compare=False)
    p_threshold: float = DEFAULT_P_THRESHOLD  # the cut the categories were taken at

    def __post_init__(self):
        self._by_id = {f.finding_id: f for f in self.findings}
        self._trades = {fid: [] for fid in self._by_id}
        self._surveys = {fid: [] for fid in self._by_id}
        for t in self.trades:
            self._trades.get(t.finding_id, []).append(t)
        for s in self.surveys:
            self._surveys.get(s.finding_id, []).append(s)
        for group in self._trades.values():
            group.sort(key=lambda t: (t.timestamp, t.seq))

    def finding(self, finding_id: str) -> Finding:
        try:
            return self._by_id[finding_id]
        except KeyError:
            raise UnknownFinding(finding_id) from None

    def finding_ids(self) -> list[str]:
        return [f.finding_id for f in self.findings]


def load_mapping(path: str | Path) -> dict:
    """Read a column-mapping file: {table: {canonical_field: source_column}}."""
    with open(path, encoding="utf-8") as fh:
        mapping = json.load(fh)
    for table in mapping:
        if table not in ("outcomes", "surveys", "trades"):
            raise ValueError(f"mapping names unknown table {table!r}")
    return mapping


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


def _require_ids(finding_id: str, other_id: str, other_column: str) -> None:
    if not finding_id or not other_id:
        raise _Rejected(f"finding_id/{other_column}", "invalid_value", "empty identifier")


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


def _survey_from(values: list[str], row: int) -> SurveyResponse:
    fid, forecaster, belief = values
    _require_ids(fid, forecaster, "forecaster_id")
    return SurveyResponse(fid, forecaster, _parse(float, belief, "belief", "belief"),
                          source_row=row)


def _trade_from(values: list[str], row: int, seq: int) -> Trade:
    """The trade a trades row states; a row without a side buys YES."""
    fid, trader, timestamp, side, quantity, price = values
    _require_ids(fid, trader, "trader_id")
    return Trade(fid, trader, _parse(parse_timestamp, timestamp, "timestamp"),
                 side.upper() or "YES",
                 _parse(float, quantity, "quantity", "quantity") if quantity else None,
                 _parse(float, price, "post_trade_price", "price"),
                 seq=seq, source_row=row)


# The record rules, one function per table: the (column, kind, message) faults
# of one record, given the records before it. A clean record gets the empty
# tuple, so checking it allocates nothing.

def _unknown_finding(finding_id: str) -> tuple:
    return (("finding_id", "dangling_reference", f"unknown finding_id {finding_id!r}"),)


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
    if f.p_value_category not in CATEGORIES:
        faults += (("p_value_category", "invalid_value",
                    f"unknown category {f.p_value_category!r}"),)
    elif p_value is not None and _category_at(p_value, p_threshold) != f.p_value_category:
        faults += (("p_value_category", "invalid_value",
                    f"category {f.p_value_category!r} inconsistent with p-value {p_value}"),)
    if not f.market_open < f.market_close:
        faults += (("market_open", "invalid_value", "market_open must precede market_close"),)
    return faults


def _survey_faults(s: SurveyResponse, finding_ids, seen_pairs) -> tuple:
    if s.finding_id not in finding_ids:
        return _unknown_finding(s.finding_id)
    faults = ()
    key = (s.finding_id, s.forecaster_id)
    if key in seen_pairs:
        faults += (("forecaster_id", "duplicate_key", f"duplicate response {key!r}"),)
    if not 0.0 <= s.belief <= 1.0:
        faults += (("belief", "invalid_value", f"belief {s.belief} outside [0, 1]"),)
    return faults


def _trade_faults(t: Trade, finding_ids) -> tuple:
    if t.finding_id not in finding_ids:
        return _unknown_finding(t.finding_id)
    faults = ()
    if t.side not in SIDES:
        faults += (("side", "invalid_value", f"side must be YES or NO, got {t.side!r}"),)
    if t.quantity is not None and not t.quantity > 0:
        faults += (("quantity", "invalid_value",
                    f"quantity must be positive, got {t.quantity}"),)
    if not 0.0 < t.post_trade_price < 1.0:
        faults += (("post_trade_price", "invalid_value",
                    f"price {t.post_trade_price} outside (0, 1)"),)
    return faults


def _read_rows(path: str | Path, table: str, fields: tuple[str, ...], mapping: dict | None):
    """Yield (row number, stripped value of each field) for each data row.

    Read as csv.DictReader reads: blank lines are skipped and get no number,
    a short row reads its missing fields as empty, and of repeated column
    names the last one is read. An optional field without a column reads as
    empty; a required one raises MissingColumn.
    """
    names = (mapping or {}).get(table, {})
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        position = {name: i for i, name in enumerate(next(reader, []))}
        columns = []
        for fld in fields:
            col = names.get(fld, fld)
            if col not in position and fld not in OPTIONAL_FIELDS:
                raise MissingColumn(table, col)
            columns.append(position.get(col))
        for row, raw in enumerate(filter(None, reader), start=1):
            yield row, [raw[i].strip() if i is not None and i < len(raw) else ""
                        for i in columns]


def load_dataset(outcomes_path: str | Path, surveys_path: str | Path,
                 trades_path: str | Path, mapping: dict | None = None,
                 p_threshold: float = DEFAULT_P_THRESHOLD) -> Dataset:
    """Load the three tables, keeping the records that pass the record rules.

    The loader and :func:`validate` share one set of record rules. Only the
    loader faults a row on its text: an empty id, a number or timestamp that
    does not parse, or a stated category that disagrees with the p-value at
    0.005, the cut the labels are named for. A rejected row is left out and
    gets exactly one error in ``Dataset.load_report`` (its first text fault,
    else its first rule fault) and no warnings. Trades outside their market's
    window are kept: ``outside_window`` is reported by :func:`validate` only.
    Categories are taken at ``p_threshold``. A mapping column missing from a
    file header raises :class:`MissingColumn` for required fields; optional
    fields (``original_p_value``, ``side``, ``quantity``) may be absent.
    """
    report = ValidationReport()
    notes: list[tuple[str, str, str]] = []  # the warnings of the row being read
    ids: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    findings: list[Finding] = []
    surveys: list[SurveyResponse] = []
    trades: list[Trade] = []
    tables = (
        ("outcomes", outcomes_path, OUTCOME_FIELDS, findings,
         lambda values, row: _finding_from(values, row, p_threshold, notes.append),
         lambda f: _finding_faults(f, ids, p_threshold), lambda f: ids.add(f.finding_id)),
        ("surveys", surveys_path, SURVEY_FIELDS, surveys, _survey_from,
         lambda s: _survey_faults(s, ids, pairs),
         lambda s: pairs.add((s.finding_id, s.forecaster_id))),
        ("trades", trades_path, TRADE_FIELDS, trades,
         lambda values, row: _trade_from(values, row, seq=len(trades)),
         lambda t: _trade_faults(t, ids), lambda t: None),
    )
    for table, path, fields, records, build, rules, keep in tables:
        row = 0
        for row, values in _read_rows(path, table, fields, mapping):
            notes.clear()
            try:
                record = build(values, row)
                faults = rules(record)
            except _Rejected as rejected:
                faults = (rejected.args,)
            if faults:
                report.errors.append(Violation(table, row, *faults[0]))
                continue
            report.warnings += [Violation(table, row, *note) for note in notes]
            records.append(record)
            keep(record)
        report.counts[table] = {"lines": row, "accepted": len(records),
                                "rejected": row - len(records)}

    ds = Dataset(findings, surveys, trades, load_report=report, p_threshold=p_threshold)
    _check_forecasters_traded(ds, report)
    return ds


def _check_forecasters_traded(ds: Dataset, report: ValidationReport) -> None:
    """Warn about survey forecasters with no trades anywhere.

    In the pooled studies every surveyed forecaster traded in at least one
    market, so a non-trading forecaster signals schema drift; tolerated as a
    warning, not an error.
    """
    traders = {t.trader_id for t in ds.trades}
    flagged = sorted({s.forecaster_id for s in ds.surveys} - traders)
    for forecaster in flagged:
        report.warnings.append(Violation(
            "surveys", None, "forecaster_id", "forecaster_never_traded",
            f"forecaster {forecaster!r} has survey responses but no trades"))


def validate(ds: Dataset) -> ValidationReport:
    """Audit an in-memory Dataset: every fault the record rules of
    :func:`load_dataset` find in each record, and every trade outside its
    market's window.

    Pure: the same Dataset always yields an identical report. Violations are
    reported with row provenance where the records carry it; nothing is
    modified or excluded.
    """
    report = ValidationReport()

    def audit(table, record, faults):
        for fault in faults:
            report.errors.append(Violation(table, record.source_row, *fault))

    by_id: dict[str, Finding] = {}
    for f in ds.findings:
        audit("outcomes", f, _finding_faults(f, by_id, ds.p_threshold))
        by_id.setdefault(f.finding_id, f)
    pairs: set[tuple[str, str]] = set()
    for s in ds.surveys:
        audit("surveys", s, _survey_faults(s, by_id, pairs))
        pairs.add((s.finding_id, s.forecaster_id))
    for t in ds.trades:
        audit("trades", t, _trade_faults(t, by_id))
        finding = by_id.get(t.finding_id)
        if finding is not None and not finding.market_open <= t.timestamp <= finding.market_close:
            report.errors.append(Violation(
                "trades", t.source_row, "timestamp", "outside_window",
                f"trade at {format_timestamp(t.timestamp)} outside "
                f"[{format_timestamp(finding.market_open)}, "
                f"{format_timestamp(finding.market_close)}]"))

    report.counts = {
        "outcomes": {"records": len(ds.findings)},
        "surveys": {"records": len(ds.surveys)},
        "trades": {
            "records": len(ds.trades),
            # whether the export records both sides or is normalized to the
            # YES-price convention is an empirical property of the data
            "yes_side": sum(1 for t in ds.trades if t.side == "YES"),
            "no_side": sum(1 for t in ds.trades if t.side == "NO"),
        },
    }
    _check_forecasters_traded(ds, report)
    return report


def trades_for(ds: Dataset, finding_id: str) -> list[Trade]:
    """All trades of one market, sorted by (timestamp, load sequence)."""
    if finding_id not in ds._trades:
        raise UnknownFinding(finding_id)
    return list(ds._trades[finding_id])


def closed_trades(ds: Dataset, finding: Finding) -> list[Trade]:
    """The trades of one market at or before its close, in trade order: the
    window its final price and its error curve are taken from."""
    return [t for t in trades_for(ds, finding.finding_id)
            if t.timestamp <= finding.market_close]


def surveys_for(ds: Dataset, finding_id: str) -> list[SurveyResponse]:
    """All survey responses for one finding, in load order."""
    if finding_id not in ds._surveys:
        raise UnknownFinding(finding_id)
    return list(ds._surveys[finding_id])


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
    write_csv(surveys_path, SURVEY_FIELDS,
              ([s.finding_id, s.forecaster_id, s.belief] for s in ds.surveys))
    write_csv(trades_path, TRADE_FIELDS,
              ([t.finding_id, t.trader_id, format_timestamp(t.timestamp),
                t.side, t.quantity, t.post_trade_price] for t in ds.trades))
