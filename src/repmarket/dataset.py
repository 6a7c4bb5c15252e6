"""Three-table data model for pooled replication-forecasting data.

The canonical schema is three delimited text files:

* outcomes: one row per replicated finding (id, project, binary outcome,
  p-value category, optional numeric p-value, market open/close times)
* surveys:  one elicited belief per (finding, forecaster)
* trades:   one market transaction per row, ordered within each market

Raw exports with different headers are adapted through a column mapping
(canonical field -> source column name); values are validated row by row and
rows that cannot be interpreted are excluded but fully reported.
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
    column_mapping: dict | None = None
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


def _parse_category(text: str) -> str | None:
    return _CATEGORY_ALIASES.get(text.strip().lower().replace(" ", "_"))


def _category_at(p_value: float, p_threshold: float) -> str:
    """The p-value category of a numeric p-value at the given threshold."""
    return CATEGORY_AT_OR_BELOW if p_value <= p_threshold else CATEGORY_ABOVE


def _read_rows(path: str | Path, table: str, fields: tuple[str, ...],
               mapping: dict | None, delimiter: str) -> tuple[list[dict], dict[str, bool]]:
    """Read raw rows keyed by canonical field name.

    Returns (rows, present) where present[field] is False for optional fields
    whose source column does not exist.
    """
    table_map = (mapping or {}).get(table, {})
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        header = reader.fieldnames or []
        source = {}
        present = {}
        for fld in fields:
            col = table_map.get(fld, fld)
            if col in header:
                source[fld] = col
                present[fld] = True
            elif fld in OPTIONAL_FIELDS:
                present[fld] = False
            else:
                raise MissingColumn(table, col)
        rows = []
        for i, raw in enumerate(reader, start=1):
            rows.append({
                "_row": i,
                **{fld: (raw.get(source[fld]) or "").strip() if present[fld] else ""
                   for fld in fields},
            })
    return rows, present


def load_dataset(outcomes_path: str | Path, surveys_path: str | Path,
                 trades_path: str | Path, mapping: dict | None = None,
                 delimiter: str = ",",
                 p_threshold: float = DEFAULT_P_THRESHOLD) -> Dataset:
    """Load and validate the three tables.

    Rows that cannot be interpreted (bad values, dangling references,
    duplicates) are excluded from the returned Dataset and reported in
    ``Dataset.load_report``. A mapping column missing from a file header
    raises :class:`MissingColumn` for required fields; optional fields
    (``original_p_value``, ``side``, ``quantity``) may be absent.
    """
    report = ValidationReport()

    def reject(table, row, column, kind, message):
        report.errors.append(Violation(table, row, column, kind, message))

    def warn(table, row, column, kind, message):
        report.warnings.append(Violation(table, row, column, kind, message))

    findings: list[Finding] = []
    raw, _ = _read_rows(outcomes_path, "outcomes", OUTCOME_FIELDS, mapping, delimiter)
    seen_ids: set[str] = set()
    n_lines = len(raw)
    for r in raw:
        row = r["_row"]
        fid = r["finding_id"]
        if not fid:
            reject("outcomes", row, "finding_id", "invalid_value", "empty finding_id")
            continue
        if fid in seen_ids:
            reject("outcomes", row, "finding_id", "duplicate_key",
                   f"duplicate finding_id {fid!r}")
            continue
        project = r["project"].upper()
        if project not in PROJECTS:
            reject("outcomes", row, "project", "invalid_value",
                   f"unknown project {r['project']!r}")
            continue
        if r["outcome"] not in ("0", "1"):
            reject("outcomes", row, "outcome", "invalid_value",
                   f"outcome must be 0 or 1, got {r['outcome']!r}")
            continue
        outcome = int(r["outcome"])

        p_value: float | None = None
        if r["original_p_value"]:
            try:
                p_value = float(r["original_p_value"])
            except ValueError:
                warn("outcomes", row, "original_p_value", "unparsed_value",
                     f"cannot parse {r['original_p_value']!r} as a number; stored as missing")
            else:
                if p_value < 0:
                    reject("outcomes", row, "original_p_value", "invalid_value",
                           f"negative p-value {p_value}")
                    continue

        category = _parse_category(r["p_value_category"]) if r["p_value_category"] else None
        if category is None:
            if r["p_value_category"]:
                reject("outcomes", row, "p_value_category", "invalid_value",
                       f"unknown category {r['p_value_category']!r}")
                continue
            if p_value is None:
                reject("outcomes", row, "p_value_category", "invalid_value",
                       "no p-value category and no numeric p-value to derive one")
                continue
            category = _category_at(p_value, p_threshold)
            warn("outcomes", row, "p_value_category", "derived_value",
                 f"category derived from original_p_value={p_value}")
        elif p_value is not None:
            # stated labels (and their aliases) are named for the default cut
            if _category_at(p_value, DEFAULT_P_THRESHOLD) != category:
                reject("outcomes", row, "p_value_category", "invalid_value",
                       f"category {category!r} inconsistent with p-value {p_value} "
                       f"at threshold {DEFAULT_P_THRESHOLD}")
                continue
            if _category_at(p_value, p_threshold) != category:
                category = _category_at(p_value, p_threshold)
                warn("outcomes", row, "p_value_category", "recategorized",
                     f"p-value {p_value} is {category!r} at threshold {p_threshold}")
        elif p_threshold != DEFAULT_P_THRESHOLD:
            warn("outcomes", row, "p_value_category", "not_recategorized",
                 f"no numeric p-value: category {category!r} stays as stated "
                 f"at threshold {DEFAULT_P_THRESHOLD}")

        try:
            market_open = parse_timestamp(r["market_open"])
            market_close = parse_timestamp(r["market_close"])
        except ValueError as exc:
            reject("outcomes", row, "market_open/market_close", "invalid_value", str(exc))
            continue
        if not market_open < market_close:
            reject("outcomes", row, "market_open", "invalid_value",
                   "market_open must precede market_close")
            continue

        seen_ids.add(fid)
        findings.append(Finding(fid, project, outcome, category, p_value,
                                market_open, market_close, source_row=row))
    report.counts["outcomes"] = {"lines": n_lines, "accepted": len(findings),
                                 "rejected": n_lines - len(findings)}

    surveys: list[SurveyResponse] = []
    raw, _ = _read_rows(surveys_path, "surveys", SURVEY_FIELDS, mapping, delimiter)
    n_lines = len(raw)
    seen_pairs: set[tuple[str, str]] = set()
    for r in raw:
        row = r["_row"]
        fid, forecaster = r["finding_id"], r["forecaster_id"]
        if not fid or not forecaster:
            reject("surveys", row, "finding_id/forecaster_id", "invalid_value",
                   "empty identifier")
            continue
        if fid not in seen_ids:
            reject("surveys", row, "finding_id", "dangling_reference",
                   f"unknown finding_id {fid!r}")
            continue
        if (fid, forecaster) in seen_pairs:
            reject("surveys", row, "forecaster_id", "duplicate_key",
                   f"duplicate response ({fid!r}, {forecaster!r})")
            continue
        try:
            belief = float(r["belief"])
        except ValueError:
            reject("surveys", row, "belief", "invalid_value",
                   f"cannot parse belief {r['belief']!r}")
            continue
        if not 0.0 <= belief <= 1.0:
            reject("surveys", row, "belief", "invalid_value",
                   f"belief {belief} outside [0, 1]")
            continue
        seen_pairs.add((fid, forecaster))
        surveys.append(SurveyResponse(fid, forecaster, belief, source_row=row))
    report.counts["surveys"] = {"lines": n_lines, "accepted": len(surveys),
                                "rejected": n_lines - len(surveys)}

    trades: list[Trade] = []
    raw, present = _read_rows(trades_path, "trades", TRADE_FIELDS, mapping, delimiter)
    n_lines = len(raw)
    for r in raw:
        row = r["_row"]
        fid, trader = r["finding_id"], r["trader_id"]
        if not fid or not trader:
            reject("trades", row, "finding_id/trader_id", "invalid_value",
                   "empty identifier")
            continue
        if fid not in seen_ids:
            reject("trades", row, "finding_id", "dangling_reference",
                   f"unknown finding_id {fid!r}")
            continue
        try:
            ts = parse_timestamp(r["timestamp"])
        except ValueError as exc:
            reject("trades", row, "timestamp", "invalid_value", str(exc))
            continue

        side = "YES"
        if present["side"] and r["side"]:
            side = r["side"].upper()
            if side not in SIDES:
                reject("trades", row, "side", "invalid_value",
                       f"side must be YES or NO, got {r['side']!r}")
                continue

        quantity: float | None = None
        if present["quantity"] and r["quantity"]:
            try:
                quantity = float(r["quantity"])
            except ValueError:
                reject("trades", row, "quantity", "invalid_value",
                       f"cannot parse quantity {r['quantity']!r}")
                continue
            if not quantity > 0:
                reject("trades", row, "quantity", "invalid_value",
                       f"quantity must be positive, got {quantity}")
                continue

        try:
            price = float(r["post_trade_price"])
        except ValueError:
            reject("trades", row, "post_trade_price", "invalid_value",
                   f"cannot parse price {r['post_trade_price']!r}")
            continue
        if not 0.0 < price < 1.0:
            reject("trades", row, "post_trade_price", "invalid_value",
                   f"price {price} outside (0, 1)")
            continue
        trades.append(Trade(fid, trader, ts, side, quantity, price,
                            seq=len(trades), source_row=row))
    report.counts["trades"] = {"lines": n_lines, "accepted": len(trades),
                               "rejected": n_lines - len(trades)}

    ds = Dataset(findings, surveys, trades, column_mapping=mapping, load_report=report,
                 p_threshold=p_threshold)
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
    """Audit every invariant of an in-memory Dataset.

    Pure: the same Dataset always yields an identical report. Violations are
    reported with row provenance where the records carry it; nothing is
    modified or excluded.
    """
    report = ValidationReport()
    err = report.errors.append

    by_id: dict[str, Finding] = {}
    for f in ds.findings:
        if f.finding_id in by_id:
            err(Violation("outcomes", f.source_row, "finding_id", "duplicate_key",
                          f"duplicate finding_id {f.finding_id!r}"))
            continue
        by_id[f.finding_id] = f
        if f.project not in PROJECTS:
            err(Violation("outcomes", f.source_row, "project", "invalid_value",
                          f"unknown project {f.project!r}"))
        if f.outcome not in (0, 1):
            err(Violation("outcomes", f.source_row, "outcome", "invalid_value",
                          f"outcome must be 0 or 1, got {f.outcome!r}"))
        if f.p_value_category not in CATEGORIES:
            err(Violation("outcomes", f.source_row, "p_value_category", "invalid_value",
                          f"unknown category {f.p_value_category!r}"))
        elif f.original_p_value is not None:
            if _category_at(f.original_p_value, ds.p_threshold) != f.p_value_category:
                err(Violation("outcomes", f.source_row, "p_value_category",
                              "invalid_value",
                              f"category {f.p_value_category!r} inconsistent with "
                              f"p-value {f.original_p_value}"))
        if not f.market_open < f.market_close:
            err(Violation("outcomes", f.source_row, "market_open", "invalid_value",
                          "market_open must precede market_close"))

    seen_pairs: set[tuple[str, str]] = set()
    for s in ds.surveys:
        if s.finding_id not in by_id:
            err(Violation("surveys", s.source_row, "finding_id", "dangling_reference",
                          f"unknown finding_id {s.finding_id!r}"))
            continue
        key = (s.finding_id, s.forecaster_id)
        if key in seen_pairs:
            err(Violation("surveys", s.source_row, "forecaster_id", "duplicate_key",
                          f"duplicate response {key!r}"))
        seen_pairs.add(key)
        if not 0.0 <= s.belief <= 1.0:
            err(Violation("surveys", s.source_row, "belief", "invalid_value",
                          f"belief {s.belief} outside [0, 1]"))

    for t in ds.trades:
        finding = by_id.get(t.finding_id)
        if finding is None:
            err(Violation("trades", t.source_row, "finding_id", "dangling_reference",
                          f"unknown finding_id {t.finding_id!r}"))
            continue
        if t.side not in SIDES:
            err(Violation("trades", t.source_row, "side", "invalid_value",
                          f"side must be YES or NO, got {t.side!r}"))
        if t.quantity is not None and not t.quantity > 0:
            err(Violation("trades", t.source_row, "quantity", "invalid_value",
                          f"quantity must be positive, got {t.quantity}"))
        if not 0.0 < t.post_trade_price < 1.0:
            err(Violation("trades", t.source_row, "post_trade_price", "invalid_value",
                          f"price {t.post_trade_price} outside (0, 1)"))
        if not finding.market_open <= t.timestamp <= finding.market_close:
            err(Violation("trades", t.source_row, "timestamp", "outside_window",
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
