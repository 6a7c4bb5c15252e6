"""Builders for small in-memory datasets used across the tests."""

from __future__ import annotations

import json

from repmarket.dataset import Dataset, Finding, SurveyResponse, Trade

BASE_MS = 1_578_268_800_000  # 2020-01-06T00:00:00Z
DAY_MS = 86_400_000
HOUR_MS = 3_600_000


def make_finding(fid, project="RPP", outcome=1, category="above",
                 p_value=None, open_ms=BASE_MS, close_ms=None) -> Finding:
    if close_ms is None:
        close_ms = open_ms + 14 * DAY_MS
    return Finding(fid, project, outcome, category, p_value, open_ms, close_ms)


def make_trade(fid, trader="t1", ts=BASE_MS + HOUR_MS, side="YES",
               quantity=1.0, price=0.6, seq=0) -> Trade:
    return Trade(fid, trader, ts, side, quantity, price, seq=seq)


def make_dataset(findings, surveys=(), trades=()) -> Dataset:
    return Dataset(list(findings), list(surveys), list(trades))


def survey(fid, forecaster, belief) -> SurveyResponse:
    return SurveyResponse(fid, forecaster, belief)


def priced_market(fid, prices, outcome=1, project="RPP", open_ms=BASE_MS,
                  hours_between=1.0, first_at_hours=1.0):
    """A finding plus one trade per price, spaced on the hour axis."""
    finding = make_finding(fid, project=project, outcome=outcome, open_ms=open_ms)
    trades = []
    for k, p in enumerate(prices):
        ts = int(open_ms + (first_at_hours + k * hours_between) * HOUR_MS)
        trades.append(make_trade(fid, trader=f"t{k % 3 + 1}", ts=ts,
                                 price=p, seq=k))
    return finding, trades


def load_strict_json(path):
    """Parse a JSON file as RFC 8259 does: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}, which strict JSON has not")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)
