"""Output checks for the repmarket benchmark, computed apart from the program.

`Oracle` derives every expected value from the generated records with numpy
(and scipy where it is importable). It reads the program's record objects as
plain data and calls none of the program's functions. The `check_*`
functions read one command's output files and raise `CheckFailed` on the
first mismatch. No check compares against a stored copy of earlier outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

try:
    from scipy import stats as scipy_stats
except ImportError:  # p-values are then checked for shape only
    scipy_stats = None

AT_OR_BELOW = "at_or_below"
MARKET = "market_final_price"
MEAN = "survey_mean"
MEDIAN = "survey_median"
VOTING = "survey_voting"
VAR_WEIGHTED = "survey_var_weighted"
METHODS = (MARKET, MEAN, MEDIAN, VOTING, VAR_WEIGHTED)
VOTE_THRESHOLD = 0.5
PRE_MARKET_ERROR = 0.5
MS_PER_HOUR = 3_600_000
LOESS_SPAN = 0.75
LOESS_DEGREE = 2
LOESS_SAMPLES = 9

VALUE_TOL = 1e-9       # aggregates and statistics, recomputed in another order
PRICE_TOL = 1e-12      # replay against the recorded post-trade price
SIGMOID_TOL = 1e-9     # replay against sigmoid(cumsum(+-q) / b)
CURVE_TOL = 1e-12      # raw error curve, same numbers averaged in another order
LOESS_TOL = 1e-8       # local fit solved by another least-squares routine
# p-values are relative: tail values far below 1e-7 (Table 2 on `wide`) must
# match too; the program's agree with scipy's to about 1e-13
PVALUE_RTOL = 1e-8


class CheckFailed(AssertionError):
    """A command's output disagrees with the independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(actual, expected, tol: float, what: str) -> None:
    if expected is None or actual is None:
        expect(actual is None and expected is None,
               f"{what}: got {actual!r}, expected {expected!r}")
        return
    actual, expected = float(actual), float(expected)
    expect(abs(actual - expected) <= tol * max(1.0, abs(expected)),
           f"{what}: got {actual!r}, expected {expected!r}")


def close_p(actual, expected, what: str) -> None:
    """p-values to a relative tolerance, so tiny tail values are checked too."""
    actual, expected = float(actual), float(expected)
    expect(abs(actual - expected) <= PVALUE_RTOL * abs(expected) + 1e-300,
           f"{what}: got {actual!r}, expected {expected!r}")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Oracle:
    """Expected outputs of every benchmarked command for one generated dataset."""

    def __init__(self, ds, liquidity_b: float):
        findings = ds.findings
        self.liquidity_b = float(liquidity_b)
        self.fids = [f.finding_id for f in findings]
        index = {fid: i for i, fid in enumerate(self.fids)}
        n = len(findings)
        self.n_findings, self.n_trades, self.n_surveys = n, len(ds.trades), len(ds.surveys)
        self.outcome = np.array([f.outcome for f in findings], dtype=float)
        self.at_or_below = np.array([f.p_value_category == AT_OR_BELOW for f in findings])
        open_ms = np.array([f.market_open for f in findings], dtype=np.int64)
        close_ms = np.array([f.market_close for f in findings], dtype=np.int64)

        tf = np.array([index[t.finding_id] for t in ds.trades], dtype=np.int64)
        ts = np.array([t.timestamp for t in ds.trades], dtype=np.int64)
        seq = np.array([t.seq for t in ds.trades], dtype=np.int64)
        order = np.lexsort((seq, ts, tf))
        tf, ts = tf[order], ts[order]
        signed_q = np.array([t.quantity if t.side == "YES" else -t.quantity
                             for t in ds.trades])[order]
        price = np.array([t.post_trade_price for t in ds.trades])[order]
        bounds = np.searchsorted(tf, np.arange(n + 1))
        self.trade_counts = np.diff(bounds)

        # per-market series: recorded prices, simulated prices, error curves
        self.prices, self.sim_prices, self.hours, self.errors = [], [], [], []
        market_final = np.full(n, np.nan)
        for i in range(n):
            lo, hi = bounds[i], bounds[i + 1]
            p = price[lo:hi]
            self.prices.append(p)
            self.sim_prices.append(1.0 / (1.0 + np.exp(-np.cumsum(signed_q[lo:hi])
                                                        / self.liquidity_b)))
            self.hours.append((ts[lo:hi] - open_ms[i]) / MS_PER_HOUR)
            self.errors.append(np.abs(self.outcome[i] - p))
            in_window = np.flatnonzero(ts[lo:hi] <= close_ms[i])
            if len(in_window):
                market_final[i] = p[in_window[-1]]

        sf = np.array([index[s.finding_id] for s in ds.surveys], dtype=np.int64)
        forecasters = sorted({s.forecaster_id for s in ds.surveys})
        findex = {f: j for j, f in enumerate(forecasters)}
        ff = np.array([findex[s.forecaster_id] for s in ds.surveys], dtype=np.int64)
        belief = np.array([s.belief for s in ds.surveys])
        n_resp = np.bincount(sf, minlength=n).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.bincount(sf, belief, minlength=n) / n_resp
            voting = np.bincount(sf, belief >= VOTE_THRESHOLD, minlength=n) / n_resp
            per_forecaster = [belief[ff == j] for j in range(len(forecasters))]
            var = np.array([np.var(b, ddof=1) if len(b) >= 2 else 0.0
                            for b in per_forecaster])
            w = var[ff] if len(ff) else np.zeros(0)
            w_total = np.bincount(sf, w, minlength=n)
            var_weighted = np.bincount(sf, w * belief, minlength=n) / w_total
        median = np.array([np.median(belief[sf == i]) if n_resp[i] else np.nan
                           for i in range(n)])
        var_weighted[w_total <= 0] = np.nan

        # forecasts[method][i] is nan where the program must skip the pair
        self.forecasts = {MARKET: market_final, MEAN: mean, MEDIAN: median,
                          VOTING: voting, VAR_WEIGHTED: var_weighted}
        self.n_inputs = {MARKET: self.trade_counts, MEAN: n_resp, MEDIAN: n_resp,
                         VOTING: n_resp, VAR_WEIGHTED: n_resp}

        trades_grid = np.arange(0.0, math.floor(max(
            (float(len(p)) for p in self.prices), default=0.0)) + 1.0)
        durations = (close_ms - open_ms) / MS_PER_HOUR
        hours_grid = np.arange(0.0, math.ceil(durations.max() if n else 0.0) + 1.0)
        self.curves = {
            "trades": self._raw_curve([np.arange(1.0, len(p) + 1.0) for p in self.prices],
                                      trades_grid),
            "hours": self._raw_curve(self.hours, hours_grid),
        }
        self.final_error_mean = float(np.mean(
            [e[-1] if len(e) else PRE_MARKET_ERROR for e in self.errors]))
        self.statistics = self._statistics()

    def _raw_curve(self, xs, grid):
        """Latest error at or before each grid point, by searchsorted."""
        values = np.full((len(xs), len(grid)), PRE_MARKET_ERROR)
        contributing = np.zeros(len(grid), dtype=np.int64)
        for m, (x, err) in enumerate(zip(xs, self.errors)):
            k = np.searchsorted(x, grid, side="right")
            traded = k > 0
            values[m, traded] = err[k[traded] - 1]
            contributing += traded
        return grid, values.mean(axis=0), contributing

    def _statistics(self) -> dict:
        """Expected correlations, tests, quadrants and Table 2 of the report."""
        out = {"correlations": {}, "tests": {}, "quadrants": {}}
        for name, method in (("market", MARKET), ("survey", MEAN)):
            f = self.forecasts[method]
            has = ~np.isnan(f)
            out["correlations"][f"pearson_outcome_{name}"] = _pearson(
                self.outcome[has], f[has])
            out["tests"][f"overestimation_{name}"] = _paired_t(self.outcome[has], f[has])
        both = ~np.isnan(self.forecasts[MARKET]) & ~np.isnan(self.forecasts[MEAN])
        market, survey = self.forecasts[MARKET][both], self.forecasts[MEAN][both]
        outcome_both = self.outcome[both]
        out["correlations"]["pearson_market_survey"] = _pearson(market, survey)
        if scipy_stats is not None:
            out["correlations"]["spearman_market_survey"] = _spearman(market, survey)
        err_m, err_s = np.abs(outcome_both - market), np.abs(outcome_both - survey)
        out["tests"]["error_difference"] = _paired_t(err_s, err_m)
        out["tests"]["extremeness"] = _paired_t(np.abs(market - 0.5), np.abs(survey - 0.5))

        def correct(method):
            f = self.forecasts[method]
            has = ~np.isnan(f)
            predicted = f[has] >= VOTE_THRESHOLD
            return predicted, self.outcome[has] == 1
        counts = []
        for name, method in (("market", MARKET), ("survey", MEAN)):
            predicted, replicated = correct(method)
            hits = int(np.sum(predicted == replicated))
            counts.append([hits, len(predicted) - hits])
            quad = {
                "fail_but_replicated": int(np.sum(~predicted & replicated)),
                "replicate_but_failed": int(np.sum(predicted & ~replicated)),
                "predicted_fail": int(np.sum(~predicted)),
                "predicted_replicate": int(np.sum(predicted)),
            }
            table = [[quad["predicted_fail"] - quad["fail_but_replicated"],
                      quad["fail_but_replicated"]],
                     [quad["predicted_replicate"] - quad["replicate_but_failed"],
                      quad["replicate_but_failed"]]]
            out["tests"][f"asymmetry_{name}"] = _chi_square(table)
            out["quadrants"][name] = quad
        out["tests"]["accuracy_chi_square"] = _chi_square(counts)
        if out["tests"]["asymmetry_market"] is None or out["tests"]["asymmetry_survey"] is None:
            # the program runs both asymmetry tests as one step
            out["tests"]["asymmetry_market"] = out["tests"]["asymmetry_survey"] = None
            out["quadrants"] = {}

        x, y = self.at_or_below.astype(float), self.outcome
        rate_above = float(np.mean(y[~self.at_or_below]))
        rate_below = float(np.mean(y[self.at_or_below]))
        out["table2"] = {"intercept": rate_above, "slope": rate_below - rate_above,
                         "n": self.n_findings}
        if scipy_stats is not None and np.ptp(y) > 0:
            fit = scipy_stats.linregress(x, y)
            out["table2"].update(se_slope=fit.stderr, se_intercept=fit.intercept_stderr,
                                 p_slope=fit.pvalue, r_squared=fit.rvalue ** 2,
                                 p_intercept=_t_pvalue(fit.intercept / fit.intercept_stderr,
                                                       self.n_findings - 2))
        return out


def _pearson(x, y):
    if len(x) < 3 or np.ptp(x) == 0 or np.ptp(y) == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def _spearman(x, y):
    if len(x) < 3 or np.ptp(x) == 0 or np.ptp(y) == 0:
        return None
    return float(scipy_stats.spearmanr(x, y).statistic)


def _t_pvalue(t: float, df: float) -> float:
    return float(2.0 * scipy_stats.t.sf(abs(t), df))


def _paired_t(x, y):
    """Expected paired t-test dict, or None where the program reports null."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if len(d) < 2:
        return None
    if np.ptp(d) == 0:
        return (None if d[0] != 0 else
                {"statistic": 0.0, "df": float(len(d) - 1), "kind": "paired_t",
                 "p_value": 1.0})
    t = float(np.mean(d) / (np.std(d, ddof=1) / math.sqrt(len(d))))
    expected = {"statistic": t, "df": float(len(d) - 1), "kind": "paired_t"}
    if scipy_stats is not None:
        res = scipy_stats.ttest_rel(x, y)
        expected["statistic"], expected["p_value"] = float(res.statistic), float(res.pvalue)
    return expected


def _chi_square(table):
    t = np.asarray(table, dtype=float)
    if np.any(t.sum(axis=0) == 0) or np.any(t.sum(axis=1) == 0):
        return None
    expected_counts = np.outer(t.sum(axis=1), t.sum(axis=0)) / t.sum()
    stat = float(np.sum((t - expected_counts) ** 2 / expected_counts))
    expected = {"statistic": stat, "df": 1.0, "kind": "chi_square_1df"}
    if scipy_stats is not None:
        res = scipy_stats.chi2_contingency(t, correction=False)
        expected["statistic"], expected["p_value"] = float(res.statistic), float(res.pvalue)
    return expected


# ----------------------------------------------------------------------
# per-command checks
# ----------------------------------------------------------------------

def check_fixture(oracle: Oracle, ds, paths: dict, first_digest: str | None) -> str:
    """Set-up: record counts as generated, and files byte-identical across repetitions."""
    expect((len(ds.findings), len(ds.trades), len(ds.surveys))
           == (oracle.n_findings, oracle.n_trades, oracle.n_surveys),
           "regenerated dataset has other record counts")
    h = digest(paths[k] for k in ("outcomes", "surveys", "trades"))
    expect(first_digest is None or h == first_digest,
           "fixture files differ between repetitions of one seed")
    return h


def check_validate(oracle: Oracle, out: Path) -> None:
    doc = read_json(out / "validation.json")
    expect(doc["validation"]["ok"] is True and not doc["validation"]["errors"],
           "generated data failed validation")
    expect(not doc["load"]["errors"], "generated data had load errors")
    counts = doc["validation"]["counts"]
    expect((counts["outcomes"]["records"], counts["trades"]["records"],
            counts["surveys"]["records"])
           == (oracle.n_findings, oracle.n_trades, oracle.n_surveys),
           f"validation counts {counts} differ from the generated records")


def check_replay(oracle: Oracle, out: Path) -> None:
    rows = read_csv(out / "replay.csv")
    expect(len(rows) == oracle.n_trades,
           f"replay has {len(rows)} rows for {oracle.n_trades} trades")
    got = np.array([float(r["price"]) for r in rows])
    fids = [r["finding_id"] for r in rows]
    idx = [int(r["trade_index"]) for r in rows]
    start = 0
    for fid, recorded, simulated in zip(oracle.fids, oracle.prices, oracle.sim_prices):
        k = len(recorded)
        seg = slice(start, start + k)
        expect(fids[seg] == [fid] * k and idx[seg] == list(range(1, k + 1)),
               f"replay rows of {fid} are out of order")
        expect(np.max(np.abs(got[seg] - recorded), initial=0.0) <= PRICE_TOL,
               f"simulated replay of {fid} misses the recorded post-trade prices")
        expect(np.max(np.abs(got[seg] - simulated), initial=0.0) <= SIGMOID_TOL,
               f"simulated replay of {fid} differs from sigmoid(cumsum(q)/b)")
        start += k


def _check_forecast_rows(oracle: Oracle, rows: list[dict], value_key: str,
                         what: str) -> None:
    expected = [(i, m) for i in range(oracle.n_findings) for m in METHODS
                if not np.isnan(oracle.forecasts[m][i])]
    expect([(r["finding_id"], r["method"]) for r in rows]
           == [(oracle.fids[i], m) for i, m in expected],
           f"{what}: (finding, method) rows differ from the aggregatable pairs")
    for r, (i, m) in zip(rows, expected):
        value = float(r[value_key])
        close(value, oracle.forecasts[m][i], VALUE_TOL, f"{what} {r['finding_id']} {m}")
        if value_key == "value":
            expect(int(r["n_inputs"]) == oracle.n_inputs[m][i],
                   f"{what} {r['finding_id']} {m}: n_inputs {r['n_inputs']}")
        else:
            y = oracle.outcome[i]
            predicted = int(value >= VOTE_THRESHOLD)
            expect(int(r["outcome"]) == y and int(r["predicted"]) == predicted
                   and int(r["correct"]) == int(predicted == y),
                   f"{what} {r['finding_id']} {m}: outcome/predicted/correct")
            close(float(r["abs_error"]), abs(y - oracle.forecasts[m][i]), VALUE_TOL,
                  f"{what} {r['finding_id']} {m} abs_error")
            close(float(r["extremeness"]), abs(oracle.forecasts[m][i] - 0.5), VALUE_TOL,
                  f"{what} {r['finding_id']} {m} extremeness")


def _check_test(got, expected, name: str) -> None:
    if expected is None:
        expect(got is None, f"test {name}: expected null on degenerate input")
        return
    expect(got is not None, f"test {name}: null where the statistic is defined")
    expect(got["kind"] == expected["kind"] and got["df"] == expected["df"],
           f"test {name}: kind/df {got['kind']}/{got['df']}")
    close(got["statistic"], expected["statistic"], VALUE_TOL, f"test {name} statistic")
    if "p_value" in expected:
        close_p(got["p_value"], expected["p_value"], f"test {name} p-value")
    expect(0.0 <= got["p_value"] <= 1.0, f"test {name}: p-value outside [0, 1]")


def _check_statistics(oracle: Oracle, doc: dict) -> None:
    """Correlations, tests and quadrants of report.json or evaluation.json."""
    exp = oracle.statistics
    for key, value in exp["correlations"].items():
        close(doc["correlations"][key], value, VALUE_TOL, f"correlation {key}")
    for name, expected in exp["tests"].items():
        _check_test(doc["tests"][name], expected, name)
    expect(doc["quadrants"] == exp["quadrants"],
           f"quadrants {doc['quadrants']} differ from {exp['quadrants']}")


def check_evaluate(oracle: Oracle, out: Path) -> None:
    _check_forecast_rows(oracle, read_csv(out / "scores.csv"), "forecast", "scores.csv")
    _check_statistics(oracle, read_json(out / "evaluation.json"))


def _check_curve(oracle: Oracle, path: Path, label: str) -> None:
    rows = read_csv(path)
    x = np.array([float(r["x"]) for r in rows])
    raw = np.array([float(r["mean_abs_error"]) for r in rows])
    smoothed = np.array([float(r["smoothed"]) for r in rows])
    contributing = np.array([int(r["n_contributing"]) for r in rows])
    grid, mean_err, n_contrib = oracle.curves[label]
    expect(np.array_equal(x, grid), f"{label} curve grid differs from the expected grid")
    expect(np.all(np.diff(contributing) >= 0), f"{label} curve: n_contributing decreases")
    if label == "trades":
        expect(raw[0] == PRE_MARKET_ERROR and contributing[0] == 0,
               "trades curve row x=0 is not 0.5 with no contributing markets")
        close(raw[-1], oracle.final_error_mean, CURVE_TOL,
              "trades curve endpoint vs mean final absolute error")
    expect(np.max(np.abs(raw - mean_err)) <= CURVE_TOL,
           f"{label} curve differs from the searchsorted alignment")
    expect(np.array_equal(contributing, n_contrib),
           f"{label} curve n_contributing differs from the searchsorted alignment")
    n = len(x)
    k = min(max(math.ceil(LOESS_SPAN * n), LOESS_DEGREE + 2), n)
    for i in np.unique(np.linspace(0, n - 1, LOESS_SAMPLES).astype(int)):
        d = np.abs(x - x[i])
        radius = np.partition(d, k - 1)[k - 1]
        w = (1.0 - np.clip(d / radius, 0.0, 1.0) ** 3) ** 3
        coef = np.polyfit(x - x[i], raw, LOESS_DEGREE, w=np.sqrt(w))
        close(smoothed[i], coef[-1], LOESS_TOL, f"{label} LOESS at x={x[i]}")


def check_dynamics(oracle: Oracle, out: Path) -> None:
    _check_curve(oracle, out / "curve_trades.csv", "trades")
    _check_curve(oracle, out / "curve_hours.csv", "hours")
    late = read_json(out / "dynamics.json")["late_smoothing"]
    if late is not None and scipy_stats is not None:
        close_p(late["p_value"], _t_pvalue(late["statistic"], late["df"]),
                "late smoothing p-value vs its t statistic")


def check_report(oracle: Oracle, out: Path, first_digest: str | None) -> str:
    doc = read_json(out / "report.json")
    expect(doc["counts"] == {"findings": oracle.n_findings, "trades": oracle.n_trades,
                             "surveys": oracle.n_surveys},
           f"report counts {doc['counts']} differ from the generated records")
    table2, exp2 = doc["table2"], oracle.statistics["table2"]
    for key, value in exp2.items():
        if key.startswith("p_"):
            close_p(table2[key], value, f"table2 {key}")
        else:
            close(table2[key], value, VALUE_TOL, f"table2 {key}")
    _check_statistics(oracle, doc)
    pooled = [r for r in doc["table1"]["rows"] if r["project"] == "Pooled"]
    expect(len(pooled) == 1 and pooled[0]["n_findings"] == oracle.n_findings
           and pooled[0]["n_replicated"] == int(oracle.outcome.sum()),
           "table1 pooled row counts")
    dyn = doc["dynamics"]
    expect((dyn["trades_per_market_min"], dyn["trades_per_market_max"])
           == (int(oracle.trade_counts.min()), int(oracle.trade_counts.max())),
           "trades per market min/max")
    close(dyn["trades_per_market_mean"], float(oracle.trade_counts.mean()), VALUE_TOL,
          "trades per market mean")
    _check_forecast_rows(oracle, read_csv(out / "aggregates.csv"), "value",
                         "aggregates.csv")
    _check_forecast_rows(oracle, read_csv(out / "scores.csv"), "forecast", "scores.csv")
    _check_curve(oracle, out / "curve_trades.csv", "trades")
    _check_curve(oracle, out / "curve_hours.csv", "hours")
    expect(len(read_csv(out / "discrepancies.csv")) > 0, "discrepancies.csv is empty")
    h = digest([out / "report.json"])
    expect(first_digest is None or h == first_digest,
           "report.json differs between repetitions of one run")
    return h
