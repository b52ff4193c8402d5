"""Expanding-window forecast harness and scoring metrics.

Scoring takes one path. ``run_forecast_harness`` yields
``ForecastRecord``s; ``score_rows`` scores each record once (squared
error of the predictive mean, CRPS, and the log predictive score:
Gaussian-mixture form at one step, kernel density further out); the
rows are written by ``scores_csv`` and read back by
``parse_scores_csv``; ``tables_from_scores`` turns a model's rows and a
benchmark's rows into RMSE and CRPS ratios, the cumulative log
predictive Bayes factor, and Diebold-Mariano style equal-accuracy stars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, ndtr

from .sampler import ModelSpec
from .var import estimate_var, simulate_predictive

__all__ = [
    "LPS_FLOOR",
    "ForecastRecord",
    "TestResult",
    "expanding_windows",
    "crps",
    "log_predictive_score",
    "equal_accuracy_test",
    "run_forecast_harness",
    "rmse_table_csv",
    "lpbf_csv",
    "score_rows",
    "scores_csv",
    "parse_scores_csv",
    "tables_from_scores",
]

LPS_FLOOR = -700.0


@dataclass(frozen=True)
class ForecastRecord:
    """One predictive distribution and, when observable, its outcome.

    ``draws`` are simulated values of the target. For one-step records
    the per-draw Gaussian components (``comp_mean``, ``comp_var``) can
    be attached to allow mixture scoring without simulation noise.
    """

    origin: int
    horizon: int
    variable: str
    draws: np.ndarray
    realized: float | None = None
    comp_mean: np.ndarray | None = None
    comp_var: np.ndarray | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if np.asarray(self.draws).ndim != 1 or len(self.draws) < 1:
            raise ValueError("draws must be a non-empty vector")
        if (self.comp_mean is None) != (self.comp_var is None):
            raise ValueError("components need both means and variances")
        if self.comp_var is not None and np.any(np.asarray(self.comp_var) <= 0):
            raise ValueError("component variances must be positive")

    def point(self) -> float:
        """Predictive mean, from components when present."""
        if self.comp_mean is not None:
            return float(np.mean(self.comp_mean))
        return float(np.mean(self.draws))


def expanding_windows(
    T: int, first_holdout: int, horizons: tuple[int, ...]
) -> list[tuple[int, int, int]]:
    """Schedule of (origin, horizon, target) triples, 0-based indices.

    The origin is the last index inside the training sample; the first
    origin is ``first_holdout - 1`` and the window then grows one
    observation at a time. Pairs whose target ``origin + h`` would fall
    outside the sample are dropped; an empty schedule is an error.
    """
    if not 0 < first_holdout < T:
        raise ValueError("first_holdout must lie strictly inside the sample")
    if len(horizons) == 0 or min(horizons) < 1:
        raise ValueError("horizons must be positive")
    sched = [
        (o, h, o + h)
        for o in range(first_holdout - 1, T - 1)
        for h in sorted(horizons)
        if o + h <= T - 1
    ]
    if not sched:
        raise ValueError("no feasible forecast targets in the sample")
    return sched


def crps(draws: np.ndarray, realized: float) -> float:
    """Empirical continuous ranked probability score.

    mean|X - y| - (1/(2 n^2)) sum_ij |X_i - X_j|, with the double sum
    reduced to a single pass over the sorted draws.
    """
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    if n < 2:
        raise ValueError("need at least two draws")
    term1 = np.abs(x - realized).mean()
    weights = 2.0 * np.arange(n) - n + 1.0
    term2 = (weights * x).sum() / (n * n)
    return float(term1 - term2)


def _silverman_bandwidth(x: np.ndarray) -> float:
    n = x.size
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    spread = min(x.std(ddof=1), iqr / 1.34) if iqr > 0 else x.std(ddof=1)
    return max(0.9 * spread * n ** (-0.2), 1e-12)


def log_predictive_score(record: ForecastRecord) -> tuple[float, bool]:
    """Log density of the realized value, with an underflow flag.

    One-step records with stored Gaussian components are scored as the
    exact mixture; otherwise a Gaussian kernel density with plug-in
    bandwidth is evaluated over the simulated draws. Values below the
    floor come back as (floor, True).
    """
    if record.realized is None:
        raise ValueError("record has no realized value")
    y = float(record.realized)
    if record.horizon == 1 and record.comp_mean is not None:
        mu = np.asarray(record.comp_mean, dtype=float)
        var = np.asarray(record.comp_var, dtype=float)
        if mu.size < 2:
            raise ValueError("need at least two predictive components")
        logpdf = -0.5 * (np.log(2.0 * np.pi * var) + (y - mu) ** 2 / var)
        lps = float(logsumexp(logpdf) - np.log(mu.size))
    else:
        x = np.asarray(record.draws, dtype=float)
        if x.size < 2:
            raise ValueError("need at least two predictive components")
        bw = _silverman_bandwidth(x)
        z = (y - x) / bw
        lps = float(logsumexp(-0.5 * z**2) - np.log(x.size * bw * np.sqrt(2 * np.pi)))
    if not np.isfinite(lps) or lps < LPS_FLOOR:
        return LPS_FLOOR, True
    return lps, False


@dataclass(frozen=True)
class TestResult:
    """Equal-accuracy test output with table-ready stars."""

    stat: float
    pvalue: float
    stars: str
    degenerate: bool


def equal_accuracy_test(
    model_losses: np.ndarray, bench_losses: np.ndarray, horizon: int = 1
) -> TestResult:
    """Diebold-Mariano style test on paired loss differentials.

    The long-run variance uses a rectangular kernel with horizon - 1
    lags and a Gaussian reference. A constant differential is flagged
    and returned with p-value 1.
    """
    d = np.asarray(model_losses, dtype=float) - np.asarray(bench_losses, dtype=float)
    n = d.size
    if n < 8:
        raise ValueError("need at least eight paired losses")
    dc = d - d.mean()
    gamma0 = float(dc @ dc) / n
    if gamma0 <= 0.0:
        return TestResult(stat=0.0, pvalue=1.0, stars="", degenerate=True)
    lrv = gamma0
    for lag in range(1, horizon):
        cov = float(dc[lag:] @ dc[:-lag]) / n
        lrv += 2.0 * cov
    if lrv <= 0.0:
        lrv = gamma0
    stat = d.mean() / np.sqrt(lrv / n)
    pvalue = float(2.0 * (1.0 - ndtr(abs(stat))))
    stars = "***" if pvalue < 0.01 else "**" if pvalue < 0.05 else "*" if pvalue < 0.10 else ""
    return TestResult(stat=float(stat), pvalue=pvalue, stars=stars, degenerate=False)


def run_forecast_harness(
    Y: np.ndarray,
    p: int,
    specs: dict[str, ModelSpec],
    first_holdout: int,
    horizons: tuple[int, ...],
    nsim: int = 8,
    seed=0,
) -> dict[str, list[ForecastRecord]]:
    """Re-estimate each model on every expanding window and forecast.

    Seeds derive from one master seed per (origin, model) pair, so
    results are reproducible and each cell depends only on its own seed.
    """
    Y = np.asarray(Y, dtype=float)
    T = Y.shape[0]
    sched = expanding_windows(T, first_holdout, horizons)
    origins = sorted({o for o, _, _ in sched})
    by_origin = {
        o: sorted({h for oo, h, _ in sched if oo == o}) for o in origins
    }
    origin_seeds = np.random.SeedSequence(seed).spawn(len(origins))
    out: dict[str, list[ForecastRecord]] = {name: [] for name in specs}
    for oi, origin in enumerate(origins):
        model_seeds = origin_seeds[oi].spawn(len(specs))
        hmax = max(by_origin[origin])
        for mi, (name, spec) in enumerate(specs.items()):
            s_est, s_sim = model_seeds[mi].spawn(2)
            est = estimate_var(Y[: origin + 1], p, spec, seed=s_est)
            fd = simulate_predictive(
                est, hmax, nsim, np.random.default_rng(s_sim)
            )
            for h in by_origin[origin]:
                for j, vname in enumerate(est.names):
                    out[name].append(
                        ForecastRecord(
                            origin=origin,
                            horizon=h,
                            variable=vname,
                            draws=fd.draws[:, h - 1, j].copy(),
                            realized=float(Y[origin + h, j]),
                            comp_mean=fd.h1_mean[:, j].copy() if h == 1 else None,
                            comp_var=fd.h1_var[:, j].copy() if h == 1 else None,
                        )
                    )
    return out


def rmse_table_csv(ratios: dict[str, dict[tuple[int, str], float]]) -> str:
    """One row per model, one column per (horizon, variable) cell."""
    cols = sorted({k for table in ratios.values() for k in table})
    header = "model," + ",".join(f"h{h}_{v}" for h, v in cols)
    rows = [header]
    for name in ratios:
        cells = [
            format(ratios[name][c], ".17g") if c in ratios[name] else ""
            for c in cols
        ]
        rows.append(name + "," + ",".join(cells))
    return "\n".join(rows) + "\n"


def lpbf_csv(series: dict[str, tuple[np.ndarray, np.ndarray]]) -> str:
    """Cumulative score series, one column per model, aligned on origins."""
    all_origins = sorted(
        {int(o) for origins, _ in series.values() for o in origins}
    )
    header = "origin," + ",".join(series)
    rows = [header]
    for o in all_origins:
        cells = []
        for origins, values in series.values():
            idx = np.where(origins == o)[0]
            cells.append(format(float(values[idx[0]]), ".17g") if idx.size else "")
        rows.append(f"{o}," + ",".join(cells))
    return "\n".join(rows) + "\n"


SCORE_HEADER = "model,origin,horizon,variable,point,realized,sq_error,crps,lps,lps_floored"


def score_rows(records: list[ForecastRecord]) -> list[dict]:
    """One score row per record with a realized value, in (origin,
    horizon, variable) order: the rows ``parse_scores_csv`` reads back."""
    rows = []
    for r in sorted(records, key=lambda r: (r.origin, r.horizon, r.variable)):
        if r.realized is None:
            continue
        lps, floored = log_predictive_score(r)
        point, realized = r.point(), float(r.realized)
        rows.append(
            {
                "origin": r.origin,
                "horizon": r.horizon,
                "variable": r.variable,
                "point": point,
                "realized": realized,
                "sq_error": (point - realized) ** 2,
                "crps": crps(r.draws, realized),
                "lps": lps,
                "lps_floored": int(floored),
            }
        )
    return rows


def scores_csv(rows: list[dict], model_name: str) -> str:
    """Per-record score dump of ``score_rows``: the exchange format between runs."""
    lines = [SCORE_HEADER]
    for row in rows:
        cells = [model_name, str(row["origin"]), str(row["horizon"]), row["variable"]]
        cells += [
            format(row[k], ".17g") for k in ("point", "realized", "sq_error", "crps", "lps")
        ]
        cells.append(str(row["lps_floored"]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_scores_csv(text: str) -> tuple[str, list[dict]]:
    """Read a score dump back; returns (model name, row dicts)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != SCORE_HEADER:
        raise ValueError("not a score file")
    name = None
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 10:
            raise ValueError("ragged score row")
        if name is None:
            name = cells[0]
        elif cells[0] != name:
            raise ValueError("score file mixes models")
        rows.append(
            {
                "origin": int(cells[1]),
                "horizon": int(cells[2]),
                "variable": cells[3],
                "point": float(cells[4]),
                "realized": float(cells[5]),
                "sq_error": float(cells[6]),
                "crps": float(cells[7]),
                "lps": float(cells[8]),
                "lps_floored": int(cells[9]),
            }
        )
    if name is None:
        raise ValueError("empty score file")
    return name, rows


def tables_from_scores(
    model_rows: list[dict], bench_rows: list[dict], pooled: bool = True
) -> dict:
    """Ratio/LPBF/star tables from a model's and a benchmark's score rows.

    Each (origin, horizon, variable) key must appear exactly once on
    each side; anything else is refused. Returns a dict with "rmse" and
    "crps" ratio tables keyed (horizon, variable), "stars" equal-accuracy
    results on squared errors, and the cumulative "lpbf" series as
    (origins, values).
    """
    def key(row):
        return (row["origin"], row["horizon"], row["variable"])

    mmap = {key(r): r for r in model_rows}
    bmap = {key(r): r for r in bench_rows}
    if set(mmap) != set(bmap) or len(mmap) != len(model_rows) or len(bmap) != len(bench_rows):
        raise ValueError("score files do not match one-to-one")

    cells: dict[tuple[int, str], list[tuple]] = {}
    per_origin: dict[int, float] = {}
    for k in sorted(mmap):
        rm, rb = mmap[k], bmap[k]
        cells.setdefault((rm["horizon"], rm["variable"]), []).append(
            (rm["sq_error"], rb["sq_error"], rm["crps"], rb["crps"])
        )
        per_origin[rm["origin"]] = per_origin.get(rm["origin"], 0.0) + (
            rm["lps"] - rb["lps"]
        )

    rmse: dict[tuple[int, str], float] = {}
    crps_tab: dict[tuple[int, str], float] = {}
    stars: dict[tuple[int, str], TestResult] = {}
    for h in sorted({h for h, _ in cells}):
        per_var = {v: np.asarray(cells[(hh, v)]) for hh, v in cells if hh == h}
        for v, arr in sorted(per_var.items()):
            rmse[(h, v)] = float(np.sqrt(arr[:, 0].mean() / arr[:, 1].mean()))
            crps_tab[(h, v)] = float(arr[:, 2].mean() / arr[:, 3].mean())
            if arr.shape[0] >= 8:
                stars[(h, v)] = equal_accuracy_test(arr[:, 0], arr[:, 1], horizon=h)
        stacked = np.vstack(list(per_var.values()))
        if pooled:
            rmse[(h, "TOT")] = float(np.sqrt(stacked[:, 0].mean() / stacked[:, 1].mean()))
            crps_tab[(h, "TOT")] = float(stacked[:, 2].mean() / stacked[:, 3].mean())
        else:
            rmse[(h, "TOT")] = float(
                np.mean([np.sqrt(a[:, 0].mean()) for a in per_var.values()])
                / np.mean([np.sqrt(a[:, 1].mean()) for a in per_var.values()])
            )
            crps_tab[(h, "TOT")] = float(
                np.mean([a[:, 2].mean() for a in per_var.values()])
                / np.mean([a[:, 3].mean() for a in per_var.values()])
            )
        if stacked.shape[0] >= 8:
            stars[(h, "TOT")] = equal_accuracy_test(
                stacked[:, 0], stacked[:, 1], horizon=h
            )
    origins = np.array(sorted(per_origin))
    series = np.cumsum([per_origin[o] for o in origins])
    return {"rmse": rmse, "crps": crps_tab, "stars": stars, "lpbf": (origins, series)}
