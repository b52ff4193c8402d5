"""Expanding-window forecast harness, scoring metrics and score tables.

Scoring takes one path. ``run_forecast_harness`` yields
``ForecastRecord``s; ``score_rows`` scores each record once (squared
error of the predictive mean, CRPS, and the log predictive score:
Gaussian-mixture form at one step, kernel density further out).  The
score file has one schema, ``SCORE_COLUMNS``: the (name, type) of each
column after ``model``, from which its header, its writer
``scores_csv`` and its reader ``parse_scores_csv`` all follow.
``tables_from_scores`` turns a model's rows and a benchmark's rows into
RMSE and CRPS ratios, the cumulative log predictive Bayes factor, and
Diebold-Mariano style equal-accuracy stars, per variable and pooled
over them as ``TOT``; ``ratio_table_csv``, ``lpbf_csv`` and
``stars_csv`` format them, one model per table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampler import ModelSpec, with_context
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
    "SCORE_COLUMNS",
    "score_rows",
    "scores_csv",
    "parse_scores_csv",
    "tables_from_scores",
    "ratio_table_csv",
    "lpbf_csv",
    "stars_csv",
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


def _log_sum_exp(x: np.ndarray) -> float:
    """log(sum(exp(x))), shifted by the largest term; an infinite or NaN top is returned as is."""
    top = float(x.max())
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.exp(x - top).sum()))


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
        lps = _log_sum_exp(logpdf) - math.log(mu.size)
    else:
        x = np.asarray(record.draws, dtype=float)
        if x.size < 2:
            raise ValueError("need at least two predictive components")
        bw = _silverman_bandwidth(x)
        z = (y - x) / bw
        lps = _log_sum_exp(-0.5 * z**2) - math.log(x.size * bw * math.sqrt(2 * math.pi))
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
    # two-sided Gaussian tail: 2 * (1 - Phi(|z|)) = erfc(|z| / sqrt 2)
    pvalue = math.erfc(abs(float(stat)) / math.sqrt(2.0))
    stars = "***" if pvalue < 0.01 else "**" if pvalue < 0.05 else "*" if pvalue < 0.10 else ""
    return TestResult(stat=float(stat), pvalue=pvalue, stars=stars, degenerate=False)


def run_forecast_harness(
    Y: np.ndarray,
    specs: dict[str, ModelSpec],
    first_holdout: int,
    horizons: tuple[int, ...],
    nsim: int = 8,
    seed=0,
) -> dict[str, list[ForecastRecord]]:
    """Re-estimate each model on every expanding window and forecast.

    Seeds derive from one master seed per (origin, model) pair, so
    results are reproducible and each cell depends only on its own seed.
    A cell's failure names its origin, as the score files' ``origin``
    column gives it, and its model.
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
            try:
                est = estimate_var(Y[: origin + 1], spec, seed=s_est)
                fd = simulate_predictive(est, hmax, nsim, np.random.default_rng(s_sim))
            except (ArithmeticError, ValueError) as exc:
                raise with_context(exc, f"origin {origin}, model {name}") from exc
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


SCORE_COLUMNS = (
    ("origin", int),
    ("horizon", int),
    ("variable", str),
    ("point", float),
    ("realized", float),
    ("sq_error", float),
    ("crps", float),
    ("lps", float),
    ("lps_floored", int),
)
SCORE_HEADER = ",".join(["model"] + [name for name, _ in SCORE_COLUMNS])


def score_rows(records: list[ForecastRecord]) -> list[dict]:
    """One score row per record with a realized value, in (origin,
    horizon, variable) order: the rows ``parse_scores_csv`` reads back."""
    rows = []
    for r in sorted(records, key=lambda r: (r.origin, r.horizon, r.variable)):
        if r.realized is None:
            continue
        lps, floored = log_predictive_score(r)
        point, realized = r.point(), float(r.realized)
        # in the order of SCORE_COLUMNS
        values = (
            r.origin, r.horizon, r.variable, point, realized,
            (point - realized) ** 2, crps(r.draws, realized), lps, int(floored),
        )
        rows.append({name: value for (name, _), value in zip(SCORE_COLUMNS, values)})
    return rows


def scores_csv(rows: list[dict], model_name: str) -> str:
    """Per-record score dump of ``score_rows``: the exchange format between runs.

    Floats are written as ``.17g``, so they read back exactly.
    """
    lines = [SCORE_HEADER]
    for row in rows:
        cells = [model_name] + [
            format(row[name], ".17g") if kind is float else str(row[name])
            for name, kind in SCORE_COLUMNS
        ]
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
        model, *cells = ln.split(",")
        if len(cells) != len(SCORE_COLUMNS):
            raise ValueError("ragged score row")
        if name is None:
            name = model
        elif model != name:
            raise ValueError("score file mixes models")
        rows.append({col: kind(cell) for (col, kind), cell in zip(SCORE_COLUMNS, cells)})
    if name is None:
        raise ValueError("empty score file")
    return name, rows


def tables_from_scores(model_rows: list[dict], bench_rows: list[dict]) -> dict:
    """Ratio/LPBF/star tables from a model's and a benchmark's score rows.

    Each (origin, horizon, variable) key must appear exactly once on
    each side; anything else is refused. Returns a dict with "rmse" and
    "crps" ratio tables keyed (horizon, variable), "stars" equal-accuracy
    results on squared errors, and the cumulative "lpbf" series as
    (origins, values).  The variable "TOT" pools every variable's errors
    at a horizon before the ratio is taken.
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
        per_var["TOT"] = np.vstack(list(per_var.values()))
        for v, arr in per_var.items():
            rmse[(h, v)] = float(np.sqrt(arr[:, 0].mean() / arr[:, 1].mean()))
            crps_tab[(h, v)] = float(arr[:, 2].mean() / arr[:, 3].mean())
            if arr.shape[0] >= 8:
                stars[(h, v)] = equal_accuracy_test(arr[:, 0], arr[:, 1], horizon=h)
    origins = np.array(sorted(per_origin))
    series = np.cumsum([per_origin[o] for o in origins])
    return {"rmse": rmse, "crps": crps_tab, "stars": stars, "lpbf": (origins, series)}


def ratio_table_csv(name: str, table: dict[tuple[int, str], float]) -> str:
    """A model's RMSE or CRPS ratios: one column per (horizon, variable) cell."""
    cols = sorted(table)
    header = "model," + ",".join(f"h{h}_{v}" for h, v in cols)
    return f"{header}\n{name}," + ",".join(format(table[c], ".17g") for c in cols) + "\n"


def lpbf_csv(name: str, origins: np.ndarray, values: np.ndarray) -> str:
    """A model's cumulative log predictive Bayes factor, one row per origin."""
    rows = [f"origin,{name}"]
    rows += [f"{int(o)},{format(float(v), '.17g')}" for o, v in zip(origins, values)]
    return "\n".join(rows) + "\n"


def stars_csv(stars: dict[tuple[int, str], TestResult]) -> str:
    """The equal-accuracy tests, one row per (horizon, variable) cell."""
    rows = ["horizon,variable,stat,pvalue,stars,degenerate"]
    for (h, v), res in sorted(stars.items()):
        rows.append(
            f"{h},{v},{format(res.stat, '.17g')},{format(res.pvalue, '.17g')},"
            f"{res.stars},{int(res.degenerate)}"
        )
    return "\n".join(rows) + "\n"
