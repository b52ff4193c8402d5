"""Data ingestion, transformations, factors and run configuration.

CSV panels are comma separated with a header row of names and ISO dates
in the first column, so files load identically on any platform. Run
settings come from a flat key=value text file; unknown keys are errors
rather than silent typos.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sampler import CONST_CLASSES, ModelSpec, with_context

__all__ = [
    "TimeSeriesPanel",
    "RunConfig",
    "transform_series",
    "standardize",
    "principal_components",
    "load_panel_csv",
    "parse_config",
    "run_config",
]

TCODES = (1, 5, 7)
_TRIM = {1: 0, 5: 1, 7: 2}


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Aligned multivariate sample with per-column transformation codes."""

    dates: tuple[str, ...]
    names: tuple[str, ...]
    values: np.ndarray
    tcodes: tuple[int, ...]

    def __post_init__(self):
        T = len(self.dates)
        m = len(self.names)
        if self.values.shape != (T, m) or len(self.tcodes) != m:
            raise ValueError("panel fields disagree on dimensions")
        if any(c not in TCODES for c in self.tcodes):
            raise ValueError(f"transformation codes must be one of {TCODES}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("panel values must be finite")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")

    def transformed(self) -> "TimeSeriesPanel":
        """Apply each column's code and trim all columns to equal length."""
        drop = max(_TRIM[c] for c in self.tcodes)
        cols = []
        for j, code in enumerate(self.tcodes):
            z = transform_series(self.values[:, j], code)
            cols.append(z[len(z) - (len(self.dates) - drop) :])
        return TimeSeriesPanel(
            dates=self.dates[drop:],
            names=self.names,
            values=np.column_stack(cols),
            tcodes=(1,) * len(self.names),
        )


def transform_series(x: np.ndarray, tcode: int) -> np.ndarray:
    """Stationarity transformation: level, log growth, or change thereof.

    Code 1 returns the series, code 5 the log first difference (one
    observation shorter), code 7 the first difference of the percentage
    change (two observations shorter).
    """
    x = np.asarray(x, dtype=float)
    if tcode == 1:
        return x.copy()
    if tcode == 5:
        if np.any(x <= 0.0):
            raise ValueError("log growth rates need strictly positive levels")
        return np.diff(np.log(x))
    if tcode == 7:
        if np.any(x[:-1] == 0.0):
            raise ValueError("percentage changes need nonzero lagged levels")
        return np.diff(np.diff(x) / x[:-1])
    raise ValueError(f"unsupported transformation code {tcode}")


def standardize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center and scale columns by the sample (n-1) standard deviation.

    Returns the standardized array plus the per-column means and scales.
    """
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=0)
    sd = values.std(axis=0, ddof=1)
    if np.any(sd <= 0.0):
        raise ValueError("zero-variance column cannot be standardized")
    return (values - mean) / sd, mean, sd


def principal_components(
    values: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First k principal-component factors of a standardized panel.

    Factors are scaled to unit sample variance and signed so each
    factor's largest-magnitude loading is positive. Returns (factors,
    loadings, explained variance shares).
    """
    values = np.asarray(values, dtype=float)
    T, n = values.shape
    if not 1 <= k <= min(T, n):
        raise ValueError("factor count must lie in [1, min(T, n)]")
    u, s, vt = np.linalg.svd(values, full_matrices=False)
    scores = u[:, :k] * s[:k]
    loadings = vt[:k].T.copy()
    for j in range(k):
        lead = np.argmax(np.abs(loadings[:, j]))
        if loadings[lead, j] < 0:
            loadings[:, j] *= -1.0
            scores[:, j] *= -1.0
    sd = scores.std(axis=0, ddof=1)
    if np.any(sd <= 0.0):
        raise ValueError("degenerate factor with zero variance")
    shares = s[:k] ** 2 / (s**2).sum()
    # loadings carry the scale so factors @ loadings.T approximates the panel
    return scores / sd, loadings * sd, shares


def load_panel_csv(
    path, select: list[tuple[str, int]] | None = None
) -> TimeSeriesPanel:
    """Read a dated CSV panel, optionally selecting named columns.

    ``select`` pairs column names with transformation codes and fixes
    the panel order; the file's own column order does not matter.
    Without it, every column loads with code 1.  A ragged row, a value
    that is not a number, or a date that does not follow the one before
    is refused, naming the file and its 1-based line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if len(lines) < 2:
        raise ValueError("panel file needs a header and at least one row")
    header = lines[0][1].split(",")
    names_in_file = [h.strip() for h in header[1:]]
    dates = []
    rows = []
    for lineno, ln in lines[1:]:
        where = f"{path}, line {lineno}"
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{where}: ragged CSV row of {len(cells)} cells, the header has {len(header)}"
            )
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise with_context(exc, where) from exc
        date = cells[0].strip()
        if dates and date <= dates[-1]:
            raise ValueError(
                f"{where}: dates must be strictly increasing, but {date!r} follows {dates[-1]!r}"
            )
        dates.append(date)
    values = np.asarray(rows)
    if select is None:
        select = [(name, 1) for name in names_in_file]
    idx = []
    for name, _ in select:
        if name not in names_in_file:
            raise ValueError(f"column {name!r} not in the file")
        idx.append(names_in_file.index(name))
    return TimeSeriesPanel(
        dates=tuple(dates),
        names=tuple(name for name, _ in select),
        values=values[:, idx],
        tcodes=tuple(code for _, code in select),
    )


_SPEC_KEYS = {
    "model_class": str,
    "subclass": str,
    "p": int,
    "sv": bool,
    "n_clusters": int,
    "iterations": int,
    "burnin": int,
    "thin": int,
    "store_paths": bool,
    "zeta": float,
    "kappa": float,
    "d0": float,
    "e0": float,
    "e1": float,
    "minnesota_own": float,
    "minnesota_cross": float,
    "minnesota_level": float,
    "ms_counts": "floats",
    "bernoulli_counts": "floats",
}

_RUN_KEYS = {
    "data": str,
    "variables": "variables",
    "standardize": bool,
    "n_factors": int,
    "first_holdout": int,
    "horizons": "ints",
    "nsim": int,
    "seed": int,
    "benchmark_class": str,
    "benchmark_subclass": str,
    "store": str,
    "pair": "ints",
}


def parse_config(text: str) -> dict[str, str]:
    """Flat key=value configuration; '#' comments; unknown keys error."""
    known = set(_SPEC_KEYS) | set(_RUN_KEYS)
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _convert(key: str, value: str, kind):
    if kind is bool:
        low = value.lower()
        if low in ("1", "true", "yes"):
            return True
        if low in ("0", "false", "no"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {value!r}")
    if kind is int:
        return int(value)
    if kind is float:
        return float(value)
    if kind == "ints":
        return tuple(int(v.strip()) for v in value.split(",") if v.strip())
    if kind == "floats":
        return tuple(float(v.strip()) for v in value.split(",") if v.strip())
    if kind == "variables":
        pairs = []
        for item in value.split(","):
            item = item.strip()
            if not item:
                continue
            name, _, code = item.partition(":")
            pairs.append((name.strip(), int(code) if code else 1))
        return tuple(pairs)
    return value


@dataclass(frozen=True)
class RunConfig:
    """One run's complete instruction set, parsed from the config file."""

    spec: ModelSpec
    data: str | None = None
    variables: tuple[tuple[str, int], ...] = ()
    standardize: bool = True
    n_factors: int = 0
    first_holdout: int | None = None
    horizons: tuple[int, ...] = (1,)
    nsim: int = 8
    seed: int = 0
    benchmark: ModelSpec | None = None
    store: str | None = None
    pair: tuple[int, int] | None = None


def run_config(text: str) -> RunConfig:
    """Parse the config file into the model spec plus run settings."""
    raw = parse_config(text)
    if "model_class" not in raw:
        raise ValueError("config needs a model_class entry")
    spec_kwargs = {}
    for key, kind in _SPEC_KEYS.items():
        if key in raw:
            spec_kwargs[key] = _convert(key, raw[key], kind)
    if "subclass" in spec_kwargs and spec_kwargs["subclass"].lower() == "none":
        spec_kwargs["subclass"] = None
    spec = ModelSpec(**spec_kwargs)

    run_kwargs = {}
    for key, kind in _RUN_KEYS.items():
        if key in raw:
            run_kwargs[key] = _convert(key, raw[key], kind)
    benchmark = None
    if "benchmark_class" in run_kwargs:
        bclass = run_kwargs.pop("benchmark_class")
        bsub = run_kwargs.pop("benchmark_subclass", None)
        if bsub is not None and bsub.lower() == "none":
            bsub = None
        if bclass in CONST_CLASSES and bsub is not None:
            raise ValueError(
                f"benchmark_subclass {bsub} given, but benchmark_class {bclass} "
                "is a constant class and takes no subclass"
            )
        benchmark = replace(spec, model_class=bclass, subclass=bsub)
    elif "benchmark_subclass" in run_kwargs:
        raise ValueError("benchmark_subclass needs a benchmark_class entry")
    pair = run_kwargs.get("pair")
    if pair is not None and len(pair) != 2:
        raise ValueError("pair needs exactly two indices")
    if run_kwargs.get("nsim", 1) < 1:
        raise ValueError(f"nsim must be at least 1, got {run_kwargs['nsim']}")
    return RunConfig(spec=spec, benchmark=benchmark, **run_kwargs)
