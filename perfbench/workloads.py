"""The benchmark's three workloads: set-up, timed job and output checks.

Every input is generated from the workload seed: a three-variable VAR
with one coefficient break (``generate_var_break``) written to a dated
CSV panel, plus key=value config files. The package is driven only
through its CLI entry point and public names. ``run`` is the timed phase;
``check`` counts the operations whose output is wrong.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import mixtvp.var
from mixtvp import PosteriorDraws, VarEstimate, generate_var_break, run_config
from mixtvp.cli import main as cli_main

NAMES = ("y1", "y2", "y3")


@dataclass
class Context:
    """What set-up hands to the timed phase."""

    seed: int
    Y: np.ndarray  # panel as the CLI models it: standardized columns
    config: Path
    ops: int  # operations attempted by one job
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    failed: int
    problems: list[str]
    info: dict = field(default_factory=dict)


def cli(*argv: str) -> None:
    """Run one CLI command in-process, keeping its progress line off stdout.

    The CLI reports bad input with SystemExit; it becomes an ordinary error
    so that a refused command counts as failed operations.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli_main(list(argv))
        except SystemExit as exc:
            raise RuntimeError(f"mixtvp {argv[0]} exited: {exc}") from None


def write_panel(path: Path, Y: np.ndarray) -> None:
    start = datetime.date(2000, 1, 1)
    lines = ["date," + ",".join(NAMES)]
    for t, row in enumerate(Y):
        day = start + datetime.timedelta(days=t)
        lines.append(day.isoformat() + "," + ",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_config(path: Path, entries: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


def generated_panel(work: Path, T: int, seed: int) -> tuple[Path, np.ndarray]:
    """Write the DGP sample; return its path and the standardized panel."""
    Y = generate_var_break(T=T, seed=seed).Y
    path = work / "panel.csv"
    write_panel(path, Y)
    return path, (Y - Y.mean(axis=0)) / Y.std(axis=0, ddof=1)


def equation_data(Y: np.ndarray, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-equation (y, x): earlier variables, p lags of all, intercept."""
    T, m = Y.shape
    lags = np.column_stack([Y[p - lag : T - lag] for lag in range(1, p + 1)])
    return [
        (Y[p:, i], np.column_stack([Y[p:, :i], lags, np.ones(T - p)]))
        for i in range(m)
    ]


def tree_digest(root: Path, arrays: dict[str, np.ndarray] | None = None) -> str:
    """SHA-256 over every file under ``root`` (path and bytes) and extra arrays."""
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    for name, arr in sorted((arrays or {}).items()):
        h.update(name.encode() + b"\0")
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def estimate_config(work: Path, panel: Path, seed: int, p: int, iterations: int, burnin: int) -> Path:
    return write_config(
        work / "estimate.cfg",
        {
            "model_class": "TVP-MIX",
            "subclass": "FLEX-MS",
            "p": p,
            "iterations": iterations,
            "burnin": burnin,
            "store_paths": "true",
            "data": panel,
            "variables": ", ".join(f"{n}:1" for n in NAMES),
            "seed": seed,
        },
    )


def check_store(store: Path, Y: np.ndarray, p: int, n_records: int) -> list[str]:
    """One problem for each equation store that fails its checks."""
    problems = []
    for i, (y, x) in enumerate(equation_data(Y, p)):
        name = f"eq{i + 1}"
        try:
            eq = PosteriorDraws.load(store / name)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: store does not load ({exc})")
            continue
        arrays = [getattr(eq, f) for f in PosteriorDraws.ARRAY_FIELDS]
        if eq.n_records != n_records:
            problems.append(f"{name}: {eq.n_records} records, expected {n_records}")
        elif not all(np.all(np.isfinite(a)) for a in arrays if a is not None):
            problems.append(f"{name}: non-finite draws")
        elif eq.alpha is None or eq.alpha.shape != (n_records,) + x.shape:
            problems.append(f"{name}: coefficient paths missing or misshapen")
        else:
            fit_sd = np.std(y - (x * eq.alpha.mean(axis=0)).sum(axis=1))
            beta, *_ = np.linalg.lstsq(x, y, rcond=None)
            ols_sd = np.std(y - x @ beta)
            if not fit_sd <= ols_sd:
                problems.append(f"{name}: path residual sd {fit_sd:.4g} above OLS {ols_sd:.4g}")
    return problems


class Estimate:
    """CLI ``estimate``: TVP-MIX FLEX-MS, p = 2, one long chain per equation."""

    name = "estimate"

    def __init__(self, T: int = 200, iterations: int = 40, burnin: int = 20):
        self.T, self.p, self.iterations, self.burnin = T, 2, iterations, burnin

    def prepare(self, work: Path, seed: int) -> Context:
        panel, Y = generated_panel(work, self.T, seed)
        cfg = estimate_config(work, panel, seed, self.p, self.iterations, self.burnin)
        return Context(seed=seed, Y=Y, config=cfg, ops=Y.shape[1])

    def run(self, ctx: Context, out: Path) -> dict:
        cli("estimate", "--spec", str(ctx.config), "--out", str(out))
        return {"sweeps": self.iterations * ctx.Y.shape[1]}

    def check(self, ctx: Context, out: Path, result: dict) -> Outcome:
        problems = check_store(out, ctx.Y, self.p, self.iterations - self.burnin)
        return Outcome(len(problems), problems)

    def digest(self, ctx: Context, out: Path, result: dict) -> str:
        return tree_digest(out)


SCORE_FIELDS = ("point", "realized", "sq_error", "crps", "lps")
TABLES = ("rmse_ratios.csv", "crps_ratios.csv", "lpbf.csv", "stars.csv")


class Forecast:
    """CLI ``forecast``: TVP-POOL SINGLE against CONST-MIN over expanding windows."""

    name = "forecast"

    def __init__(
        self,
        T: int = 200,
        p: int = 4,
        origins: int = 4,
        horizons: tuple[int, ...] = (1, 4),
        iterations: int = 8,
        burnin: int = 4,
        nsim: int = 200,
    ):
        self.T, self.p, self.origins, self.horizons = T, p, origins, horizons
        self.iterations, self.burnin, self.nsim = iterations, burnin, nsim

    def prepare(self, work: Path, seed: int) -> Context:
        panel, Y = generated_panel(work, self.T, seed)
        first_holdout = self.T - self.origins
        cfg = write_config(
            work / "forecast.cfg",
            {
                "model_class": "TVP-POOL",
                "subclass": "SINGLE",
                "benchmark_class": "CONST-MIN",
                "p": self.p,
                "iterations": self.iterations,
                "burnin": self.burnin,
                "data": panel,
                "variables": ", ".join(f"{n}:1" for n in NAMES),
                "first_holdout": first_holdout,
                "horizons": ", ".join(str(h) for h in self.horizons),
                "nsim": self.nsim,
                "seed": seed,
            },
        )
        return Context(
            seed=seed, Y=Y, config=cfg, ops=2 * self.origins,
            extra={"first_holdout": first_holdout},
        )

    def run(self, ctx: Context, out: Path) -> dict:
        cli("forecast", "--spec", str(ctx.config), "--out", str(out))
        return {"sweeps": self.iterations * ctx.Y.shape[1] * ctx.ops}

    def schedule(self, ctx: Context) -> dict[int, set]:
        """Expected (horizon, variable) pairs per origin, 0-based origins."""
        T = ctx.Y.shape[0]
        out: dict[int, set] = {}
        for o in range(ctx.extra["first_holdout"] - 1, T - 1):
            out[o] = {(h, v) for h in self.horizons if o + h <= T - 1 for v in NAMES}
        return out

    def check(self, ctx: Context, out: Path, result: dict) -> Outcome:
        expected = self.schedule(ctx)
        problems = self._check_tables(out, len(expected))
        if problems:
            return Outcome(ctx.ops, problems)
        for model in ("model", "benchmark"):
            try:
                with open(out / f"scores_{model}.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
            except OSError as exc:
                problems += [f"{model}: no scores ({exc})"] * len(expected)
                continue
            seen: dict[int, list] = {}
            for row in rows:
                values = [float(row[k]) for k in SCORE_FIELDS]
                key = (int(row["horizon"]), row["variable"])
                seen.setdefault(int(row["origin"]), []).append((key, _finite(values)))
            for origin, want in expected.items():
                got = seen.pop(origin, [])
                keys = [k for k, _ in got]
                if sorted(keys) != sorted(want) or not all(ok for _, ok in got):
                    problems.append(f"{model} origin {origin}: rows not one finite row per {sorted(want)}")
            problems += [f"{model} origin {o}: not in the schedule" for o in seen]
        return Outcome(min(len(problems), ctx.ops), problems)

    @staticmethod
    def _check_tables(out: Path, n_origins: int) -> list[str]:
        try:
            tables = {name: (out / name).read_text().splitlines() for name in TABLES}
        except OSError as exc:
            return [f"tables not written ({exc})"]
        problems = []
        for name in ("rmse_ratios.csv", "crps_ratios.csv"):
            lines = tables[name]
            if len(lines) != 2 or not _finite(float(c) for c in lines[1].split(",")[1:]):
                problems.append(f"{name}: expected one finite row")
        lpbf = tables["lpbf.csv"][1:]
        if len(lpbf) != n_origins or not _finite(float(ln.split(",")[1]) for ln in lpbf):
            problems.append("lpbf.csv: expected one finite row per origin")
        if tables["stars.csv"][:1] != ["horizon,variable,stat,pvalue,stars,degenerate"]:
            problems.append("stars.csv: header missing")
        return problems

    def digest(self, ctx: Context, out: Path, result: dict) -> str:
        return tree_digest(out)


class Posterior:
    """Read side of the store: CLI ``spectral`` then ``simulate_predictive``.

    Set-up runs a short FLEX-MS estimate with stored paths; the timed
    phase does no sampler work.
    """

    name = "posterior"

    def __init__(
        self,
        T: int = 200,
        iterations: int = 50,
        burnin: int = 20,
        horizon: int = 8,
        nsim: int = 1000,
    ):
        self.T, self.p, self.iterations, self.burnin = T, 2, iterations, burnin
        self.horizon, self.nsim = horizon, nsim

    def prepare(self, work: Path, seed: int) -> Context:
        panel, Y = generated_panel(work, self.T, seed)
        est_cfg = estimate_config(work, panel, seed, self.p, self.iterations, self.burnin)
        store = work / "store"
        cli("estimate", "--spec", str(est_cfg), "--out", str(store))
        cfg = write_config(
            work / "spectral.cfg",
            {
                "model_class": "TVP-MIX",
                "subclass": "FLEX-MS",
                "p": self.p,
                "store": store,
                "pair": "1, 2",
            },
        )
        periods = Y.shape[0] - self.p
        return Context(
            seed=seed, Y=Y, config=cfg, ops=periods + 1,
            extra={"store": store, "spec": run_config(est_cfg.read_text()).spec},
        )

    def run(self, ctx: Context, out: Path) -> dict:
        t0 = perf_counter()
        cli("spectral", "--spec", str(ctx.config), "--out", str(out))
        t1 = perf_counter()
        store = ctx.extra["store"]
        eqs = [PosteriorDraws.load(store / f"eq{i + 1}") for i in range(len(NAMES))]
        est = VarEstimate(Y=ctx.Y, p=self.p, spec=ctx.extra["spec"], equations=eqs, names=NAMES)
        t2 = perf_counter()
        fd = mixtvp.var.simulate_predictive(est, self.horizon, self.nsim, np.random.default_rng(ctx.seed))
        t3 = perf_counter()
        n = est.n_records
        return {
            "spectral_draws": n * (ctx.ops - 1),
            "spectral_s": t1 - t0,
            "predictive_paths": n * self.nsim * self.horizon,
            "predictive_s": t3 - t2,
            "forecast": fd,
        }

    def check(self, ctx: Context, out: Path, result: dict) -> Outcome:
        periods = ctx.ops - 1
        problems, excluded = check_bands(out / "lowfreq_1_2.csv", periods)
        fd = result["forecast"]
        n = self.nsim * (self.iterations - self.burnin)
        if fd.draws.shape != (n, self.horizon, len(NAMES)):
            problems.append(f"predictive draws have shape {fd.draws.shape}")
        elif not (np.all(np.isfinite(fd.draws)) and np.all(np.isfinite(fd.h1_mean))):
            problems.append("predictive draws not finite")
        elif not np.all(fd.h1_var > 0.0):
            problems.append("one-step predictive variances not positive")
        return Outcome(min(len(problems), ctx.ops), problems, {"excluded_unstable": excluded})

    def digest(self, ctx: Context, out: Path, result: dict) -> str:
        fd = result["forecast"]
        return tree_digest(out, {"draws": fd.draws, "h1_mean": fd.h1_mean, "h1_var": fd.h1_var})


def check_bands(path: Path, periods: int) -> tuple[list[str], int | None]:
    """One problem per bad or missing period row; also the excluded count."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"bands not written ({exc})"] * periods, None
    head = "# excluded_unstable: "
    if len(lines) < 2 or not lines[0].startswith(head) or lines[1] != "t,median,q16,q84":
        return ["band file header missing"] * periods, None
    excluded = int(lines[0][len(head):])
    rows: dict[int, bool] = {}
    for ln in lines[2:]:
        t, med, lo, hi = ln.split(",")
        med, lo, hi = float(med), float(lo), float(hi)
        rows[int(t)] = int(t) not in rows and _finite((med, lo, hi)) and lo <= med <= hi
    problems = [f"period {t}: band row missing or invalid" for t in range(periods) if not rows.get(t)]
    problems += [f"period {t}: not a sample period" for t in rows if not 0 <= t < periods]
    return problems, excluded


WORKLOADS = {w.name: w for w in (Estimate, Forecast, Posterior)}
