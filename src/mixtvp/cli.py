"""Command-line surface: simulate, estimate, forecast, spectral, compare.

Every subcommand reads its instructions from a flat key=value config
file (see io.run_config) plus a few overriding flags, and writes plain
CSV or raw draw stores. The same seed means byte-identical output files.

``simulate`` writes the single-equation regression design of
``dgp.generate``: ``data.csv`` holds y and then the covariates, with no
date column, and ``truth.csv`` the latent paths.  The other commands do
not read these files: they read dated panels (see io.load_panel_csv).

``spectral`` reads every (record, period) draw of an equation store set
and hands the stacked paths to ``spectral.low_freq_path_bands``, which
runs the whole structural -> reduced -> companion -> Pi(0) pipeline as
array operations over period blocks. A power screen certifies most
stable draws, and one batched eigen-decomposition per block decides the
rest. A store with a non-finite coefficient or a non-finite or
non-positive error variance is refused, naming the equation, record and
period. A period with no stable draw is written as a row of NaN.
``spectral`` does not read ``p``: the store fixes the lag order, since
equation 1 holds m*p + 1 coefficients, and a store whose first width is
not of that form for a whole p >= 1 is refused.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dgp import DgpConfig, data_csv, generate, truth_csv
from .evaluation import (
    lpbf_csv,
    parse_scores_csv,
    ratio_table_csv,
    run_forecast_harness,
    score_rows,
    scores_csv,
    stars_csv,
    tables_from_scores,
)
from .io import RunConfig, load_panel_csv, principal_components, run_config, standardize
from .sampler import CONST_CLASSES, PosteriorDraws
from .spectral import bands_csv, low_freq_path_bands

# The per-draw names stay importable from this module because
# perfbench/layers.py wraps them here; spectral no longer calls them.
from .spectral import companion, low_freq  # noqa: F401
from .var import estimate_var
from .var import structural_from_paths, structural_to_reduced  # noqa: F401

__all__ = ["main"]


def _load_config(args) -> RunConfig:
    if args.spec is None:
        raise SystemExit("this command needs --spec <config file>")
    cfg = run_config(Path(args.spec).read_text())
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out if args.out else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_panel(cfg: RunConfig) -> tuple[np.ndarray, tuple[str, ...]]:
    """Load, transform, standardize and optionally factor-augment."""
    if cfg.data is None:
        raise SystemExit("config needs a data = <csv> entry")
    select = list(cfg.variables) if cfg.variables else None
    panel = load_panel_csv(cfg.data, select).transformed()
    values = panel.values
    if cfg.standardize:
        values, _, _ = standardize(values)
    names = panel.names
    if cfg.n_factors > 0:
        full = load_panel_csv(cfg.data).transformed()
        rest = [n for n in full.names if n not in names]
        if not rest:
            raise SystemExit("no spare columns to build factors from")
        idx = [full.names.index(n) for n in rest]
        aligned = full.values[full.values.shape[0] - values.shape[0] :, idx]
        spare, _, _ = standardize(aligned)
        factors, _, _ = principal_components(spare, cfg.n_factors)
        values = np.column_stack([values, factors])
        names = names + tuple(f"f{j + 1}" for j in range(cfg.n_factors))
    return values, names


def _cmd_simulate(args) -> None:
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else 0
    y, X, truth = generate(DgpConfig(seed=seed))
    (out / "data.csv").write_text(data_csv(y, X))
    (out / "truth.csv").write_text(truth_csv(truth))
    print(f"wrote {out / 'data.csv'} and {out / 'truth.csv'}")


def _cmd_estimate(args) -> None:
    cfg = _load_config(args)
    out = _out_dir(args)
    Y, names = _build_panel(cfg)
    est = estimate_var(Y, cfg.spec, seed=cfg.seed, names=names)
    for i, eq in enumerate(est.equations):
        eq.save(out / f"eq{i + 1}")
    (out / "variables.txt").write_text("\n".join(names) + "\n")
    print(f"wrote {len(est.equations)} equation stores under {out}")


def _cmd_forecast(args) -> None:
    cfg = _load_config(args)
    if cfg.first_holdout is None:
        raise SystemExit("config needs first_holdout for forecasting")
    benchmark = cfg.benchmark
    if benchmark is None:
        benchmark = replace(cfg.spec, model_class="CONST-MIN", subclass=None)
    out = _out_dir(args)
    Y, names = _build_panel(cfg)
    specs = {"model": cfg.spec, "benchmark": benchmark}
    records = run_forecast_harness(
        Y, specs, cfg.first_holdout, cfg.horizons, nsim=cfg.nsim, seed=cfg.seed
    )
    rows = {name: score_rows(recs) for name, recs in records.items()}
    for name in rows:
        (out / f"scores_{name}.csv").write_text(scores_csv(rows[name], name))
    _write_tables(out, "model", tables_from_scores(rows["model"], rows["benchmark"]))
    print(f"wrote score and metric tables under {out}")


def _write_tables(out: Path, name: str, tables) -> None:
    """Write the ``tables_from_scores`` tables under ``name``: RMSE and CRPS
    ratios, the cumulative LPBF series and the equal-accuracy stars."""
    (out / "rmse_ratios.csv").write_text(ratio_table_csv(name, tables["rmse"]))
    (out / "crps_ratios.csv").write_text(ratio_table_csv(name, tables["crps"]))
    (out / "lpbf.csv").write_text(lpbf_csv(name, *tables["lpbf"]))
    (out / "stars.csv").write_text(stars_csv(tables["stars"]))


def _cmd_spectral(args) -> None:
    cfg = _load_config(args)
    if cfg.store is None:
        raise SystemExit("config needs store = <estimate output dir>")
    if cfg.pair is None:
        raise SystemExit("config needs pair = i,j (1-based variable indices)")
    out = _out_dir(args)
    store = Path(cfg.store)
    eq_dirs = sorted(store.glob("eq*"), key=lambda d: int(d.name[2:]))
    if not eq_dirs:
        raise SystemExit(f"no equation stores under {store}")
    eqs = [PosteriorDraws.load(d) for d in eq_dirs]
    if len({(eq.n_records, eq.h.shape[1]) for eq in eqs}) > 1:
        sizes = ", ".join(
            f"{d.name} {eq.n_records} records x {eq.h.shape[1]} periods"
            for d, eq in zip(eq_dirs, eqs)
        )
        raise SystemExit(f"equation stores disagree on record count or sample length: {sizes}")
    n, T = eqs[0].h.shape
    paths = []
    for d, eq in zip(eq_dirs, eqs):
        model_class = eq.meta.get("model_class", "unknown")
        if eq.alpha is not None:
            paths.append(eq.alpha)
        elif model_class in CONST_CLASSES:
            # constant coefficients: the final draw holds in every period
            paths.append(
                np.broadcast_to(eq.alpha_last[:, None, :], (n, T, eq.alpha_last.shape[1]))
            )
        else:
            raise SystemExit(
                f"{d.name} store at {d} has model_class {model_class} but no "
                "coefficient paths; estimate with store_paths = true"
            )
    m = len(eqs)
    if not all(1 <= k <= m for k in cfg.pair):
        raise SystemExit(
            f"pair = {cfg.pair[0]}, {cfg.pair[1]} is out of range: the store has "
            f"m = {m} equations, numbered 1 to {m}"
        )
    width = paths[0].shape[2]
    p, rest = divmod(width - 1, m)
    if p < 1 or rest:
        raise SystemExit(
            f"{eq_dirs[0].name} store at {eq_dirs[0]} has width {width}, which is not "
            f"m*p + 1 for m = {m} and a whole p >= 1"
        )
    i, j = cfg.pair[0] - 1, cfg.pair[1] - 1
    try:
        bands, excluded = low_freq_path_bands(paths, [np.exp(eq.h) for eq in eqs], p, i, j)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    name = f"lowfreq_{cfg.pair[0]}_{cfg.pair[1]}.csv"
    (out / name).write_text(bands_csv(bands, excluded))
    empty = int(np.isnan(bands).all(axis=1).sum())
    print(f"wrote {out / name}: {empty} of {T} periods have no stable draw")


def _cmd_compare(args) -> None:
    if len(args.scores) != 2:
        raise SystemExit("compare needs exactly two score CSV paths")
    out = _out_dir(args)
    name_a, rows_a = parse_scores_csv(Path(args.scores[0]).read_text())
    name_b, rows_b = parse_scores_csv(Path(args.scores[1]).read_text())
    _write_tables(out, name_a, tables_from_scores(rows_a, rows_b))
    print(f"wrote comparison of {name_a} against {name_b} under {out}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="mixtvp",
        description="Estimate, simulate and evaluate mixture-law TVP-VARs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", _cmd_simulate),
        ("estimate", _cmd_estimate),
        ("forecast", _cmd_forecast),
        ("spectral", _cmd_spectral),
        ("compare", _cmd_compare),
    ):
        p = sub.add_parser(name)
        p.add_argument("--spec", help="config file (key = value lines)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        if name == "compare":
            p.add_argument("scores", nargs="*", help="two score CSV files")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
