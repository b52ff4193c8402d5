"""End-to-end tests of the command-line entry points."""

import datetime
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mixtvp
from mixtvp.cli import _build_panel, main
from mixtvp.io import run_config, standardize
from mixtvp.sampler import PosteriorDraws
from mixtvp.dgp import generate_var_break


def _panel_csv(path, Y, names):
    start = datetime.date(2000, 1, 1)
    lines = ["date," + ",".join(names)]
    for t, row in enumerate(Y):
        day = start + datetime.timedelta(days=t)
        lines.append(day.isoformat() + "," + ",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


def _read_tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_simulate_writes_and_repeats(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    main(["simulate", "--out", str(out1), "--seed", "3"])
    main(["simulate", "--out", str(out2), "--seed", "3"])
    data = (out1 / "data.csv").read_text()
    truth = (out1 / "truth.csv").read_text()
    assert data.splitlines()[0].startswith("y,x1")
    assert truth.splitlines()[0].startswith("s,h,alpha1")
    assert len(data.splitlines()) == 101
    assert data == (out2 / "data.csv").read_text()
    assert truth == (out2 / "truth.csv").read_text()
    main(["simulate", "--out", str(tmp_path / "c"), "--seed", "4"])
    assert (tmp_path / "c" / "data.csv").read_text() != data


def test_estimate_store_and_thread_invariance(tmp_path):
    Y = generate_var_break(T=36, seed=7).Y[:, :2]
    _panel_csv(tmp_path / "panel.csv", Y, ["y1", "y2"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model_class = CONST-NG\n"
        "p = 1\n"
        "iterations = 10\n"
        "burnin = 5\n"
        f"data = {tmp_path / 'panel.csv'}\n"
        "variables = y1:1, y2:1\n"
        "seed = 11\n"
    )
    out1 = tmp_path / "est1"
    out2 = tmp_path / "est2"
    main(["estimate", "--spec", str(cfg), "--out", str(out1)])
    main(["estimate", "--spec", str(cfg), "--out", str(out2)])
    tree1 = _read_tree(out1)
    assert "eq1/manifest.txt" in tree1
    assert "eq2/manifest.txt" in tree1
    assert (out1 / "variables.txt").read_text() == "y1\ny2\n"
    # same seed: byte-identical stores
    assert tree1 == _read_tree(out2)


def test_forecast_outputs_and_determinism(tmp_path):
    Y = generate_var_break(T=40, seed=5).Y[:, :2]
    _panel_csv(tmp_path / "panel.csv", Y, ["y1", "y2"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model_class = CONST-NG\n"
        "p = 1\n"
        "iterations = 10\n"
        "burnin = 5\n"
        f"data = {tmp_path / 'panel.csv'}\n"
        "variables = y1:1, y2:1\n"
        "first_holdout = 36\n"
        "horizons = 1\n"
        "nsim = 4\n"
        "seed = 2\n"
    )
    out1 = tmp_path / "fc1"
    out2 = tmp_path / "fc2"
    main(["forecast", "--spec", str(cfg), "--out", str(out1)])
    main(["forecast", "--spec", str(cfg), "--out", str(out2)])
    tree1 = _read_tree(out1)
    for fname in (
        "scores_model.csv",
        "scores_benchmark.csv",
        "rmse_ratios.csv",
        "crps_ratios.csv",
        "lpbf.csv",
        "stars.csv",
    ):
        assert fname in tree1
    assert tree1 == _read_tree(out2)
    header = (out1 / "rmse_ratios.csv").read_text().splitlines()[0]
    assert header == "model,h1_TOT,h1_y1,h1_y2"
    # a different seed changes the forecast draws
    main(["forecast", "--spec", str(cfg), "--seed", "99", "--out", str(tmp_path / "fc3")])
    assert (tmp_path / "fc3" / "scores_model.csv").read_bytes() != tree1["scores_model.csv"]


def test_compare_matches_forecast_tables(tmp_path):
    Y = generate_var_break(T=38, seed=9).Y[:, :2]
    _panel_csv(tmp_path / "panel.csv", Y, ["y1", "y2"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model_class = CONST-NG\n"
        "iterations = 10\n"
        "burnin = 5\n"
        f"data = {tmp_path / 'panel.csv'}\n"
        "variables = y1:1, y2:1\n"
        "first_holdout = 34\n"
        "horizons = 1, 2\n"
        "nsim = 4\n"
        "seed = 6\n"
    )
    fc = tmp_path / "fc"
    main(["forecast", "--spec", str(cfg), "--out", str(fc)])
    cmp_out = tmp_path / "cmp"
    main(
        [
            "compare",
            str(fc / "scores_model.csv"),
            str(fc / "scores_benchmark.csv"),
            "--out",
            str(cmp_out),
        ]
    )
    for fname in ("rmse_ratios.csv", "crps_ratios.csv", "lpbf.csv", "stars.csv"):
        assert (cmp_out / fname).read_bytes() == (fc / fname).read_bytes()


def test_spectral_bands(tmp_path):
    Y = generate_var_break(T=34, seed=3).Y[:, :2]
    _panel_csv(tmp_path / "panel.csv", Y, ["y1", "y2"])
    est = tmp_path / "est"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model_class = CONST-NG\n"
        "sv = false\n"
        "iterations = 10\n"
        "burnin = 5\n"
        f"data = {tmp_path / 'panel.csv'}\n"
        "variables = y1:1, y2:1\n"
        "seed = 4\n"
        f"store = {est}\n"
        "pair = 1, 2\n"
    )
    main(["estimate", "--spec", str(cfg), "--out", str(est)])
    out = tmp_path / "spec_out"
    main(["spectral", "--spec", str(cfg), "--out", str(out)])
    text = (out / "lowfreq_1_2.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# excluded_unstable:")
    assert lines[1] == "t,median,q16,q84"
    body = [ln.split(",") for ln in lines[2:]]
    # one row per usable period: T minus one initial lag
    assert len(body) == 33
    med = np.array([float(r[1]) for r in body])
    lo = np.array([float(r[2]) for r in body])
    hi = np.array([float(r[3]) for r in body])
    assert np.all(lo <= med) and np.all(med <= hi)
    # constant coefficients and constant variance: flat bands
    assert np.allclose(med, med[0])
    assert np.allclose(hi, hi[0])


def _spectral_config(tmp_path, est, model_lines, T=34):
    Y = generate_var_break(T=T, seed=3).Y[:, :2]
    _panel_csv(tmp_path / "panel.csv", Y, ["y1", "y2"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        model_lines
        + "iterations = 6\n"
        "burnin = 3\n"
        f"data = {tmp_path / 'panel.csv'}\n"
        "variables = y1:1, y2:1\n"
        "seed = 4\n"
        f"store = {est}\n"
        "pair = 1, 2\n"
    )
    return cfg


def test_spectral_refuses_tvp_store_without_paths(tmp_path):
    est = tmp_path / "est"
    cfg = _spectral_config(
        tmp_path, est, "model_class = TVP-MIX\nsubclass = FLEX-MS\nstore_paths = false\n"
    )
    main(["estimate", "--spec", str(cfg), "--out", str(est)])
    with pytest.raises(SystemExit, match="eq1 store .* model_class TVP-MIX but no coefficient paths"):
        main(["spectral", "--spec", str(cfg), "--out", str(tmp_path / "out")])


def test_spectral_refuses_mismatched_or_unstable_stores(tmp_path, capsys):
    est = tmp_path / "est"
    cfg = _spectral_config(tmp_path, est, "model_class = CONST-NG\nsv = false\n")
    main(["estimate", "--spec", str(cfg), "--out", str(est)])
    out = str(tmp_path / "out")
    eq1 = PosteriorDraws.load(est / "eq1")
    # an explosive own lag in every record leaves no stable draw in any period
    alpha_last = eq1.alpha_last.copy()
    alpha_last[:, 0] = 5.0
    replace(eq1, alpha_last=alpha_last).save(est / "eq1")
    main(["spectral", "--spec", str(cfg), "--out", out])
    lines = (tmp_path / "out" / "lowfreq_1_2.csv").read_text().splitlines()
    n, T = eq1.h.shape
    assert lines[:2] == [f"# excluded_unstable: {n * T}", "t,median,q16,q84"]
    assert lines[2:] == [f"{t},nan,nan,nan" for t in range(T)]
    assert capsys.readouterr().out.endswith(f": {T} of {T} periods have no stable draw\n")
    fewer = {
        name: getattr(eq1, name)[:-1]
        for name in PosteriorDraws.ARRAY_FIELDS
        if getattr(eq1, name) is not None
    }
    replace(eq1, **fewer).save(est / "eq1")
    with pytest.raises(
        SystemExit, match="eq1 2 records x 33 periods, eq2 3 records x 33 periods"
    ):
        main(["spectral", "--spec", str(cfg), "--out", out])


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("alpha_last", np.nan, "equation 2 has a non-finite coefficient at record 1, t=0"),
        ("h", np.inf, "equation 2 has a non-finite or non-positive error variance at record 1, t=4"),
    ],
)
def test_spectral_refuses_non_finite_draws(tmp_path, field, value, message):
    est = tmp_path / "est"
    cfg = _spectral_config(tmp_path, est, "model_class = CONST-NG\nsv = false\n")
    main(["estimate", "--spec", str(cfg), "--out", str(est)])
    eq2 = PosteriorDraws.load(est / "eq2")
    arr = getattr(eq2, field).copy()
    arr[1, 0 if field == "alpha_last" else 4] = value
    replace(eq2, **{field: arr}).save(est / "eq2")
    with pytest.raises(SystemExit, match=message):
        main(["spectral", "--spec", str(cfg), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("pair", ["0, 2", "1, 3"])
def test_spectral_refuses_pair_out_of_range(tmp_path, pair):
    est = tmp_path / "est"
    cfg = _spectral_config(tmp_path, est, "model_class = CONST-NG\nsv = false\n")
    main(["estimate", "--spec", str(cfg), "--out", str(est)])
    cfg.write_text(cfg.read_text().replace("pair = 1, 2", f"pair = {pair}"))
    with pytest.raises(SystemExit, match=f"pair = {pair} is out of range: .* m = 2 equations"):
        main(["spectral", "--spec", str(cfg), "--out", str(tmp_path / "out")])


def test_cli_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["estimate", "--out", str(tmp_path)])
    bad = tmp_path / "bad.cfg"
    bad.write_text("model_class = CONST-NG\nnot_a_key = 1\n")
    with pytest.raises(ValueError, match="unknown"):
        main(["estimate", "--spec", str(bad), "--out", str(tmp_path)])
    ok = tmp_path / "ok.cfg"
    ok.write_text("model_class = CONST-NG\n")
    with pytest.raises(SystemExit, match="data"):
        main(["estimate", "--spec", str(ok), "--out", str(tmp_path)])
    with pytest.raises(SystemExit, match="first_holdout"):
        main(["forecast", "--spec", str(ok), "--out", str(tmp_path)])
    with pytest.raises(SystemExit, match="two score"):
        main(["compare", "one.csv", "--out", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["unknown-command"])


def test_package_import_stays_light(tmp_path):
    # scipy.linalg's __init__ takes longer to import than the rest of the
    # package, scipy.stats too, and scipy.special adds ~60 ms to every fresh
    # import: neither the import nor any command may load them.  The only
    # scipy module a run holds is the LAPACK extension banded.py loads.  A
    # TVP chain runs every sampler step in estimate and forecast; spectral
    # reads a constant-coefficient store, whose draws are stable.
    const = _spectral_config(tmp_path, tmp_path / "const", "model_class = CONST-NG\n")
    const = const.rename(tmp_path / "const.cfg")
    tvp = _spectral_config(tmp_path, tmp_path / "tvp", "model_class = TVP-MIX\nsubclass = FLEX-MS\n")
    tvp.write_text(tvp.read_text() + "first_holdout = 32\nhorizons = 1\nnsim = 4\n")
    runs = [
        ["estimate", "--spec", str(tvp), "--out", str(tmp_path / "tvp")],
        ["forecast", "--spec", str(tvp), "--out", str(tmp_path / "fc")],
        ["estimate", "--spec", str(const), "--out", str(tmp_path / "const")],
        ["spectral", "--spec", str(const), "--out", str(tmp_path / "spec")],
    ]
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import mixtvp\n"
        "print(scipy_modules())\n"
        "from mixtvp.cli import main\n"
        f"for args in {runs!r}:\n"
        "    main(args)\n"
        "print(scipy_modules())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mixtvp.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    # the commands print what they wrote between the two lists
    lines = out.stdout.strip().splitlines()
    after_import, after_commands = lines[0], lines[-1]
    assert after_import == after_commands == "['scipy.linalg._flapack']"
    assert (tmp_path / "spec" / "lowfreq_1_2.csv").is_file()


@pytest.mark.parametrize("p_line", ["", "p = 1\n", "p = 3\n"])
def test_spectral_takes_the_lag_order_from_the_store(tmp_path, p_line):
    # the store was estimated at p = 2: equation 1 has m*p + 1 = 5 coefficients
    est = tmp_path / "est"
    cfg = _spectral_config(tmp_path, est, "model_class = CONST-NG\nsv = false\np = 2\n")
    main(["estimate", "--spec", str(cfg), "--out", str(est)])
    main(["spectral", "--spec", str(cfg), "--out", str(tmp_path / "p2")])
    cfg.write_text(cfg.read_text().replace("p = 2\n", p_line))
    main(["spectral", "--spec", str(cfg), "--out", str(tmp_path / "other")])
    want = (tmp_path / "p2" / "lowfreq_1_2.csv").read_bytes()
    assert (tmp_path / "other" / "lowfreq_1_2.csv").read_bytes() == want
    # a first width of 4 is not 2p + 1 for a whole p
    eq1 = PosteriorDraws.load(est / "eq1")
    replace(eq1, alpha0=eq1.alpha0[:, :4], alpha_last=eq1.alpha_last[:, :4]).save(est / "eq1")
    with pytest.raises(SystemExit, match="eq1 store at .* has width 4, which is not m\\*p \\+ 1 for m = 2"):
        main(["spectral", "--spec", str(cfg), "--out", str(tmp_path / "bad")])


def test_the_thin_flag_is_refused(tmp_path, capsys):
    # thinning is the config's thin key; the command line has no flag for it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model_class = CONST-NG\n")
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--spec", str(cfg), "--thin", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --thin 2" in capsys.readouterr().err


def _factor_panel(tmp_path):
    # three selected variables, the first in log growth rates, and one spare column
    rng = np.random.default_rng(12)
    Y = generate_var_break(T=41, seed=6).Y
    levels = np.column_stack([np.exp(np.cumsum(0.01 * Y[:, 0])), Y[:, 1:], rng.normal(size=41)])
    _panel_csv(tmp_path / "panel.csv", levels, ["y1", "y2", "y3", "spare"])
    return levels


def _factor_config(tmp_path, variables):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model_class = CONST-NG\n"
        "iterations = 6\n"
        "burnin = 3\n"
        f"data = {tmp_path / 'panel.csv'}\n"
        f"variables = {variables}\n"
        "n_factors = 1\n"
        "seed = 4\n"
    )
    return cfg


def test_estimate_with_factors_from_the_spare_columns(tmp_path):
    levels = _factor_panel(tmp_path)
    cfg = _factor_config(tmp_path, "y1:5, y2:1, y3:1")
    out = tmp_path / "est"
    main(["estimate", "--spec", str(cfg), "--out", str(out)])
    assert sorted(d.name for d in out.glob("eq*")) == ["eq1", "eq2", "eq3", "eq4"]
    assert (out / "variables.txt").read_text().splitlines() == ["y1", "y2", "y3", "f1"]
    values, names = _build_panel(run_config(cfg.read_text()))
    assert names == ("y1", "y2", "y3", "f1") and values.shape == (40, 4)
    # one spare column is its own first principal component: standardized,
    # on the growth rates' 40 periods, with its loading signed positive
    np.testing.assert_allclose(values[:, 3], standardize(levels[1:, 3])[0], atol=1e-12)


def test_factors_need_a_spare_column(tmp_path):
    _factor_panel(tmp_path)
    cfg = _factor_config(tmp_path, "y1:5, y2:1, y3:1, spare:1")
    with pytest.raises(SystemExit, match="^no spare columns to build factors from$"):
        main(["estimate", "--spec", str(cfg), "--out", str(tmp_path / "est")])
