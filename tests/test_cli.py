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
from mixtvp.cli import main
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


def test_spectral_refuses_mismatched_or_unstable_stores(tmp_path):
    est = tmp_path / "est"
    cfg = _spectral_config(tmp_path, est, "model_class = CONST-NG\nsv = false\n")
    main(["estimate", "--spec", str(cfg), "--out", str(est)])
    out = str(tmp_path / "out")
    eq1 = PosteriorDraws.load(est / "eq1")
    # an explosive own lag in every record leaves no stable draw in any period
    alpha_last = eq1.alpha_last.copy()
    alpha_last[:, 0] = 5.0
    replace(eq1, alpha_last=alpha_last).save(est / "eq1")
    with pytest.raises(SystemExit, match="every draw unstable at t=0"):
        main(["spectral", "--spec", str(cfg), "--out", out])
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


def test_package_import_stays_light():
    # scipy.stats alone takes longer to import than the rest of the package
    code = "import sys, mixtvp; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(mixtvp.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
