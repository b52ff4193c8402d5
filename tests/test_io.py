"""Tests for data transforms, factor extraction and config parsing."""

import re

import numpy as np
import pytest

from mixtvp.indicators import BernoulliCounts, MsCounts
from mixtvp.io import (
    TimeSeriesPanel,
    load_panel_csv,
    parse_config,
    principal_components,
    run_config,
    standardize,
    transform_series,
)


# ----------------------------------------------------------------------
# transforms


def test_tcode_identity():
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(transform_series(x, 1), x)


def test_tcode_log_diff():
    x = np.array([1.0, np.e, np.e**2])
    out = transform_series(x, 5)
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)


def test_tcode_growth_diff():
    # growth rates of 1,2,4,8 are all 1.0, so differences vanish
    x = np.array([1.0, 2.0, 4.0, 8.0])
    out = transform_series(x, 7)
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)


def test_tcode_domain_errors():
    with pytest.raises(ValueError, match="positive"):
        transform_series(np.array([1.0, -1.0, 2.0]), 5)
    with pytest.raises(ValueError, match="zero"):
        transform_series(np.array([1.0, 0.0, 2.0]), 7)
    with pytest.raises(ValueError, match="code"):
        transform_series(np.array([1.0, 2.0]), 4)


def test_panel_transformed_alignment():
    # one level column, one log-diff column: all columns trimmed to the
    # shortest transformed length
    dates = np.arange(5, dtype=float)
    values = np.column_stack([np.arange(5.0) + 1.0, np.exp(np.arange(5.0))])
    panel = TimeSeriesPanel(dates=dates, names=("a", "b"), values=values, tcodes=(1, 5))
    out = panel.transformed()
    assert out.values.shape == (4, 2)
    assert out.tcodes == (1, 1)
    np.testing.assert_array_equal(out.dates, dates[1:])
    np.testing.assert_allclose(out.values[:, 0], [2.0, 3.0, 4.0, 5.0])
    np.testing.assert_allclose(out.values[:, 1], np.ones(4), atol=1e-12)


# ----------------------------------------------------------------------
# standardization


def test_standardize_two_points():
    values = np.array([[0.0], [2.0]])
    std, mean, sd = standardize(values)
    # sample sd with ddof=1 is sqrt(2), so entries are -+1/sqrt(2)
    np.testing.assert_allclose(std[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert mean[0] == 1.0
    np.testing.assert_allclose(sd[0], np.sqrt(2.0))


def test_standardize_constant_column_errors():
    with pytest.raises(ValueError, match="variance"):
        standardize(np.array([[1.0, 2.0], [1.0, 3.0]]))


def test_standardize_idempotent_and_invertible():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(40, 3)) * np.array([2.0, 0.5, 7.0]) + 4.0
    std, mean, sd = standardize(values)
    again, m2, s2 = standardize(std)
    np.testing.assert_allclose(again, std, atol=1e-12)
    np.testing.assert_allclose(m2, 0.0, atol=1e-14)
    np.testing.assert_allclose(s2, 1.0, atol=1e-12)
    np.testing.assert_allclose(std * sd + mean, values, rtol=1e-12)


# ----------------------------------------------------------------------
# principal components


def test_pca_rank_one():
    rng = np.random.default_rng(5)
    f = rng.normal(size=30)
    load = np.array([1.0, -2.0, 0.5])
    values = np.outer(f, load)
    factors, loadings, shares = principal_components(values, 1)
    # a rank-one panel is reproduced exactly by one factor
    np.testing.assert_allclose(factors @ loadings.T, values, atol=1e-10)
    np.testing.assert_allclose(shares, [1.0], atol=1e-12)
    np.testing.assert_allclose(np.var(factors[:, 0], ddof=1), 1.0, rtol=1e-10)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(6)
    values = rng.normal(size=(25, 3))
    factors, loadings, shares = principal_components(values, 3)
    np.testing.assert_allclose(factors @ loadings.T, values, atol=1e-10)
    np.testing.assert_allclose(shares.sum(), 1.0, atol=1e-12)


def test_pca_shares_orthogonal_design():
    # columns scaled to known variances: shares follow the variance ratios
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(60, 2)))
    values = np.column_stack([q[:, 0] * 6.0, q[:, 1] * 2.0])
    _, _, shares = principal_components(values, 2)
    np.testing.assert_allclose(shares, [0.9, 0.1], atol=1e-12)


def test_pca_sign_convention():
    rng = np.random.default_rng(8)
    f = rng.normal(size=40)
    values = np.outer(f, [-3.0, 1.0])
    _, loadings, _ = principal_components(values, 1)
    # the largest-magnitude loading is made positive
    assert loadings[np.argmax(np.abs(loadings[:, 0])), 0] > 0


def test_pca_k_range():
    values = np.random.default_rng(9).normal(size=(10, 2))
    with pytest.raises(ValueError, match="factor"):
        principal_components(values, 0)
    with pytest.raises(ValueError, match="factor"):
        principal_components(values, 3)


# ----------------------------------------------------------------------
# CSV loading


def _write_csv(path, header, rows):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n")


def test_load_panel_selects_by_name(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_csv(
        a,
        "date,x,y,z",
        ["2000-01-01,1,4,7", "2000-02-01,2,5,8", "2000-03-01,3,6,9"],
    )
    # same data, columns shuffled
    _write_csv(
        b,
        "date,z,x,y",
        ["2000-01-01,7,1,4", "2000-02-01,8,2,5", "2000-03-01,9,3,6"],
    )
    sel = [("y", 1), ("x", 1)]
    pa = load_panel_csv(a, sel)
    pb = load_panel_csv(b, sel)
    assert pa.names == ("y", "x")
    np.testing.assert_array_equal(pa.values, pb.values)
    np.testing.assert_array_equal(pa.values[:, 0], [4.0, 5.0, 6.0])
    assert pa.tcodes == (1, 1)


def test_load_panel_all_columns(tmp_path):
    f = tmp_path / "c.csv"
    _write_csv(f, "date,u,v", ["2001-01-01,1,2", "2001-02-01,3,4"])
    panel = load_panel_csv(f)
    assert panel.names == ("u", "v")
    assert panel.tcodes == (1, 1)
    assert panel.values.shape == (2, 2)


def test_load_panel_errors(tmp_path):
    f = tmp_path / "bad.csv"
    _write_csv(f, "date,x", ["2000-01-01,1,9", "2000-02-01,2"])
    with pytest.raises(ValueError, match="row"):
        load_panel_csv(f)
    g = tmp_path / "missing.csv"
    _write_csv(g, "date,x", ["2000-01-01,1", "2000-02-01,2"])
    with pytest.raises(ValueError, match="column"):
        load_panel_csv(g, [("nope", 1)])
    h = tmp_path / "dates.csv"
    _write_csv(h, "date,x", ["2000-02-01,1", "2000-01-01,2"])
    with pytest.raises(ValueError, match="increasing"):
        load_panel_csv(h)


def _panel_error(tmp_path, text) -> str:
    f = tmp_path / "panel.csv"
    f.write_text(text)
    with pytest.raises(ValueError) as info:
        load_panel_csv(f)
    return str(info.value).replace(str(f), "<path>")


def test_load_panel_errors_name_the_file_and_line(tmp_path):
    # line numbers are the file's own, blank lines counted
    head = "date,x,y\n2000-01-01,1,2\n\n"
    assert _panel_error(tmp_path, head + "2000-02-01,2\n") == (
        "<path>, line 4: ragged CSV row of 2 cells, the header has 3"
    )
    assert _panel_error(tmp_path, head + "2000-02-01,2,n/a\n") == (
        "<path>, line 4: could not convert string to float: 'n/a'"
    )
    assert _panel_error(tmp_path, head + "2000-03-01,2,3\n2000-02-01,3,4\n") == (
        "<path>, line 5: dates must be strictly increasing, but '2000-02-01' follows '2000-03-01'"
    )
    assert _panel_error(tmp_path, head + "2000-01-01,2,3\n") == (
        "<path>, line 4: dates must be strictly increasing, but '2000-01-01' follows '2000-01-01'"
    )


def test_the_simulated_regression_design_is_refused_as_a_panel(tmp_path):
    # simulate writes y and the covariates with no date column
    from mixtvp.cli import main

    main(["simulate", "--out", str(tmp_path), "--seed", "0"])
    path = tmp_path / "data.csv"
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}, line 3: dates must be strictly increasing, but '")):
        load_panel_csv(path)


# ----------------------------------------------------------------------
# config parsing


def test_parse_config_basics():
    text = """
    # a comment
    model_class = TVP-MIX
    subclass = FLEX-MS   # trailing comment
    iterations = 50

    seed = 7
    """
    cfg = parse_config(text)
    assert cfg["model_class"] == "TVP-MIX"
    assert cfg["subclass"] == "FLEX-MS"
    assert cfg["iterations"] == "50"
    assert cfg["seed"] == "7"


def test_parse_config_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("model_class = TVP-RW\nbogus_key = 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")
    with pytest.raises(ValueError, match="expected"):
        parse_config("just some words\n")


def test_run_config_builds_spec():
    text = (
        "model_class = TVP-MIX\n"
        "subclass = FLEX-MS\n"
        "p = 2\n"
        "iterations = 40\n"
        "burnin = 20\n"
        "data = panel.csv\n"
        "variables = gdp:5, infl:5, rate:1\n"
        "first_holdout = 30\n"
        "horizons = 1, 4\n"
        "nsim = 16\n"
        "seed = 3\n"
        "benchmark_class = CONST-MIN\n"
    )
    cfg = run_config(text)
    assert cfg.spec.model_class == "TVP-MIX"
    assert cfg.spec.subclass == "FLEX-MS"
    assert cfg.spec.p == 2
    assert cfg.spec.iterations == 40
    assert cfg.variables == (("gdp", 5), ("infl", 5), ("rate", 1))
    assert cfg.horizons == (1, 4)
    assert cfg.nsim == 16
    assert cfg.seed == 3
    assert cfg.benchmark is not None
    assert cfg.benchmark.model_class == "CONST-MIN"
    assert cfg.benchmark.subclass is None
    # benchmark inherits the main run's chain settings
    assert cfg.benchmark.iterations == 40
    assert cfg.benchmark.p == 2


def test_run_config_subclass_none_and_flags():
    text = (
        "model_class = CONST-NG\n"
        "subclass = none\n"
        "sv = false\n"
        "standardize = false\n"
        "pair = 1, 2\n"
        "store = out/est\n"
    )
    cfg = run_config(text)
    assert cfg.spec.model_class == "CONST-NG"
    assert cfg.spec.subclass is None
    assert cfg.spec.sv is False
    assert cfg.standardize is False
    assert cfg.pair == (1, 2)
    assert cfg.store == "out/est"
    # keys no command reads are refused, not ignored
    with pytest.raises(ValueError, match="^line 4: unknown key 'freeze_states'$"):
        run_config(text.replace("standardize = false", "freeze_states = true"))
    with pytest.raises(ValueError, match="^benchmark_subclass needs a benchmark_class entry$"):
        run_config(text + "benchmark_subclass = SINGLE\n")


def test_run_config_refuses_the_removed_bernoulli_pairing_key():
    # the sampler pairs the regime-1 counts with the drawn probability, as
    # the removed default "success" did; the key is unknown as any other
    text = "model_class = TVP-MIX\nsubclass = FLEX-MIX\nbernoulli_pairing = success\n"
    with pytest.raises(ValueError, match="^line 3: unknown key 'bernoulli_pairing'$"):
        run_config(text)


def test_run_config_refuses_a_subclass_on_a_constant_benchmark():
    text = "model_class = TVP-POOL\nsubclass = SINGLE\nbenchmark_class = CONST-MIN\n"
    assert run_config(text).benchmark.subclass is None
    assert run_config(text + "benchmark_subclass = none\n").benchmark.subclass is None
    with pytest.raises(ValueError, match="^benchmark_subclass FLEX-MIX given, but benchmark_class CONST-MIN"):
        run_config(text + "benchmark_subclass = FLEX-MIX\n")
    tvp = run_config(text.replace("CONST-MIN", "TVP-MIX") + "benchmark_subclass = FLEX-MIX\n")
    assert (tvp.benchmark.model_class, tvp.benchmark.subclass) == ("TVP-MIX", "FLEX-MIX")


def test_run_config_validation():
    with pytest.raises(ValueError, match="pair"):
        run_config("model_class = TVP-RW\nsubclass = SINGLE\npair = 1\n")
    with pytest.raises(ValueError, match="model_class"):
        run_config("seed = 1\n")


def test_run_config_refuses_a_zero_minnesota_scale():
    with pytest.raises(ValueError, match="^minnesota_own must be finite and positive, got 0.0$"):
        run_config("model_class = CONST-MIN\nminnesota_own = 0\n")


def test_run_config_refuses_nsim_below_one():
    for nsim in (0, -4):
        with pytest.raises(ValueError, match=f"^nsim must be at least 1, got {nsim}$"):
            run_config(f"model_class = TVP-RW\nsubclass = SINGLE\nnsim = {nsim}\n")
    assert run_config("model_class = TVP-RW\nsubclass = SINGLE\nnsim = 1\n").nsim == 1


def test_run_config_refuses_malformed_prior_counts():
    base = "model_class = TVP-MIX\nsubclass = FLEX-MS\n"
    for line, message in [
        ("ms_counts = 1, 2", r"^ms_counts needs 4 finite positive counts, got \(1.0, 2.0\)$"),
        ("ms_counts = 1, 2, 0, 3", r"^ms_counts needs 4 finite positive counts, got \(1.0, 2.0, 0.0, 3.0\)$"),
        ("ms_counts = 1, inf, 1, 1", r"^ms_counts needs 4 finite positive counts, got \(1.0, inf, 1.0, 1.0\)$"),
        ("bernoulli_counts = 1", r"^bernoulli_counts needs 2 finite positive counts, got \(1.0,\)$"),
        ("bernoulli_counts = -1, nan", r"^bernoulli_counts needs 2 finite positive counts, got \(-1.0, nan\)$"),
    ]:
        with pytest.raises(ValueError, match=message):
            run_config(base + line + "\n")
    spec = run_config(base + "ms_counts = 1, 2, 3, 4\nbernoulli_counts = 5, 6\n").spec
    assert spec.default_ms_counts() == MsCounts(1.0, 2.0, 3.0, 4.0)
    assert spec.default_bernoulli_counts() == BernoulliCounts(5.0, 6.0)


@pytest.mark.parametrize(
    "line, message",
    [
        ("p = two", "p: invalid literal for int() with base 10: 'two'"),
        ("zeta = small", "zeta: could not convert string to float: 'small'"),
        ("ms_counts = 1, x", "ms_counts item 2: could not convert string to float: 'x'"),
        ("horizons = 1, , a", "horizons item 2: invalid literal for int() with base 10: 'a'"),
        ("variables = a:1, b:x", "variables item 2 ('b:x'): invalid literal for int() with base 10: 'x'"),
        ("sv = maybe", "sv: expected a boolean, got 'maybe'"),
    ],
)
def test_config_values_that_do_not_parse_name_their_key(line, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_config(f"model_class = TVP-MIX\nsubclass = FLEX-MS\n{line}\n")
