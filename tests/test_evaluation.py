"""Tests for the forecast harness and scoring metrics."""

import numpy as np
import pytest
from scipy import stats

from mixtvp.dgp import generate_var_break
from mixtvp.evaluation import (
    LPS_FLOOR,
    ForecastRecord,
    crps,
    equal_accuracy_test,
    expanding_windows,
    log_predictive_score,
    lpbf_csv,
    parse_scores_csv,
    ratio_table_csv,
    run_forecast_harness,
    score_rows,
    scores_csv,
    tables_from_scores,
)
from mixtvp.sampler import CLASS_CONST_MIN, CLASS_CONST_NG, ModelSpec


def test_expanding_window_schedule():
    # 0-based: first hold-out index 7 is the 8th observation of T=10
    sched = expanding_windows(10, 7, (1,))
    assert sched == [(6, 1, 7), (7, 1, 8), (8, 1, 9)]
    sched2 = expanding_windows(10, 7, (1, 4))
    assert (6, 4, 10) not in sched2
    assert (6, 1, 7) in sched2 and (8, 1, 9) in sched2
    assert expanding_windows(10, 9, (1,)) == [(8, 1, 9)]
    with pytest.raises(ValueError):
        expanding_windows(10, 9, (5,))
    with pytest.raises(ValueError):
        expanding_windows(10, 0, (1,))


def test_crps_closed_forms():
    rng = np.random.default_rng(0)
    x = rng.normal(size=100_000)
    want = (np.sqrt(2.0) - 1.0) / np.sqrt(np.pi)
    assert abs(crps(x, 0.0) - want) < 0.01 * want
    assert crps([1.0, 1.0, 1.0], 1.0) == pytest.approx(0.0, abs=1e-15)
    assert crps([0.0, 2.0], 1.0) == pytest.approx(0.5)
    # O(n log n) single-pass pairwise term agrees with the direct double sum
    small = rng.normal(size=40)
    direct = np.abs(small - 0.3).mean() - np.abs(
        small[:, None] - small[None, :]
    ).sum() / (2 * small.size**2)
    assert crps(small, 0.3) == pytest.approx(direct, abs=1e-12)


def _rec(draws, realized, h=2, origin=0, var="y1", comp=None):
    cm, cv = (None, None) if comp is None else comp
    return ForecastRecord(
        origin=origin, horizon=h, variable=var, draws=np.asarray(draws, float),
        realized=realized, comp_mean=cm, comp_var=cv,
    )


def test_lps_component_forms():
    one = _rec([0.0, 0.0], 0.0, h=1, comp=(np.zeros(2), np.ones(2)))
    val, flag = log_predictive_score(one)
    assert not flag
    assert val == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    two = _rec([0.0, 0.0], 0.0, h=1, comp=(np.array([-1.0, 1.0]), np.ones(2)))
    val2, _ = log_predictive_score(two)
    want = np.log(np.mean(stats.norm.pdf(0.0, [-1.0, 1.0], 1.0)))
    assert val2 == pytest.approx(want, abs=1e-12)

    near = _rec([0.0, 0.0], 0.0, h=1, comp=(np.array([-0.5, 0.5]), np.ones(2)))
    val3, _ = log_predictive_score(near)
    assert val3 == pytest.approx(-1.0439, abs=1e-3)

    far = _rec([0.0, 0.0], 1e6, h=1, comp=(np.zeros(2), np.ones(2)))
    val4, flag4 = log_predictive_score(far)
    assert flag4 and val4 == LPS_FLOOR


def test_lps_kde_tracks_gaussian_truth():
    rng = np.random.default_rng(1)
    x = rng.normal(size=50_000)
    val, flag = log_predictive_score(_rec(x, 0.0, h=2))
    assert not flag
    assert val == pytest.approx(stats.norm.logpdf(0.0), abs=0.01)


def _tables(model, bench):
    return tables_from_scores(score_rows(model), score_rows(bench))


def test_rmse_ratio_identities():
    bench, model, half = [], [], []
    rng = np.random.default_rng(2)
    for o in range(6):
        for v in ("a", "b"):
            realized = rng.normal()
            bpoint = realized + rng.normal()
            bench.append(_rec([bpoint, bpoint], realized, h=1, origin=o, var=v))
            model.append(_rec([bpoint, bpoint], realized, h=1, origin=o, var=v))
            mid = realized + 0.5 * (bpoint - realized)
            half.append(_rec([mid, mid], realized, h=1, origin=o, var=v))
    same = _tables(model, bench)["rmse"]
    assert same[(1, "a")] == pytest.approx(1.0) and same[(1, "TOT")] == pytest.approx(1.0)
    halved = _tables(half, bench)["rmse"]
    assert halved[(1, "TOT")] == pytest.approx(0.5)
    assert halved[(1, "b")] == pytest.approx(0.5)
    with pytest.raises(ValueError, match="one-to-one"):
        _tables(model[:-1], bench)


def test_tables_refuse_duplicated_keys_on_either_side():
    rng = np.random.default_rng(12)
    records = []
    for o in range(4):
        realized = rng.normal()
        records.append(_rec(realized + rng.normal(size=2), realized, origin=o))
    once = score_rows(records)
    twice = score_rows(records + records[-1:])
    with pytest.raises(ValueError, match="one-to-one"):
        tables_from_scores(twice, once)
    with pytest.raises(ValueError, match="one-to-one"):
        tables_from_scores(once, twice)


def test_rmse_tot_pooling_vs_averaging():
    bench, model = [], []
    rng = np.random.default_rng(3)
    for o in range(8):
        for v, scale in (("a", 1.0), ("b", 4.0)):
            realized = rng.normal()
            bpoint, mpoint = realized + scale, realized + 0.5 * scale
            bench.append(_rec([bpoint, bpoint], realized, h=1, origin=o, var=v))
            model.append(_rec([mpoint, mpoint], realized, h=1, origin=o, var=v))
    pooled = _tables(model, bench)["rmse"]
    assert pooled[(1, "TOT")] == pytest.approx(0.5)
    # with one variable the pooled TOT is exactly the per-variable ratio
    only_a = [r for r in model if r.variable == "a"]
    only_ab = [r for r in bench if r.variable == "a"]
    one = _tables(only_a, only_ab)["rmse"]
    assert one[(1, "TOT")] == one[(1, "a")]


def test_scale_invariance_of_ratios_and_lpbf():
    rng = np.random.default_rng(4)
    bench, model = [], []
    for o in range(10):
        realized = rng.normal()
        bench.append(_rec(rng.normal(size=200) + realized, realized, origin=o))
        model.append(_rec(rng.normal(size=200) * 0.8 + realized, realized, origin=o))
    base = _tables(model, bench)["rmse"][(2, "TOT")]

    def scaled(rs, c):
        return [
            _rec(np.asarray(r.draws) * c, r.realized * c, origin=r.origin)
            for r in rs
        ]

    big = _tables(scaled(model, 7.0), scaled(bench, 7.0))
    assert big["rmse"][(2, "TOT")] == pytest.approx(base, rel=1e-12)

    _, s1 = _tables(model, bench)["lpbf"]
    _, s2 = big["lpbf"]
    # log-scale shifts cancel in the difference
    np.testing.assert_allclose(s1, s2, atol=1e-9)
    _, same = _tables(model, model)["lpbf"]
    np.testing.assert_allclose(same, 0.0, atol=1e-12)


def test_propriety_of_scores():
    """The generating density wins both CRPS and LPS on average."""
    rng = np.random.default_rng(5)
    reps, n = 1200, 1200
    diffs_crps = np.empty((reps, 2))
    diffs_lps = np.empty((reps, 2))
    for i in range(reps):
        y = rng.normal()
        truth = rng.normal(size=n)
        shifted = rng.normal(size=n) + 0.7
        wide = 2.0 * rng.normal(size=n)
        diffs_crps[i] = [
            crps(shifted, y) - crps(truth, y),
            crps(wide, y) - crps(truth, y),
        ]
        lt, _ = log_predictive_score(_rec(truth, y))
        ls, _ = log_predictive_score(_rec(shifted, y))
        lw, _ = log_predictive_score(_rec(wide, y))
        diffs_lps[i] = [lt - ls, lt - lw]
    assert np.all(diffs_crps.mean(axis=0) > 0)
    assert np.all(diffs_lps.mean(axis=0) > 0)


def test_equal_accuracy_test_behavior():
    rng = np.random.default_rng(6)
    res = equal_accuracy_test(np.ones(20), np.ones(20))
    assert res.degenerate and res.pvalue == 1.0 and res.stars == ""

    # N(0.5, 1) differentials, n=80: power near the analytic normal value
    n, reps = 80, 400
    crit = stats.norm.ppf(0.975)
    want_power = stats.norm.cdf(0.5 * np.sqrt(n) - crit)
    rejects = 0
    for _ in range(reps):
        d = rng.normal(size=n) + 0.5
        r = equal_accuracy_test(d, np.zeros(n))
        rejects += int(r.pvalue < 0.05)
    assert abs(rejects / reps - want_power) < 0.04

    null_rejects = 0
    for _ in range(reps):
        r = equal_accuracy_test(rng.normal(size=n), np.zeros(n))
        null_rejects += int(r.pvalue < 0.05)
    assert abs(null_rejects / reps - 0.05) < 0.04

    strong = equal_accuracy_test(np.zeros(40), np.full(40, 1.0) + rng.normal(size=40) * 0.01)
    assert strong.stars == "***"
    with pytest.raises(ValueError):
        equal_accuracy_test(np.ones(4), np.zeros(4))


def test_harness_smoke_and_tables():
    Y = generate_var_break(T=46, seed=1).Y
    specs = {
        "ng": ModelSpec(model_class=CLASS_CONST_NG, iterations=12, burnin=6),
        "min": ModelSpec(model_class=CLASS_CONST_MIN, iterations=12, burnin=6),
    }
    records = run_forecast_harness(
        Y, specs, first_holdout=42, horizons=(1, 2), nsim=4, seed=9
    )
    # origins 41..44; h=2 infeasible only at the last one
    assert len(records["ng"]) == (4 + 3) * 3
    r0 = records["ng"][0]
    assert r0.comp_mean is not None and r0.horizon == 1
    assert r0.realized == Y[r0.origin + 1, 0]

    tables = {name: _tables(records[name], records["min"]) for name in specs}
    ratios = {name: t["rmse"] for name, t in tables.items()}
    assert ratios["min"][(1, "TOT")] == pytest.approx(1.0)
    header, row = ratio_table_csv("ng", ratios["ng"]).splitlines()
    assert header.startswith("model,h1_TOT,h1_y1")
    assert row.startswith("ng,") and len(row.split(",")) == len(header.split(","))

    for name in specs:
        lines = lpbf_csv(name, *tables[name]["lpbf"]).splitlines()
        assert lines[0] == f"origin,{name}"
        assert [int(ln.split(",")[0]) for ln in lines[1:]] == [41, 42, 43, 44]
    # the benchmark against itself
    assert float(lines[-1].split(",")[1]) == pytest.approx(0.0)


def test_harness_failure_names_the_origin_and_the_model():
    # origin 2 holds three observations, fewer than the four lags need
    Y = generate_var_break(T=40, seed=1).Y
    specs = {"pool": ModelSpec(model_class="TVP-POOL", subclass="SINGLE", p=4, iterations=4, burnin=2)}
    with pytest.raises(ValueError, match="^origin 2, model pool: need more observations than lags$"):
        run_forecast_harness(Y, specs, first_holdout=3, horizons=(1,))


def test_harness_reproducibility():
    Y = generate_var_break(T=40, seed=2).Y[:, :2]
    specs = {"ng": ModelSpec(model_class=CLASS_CONST_NG, iterations=8, burnin=4)}
    a = run_forecast_harness(Y, specs, 37, (1,), nsim=3, seed=5)
    b = run_forecast_harness(Y, specs, 37, (1,), nsim=3, seed=5)
    for ra, rb in zip(a["ng"], b["ng"]):
        np.testing.assert_array_equal(ra.draws, rb.draws)
        np.testing.assert_array_equal(ra.comp_mean, rb.comp_mean)


def test_scores_csv_round_trip_and_tables():
    Y = generate_var_break(T=44, seed=4).Y[:, :2]
    specs = {
        "ng": ModelSpec(model_class=CLASS_CONST_NG, iterations=12, burnin=6),
        "min": ModelSpec(model_class=CLASS_CONST_MIN, iterations=12, burnin=6),
    }
    records = run_forecast_harness(
        Y, specs, first_holdout=34, horizons=(1, 2), nsim=6, seed=13
    )
    rows = score_rows(records["ng"])
    name, parsed = parse_scores_csv(scores_csv(rows, "ng"))
    assert name == "ng"
    # one row per scored record (all have realizations here), read back exactly
    scored = [r for r in records["ng"] if r.realized is not None]
    assert len(rows) == len(scored)
    assert parsed == rows

    # tables rebuilt from the CSV equal the ones computed from the rows
    brows = score_rows(records["min"])
    _, bparsed = parse_scores_csv(scores_csv(brows, "min"))
    direct = tables_from_scores(rows, brows)
    tables = tables_from_scores(parsed, bparsed)
    assert tables["rmse"] == direct["rmse"]
    assert tables["crps"] == direct["crps"]
    assert tables["stars"] == direct["stars"]
    np.testing.assert_array_equal(tables["lpbf"][0], direct["lpbf"][0])
    np.testing.assert_array_equal(tables["lpbf"][1], direct["lpbf"][1])


def test_score_rows_skip_unrealized_and_sort():
    late = _rec([0.0, 1.0], 0.5, h=1, origin=3, var="b")
    early = _rec([0.0, 2.0], 1.5, h=2, origin=1, var="a")
    rows = score_rows([late, _rec([0.0, 1.0], None, origin=0), early])
    assert [(r["origin"], r["horizon"], r["variable"]) for r in rows] == [(1, 2, "a"), (3, 1, "b")]
    assert rows[0]["point"] == 1.0 and rows[0]["sq_error"] == 0.25
    assert rows[0]["crps"] == crps(early.draws, 1.5)
    assert (rows[0]["lps"], bool(rows[0]["lps_floored"])) == log_predictive_score(early)


def test_parse_scores_csv_errors():
    header = (
        "model,origin,horizon,variable,point,realized,sq_error,crps,lps,lps_floored"
    )
    good = header + "\na,1,1,y1,0,0,0,0.1,-1,0\n"
    name, rows = parse_scores_csv(good)
    assert name == "a" and len(rows) == 1
    with pytest.raises(ValueError, match="model"):
        parse_scores_csv(header + "\na,1,1,y1,0,0,0,0.1,-1,0\nb,1,1,y1,0,0,0,0.1,-1,0\n")
    with pytest.raises(ValueError, match="ragged"):
        parse_scores_csv(header + "\na,1,1,y1,0,0\n")
    with pytest.raises(ValueError, match="empty"):
        parse_scores_csv(header + "\n")
