"""Tests for equation splitting, reduced-form mapping and forecasting."""

import numpy as np
import pytest

import mixtvp.sampler
from mixtvp.banded import NotPositiveDefiniteError
from mixtvp.sampler import (
    CLASS_CONST_MIN,
    CLASS_CONST_NG,
    CLASS_MIX,
    CLASS_POOL,
    CLASS_RW,
    SUB_FLEX_MIX,
    SUB_FLEX_MS,
    SUB_SINGLE,
    SUB_SSVS_MIX,
    ModelSpec,
    PosteriorDraws,
    ar_ols_variances,
)
from mixtvp.var import (
    ForecastDistribution,
    StructuralDraw,
    VarEstimate,
    estimate_var,
    minnesota_variances,
    simulate_predictive,
    split_equations,
    structural_from_paths,
    structural_to_reduced,
)


def test_split_equations_layout():
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(10, 2))
    eqs = split_equations(Y, p=1)
    assert len(eqs) == 2
    y1, x1 = eqs[0]
    y2, x2 = eqs[1]
    assert x1.shape == (9, 3) and x2.shape == (9, 4)
    np.testing.assert_array_equal(y1, Y[1:, 0])
    np.testing.assert_array_equal(y2, Y[1:, 1])
    # equation 2: contemporaneous first variable, then lags, then 1
    np.testing.assert_array_equal(x2[:, 0], Y[1:, 0])
    np.testing.assert_array_equal(x2[:, 1:3], Y[:-1])
    np.testing.assert_array_equal(x2[:, 3], np.ones(9))
    np.testing.assert_array_equal(x1[:, :2], Y[:-1])

    (y, x), = split_equations(Y[:, :1], p=2)
    assert x.shape == (8, 3)
    np.testing.assert_array_equal(x[:, 0], Y[1:-1, 0])
    np.testing.assert_array_equal(x[:, 1], Y[:-2, 0])

    with pytest.raises(ValueError):
        split_equations(Y, p=0)
    with pytest.raises(ValueError):
        split_equations(Y, p=10)


def test_split_equations_ordering_is_deterministic():
    rng = np.random.default_rng(1)
    Y = rng.normal(size=(8, 3))
    perm = [2, 0, 1]
    eqs = split_equations(Y[:, perm], p=1)
    y2, x2 = eqs[1]
    np.testing.assert_array_equal(y2, Y[1:, 0])
    np.testing.assert_array_equal(x2[:, 0], Y[1:, 2])
    np.testing.assert_array_equal(x2[:, 1:4], Y[:-1, perm])


def _random_draw(rng, T=4, m=3, p=2):
    b0 = np.zeros((T, m, m))
    rows, cols = np.tril_indices(m, k=-1)
    b0[:, rows, cols] = rng.normal(size=(T, rows.size))
    return StructuralDraw(
        b0=b0,
        b=rng.normal(size=(T, p, m, m)),
        c=rng.normal(size=(T, m)),
        sigma2=rng.uniform(0.5, 2.0, size=(T, m)),
    )


def test_structural_to_reduced_identity_when_no_contemporaneous():
    rng = np.random.default_rng(2)
    d = _random_draw(rng)
    d2 = StructuralDraw(b0=np.zeros_like(d.b0), b=d.b, c=d.c, sigma2=d.sigma2)
    A, S = structural_to_reduced(d2, 1)
    want = np.concatenate([d.b[1, 0], d.b[1, 1], d.c[1][:, None]], axis=1)
    np.testing.assert_allclose(A, want, atol=1e-14)
    np.testing.assert_allclose(S, np.diag(d.sigma2[1]), atol=1e-14)


def test_structural_to_reduced_hand_example():
    b0 = np.zeros((1, 2, 2))
    b0[0, 1, 0] = 0.5
    b = np.array([[[[0.3, 0.1], [0.0, 0.4]]]])
    c = np.array([[1.0, 2.0]])
    d = StructuralDraw(b0=b0, b=b, c=c, sigma2=np.ones((1, 2)))
    A, S = structural_to_reduced(d, 0)
    np.testing.assert_allclose(S, [[1.0, 0.5], [0.5, 1.25]], atol=1e-12)
    np.testing.assert_allclose(A[0], [0.3, 0.1, 1.0], atol=1e-12)
    np.testing.assert_allclose(A[1], [0.15, 0.45, 2.5], atol=1e-12)


def test_reduced_covariance_always_spd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = _random_draw(rng)
        for t in range(d.n_periods):
            _, S = structural_to_reduced(d, t)
            np.testing.assert_allclose(S, S.T, atol=1e-13)
            assert np.all(np.linalg.eigvalsh(S) > 0)
    with pytest.raises(ValueError):
        structural_to_reduced(d, d.n_periods)


def test_structural_from_paths_positions():
    rng = np.random.default_rng(4)
    T, m, p = 5, 2, 1
    a1 = rng.normal(size=(T, 3))
    a2 = rng.normal(size=(T, 4))
    s1, s2 = rng.uniform(0.5, 1.5, size=(2, T))
    d = structural_from_paths([a1, a2], [s1, s2])
    np.testing.assert_array_equal(d.b0[:, 1, 0], a2[:, 0])
    assert np.all(d.b0[:, 0, :] == 0) and np.all(d.b0[:, 1, 1] == 0)
    np.testing.assert_array_equal(d.b[:, 0, 0, :], a1[:, :2])
    np.testing.assert_array_equal(d.b[:, 0, 1, :], a2[:, 1:3])
    np.testing.assert_array_equal(d.c, np.column_stack([a1[:, -1], a2[:, -1]]))
    with pytest.raises(ValueError):
        structural_from_paths([a1, a1], [s1, s2])


def test_triangular_ols_identity_on_noise_free_data():
    """Per-equation OLS on deterministic data recovers the generator."""
    theta = 0.7
    A_true = 0.95 * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    c_true = np.array([0.5, -0.2])
    T = 60
    Y = np.zeros((T, 2))
    Y[0] = [2.0, -1.0]
    for t in range(1, T):
        Y[t] = A_true @ Y[t - 1] + c_true
    eqs = split_equations(Y, p=1)
    paths = []
    for y, x in eqs:
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        paths.append(np.tile(beta, (T - 1, 1)))
    draw = structural_from_paths(paths, [np.ones(T - 1)] * 2)
    A_hat, _ = structural_to_reduced(draw, 0)
    np.testing.assert_allclose(A_hat[:, :2], A_true, atol=1e-8)
    np.testing.assert_allclose(A_hat[:, 2], c_true, atol=1e-8)


def test_minnesota_variance_pattern():
    rng = np.random.default_rng(5)
    Y = np.column_stack([rng.normal(size=50), 3.0 * rng.normal(size=50)])
    p = 2
    vs = minnesota_variances(Y, p, own=0.2, cross=0.5, level=100.0)
    sig = np.sqrt(ar_ols_variances(Y, p))
    assert vs[0].shape == (5,) and vs[1].shape == (6,)
    assert vs[0][0] == pytest.approx((0.2 / 1) ** 2)
    assert vs[0][2] == pytest.approx((0.2 / 2) ** 2)
    assert vs[0][1] == pytest.approx((0.2 * 0.5 * sig[0] / (1 * sig[1])) ** 2)
    assert vs[0][3] == pytest.approx((0.2 * 0.5 * sig[0] / (2 * sig[1])) ** 2)
    assert vs[0][4] == pytest.approx((0.2 * 100.0 * sig[0]) ** 2)
    # equation 2: contemporaneous slot shares the loose level scale
    assert vs[1][0] == pytest.approx((0.2 * 100.0 * sig[1]) ** 2)
    assert vs[1][2] == pytest.approx((0.2 / 1) ** 2)
    assert vs[1][5] == pytest.approx((0.2 * 100.0 * sig[1]) ** 2)


def _small_var_data(seed=0, T=45, m=2):
    rng = np.random.default_rng(seed)
    Y = np.zeros((T, m))
    A = np.array([[0.5, 0.1], [-0.2, 0.6]])[:m, :m]
    for t in range(1, T):
        Y[t] = A @ Y[t - 1] + 0.3 * rng.normal(size=m)
    return Y


def test_chain_failure_names_equation_iteration_and_step(monkeypatch):
    real_draw = mixtvp.sampler.draw_states_fast
    calls = []

    def draw_failing_on_eighth_call(ytilde, wtilde, a0, Phi, rng):
        calls.append(None)
        if len(calls) == 8:  # equation 2, iteration 3 at five iterations each
            wtilde = wtilde.copy()
            wtilde[5] = np.inf  # what a zero volatility leaves in period 6
        return real_draw(ytilde, wtilde, a0, Phi, rng)

    monkeypatch.setattr(mixtvp.sampler, "draw_states_fast", draw_failing_on_eighth_call)
    spec = ModelSpec(model_class=CLASS_MIX, subclass=SUB_FLEX_MS, iterations=5, burnin=2)
    with pytest.raises(
        NotPositiveDefiniteError, match=r"^equation 2: iteration 3: state draw: .* period 6$"
    ):
        estimate_var(_small_var_data(), 1, spec, seed=4)


def test_estimate_var_minnesota_prior_is_per_equation():
    Y = _small_var_data(seed=3)
    spec = ModelSpec(model_class=CLASS_CONST_MIN, iterations=20, burnin=5)
    est = estimate_var(Y, 1, spec, seed=1)
    assert est.names == ("y1", "y2")
    assert est.n_records == 15
    assert est.equations[1].alpha0.shape == (15, 4)


def _const_record(alpha0, log_var, T=20, K=2):
    n = alpha0.shape[0]
    return PosteriorDraws(
        meta={"model_class": CLASS_CONST_NG},
        alpha0=alpha0,
        h=np.tile(log_var[:, None], (1, T)),
        h0=log_var.copy(),
        sv_mu=log_var.copy(),
        sv_phi=np.zeros(n),
        sv_psi=np.full(n, 1e-18),
        alpha_last=alpha0.copy(),
    )


def test_predictive_constant_analytic_h1():
    """Known AR(1): one-step predictive is Gaussian with known moments."""
    rng = np.random.default_rng(11)
    T = 20
    Y = _small_var_data(seed=2, T=T, m=1)
    a, c, sig2 = 0.6, 0.4, 0.25
    draws = _const_record(np.array([[a, c]]), np.log(np.array([sig2])), T=T, K=2)
    spec = ModelSpec(model_class=CLASS_CONST_NG, iterations=2, burnin=1)
    est = VarEstimate(Y=Y, p=1, spec=spec, equations=[draws], names=("y1",))
    fd = simulate_predictive(est, horizon=1, nsim=40000, rng=rng)
    want_mean = a * Y[-1, 0] + c
    np.testing.assert_allclose(fd.h1_mean, want_mean, atol=1e-12)
    np.testing.assert_allclose(fd.h1_var, sig2, rtol=1e-6)
    assert abs(fd.draws[:, 0, 0].mean() - want_mean) < 4 * np.sqrt(sig2 / 40000)
    assert abs(fd.draws[:, 0, 0].var() - sig2) < 0.02 * sig2


def test_predictive_zero_state_variance_is_plugin():
    rng = np.random.default_rng(12)
    T = 15
    Y = _small_var_data(seed=4, T=T, m=1)
    alpha_last = np.array([[0.8, 0.1]])
    draws = PosteriorDraws(
        meta={},
        alpha0=np.array([[0.0, 0.0]]),
        h=np.full((1, T), np.log(0.09)),
        h0=np.array([np.log(0.09)]),
        sv_mu=np.array([np.log(0.09)]),
        sv_phi=np.array([0.0]),
        sv_psi=np.array([1e-18]),
        alpha_last=alpha_last,
        sqrt_psi1=np.zeros((1, 2)),
    )
    spec = ModelSpec(
        model_class=CLASS_RW, subclass=SUB_SINGLE, iterations=2, burnin=1
    )
    est = VarEstimate(Y=Y, p=1, spec=spec, equations=[draws], names=("y1",))
    fd = simulate_predictive(est, horizon=2, nsim=200, rng=rng)
    want = 0.8 * Y[-1, 0] + 0.1
    np.testing.assert_allclose(fd.h1_mean, want, atol=1e-12)

    frozen = simulate_predictive(est, horizon=1, nsim=50, rng=rng, freeze_states=True)
    np.testing.assert_allclose(frozen.h1_var, 0.09, atol=1e-15)


def test_predictive_smoke_across_grid():
    Y = _small_var_data(seed=9, T=40, m=2)
    rng = np.random.default_rng(77)
    cells = [(c, s) for c in (CLASS_MIX, CLASS_POOL, CLASS_RW)
             for s in (SUB_FLEX_MS, SUB_FLEX_MIX, SUB_SINGLE, SUB_SSVS_MIX)]
    cells += [(CLASS_CONST_NG, None), (CLASS_CONST_MIN, None)]
    for model_class, subclass in cells:
        spec = ModelSpec(
            model_class=model_class, subclass=subclass, iterations=8, burnin=4,
            n_clusters=4,
        )
        est = estimate_var(Y, 1, spec, seed=5)
        fd = simulate_predictive(est, horizon=3, nsim=4, rng=rng)
        assert fd.draws.shape == (16, 3, 2)
        assert np.all(np.isfinite(fd.draws))
        assert fd.draws[:, 0, 0].std() > 0
        assert np.all(fd.h1_var > 0)
    with pytest.raises(ValueError):
        simulate_predictive(est, horizon=0, nsim=4, rng=rng)


def test_forecast_csv_round_trip():
    fd = ForecastDistribution(
        draws=np.array([[[1.5, -2.25]], [[0.125, 3.0]]]),
        h1_mean=np.zeros((2, 2)),
        h1_var=np.ones((2, 2)),
        names=("infl", "gdp"),
    )
    text = fd.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "draw,horizon,variable,value"
    assert len(lines) == 5
    assert lines[1] == "0,1,infl,1.5"
    assert float(lines[2].rsplit(",", 1)[1]) == -2.25
