"""Tests for equation splitting, reduced-form mapping and forecasting."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

import mixtvp.sampler
import mixtvp.sv
import mixtvp.var
from mixtvp.banded import NotPositiveDefiniteError
from mixtvp.dgp import generate_var_break
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
    StructuralDraw,
    _forward_substitute,
    VarEstimate,
    estimate_var,
    minnesota_variances,
    reduced_from_paths,
    simulate_predictive,
    split_equations,
    structural_from_paths,
    structural_to_reduced,
)
from oracles import predictive_per_record


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


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("batch", [(), (4,), (3, 2)])
@pytest.mark.parametrize("columns", [None, 3])
def test_forward_substitution_matches_dense_solve(m, batch, columns):
    # B0 packed row after row on the first axis, B0[i, j] at i(i-1)/2 + j;
    # with columns, b0 broadcasts over a trailing axis of v, as in the
    # reduced form; rows before start are read as zero and left alone
    rng = np.random.default_rng(100 * m + len(batch))
    trail = () if columns is None else (columns,)
    rows, cols = np.tril_indices(m, -1)
    b0 = 0.5 * rng.normal(size=(rows.size,) + batch)
    dense = np.zeros(batch + (m, m))
    dense[..., rows, cols] = np.moveaxis(b0, 0, -1)
    if columns is not None:
        b0, dense = b0[..., None], dense[..., None, :, :]
    for start in range(m):
        v = rng.normal(size=(m,) + batch + trail)
        rhs = v.copy()
        rhs[:start] = 0.0
        want = np.linalg.solve(np.eye(m) - dense, np.moveaxis(rhs, 0, -1)[..., None])[..., 0]
        v[:start] = np.nan
        _forward_substitute(b0, v, start)
        assert np.isnan(v[:start]).all()
        np.testing.assert_allclose(np.moveaxis(v[start:], 0, -1), want[..., start:], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("p", [1, 2])
def test_reduced_from_paths_equals_the_per_draw_form_bit_for_bit(m, p):
    # m = 4 is the smallest system whose B0 packs differently row after row
    # than column after column
    rng = np.random.default_rng(10 * m + p)
    n, T = 3, 5
    alphas = [0.5 * rng.normal(size=(n, T, m * p + i + 1)) for i in range(m)]
    sigma2s = [rng.uniform(0.5, 2.0, size=(n, T)) for _ in range(m)]
    A, Sigma = reduced_from_paths(alphas, sigma2s)
    assert A.shape == (n, T, m, m * p + 1) and Sigma.shape == (n, T, m, m)
    for r in range(n):
        draw = structural_from_paths([a[r] for a in alphas], [s[r] for s in sigma2s])
        for t in range(T):
            want_A, want_Sigma = structural_to_reduced(draw, t)
            np.testing.assert_array_equal(A[r, t], want_A)
            np.testing.assert_array_equal(Sigma[r, t], want_Sigma)


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
        estimate_var(_small_var_data(), spec, seed=4)


def test_constant_block_failure_names_equation_iteration_and_step(monkeypatch):
    real_draw = mixtvp.sampler.draw_constant_block
    calls = []

    def draw_failing_on_eighth_call(y, xhat, sigma, tau, rng):
        calls.append(None)
        if len(calls) == 8:  # equation 2, iteration 3 at five iterations each
            tau = tau.copy()
            tau[1] = -1e-6  # a negative prior variance swamps the data
        return real_draw(y, xhat, sigma, tau, rng)

    monkeypatch.setattr(mixtvp.sampler, "draw_constant_block", draw_failing_on_eighth_call)
    spec = ModelSpec(model_class=CLASS_CONST_NG, iterations=5, burnin=2)
    with pytest.raises(
        NotPositiveDefiniteError,
        match=r"^equation 2: iteration 3: constant block: precision not positive definite$",
    ):
        estimate_var(_small_var_data(), spec, seed=4)


@pytest.mark.parametrize(
    "target,error,message",
    [
        # a NaN in the log-variance path reaches the psi draw's GIG parameters
        ("_draw_h_joint", ValueError, "volatility psi draw: GIG parameters must be finite"),
        # a NaN innovation variance reaches the interweaving precision
        (
            "_draw_psi_centered",
            NotPositiveDefiniteError,
            "volatility interweave: precision not positive definite",
        ),
    ],
)
def test_volatility_failure_names_equation_iteration_and_step(monkeypatch, target, error, message):
    real_step = getattr(mixtvp.sv, target)
    calls = []

    def step_failing_on_eighth_call(*args):
        calls.append(None)
        out = real_step(*args)
        if len(calls) == 8:  # equation 2, iteration 3 at five iterations each
            if target == "_draw_h_joint":
                out = out.copy()
                out[5] = np.nan
            else:
                out = np.nan
        return out

    monkeypatch.setattr(mixtvp.sv, target, step_failing_on_eighth_call)
    spec = ModelSpec(model_class=CLASS_CONST_NG, iterations=5, burnin=2)
    with pytest.raises(error, match=rf"^equation 2: iteration 3: {message}$"):
        estimate_var(_small_var_data(), spec, seed=4)


def test_estimate_var_minnesota_prior_is_per_equation():
    Y = _small_var_data(seed=3)
    spec = ModelSpec(model_class=CLASS_CONST_MIN, iterations=20, burnin=5)
    est = estimate_var(Y, spec, seed=1)
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


def _forced_regime_record(rng, K, T, law):
    """Records whose regime at T+1 is forced and whose arriving roots are 0
    except where the departing root is 0, so that alpha at T+1 is fixed up
    to noise 1e-150 times its size.

    Record 0 stays in its regime (plug-in), record 1 switches into zero
    roots (alpha0; under FLEX-MIX some of its coefficients stay), record 2
    switches out of a zero root into a non-zero one (the floored ratio
    carries (alpha_T - alpha0) / 1e-150).
    """
    n = 3
    alpha0, alpha_last = rng.normal(size=(n, K)), rng.normal(size=(n, K))
    s_last = np.array([1, 0, 0])[:, None] * np.ones((1, K), dtype=int)
    s_next = np.array([1, 1, 1])[:, None] * np.ones((1, K), dtype=int)
    if law == SUB_FLEX_MIX:
        # per-coefficient regimes; record 1 mixes staying and switching
        s_last, s_next = rng.integers(0, 2, size=(n, K)), rng.integers(0, 2, size=(n, K))
        s_last[0], s_next[2] = s_next[0], 1 - s_last[2]
    roots = rng.uniform(0.1, 0.5, size=(2, n, K)) * rng.choice([-1.0, 1.0], size=(2, n, K))
    for r in range(n):
        for k in range(K):
            roots[s_next[r, k], r, k] = 0.0
            if r == 2 and s_last[r, k] != s_next[r, k]:
                roots[s_last[r, k], r, k] = 0.0
                roots[s_next[r, k], r, k] = 0.4
    log_var = np.log(rng.uniform(0.2, 1.0, size=n))
    fields = dict(
        meta={},
        alpha0=alpha0,
        h=np.tile(log_var[:, None], (1, T)),
        h0=log_var.copy(),
        sv_mu=log_var.copy(),
        sv_phi=np.zeros(n),
        sv_psi=np.full(n, 1e-18),
        alpha_last=alpha_last,
        sqrt_psi1=roots[1],
        sqrt_psi0=roots[0],
        S_last=s_last,
    )
    if law == SUB_FLEX_MS:
        # p00 and p11 in {0, 1}: regime 1 next in every record
        fields.update(p00=np.zeros(n), p11=np.ones(n))
    else:
        fields.update(p_mix=s_next.astype(float))
    return PosteriorDraws(**fields)


@pytest.mark.parametrize("model_class", [CLASS_RW, CLASS_MIX])
@pytest.mark.parametrize("subclass", [SUB_FLEX_MS, SUB_FLEX_MIX])
def test_predictive_forced_regimes_and_zero_roots_match_oracle(model_class, subclass):
    # alpha at T+1 is fixed, so the one-step means agree whatever the
    # random streams; record 2 reads ~1e150 and tests the 1e-150 floor
    rng = np.random.default_rng(21)
    T = 15
    Y = _small_var_data(seed=6, T=T, m=2)
    eqs = [_forced_regime_record(rng, 2 + i + 1, T, subclass) for i in range(2)]
    spec = ModelSpec(model_class=model_class, subclass=subclass, iterations=4, burnin=1)
    est = VarEstimate(Y=Y, p=1, spec=spec, equations=eqs, names=("y1", "y2"))
    fd = simulate_predictive(est, horizon=1, nsim=50, rng=np.random.default_rng(1))
    _, h1_mean, _ = predictive_per_record(est, 1, 50, np.random.default_rng(2))
    np.testing.assert_allclose(fd.h1_mean, h1_mean, rtol=1e-12, atol=1e-12)
    assert np.abs(fd.h1_mean[100:]).min() > 1e140
    if subclass == SUB_FLEX_MS:
        # record 0 keeps alpha_T, record 1 moves to alpha0
        x = np.append(Y[-1], 1.0)
        for r, source in ((0, "alpha_last"), (1, "alpha0")):
            coef = getattr(eqs[0], source)[r]
            np.testing.assert_allclose(fd.h1_mean[r * 50 : (r + 1) * 50, 0], coef @ x, rtol=1e-12)


@pytest.mark.parametrize("model_class", [CLASS_RW, CLASS_MIX])
def test_predictive_zero_root_regime_builds_no_deviation(model_class):
    # y = intercept + ~0 shock; the intercept's regime-0 root is 0 and its
    # deviation starts at 0, regime 1 (root 1) is absorbing and entered
    # with probability 1/2 a period.  Entering at step tau leaves
    # h - tau + 1 unit innovations at step h, none from the stay in regime
    # 0, so E[y_h^2] = sum_tau 2^-tau (h - tau + 1)
    T, log_var = 10, np.log(1e-30)
    record = PosteriorDraws(
        meta={},
        alpha0=np.zeros((1, 2)),
        h=np.full((1, T), log_var),
        h0=np.array([log_var]),
        sv_mu=np.array([log_var]),
        sv_phi=np.zeros(1),
        sv_psi=np.full(1, 1e-18),
        alpha_last=np.zeros((1, 2)),
        sqrt_psi1=np.array([[0.0, 1.0]]),
        sqrt_psi0=np.zeros((1, 2)),
        S_last=np.zeros((1, 2), dtype=int),
        p00=np.array([0.5]),
        p11=np.array([1.0]),
    )
    spec = ModelSpec(model_class=model_class, subclass=SUB_FLEX_MS, iterations=2, burnin=1)
    est = VarEstimate(Y=_small_var_data(seed=4, T=T, m=1), p=1, spec=spec, equations=[record], names=("y1",))
    fd = simulate_predictive(est, horizon=3, nsim=20000, rng=np.random.default_rng(5))
    for h in (1, 2, 3):
        sq = fd.draws[:, h - 1, 0] ** 2
        want = sum(0.5**tau * (h - tau + 1) for tau in range(1, h + 1))
        assert abs(sq.mean() - want) < 4 * sq.std() / np.sqrt(sq.size), (h, sq.mean(), want)


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
        est = estimate_var(Y, spec, seed=5)
        fd = simulate_predictive(est, horizon=3, nsim=4, rng=rng)
        assert fd.draws.shape == (16, 3, 2)
        assert np.all(np.isfinite(fd.draws))
        assert fd.draws[:, 0, 0].std() > 0
        assert np.all(fd.h1_var > 0)
    with pytest.raises(ValueError):
        simulate_predictive(est, horizon=0, nsim=4, rng=rng)


# every cell of the smoke grid at lag order 1, and two at lag order 2 so
# that the lags shift
PREDICTIVE_CELLS = [
    (c, s, 1) for c in (CLASS_MIX, CLASS_POOL, CLASS_RW)
    for s in (SUB_FLEX_MS, SUB_FLEX_MIX, SUB_SINGLE, SUB_SSVS_MIX)
] + [(CLASS_CONST_NG, None, 1), (CLASS_CONST_MIN, None, 1)]
PREDICTIVE_CELLS += [(CLASS_RW, SUB_FLEX_MS, 2), (CLASS_CONST_MIN, None, 2)]


@pytest.mark.parametrize("model_class, subclass, p", PREDICTIVE_CELLS)
def test_predictive_matches_per_record_oracle_in_law(model_class, subclass, p):
    # paths are iid within a record, so the two samplers are compared per
    # record and per (horizon, variable) by two-sample KS tests, Bonferroni
    # over every test of every cell for a 1% family-wise level
    spec = ModelSpec(
        model_class=model_class, subclass=subclass, p=p, iterations=8, burnin=4, n_clusters=4
    )
    est = estimate_var(_small_var_data(seed=9, T=40, m=2), spec, seed=5)
    nsim, horizon = 2000, 3
    n_tests = len(PREDICTIVE_CELLS) * est.n_records * horizon * est.m
    fd = simulate_predictive(est, horizon, nsim, np.random.default_rng(31))
    draws, _, _ = predictive_per_record(est, horizon, nsim, np.random.default_rng(32))
    worst = []
    for r in range(est.n_records):
        rows = slice(r * nsim, (r + 1) * nsim)
        for h in range(horizon):
            for j in range(est.m):
                pval = ks_2samp(fd.draws[rows, h, j], draws[rows, h, j]).pvalue
                worst.append((pval, r, h + 1, j + 1))
    assert min(worst)[0] > 0.01 / n_tests, min(worst)


def _doubled_records(est):
    eqs = [
        dataclasses.replace(
            eq, **{f: np.concatenate([getattr(eq, f)] * 2) for f in eq.ARRAY_FIELDS
                   if getattr(eq, f) is not None}
        )
        for eq in est.equations
    ]
    return dataclasses.replace(est, equations=eqs)


def test_predictive_memory_stays_bounded_in_records():
    # 30 records x 1000 paths x 8 periods of a three-variable VAR(2), the
    # posterior benchmark's shape; doubling the records may only add the
    # output itself, plus 1 MB
    spec = ModelSpec(
        model_class=CLASS_MIX, subclass=SUB_FLEX_MS, p=2, iterations=40, burnin=10,
        store_paths=False,
    )
    est = estimate_var(generate_var_break(T=80, seed=1).Y, spec, seed=3)
    assert est.n_records == 30

    def peak_and_output(e):
        tracemalloc.start()
        try:
            fd = simulate_predictive(e, 8, 1000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, fd.draws.nbytes + fd.h1_mean.nbytes + fd.h1_var.nbytes

    peak30, out30 = peak_and_output(est)
    peak60, out60 = peak_and_output(_doubled_records(est))
    assert peak30 <= 10.1e6
    assert peak60 - peak30 <= out60 - out30 + 1e6


def test_predictive_memory_is_bounded_by_the_paths_in_flight_not_the_cpus(monkeypatch):
    # eight CPUs still run at most two blocks of two 1000-path records at
    # once, which is what the byte budget holds
    monkeypatch.setattr(mixtvp.var, "_available_cpus", lambda: 8)
    test_predictive_memory_stays_bounded_in_records()


def test_predictive_memory_at_2000_paths_per_record_is_bounded_by_the_paths_in_flight(monkeypatch):
    # 2000 paths per record run as one-record blocks, two in flight on
    # eight CPUs, as many paths as the two-record blocks at 1000 paths:
    # beyond the larger output, the peak may grow by at most 1 MB, and
    # stays within the 2.9 MB over the output that the 30-record test
    # allows
    monkeypatch.setattr(mixtvp.var, "_available_cpus", lambda: 8)
    spec = ModelSpec(
        model_class=CLASS_MIX, subclass=SUB_FLEX_MS, p=2, iterations=40, burnin=10,
        store_paths=False,
    )
    est = estimate_var(generate_var_break(T=80, seed=1).Y, spec, seed=3)

    def peak_over_output(nsim):
        tracemalloc.start()
        try:
            fd = simulate_predictive(est, 8, nsim, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - (fd.draws.nbytes + fd.h1_mean.nbytes + fd.h1_var.nbytes)

    extra = peak_over_output(2000)
    assert extra <= 2.9e6
    assert extra <= peak_over_output(1000) + 1e6


def _stable_var2_panel(m, T, seed):
    """A T x m panel from a stable VAR(2) with nearest-neighbour links."""
    rng = np.random.default_rng(seed)
    A1 = 0.4 * np.eye(m) + 0.05 * np.eye(m, k=-1)
    A2 = 0.2 * np.eye(m)
    Y = np.zeros((T, m))
    for t in range(2, T):
        Y[t] = A1 @ Y[t - 1] + A2 @ Y[t - 2] + 0.3 * rng.normal(size=m)
    return Y


def test_predictive_memory_of_a_large_model_is_bounded_by_the_byte_budget(monkeypatch):
    # an eight-variable VAR(2) has 164 state rows, several kB per path, so
    # a 1000-path record does not fit one block: its runs are sized to
    # the 3 MB the blocks may hold together.  Beyond the output, the peak
    # may hold that budget plus what the call holds at one path per record
    monkeypatch.setattr(mixtvp.var, "_available_cpus", lambda: 8)
    spec = ModelSpec(
        model_class=CLASS_MIX, subclass=SUB_FLEX_MS, p=2, iterations=13, burnin=10,
        store_paths=False,
    )
    est = estimate_var(_stable_var2_panel(8, 80, seed=1), spec, seed=3)
    assert est.n_records == 3

    def peak_over_output(nsim):
        tracemalloc.start()
        try:
            fd = simulate_predictive(est, 8, nsim, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(fd.draws))
        return peak - (fd.draws.nbytes + fd.h1_mean.nbytes + fd.h1_var.nbytes)

    assert peak_over_output(1000) <= 3e6 + peak_over_output(1)


def _predictive_on_cpus(monkeypatch, est, cpus, horizon, nsim):
    """The predictive with ``cpus`` CPUs available, and the threads that ran its blocks."""
    threads = set()
    run_block = mixtvp.var._simulate_block

    def recording(*args):
        threads.add(threading.get_ident())
        run_block(*args)

    with monkeypatch.context() as patched:
        patched.setattr(mixtvp.var, "_available_cpus", lambda: cpus)
        patched.setattr(mixtvp.var, "_simulate_block", recording)
        fd = simulate_predictive(est, horizon, nsim, np.random.default_rng(4))
    return fd, threads


@pytest.mark.parametrize(
    "model_class, subclass, nsim, max_threads",
    [
        # the posterior benchmark's shape: 30 records of 1000 paths in 16
        # blocks of at most two records, two blocks in flight
        (CLASS_MIX, SUB_FLEX_MS, 1000, 2),
        # four records of 600 paths in this small model make one block
        (CLASS_MIX, SUB_FLEX_MIX, 600, 3),
        (CLASS_POOL, SUB_SINGLE, 600, 3),
        # four records of 2000 paths make two two-record blocks, both in flight
        (CLASS_MIX, SUB_FLEX_MIX, 2000, 2),
        (CLASS_POOL, SUB_SINGLE, 2000, 2),
    ],
)
def test_predictive_draws_do_not_depend_on_the_cpu_count(monkeypatch, model_class, subclass, nsim, max_threads):
    if subclass == SUB_FLEX_MS:
        spec = ModelSpec(
            model_class=model_class, subclass=subclass, p=2, iterations=40, burnin=10,
            store_paths=False,
        )
        est, horizon = estimate_var(generate_var_break(T=80, seed=1).Y, spec, seed=3), 8
        assert est.n_records == 30
    else:
        spec = ModelSpec(model_class=model_class, subclass=subclass, iterations=8, burnin=4, n_clusters=4)
        est, horizon = estimate_var(_small_var_data(seed=9, T=40, m=2), spec, seed=5), 3
    # threads switch often, so that two taking the same block or skipping
    # one would show in the bytes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = {cpus: _predictive_on_cpus(monkeypatch, est, cpus, horizon, nsim) for cpus in (1, 2, 8)}
    finally:
        sys.setswitchinterval(interval)
    assert runs[1][1] == {threading.get_ident()}
    if nsim > 1024:
        # two blocks, enough to keep two threads busy
        assert len(runs[2][1]) == len(runs[8][1]) == 2
    for cpus, (fd, threads) in runs.items():
        assert 1 <= len(threads) <= min(cpus, max_threads)
        for field in ("draws", "h1_mean", "h1_var"):
            assert getattr(fd, field).tobytes() == getattr(runs[1][0], field).tobytes(), (cpus, field)


def test_one_block_runs_on_the_calling_thread(monkeypatch):
    # the forecast harness's shape: 4 records of 200 paths make one block
    spec = ModelSpec(model_class=CLASS_POOL, subclass=SUB_SINGLE, iterations=8, burnin=4, n_clusters=4)
    est = estimate_var(_small_var_data(seed=9, T=40, m=2), spec, seed=5)
    assert est.n_records == 4
    _, threads = _predictive_on_cpus(monkeypatch, est, 8, 2, 200)
    assert threads == {threading.get_ident()}


def test_predictive_calls_on_one_generator_draw_differently():
    # each call seeds its block streams from the generator's stream; a
    # fresh generator of the same seed repeats the first call
    spec = ModelSpec(model_class=CLASS_RW, subclass=SUB_FLEX_MS, iterations=8, burnin=4)
    est = estimate_var(_small_var_data(seed=9, T=40, m=2), spec, seed=5)
    rng = np.random.default_rng(3)
    first = simulate_predictive(est, 2, 300, rng)
    second = simulate_predictive(est, 2, 300, rng)
    again = simulate_predictive(est, 2, 300, np.random.default_rng(3))
    assert not np.any(first.draws == second.draws)
    np.testing.assert_array_equal(again.draws, first.draws)


def test_predictive_blocks_do_not_reuse_the_chain_streams_of_the_same_seed(monkeypatch):
    # estimate_var runs chain i on the i-th child of SeedSequence(seed); a
    # generator made from that seed must not hand those streams to blocks
    spec = ModelSpec(model_class=CLASS_RW, subclass=SUB_FLEX_MS, iterations=8, burnin=4)
    est = estimate_var(_small_var_data(seed=9, T=40, m=2), spec, seed=5)
    firsts = []
    monkeypatch.setattr(mixtvp.var, "_available_cpus", lambda: 1)
    monkeypatch.setattr(mixtvp.var, "_simulate_block", lambda e, recs, rng, *out: firsts.append(rng.random(4)))
    # two records of 2000 paths fit a block of this small model, so its
    # four records make two blocks
    simulate_predictive(est, 2, 2000, np.random.default_rng(5))
    assert len(firsts) == 2
    chains = [np.random.default_rng(c).random(4) for c in np.random.SeedSequence(5).spawn(8)]
    assert not any(np.array_equal(block, chain) for block in firsts for chain in chains)


@pytest.mark.parametrize("width, nsim", [(3, 5), (4, 0)])
def test_refused_predictive_leaves_the_generator_untouched(width, nsim):
    # equation 2 of a VAR(1) in two variables needs 4 coefficients
    Y = _small_var_data(seed=2, T=20, m=2)
    spec = ModelSpec(model_class=CLASS_CONST_NG, iterations=2, burnin=1)
    first = _const_record(np.array([[0.5, 0.1, 0.0]]), np.log(np.array([0.2])), K=3)
    second = _const_record(np.array([[0.2, 0.5, 0.1, 0.0][:width]]), np.log(np.array([0.3])), K=width)
    est = VarEstimate(Y=Y, p=1, spec=spec, equations=[first, second], names=("y1", "y2"))
    rng = np.random.default_rng(0)
    state, spawned = rng.bit_generator.state, rng.bit_generator.seed_seq.n_children_spawned
    with pytest.raises(ValueError):
        simulate_predictive(est, horizon=2, nsim=nsim, rng=rng)
    assert rng.bit_generator.state == state
    assert rng.bit_generator.seed_seq.n_children_spawned == spawned


def test_estimate_refuses_a_lag_order_other_than_the_spec():
    # the spec is the one source of p: a record set built for another
    # lag order is refused, naming both values
    Y = _small_var_data(seed=2, T=20, m=1)
    draws = _const_record(np.array([[0.6, 0.4]]), np.log(np.array([0.25])), T=20, K=2)
    spec = ModelSpec(model_class=CLASS_CONST_NG, p=1, iterations=2, burnin=1)
    with pytest.raises(ValueError, match=r"^lag order p = 2 disagrees with the spec's p = 1$"):
        VarEstimate(Y=Y, p=2, spec=spec, equations=[draws], names=("y1",))
    assert estimate_var(Y, dataclasses.replace(spec, p=2), seed=0).p == 2


def test_predictive_refuses_empty_simulation():
    Y = _small_var_data(seed=2, T=20, m=1)
    draws = _const_record(np.array([[0.6, 0.4]]), np.log(np.array([0.25])), T=20, K=2)
    spec = ModelSpec(model_class=CLASS_CONST_NG, iterations=2, burnin=1)
    est = VarEstimate(Y=Y, p=1, spec=spec, equations=[draws], names=("y1",))
    for nsim in (0, -1):
        with pytest.raises(ValueError, match="nsim must be at least 1"):
            simulate_predictive(est, horizon=2, nsim=nsim, rng=np.random.default_rng(0))


def test_predictive_names_the_equation_with_the_wrong_width():
    # equation 2 of a VAR(1) in two variables needs 4 coefficients; the
    # check runs before any draw, so the generator is left untouched
    Y = _small_var_data(seed=2, T=20, m=2)
    record = _const_record(np.array([[0.5, 0.1, 0.0]]), np.log(np.array([0.2])), K=3)
    spec = ModelSpec(model_class=CLASS_CONST_NG, iterations=2, burnin=1)
    est = VarEstimate(Y=Y, p=1, spec=spec, equations=[record, record], names=("y1", "y2"))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^equation 2 has 3 coefficients; a VAR\(1\) in 2 variables needs 4$"):
        simulate_predictive(est, horizon=2, nsim=5, rng=rng)
    assert rng.bit_generator.state == state
