"""Hierarchy conditional checks: analytic parameters and MH invariance."""

import math

import numpy as np
import pytest
from scipy import integrate

from mixtvp.banded import NotPositiveDefiniteError
from mixtvp.shrinkage import (
    ConstantBlock,
    MhScale,
    NgHyper,
    _factor_block,
    _rho_log_kernel,
    _scale_stats,
    default_ng_hyper,
    draw_constant_block,
    draw_lambda,
    draw_tau,
    lambda_posterior_params,
    log_scale_step,
    update_rho,
)
from mixtvp.pool import PoolPriors, update_xi


def constant_block_moments(y, xhat, sigma, tau):
    """Posterior mean and lower Cholesky factor L of the block precision.

    Both come from the factorization the draws use: L^-T (L^-1 lin) is the mean.
    """
    chol, half = _factor_block(y, xhat, sigma, tau)
    return np.linalg.solve(chol.T, half), chol


def test_constant_block_moments_match_dense_formula():
    rng = np.random.default_rng(0)
    T, m = 40, 6
    xhat = rng.normal(size=(T, m))
    y = rng.normal(size=T)
    sigma = rng.uniform(0.5, 2.0, size=T)
    tau = rng.uniform(0.1, 3.0, size=m)
    mean, chol = constant_block_moments(y, xhat, sigma, tau)
    xw = xhat / sigma[:, None]
    prec = xw.T @ xw + np.diag(1.0 / tau)
    expected_mean = np.linalg.solve(prec, xw.T @ (y / sigma))
    np.testing.assert_allclose(mean, expected_mean, atol=1e-10)
    np.testing.assert_allclose(chol @ chol.T, prec, atol=1e-10)


def test_constant_block_refuses_indefinite_or_non_finite_precision():
    rng = np.random.default_rng(3)
    T, m = 20, 3
    xhat = rng.normal(size=(T, m))
    y = rng.normal(size=T)
    sigma = np.ones(T)
    with pytest.raises(NotPositiveDefiniteError, match="^constant block: precision not positive definite$"):
        constant_block_moments(y, xhat, sigma, np.array([1.0, -1e-6, 1.0]))
    # numpy factors a NaN matrix without complaint
    sigma[4] = np.nan
    with pytest.raises(NotPositiveDefiniteError, match="^constant block: precision not positive definite$"):
        constant_block_moments(y, xhat, sigma, np.ones(m))


def test_constant_block_draw_distribution():
    rng = np.random.default_rng(1)
    T, m = 30, 3
    xhat = rng.normal(size=(T, m))
    y = rng.normal(size=T)
    sigma = np.ones(T)
    tau = np.full(m, 2.0)
    mean, chol = constant_block_moments(y, xhat, sigma, tau)
    cov = np.linalg.inv(chol @ chol.T)
    draws = np.array([draw_constant_block(y, xhat, sigma, tau, rng) for _ in range(30_000)])
    tol = 5 * np.sqrt(np.diag(cov) / 30_000) + 1e-3
    assert np.all(np.abs(draws.mean(axis=0) - mean) < tol)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.02 * np.abs(cov).max() + 1e-3)


def test_lambda_posterior_params_exact():
    # shape = zeta + rho * p, rate = zeta + (rho / 2) * sum(tau)
    tau_group = np.array([1.0, 2.0, 3.0])
    shape, rate = lambda_posterior_params(tau_group, rho=1.0, zeta=0.01)
    assert shape == 0.01 + 1.0 * 3
    assert rate == 0.01 + 0.5 * 6.0
    rng = np.random.default_rng(3)
    draws = np.array([draw_lambda(tau_group, 1.0, 0.01, rng) for _ in range(100_000)])
    assert draws.mean() == pytest.approx(shape / rate, rel=0.02)


def test_draw_tau_gamma_limit_and_floor():
    hyper = default_ng_hyper(K=1, n_variance_groups=0)
    hyper.rho[0] = 1.0
    hyper.lam[0] = 2.0
    rng = np.random.default_rng(4)
    # zero coefficient: GIG(1/2, 2, 0) = Gamma(1/2, 1), mean 1/2
    draws = np.array([draw_tau(np.zeros(1), hyper, rng)[0] for _ in range(100_000)])
    assert draws.mean() == pytest.approx(0.5, rel=0.03)
    assert np.all(draws >= 1e-12)


def _rho_log_target(rho, tau_group, lam):
    return _rho_log_kernel(rho, lam, *_scale_stats(tau_group))


def test_update_rho_targets_correct_density():
    tau_group = np.array([0.5, 1.5, 0.8])
    lam = 1.2
    grid_norm, _ = integrate.quad(lambda r: np.exp(_rho_log_target(r, tau_group, lam)), 1e-8, 60, limit=300)
    target_mean, _ = integrate.quad(
        lambda r: r * np.exp(_rho_log_target(r, tau_group, lam)) / grid_norm, 1e-8, 60, limit=300
    )
    rng = np.random.default_rng(5)
    rho, kept = 1.0, []
    for _ in range(200_000):
        rho, _ = update_rho(tau_group, lam, rho, scale=0.5, rng=rng)
        kept.append(rho)
    kept = np.asarray(kept[5000:])
    se = kept.std(ddof=1) / np.sqrt(kept.size / 20.0)  # crude ESS deflation
    assert abs(kept.mean() - target_mean) < 6 * se + 0.01


class _QueuedDraws:
    """Hands out queued normals and uniforms, and lists the calls in order."""

    def __init__(self, normals, uniforms):
        self.normals, self.uniforms, self.calls = list(normals), list(uniforms), []

    def normal(self):
        self.calls.append("normal")
        return self.normals.pop(0)

    def random(self):
        self.calls.append("random")
        return self.uniforms.pop(0)


def _flat(value):
    return 0.0


@pytest.mark.parametrize("normal", [1e6, -1e6, 700.0], ids=["overflow", "zero", "infinite"])
def test_log_scale_step_refuses_a_proposal_outside_the_positive_reals(normal):
    # exp(1e6) overflows, exp(-1e6) is 0, and 1e10 * exp(700) is inf
    rng = _QueuedDraws([normal], [0.0])
    assert log_scale_step(1e10, 1.0, _flat, rng) == (1e10, False)
    assert rng.calls == ["normal", "random"]


def test_log_scale_step_adds_the_log_jacobian():
    # under a flat kernel the log ratio is the log step itself
    rng = _QueuedDraws([0.1, -2.0], [0.5, 0.5])
    prop, accepted = log_scale_step(2.0, 1.0, _flat, rng)
    assert accepted and prop == 2.0 * math.exp(0.1)
    assert log_scale_step(2.0, 1.0, _flat, rng) == (2.0, False)
    assert rng.calls == ["normal", "random"] * 2


def test_hyper_shape_steps_refuse_an_overflowing_proposal_with_one_normal_and_one_uniform():
    rng = _QueuedDraws([1e6, 1e6], [0.5, 0.5])
    assert update_rho(np.array([0.5, 1.5]), 1.2, 0.7, 1.0, rng) == (0.7, False)
    assert update_xi(0.3, np.array([0.6, 0.4]), PoolPriors(n_clusters=2), rng, 1.0) == (0.3, False)
    assert rng.calls == ["normal", "random"] * 2


def test_mh_scale_adapts_toward_target():
    sc = MhScale(scale=1.0, target=0.3, window=10)
    for _ in range(100):
        sc.record(accepted=False, adapting=True)
    assert sc.scale < 1.0
    frozen = sc.scale
    for _ in range(100):
        sc.record(accepted=True, adapting=False)
    assert sc.scale == frozen


def test_group_slices_and_per_coef_shapes():
    # group g owns block entries g*K .. (g+1)*K - 1: means, slab roots, spike roots
    for n_variance_groups in (0, 1, 2):
        G = 1 + n_variance_groups
        hyper = default_ng_hyper(K=3, n_variance_groups=n_variance_groups)
        assert hyper.tau.shape == (3 * G,)
        assert len(hyper.lam) == len(hyper.rho) == G
    hyper = NgHyper(tau=np.ones(9), lam=[1.0, 2.0, 3.0], rho=[0.5, 0.6, 0.7])
    rho, lam = hyper.per_coef()
    assert rho.shape == lam.shape == (9,)
    np.testing.assert_array_equal(lam, np.repeat([1.0, 2.0, 3.0], 3))
    np.testing.assert_array_equal(rho[3:6], [0.6, 0.6, 0.6])
    with pytest.raises(ValueError):
        default_ng_hyper(K=3, n_variance_groups=3)


def test_constant_block_shape_validation():
    with pytest.raises(ValueError):
        ConstantBlock(alpha0=np.zeros(3), sqrt_psi1=np.zeros(2))
    ConstantBlock(alpha0=np.zeros(2), sqrt_psi1=np.array([0.5, -0.2]))
