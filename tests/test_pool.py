"""Tests for the location-mixture pooling block."""

import numpy as np
import pytest
from scipy import integrate

from mixtvp.pool import (
    PoolPriors,
    PoolState,
    _sum_log_weights,
    _xi_log_kernel,
    coefficient_ranges,
    group_mean_moments,
    _l_posterior_arrays,
    initial_pool_state,
    pool_sweep,
    sample_group_indicators,
    sample_group_means,
    sample_l,
    update_xi,
    weight_posterior_params,
)
from mixtvp.shrinkage import MhScale
from oracles import group_indicators_by_differences
from test_distributions import gig_moment_quadrature


def test_weight_posterior_params_exact():
    theta = np.array([0, 0, 2, 2, 2, 1])
    conc = weight_posterior_params(theta, 4, 0.25)
    np.testing.assert_array_equal(conc, [2.25, 1.25, 3.25, 0.25])


def test_group_mean_moments_hand_example():
    # four observations summing to 8 in one cluster, unit prior scale
    alpha = np.array([[1.0], [3.0], [2.0], [2.0]])
    theta = np.zeros(4, dtype=np.int64)
    mean, var = group_mean_moments(alpha, theta, 2, np.ones(1))
    assert mean[0, 0] == pytest.approx(8.0 / 5.0, rel=1e-14)
    assert var[0, 0] == pytest.approx(1.0 / 5.0, rel=1e-14)
    # empty cluster falls back to the prior
    assert mean[1, 0] == 0.0
    assert var[1, 0] == 1.0


def test_sample_group_means_distribution():
    rng = np.random.default_rng(5)
    alpha = np.array([[1.0, -2.0], [3.0, 0.0], [2.0, 1.0], [2.0, -3.0]])
    theta = np.array([0, 0, 0, 0])
    lam0 = np.array([1.0, 4.0])
    mean, var = group_mean_moments(alpha, theta, 1, lam0)
    n = 40000
    draws = np.stack([sample_group_means(alpha, theta, 1, lam0, rng) for _ in range(n)])
    se = np.sqrt(var / n)
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 5.0 * se)
    assert np.all(np.abs(draws.var(axis=0, ddof=1) / var - 1.0) < 0.05)


def test_l_posterior_params_exact():
    priors = PoolPriors(n_clusters=3, e0=0.6, e1=0.6)
    mu = np.array([[1.0, 0.5], [2.0, -0.5], [0.0, 1.5]])
    ranges = np.array([2.0, 0.5])
    a, b, c = _l_posterior_arrays(mu, ranges, priors)
    assert a == 0.6 - 1.5 and b == 1.2
    assert c[0] == pytest.approx(5.0 / 2.0, rel=1e-14)
    assert c[1] == pytest.approx((0.25 + 0.25 + 2.25) / 0.5, rel=1e-14)


def test_sample_l_mean_matches_quadrature():
    rng = np.random.default_rng(9)
    priors = PoolPriors(n_clusters=4, e0=0.6, e1=0.6)
    mu = rng.normal(size=(4, 1))
    ranges = np.array([1.3])
    a, b, (c,) = _l_posterior_arrays(mu, ranges, priors)
    c = float(c)
    want = gig_moment_quadrature(a, b, c, 1)
    n = 200000
    from mixtvp.distributions import sample_gig_array

    bulk = sample_gig_array(np.full(n, a), b, c, rng)
    se = bulk.std(ddof=1) / np.sqrt(n)
    assert abs(bulk.mean() - want) < 5.0 * se
    draws = np.array([sample_l(mu, ranges, priors, rng)[0] for _ in range(200)])
    assert np.all(draws > 0)


def test_coefficient_ranges_floor():
    alpha = np.zeros((5, 2))
    alpha[:, 1] = np.linspace(-1.0, 3.0, 5)
    r = coefficient_ranges(alpha)
    assert r[0] == 1e-8 and r[1] == pytest.approx(4.0)


def _xi_log_target(xi, omega, priors):
    """Log posterior kernel of the symmetric Dirichlet concentration."""
    return _xi_log_kernel(xi, omega.shape[0], _sum_log_weights(omega), priors.d0)


def test_update_xi_matches_quadrature():
    rng = np.random.default_rng(123)
    priors = PoolPriors(n_clusters=3, d0=2.0)
    omega = np.array([0.7, 0.2, 0.1])

    def target(x):
        return np.exp(_xi_log_target(x, omega, priors))

    norm, _ = integrate.quad(target, 0, 20.0, limit=200)
    want, _ = integrate.quad(lambda x: x * target(x), 0, 20.0, limit=200)
    want /= norm

    xi = 1.0
    n, burn = 200000, 2000
    rec = np.empty(n)
    for j in range(n + burn):
        xi, _ = update_xi(xi, omega, priors, rng, scale=0.5)
        if j >= burn:
            rec[j - burn] = xi
    # deflate the effective sample size for autocorrelation
    acf1 = np.corrcoef(rec[:-1], rec[1:])[0, 1]
    ess = n * (1.0 - acf1) / (1.0 + acf1)
    se = rec.std(ddof=1) / np.sqrt(max(ess, 100.0))
    assert abs(rec.mean() - want) < 6.0 * se


def test_group_indicator_frequencies():
    rng = np.random.default_rng(31)
    mu = np.array([[-2.0], [2.0]])
    omega = np.array([0.3, 0.7])
    alpha = np.array([[0.5]])
    logw = np.log(omega) - 0.5 * (alpha[0, 0] - mu[:, 0]) ** 2
    want = np.exp(logw - logw.max())
    want /= want.sum()
    n = 40000
    hits = np.zeros(2)
    for _ in range(n):
        hits[sample_group_indicators(alpha, omega, mu, rng)[0]] += 1
    freq = hits / n
    se = np.sqrt(want * (1 - want) / n)
    assert np.all(np.abs(freq - want) < 5.0 * se)


def test_group_indicators_match_difference_oracle_on_the_same_stream():
    rng = np.random.default_rng(32)
    for _ in range(40):
        T = int(rng.integers(1, 60))
        N = int(rng.integers(1, 12))
        K = int(rng.integers(1, 16))
        alpha = rng.normal(size=(T, K)) * rng.uniform(0.1, 3.0)
        mu = rng.normal(size=(N, K)) * rng.uniform(0.1, 3.0)
        omega = rng.dirichlet(np.full(N, 0.3))
        seed = int(rng.integers(2**32))
        got = sample_group_indicators(alpha, omega, mu, np.random.default_rng(seed))
        want = group_indicators_by_differences(alpha, omega, mu, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)


def test_group_mean_moments_match_per_cluster_sums():
    rng = np.random.default_rng(33)
    for _ in range(20):
        T, N, K = int(rng.integers(1, 40)), int(rng.integers(1, 8)), int(rng.integers(1, 5))
        alpha = rng.normal(size=(T, K))
        theta = rng.integers(0, N, size=T)
        lam0 = rng.uniform(0.5, 2.0, size=K)
        mean, var = group_mean_moments(alpha, theta, N, lam0)
        for j in range(N):
            rows = alpha[theta == j]
            prec = rows.shape[0] + 1.0 / lam0
            np.testing.assert_allclose(mean[j], rows.sum(axis=0) / prec, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(var[j], 1.0 / prec, rtol=1e-14)


def test_pool_sweep_and_state():
    rng = np.random.default_rng(8)
    T, K = 30, 2
    priors = PoolPriors(n_clusters=5)
    state = initial_pool_state(T, K, priors, rng)
    alpha = rng.normal(size=(T, K))
    for _ in range(5):
        state = pool_sweep(alpha, state, priors, rng, MhScale(scale=0.3))
    assert state.occupancy().sum() == T
    assert state.prior_mean_stack().shape == (T, K)
    np.testing.assert_array_equal(state.prior_mean_stack(), state.mu[state.theta])
    assert np.all(state.l > 0) and state.xi > 0
    assert state.omega.sum() == pytest.approx(1.0, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        PoolPriors(n_clusters=0)
    with pytest.raises(ValueError):
        PoolPriors(d0=-1.0)
    good = dict(
        omega=np.full(3, 1 / 3),
        xi=1.0,
        theta=np.zeros(4, dtype=np.int64),
        mu=np.zeros((3, 2)),
        l=np.ones(2),
    )
    PoolState(**good)
    with pytest.raises(ValueError):
        PoolState(**{**good, "xi": 0.0})
    with pytest.raises(ValueError):
        PoolState(**{**good, "theta": np.array([0, 1, 2, 3])})
    with pytest.raises(ValueError):
        PoolState(**{**good, "l": np.ones(3)})


def test_pool_labels_name_their_step_for_a_non_finite_state():
    rng = np.random.default_rng(3)
    alpha = rng.normal(size=(6, 2))
    alpha[4, 1] = np.nan
    with pytest.raises(ValueError, match="pool labels: .*row 4 "):
        sample_group_indicators(alpha, np.full(3, 1.0 / 3.0), rng.normal(size=(3, 2)), rng)
