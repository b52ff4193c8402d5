"""Fast state draw against dense and Kalman-filter oracles."""

import warnings

import numpy as np
import pytest

from mixtvp.banded import NotPositiveDefiniteError, build_phi
from mixtvp.shrinkage import ConstantBlock
from mixtvp.statespace import (
    SQRT_PSI_FLOOR,
    build_design_rows,
    draw_states_fast,
    normalized_from_centered,
    reconstruct_centered,
    sqrt_psi_matrix,
    state_precision_band,
)
from oracles import carter_kohn_tvp, dense_phi, dense_state_posterior, state_precision_band_loop


def random_instance(rng, T, K):
    phi = rng.integers(0, 2, size=(T, K)).astype(float)
    sub = build_phi(phi)
    wtilde = rng.normal(size=(T, K))
    ytilde = rng.normal(size=T)
    a0 = rng.normal(size=T * K) * rng.integers(0, 2, size=T * K)
    return ytilde, wtilde, a0, sub


class QueuedNormals:
    """Generator stand-in: each ``normal(size=...)`` call hands out the next queued array."""

    def __init__(self, *arrays):
        self.queue = [np.asarray(a, dtype=float) for a in arrays]

    def normal(self, size):
        return self.queue.pop(0).reshape(size)


def injected_draw(ytilde, wtilde, a0, sub, u, v):
    """The state draw with u and v given instead of drawn."""
    return draw_states_fast(ytilde, wtilde, a0, sub, QueuedNormals(u, v))


def exact_draw_moments(ytilde, wtilde, a0, sub):
    """Mean and covariance of the draw, taken exactly from injected noise.

    The draw is affine in the standard normal noise (u, v), so its mean is
    the draw at zero noise and its covariance the sum of the outer products
    of its responses to each unit vector of (u, v).
    """
    T, K = wtilde.shape
    nu = T * K
    mean = injected_draw(ytilde, wtilde, a0, sub, np.zeros(nu), np.zeros(T))
    cov = np.zeros((nu, nu))
    for e in np.eye(nu + T):
        d = injected_draw(ytilde, wtilde, a0, sub, e[:nu], e[nu:]) - mean
        cov += np.outer(d, d)
    return mean, cov


def test_conditional_mean_identity_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(25):
        T = int(rng.integers(3, 9))
        K = int(rng.integers(1, 4))
        ytilde, wtilde, a0, sub = random_instance(rng, T, K)
        mean_fast = injected_draw(ytilde, wtilde, a0, sub, np.zeros(T * K), np.zeros(T))
        mean_naive, _ = dense_state_posterior(ytilde, wtilde, a0, dense_phi(sub))
        np.testing.assert_allclose(mean_fast, mean_naive, atol=1e-8)


@pytest.mark.parametrize("ar", ["random_walk", "mixed"])
def test_draw_covariance_equals_dense_inverse(ar):
    rng = np.random.default_rng(2)
    for T, K in ((1, 2), (5, 1), (6, 3)):
        ytilde, wtilde, a0, sub = random_instance(rng, T, K)
        if ar == "random_walk":
            sub = build_phi(np.ones((T, K)))
        mean, cov = exact_draw_moments(ytilde, wtilde, a0, sub)
        want_mean, want_cov = dense_state_posterior(ytilde, wtilde, a0, dense_phi(sub))
        np.testing.assert_allclose(mean, want_mean, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(cov, want_cov, rtol=0.0, atol=1e-10)


def dense_rows(wtilde):
    """The (T, T*K) block-diagonal observation matrix W~."""
    T, K = wtilde.shape
    W = np.zeros((T, T * K))
    for t in range(T):
        W[t, t * K:(t + 1) * K] = wtilde[t]
    return W


def dense_draw(ytilde, wtilde, a0, sub, u, v):
    """Q^{-1}(W~'(y~ - v) + Phi'Phi a0 + Phi'u) with Q^{-1} from the dense oracle."""
    W = dense_rows(wtilde)
    D = dense_phi(sub)
    _, cov = dense_state_posterior(ytilde, wtilde, a0, D)
    return cov @ (W.T @ (ytilde - v) + D.T @ D @ a0 + D.T @ u)


def check_injected_noise_draws(rng, ar_diagonals):
    for _ in range(20):
        T = int(rng.integers(2, 9))
        K = int(rng.integers(1, 4))
        ytilde, wtilde, a0, _ = random_instance(rng, T, K)
        sub = build_phi(ar_diagonals(T, K))
        u = rng.normal(size=T * K)
        v = rng.normal(size=T)
        draw = injected_draw(ytilde, wtilde, a0, sub, u, v)
        np.testing.assert_allclose(draw, dense_draw(ytilde, wtilde, a0, sub, u, v), atol=1e-9)


def test_draw_matches_dense_formula_with_injected_noise():
    rng = np.random.default_rng(12)
    check_injected_noise_draws(rng, lambda T, K: rng.integers(0, 2, size=(T, K)).astype(float))


def test_draw_matches_dense_formula_any_ar():
    rng = np.random.default_rng(13)
    check_injected_noise_draws(rng, lambda T, K: rng.uniform(-0.9, 0.9, size=(T, K)))


@pytest.mark.parametrize("K", [20, 35])
def test_draw_matches_dense_formula_at_large_k(K):
    # K = 35 is past LAPACK's block size for the banded Cholesky (32), so
    # the factorization takes its blocked path there
    rng = np.random.default_rng(K)
    for T in (2, 5):
        ytilde, wtilde, a0, sub = random_instance(rng, T, K)
        u = rng.normal(size=T * K)
        v = rng.normal(size=T)
        draw = injected_draw(ytilde, wtilde, a0, sub, u, v)
        np.testing.assert_allclose(draw, dense_draw(ytilde, wtilde, a0, sub, u, v), atol=1e-9)


def test_state_precision_band_matches_dense():
    rng = np.random.default_rng(14)
    for _ in range(15):
        T = int(rng.integers(2, 9))
        K = int(rng.integers(1, 4))
        sub = build_phi(rng.uniform(-1.5, 1.5, size=(T, K)))
        wtilde = rng.normal(size=(T, K))
        W = dense_rows(wtilde)
        D = dense_phi(sub)
        Q = W.T @ W + D.T @ D
        ab = state_precision_band(wtilde, sub)
        for k in range(K + 1):
            np.testing.assert_allclose(ab[K - k, k:], np.diag(Q, k), atol=1e-12)
        assert np.all(Q[np.triu_indices(T * K, K + 1)] == 0.0)


@pytest.mark.parametrize("K", [1, 3, 9, 15])
def test_state_precision_band_equals_loop_reference_bit_for_bit(K):
    rng = np.random.default_rng(100 + K)
    for T in (1, 2, 37):
        sub = build_phi(rng.uniform(-1.5, 1.5, size=(T, K)))
        wtilde = rng.normal(size=(T, K)) * rng.integers(0, 2, size=(T, K))
        got = state_precision_band(wtilde, sub)
        want = state_precision_band_loop(wtilde, sub)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_state_draw_failure_names_step_and_period():
    rng = np.random.default_rng(15)
    ytilde, wtilde, a0, sub = random_instance(rng, 6, 2)
    wtilde[3, 1] = np.inf  # what a zero volatility leaves in period 4
    with pytest.raises(NotPositiveDefiniteError, match="state draw: .* period 4"):
        draw_states_fast(ytilde, wtilde, a0, sub, rng)


def test_identity_law_draw_matches_dense_formula_with_injected_noise():
    rng = np.random.default_rng(16)
    shapes = [(int(rng.integers(1, 12)), int(rng.integers(1, 5))) for _ in range(25)]
    for T, K in shapes + [(7, 1), (1, 1)]:
        ytilde, wtilde, _, _ = random_instance(rng, T, K)
        a0 = rng.normal(size=T * K)
        u = rng.normal(size=T * K)
        v = rng.normal(size=T)
        draw = injected_draw(ytilde, wtilde, a0, None, u, v)
        want = dense_draw(ytilde, wtilde, a0, build_phi(np.zeros((T, K))), u, v)
        np.testing.assert_allclose(draw, want, atol=1e-9)


def test_identity_law_draw_matches_banded_draw_on_the_same_seed():
    rng = np.random.default_rng(17)
    for _ in range(20):
        T, K = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        ytilde, wtilde, _, _ = random_instance(rng, T, K)
        a0 = rng.normal(size=T * K)
        seed = int(rng.integers(2**32))
        closed_rng, banded_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        closed = draw_states_fast(ytilde, wtilde, a0, None, closed_rng)
        banded = draw_states_fast(ytilde, wtilde, a0, build_phi(np.zeros((T, K))), banded_rng)
        np.testing.assert_allclose(closed, banded, rtol=0.0, atol=1e-12)
        assert closed_rng.random() == banded_rng.random()


def test_identity_law_draw_covariance():
    rng = np.random.default_rng(18)
    for T, K in ((4, 3), (1, 1), (7, 2)):
        wtilde = rng.normal(size=(T, K))
        ytilde = rng.normal(size=T)
        a0 = rng.normal(size=T * K)
        mean, cov = exact_draw_moments(ytilde, wtilde, a0, None)
        want_mean, want_cov = dense_state_posterior(ytilde, wtilde, a0, np.eye(T * K))
        np.testing.assert_allclose(mean, want_mean, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(cov, want_cov, rtol=0.0, atol=1e-10)


def test_identity_law_draw_failure_names_step_and_period():
    rng = np.random.default_rng(20)
    ytilde, wtilde, a0, _ = random_instance(rng, 6, 2)
    wtilde[3, 1] = np.inf
    with pytest.raises(NotPositiveDefiniteError, match="state draw: .* period 4"):
        draw_states_fast(ytilde, wtilde, a0, None, rng)


def test_design_rows_layouts():
    T, K = 4, 2
    x = np.arange(1.0, 1.0 + T * K).reshape(T, K)
    atil = np.full((T, K), 2.0)
    block = ConstantBlock(
        alpha0=np.zeros(K), sqrt_psi1=np.array([0.5, 0.5]), sqrt_psi0=np.array([0.1, 0.1])
    )
    S = np.ones((T, K))
    xhat = build_design_rows(x, atil, S)
    assert xhat.shape == (T, 3 * K)
    np.testing.assert_allclose(xhat[:, K:2 * K], x * atil)
    np.testing.assert_allclose(xhat[:, 2 * K:], 0.0)
    np.testing.assert_allclose(sqrt_psi_matrix(block, S, T), 0.5)

    single = ConstantBlock(alpha0=np.zeros(K), sqrt_psi1=np.array([0.3, 0.3]))
    assert build_design_rows(x, atil, None).shape == (T, 2 * K)
    np.testing.assert_allclose(sqrt_psi_matrix(single, None, T), 0.3)


def test_reconstruct_sign_flip_invariance():
    rng = np.random.default_rng(6)
    T, K = 10, 3
    atil = rng.normal(size=(T, K))
    S = rng.integers(0, 2, size=(T, K)).astype(float)
    block = ConstantBlock(
        alpha0=rng.normal(size=K),
        sqrt_psi1=rng.normal(size=K),
        sqrt_psi0=rng.normal(size=K),
    )
    flipped = ConstantBlock(
        alpha0=block.alpha0, sqrt_psi1=-block.sqrt_psi1, sqrt_psi0=-block.sqrt_psi0
    )
    np.testing.assert_allclose(
        reconstruct_centered(block, S, atil), reconstruct_centered(flipped, S, -atil), atol=1e-14
    )


def test_normalized_from_centered_round_trip_and_floor():
    rng = np.random.default_rng(7)
    T, K = 8, 2
    atil = rng.normal(size=(T, K))
    S = rng.integers(0, 2, size=(T, K)).astype(float)
    block = ConstantBlock(
        alpha0=rng.normal(size=K),
        sqrt_psi1=np.array([0.7, 0.4]),
        sqrt_psi0=np.array([0.2, 1e-12]),
    )
    centered = reconstruct_centered(block, S, atil)
    back = normalized_from_centered(block, S, centered)
    roots = sqrt_psi_matrix(block, S, T)
    live = np.abs(roots) >= 1e-10
    np.testing.assert_allclose(back[live], atil[live], atol=1e-9)
    assert np.all(back[~live] == 0.0)


def test_normalized_from_centered_pins_floored_roots_without_warning():
    T, K = 5, 3
    block = ConstantBlock(
        alpha0=np.array([0.5, -1.0, 2.0]),
        sqrt_psi1=np.array([0.0, 0.3, -SQRT_PSI_FLOOR / 2]),
        sqrt_psi0=np.array([SQRT_PSI_FLOOR / 10, 0.0, 0.2]),
    )
    S = np.array([[1.0, 0.0, 1.0]] * T)
    centered = np.arange(T * K, dtype=float).reshape(T, K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = normalized_from_centered(block, S, centered)
    # every root here is below the floor, also the exact zeros
    np.testing.assert_array_equal(out, np.zeros((T, K)))
    assert not np.signbit(out).any()


def test_fast_draw_matches_textbook_random_walk_sampler():
    rng = np.random.default_rng(8)
    T, K = 40, 2
    x = rng.normal(size=(T, K))
    sigma = np.full(T, 0.5)
    alpha0 = np.array([1.0, -0.5])
    psi_bar = np.array([0.3, 0.05])
    truth = np.cumsum(rng.normal(size=(T, K)) * np.sqrt(psi_bar), axis=0) + alpha0
    y = (x * truth).sum(axis=1) + sigma * rng.normal(size=T)

    sub = build_phi(np.ones((T, K)))
    wtilde = x * np.sqrt(psi_bar) / sigma[:, None]
    ytilde = (y - x @ alpha0) / sigma
    a0 = np.zeros(T * K)

    n = 4000
    fast_rng = np.random.default_rng(9)
    fast = np.array([draw_states_fast(ytilde, wtilde, a0, sub, fast_rng) for _ in range(n)])
    fast_centered = alpha0 + np.sqrt(psi_bar) * fast.reshape(n, T, K)

    ck_rng = np.random.default_rng(10)
    slow = np.array([carter_kohn_tvp(y, x, psi_bar, alpha0, sigma, ck_rng) for _ in range(n)])

    se = fast_centered.std(axis=0, ddof=1) / np.sqrt(n) + slow.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(fast_centered.mean(axis=0) - slow.mean(axis=0)) < 5 * se)
    sd_gap = np.abs(fast_centered.std(axis=0) - slow.std(axis=0))
    assert np.all(sd_gap < 5 * se)


def test_dimension_validation():
    sub = build_phi(np.ones((4, 1)))
    with pytest.raises(ValueError):
        draw_states_fast(np.zeros(3), np.zeros((4, 1)), np.zeros(4), sub, np.random.default_rng(0))
    with pytest.raises(ValueError):
        draw_states_fast(np.zeros(4), np.zeros((4, 2)), np.zeros(4), sub, np.random.default_rng(0))
    with pytest.raises(ValueError):
        draw_states_fast(np.zeros(4), np.zeros((4, 1)), np.zeros(5), sub, np.random.default_rng(0))
    # a subdiagonal that is neither (T-1, K) nor (T-1, 1): one row too many,
    # then one column short
    with pytest.raises(ValueError, match="do not match"):
        draw_states_fast(np.zeros(4), np.zeros((4, 1)), np.zeros(4), np.ones((4, 1)), None)
    with pytest.raises(ValueError, match="do not match"):
        draw_states_fast(np.zeros(4), np.zeros((4, 3)), np.zeros(12), np.ones((3, 2)), None)
    with pytest.raises(ValueError):
        draw_states_fast(np.zeros(3), np.zeros((4, 1)), np.zeros(4), None, np.random.default_rng(0))
    with pytest.raises(ValueError):
        draw_states_fast(np.zeros(4), np.zeros((4, 2)), np.zeros(4), None, np.random.default_rng(0))


@pytest.mark.parametrize("pattern", [np.ones(6), np.array([1, 1, 0, 0, 1, 0])])
def test_a_shared_ar_pattern_draws_as_its_k_columns(pattern):
    # a (T-1, 1) subdiagonal is the one AR pattern of all K coefficients:
    # the draw equals, bit for bit, the one from its (T-1, K) broadcast
    rng = np.random.default_rng(4)
    T, K = 6, 3
    wtilde, ytilde, a0 = rng.normal(size=(T, K)), rng.normal(size=T), rng.normal(size=T * K)
    shared = build_phi(pattern[:, None].astype(float))
    wide = build_phi(np.repeat(pattern[:, None], K, axis=1).astype(float))
    assert shared.shape == (T - 1, 1)
    np.testing.assert_array_equal(state_precision_band(wtilde, shared), state_precision_band(wtilde, wide))
    draws = [draw_states_fast(ytilde, wtilde, a0, sub, np.random.default_rng(8)) for sub in (shared, wide)]
    np.testing.assert_array_equal(*draws)
