"""Tests for regime indicator conditionals.

The chain sampler is checked against exhaustive path enumeration, the
conjugate updates against hand-computed parameters, and the whole
indicator block against a successive-conditional prior-invariance run.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

from mixtvp.indicators import (
    BernoulliCounts,
    MsCounts,
    bernoulli_posterior_params,
    VAR_FLOOR,
    regime_log_densities,
    sample_indicators_mix,
    sample_indicators_ms,
    stationary_probs,
    summed_log_densities,
    transition_posterior_params,
    update_bernoulli_probs,
    update_transition_probs,
)
from mixtvp.shrinkage import ConstantBlock
from oracles import ffbs_two_state


def make_block(alpha0, sp1, sp0):
    return ConstantBlock(
        alpha0=np.asarray(alpha0, dtype=float),
        sqrt_psi1=np.asarray(sp1, dtype=float),
        sqrt_psi0=np.asarray(sp0, dtype=float),
    )


def loglik_reference(alpha, alpha0, sp1, sp0, model_class, pool_means=None, var_floor=0.0):
    """Straight-loop pairwise transition log densities, (T, K, 2, 2).

    Entry [t, i, k, l]: density of alpha[t, i] under regime k at t-1 and
    regime l at t.  Regime 1 (and both regimes of the random-walk class)
    carries the previous deviation from the center rescaled by the ratio
    of the arriving and departing innovation roots.  Roots are signed;
    the ratio and pool offsets keep the sign, the scale drops it.  With
    a positive ``var_floor`` the variance is floored there, and the
    departing root in magnitude at its square root, sign kept.
    """
    T, K = alpha.shape
    out = np.zeros((T, K, 2, 2))
    roots = np.stack([np.asarray(sp0, float), np.asarray(sp1, float)], axis=-1)
    for t in range(T):
        for i in range(K):
            dev = 0.0 if t == 0 else alpha[t - 1, i] - alpha0[i]
            for k in range(2):
                for l in range(2):
                    rl, rk = roots[i, l], roots[i, k]
                    rk = np.copysign(max(abs(rk), np.sqrt(var_floor)), rk)
                    scale = np.sqrt(max(rl**2, var_floor))
                    if model_class == "TVP-MIX":
                        m = alpha0[i] + (rl / rk) * dev if l == 1 else alpha0[i]
                    elif model_class == "TVP-RW":
                        m = alpha0[i] + (rl / rk) * dev
                    else:
                        m = alpha0[i] + rl * pool_means[t, i]
                    out[t, i, k, l] = stats.norm.logpdf(alpha[t, i], m, scale)
    return out


def enum_chain_marginals(loglik, p00, p11):
    """Exact marginals of s_1..s_T by summing over all 2^T paths.

    loglik has shape (T, 2, 2); the first period reads the k = 0 slice
    (its densities carry no previous-regime dependence).
    """
    T = loglik.shape[0]
    trans = np.array([[p00, 1.0 - p00], [1.0 - p11, p11]])
    init = stationary_probs(p00, p11)
    joint = np.zeros((2,) * T)
    for idx in np.ndindex(*joint.shape):
        lp = np.log(init[idx[0]]) + loglik[0, 0, idx[0]]
        for t in range(1, T):
            lp += np.log(trans[idx[t - 1], idx[t]]) + loglik[t, idx[t - 1], idx[t]]
        joint[idx] = np.exp(lp)
    joint /= joint.sum()
    marg = np.empty(T)
    for t in range(T):
        axes = tuple(a for a in range(T) if a != t)
        marg[t] = joint.sum(axis=axes)[1]
    return marg


def test_regime_log_densities_match_reference():
    rng = np.random.default_rng(11)
    T, K = 9, 3
    alpha0 = rng.normal(size=K)
    sp1 = rng.uniform(0.5, 1.5, size=K)
    sp0 = rng.uniform(0.02, 0.2, size=K)
    alpha = rng.normal(size=(T, K))
    block = make_block(alpha0, sp1, sp0)
    for cls in ("TVP-MIX", "TVP-RW"):
        got = regime_log_densities(alpha, block, cls)
        want = loglik_reference(alpha, alpha0, sp1, sp0, cls)
        np.testing.assert_allclose(got, want, rtol=1e-10)
    # first period carries no previous-regime dependence
    got = regime_log_densities(alpha, block, "TVP-MIX")
    np.testing.assert_allclose(got[0, :, 0, :], got[0, :, 1, :], rtol=1e-14)
    # roots enter as signed coefficients: flipping one sign must flip the
    # cross-regime carry, not just rescale it
    sp1_signed = sp1 * np.array([1.0, -1.0, 1.0])
    sp0_signed = sp0 * np.array([-1.0, 1.0, 1.0])
    block_signed = make_block(alpha0, sp1_signed, sp0_signed)
    for cls in ("TVP-MIX", "TVP-RW"):
        got = regime_log_densities(alpha, block_signed, cls)
        want = loglik_reference(alpha, alpha0, sp1_signed, sp0_signed, cls)
        np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("cls", ["TVP-MIX", "TVP-RW", "TVP-POOL"])
@pytest.mark.parametrize("T", [1, 7])
def test_summed_log_densities_match_reference_sum(cls, T):
    rng = np.random.default_rng(29)
    K = 5
    alpha0 = rng.normal(size=K)
    # signed roots; the last two lie below sqrt(VAR_FLOOR) = 1e-5, so their
    # variances and departing roots are floored
    sp1 = np.array([0.9, -1.3, 0.4, 3e-6, -0.7])
    sp0 = np.array([-0.08, 0.15, 0.05, 0.2, -2e-7])
    alpha = alpha0 + rng.normal(size=(T, K)) * 0.3
    pool_means = rng.normal(size=(T, K)) if cls == "TVP-POOL" else None
    block = make_block(alpha0, sp1, sp0)
    got = summed_log_densities(alpha, block, cls, pool_means)
    want = loglik_reference(alpha, alpha0, sp1, sp0, cls, pool_means, var_floor=VAR_FLOOR)
    assert got.shape == (T, 2, 2)
    np.testing.assert_allclose(got, want.sum(axis=1), rtol=1e-12)
    np.testing.assert_allclose(
        regime_log_densities(alpha, block, cls, pool_means), want, rtol=1e-12
    )


def test_pool_regime_means():
    rng = np.random.default_rng(3)
    T, K = 4, 2
    block = make_block(rng.normal(size=K), [1.0, 0.8], [0.1, 0.05])
    pool_means = rng.normal(size=(T, K))
    got = regime_log_densities(rng.normal(size=(T, K)) * 0.0, block, "TVP-POOL", pool_means)
    # regime-0 density of 0 equals N(0; a0 + sp0*mu, sp0^2)
    want = stats.norm.logpdf(
        0.0, block.alpha0[0] + block.sqrt_psi0[0] * pool_means[2, 0], block.sqrt_psi0[0]
    )
    np.testing.assert_allclose(got[2, 0, 0, 0], want, rtol=1e-12)
    # no autoregression: densities are unchanged by the previous regime
    np.testing.assert_allclose(got[..., 0, :], got[..., 1, :], rtol=1e-14)
    with pytest.raises(ValueError):
        regime_log_densities(np.zeros((T, K)), block, "TVP-POOL")


def test_ms_sampler_matches_enumeration():
    rng = np.random.default_rng(20240212)
    T, K = 8, 2
    alpha0 = np.array([0.4, -0.7])
    sp1 = np.array([0.9, 1.1])
    sp0 = np.array([0.08, 0.12])
    block = make_block(alpha0, sp1, sp0)
    # a path with a visible mid-sample drift so regimes are informative
    alpha = np.vstack([alpha0 + 0.02 * rng.normal(size=(4, K)),
                       alpha0 + np.cumsum(0.8 * rng.normal(size=(4, K)), axis=0)])
    p00, p11 = 0.6, 0.9
    pooled = loglik_reference(alpha, alpha0, sp1, sp0, "TVP-MIX").sum(axis=1)
    want = enum_chain_marginals(pooled, p00, p11)

    n = 40000
    draws = np.empty((n, T), dtype=np.int8)
    for j in range(n):
        draws[j] = sample_indicators_ms(alpha, block, p00, p11, "TVP-MIX", rng)
    freq = draws.mean(axis=0)
    se = np.sqrt(np.maximum(want * (1.0 - want), 1e-6) / n)
    assert np.all(np.abs(freq - want) < 5.0 * se + 1e-4)


def _ms_draws_side_by_side(alpha, block, p00, p11, cls, seed, pool_means=None, n=25):
    """n chain draws from the package sampler and from the per-period oracle, one seed each."""
    pooled = regime_log_densities(alpha, block, cls, pool_means).sum(axis=1)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want, log_steps = [], [], 0
    for _ in range(n):
        got.append(sample_indicators_ms(alpha, block, p00, p11, cls, rng_new, pool_means))
        s, hit = ffbs_two_state(pooled, p00, p11, rng_ref)
        want.append(s)
        log_steps += hit
    # both sides consumed the same stream
    assert rng_new.random() == rng_ref.random()
    return np.array(got), np.array(want), log_steps


@pytest.mark.parametrize("cls", ["TVP-MIX", "TVP-RW", "TVP-POOL"])
def test_ms_sampler_matches_per_period_oracle(cls):
    rng = np.random.default_rng(606)
    T, K = 60, 3
    block = make_block(rng.normal(size=K), rng.uniform(0.3, 1.2, size=K), rng.uniform(0.05, 0.3, size=K))
    alpha = block.alpha0 + np.cumsum(0.3 * rng.normal(size=(T, K)), axis=0)
    pool_means = rng.normal(size=(T, K)) if cls == "TVP-POOL" else None
    got, want, _ = _ms_draws_side_by_side(alpha, block, 0.8, 0.7, cls, 17, pool_means)
    np.testing.assert_array_equal(got, want)
    assert 0 < got.mean() < 1


def test_ms_sampler_matches_oracle_when_filter_totals_underflow():
    # regime 0 is absorbing and holds all stationary mass, and the path sits
    # at the center except in period 2, far beyond the spike scale: the
    # forward total of period 2 underflows to zero, and that period is
    # weighed again in logs, which keeps s_2 (like every s_t) at regime 0
    T, K = 12, 2
    block = make_block([0.0, 0.0], [1.0, 1.0], [1e-3, 1e-3])
    alpha = np.outer(np.arange(T) == 1, [2.0, -3.0])
    got, want, log_steps = _ms_draws_side_by_side(alpha, block, 1.0, 0.6, "TVP-MIX", 5, n=200)
    assert log_steps > 0
    assert np.all(got[:, 1] == 0)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("absorbing", [0, 1])
def test_ms_absorbing_regime_draws_no_zero_probability_path(absorbing):
    # the absorbing regime holds all stationary mass, so the constant path
    # in it is the only one of positive probability; the path sits at the
    # center except in period 2, 2000 absorbing-regime scales off, so the
    # largest pair emission of periods 2 and 3 is a forbidden pair's and
    # the allowed pair's kernel underflows
    T = 12
    tight, wide = [1e-3, 1e-3], [1.0, 1.0]
    # make_block takes the regime-1 roots, then the regime-0 roots
    roots = (tight, wide) if absorbing else (wide, tight)
    block = make_block([0.0, 0.0], *roots)
    alpha = np.outer(np.arange(T) == 1, [2.0, 0.0])
    p00, p11 = (0.6, 1.0) if absorbing else (1.0, 0.6)
    rng = np.random.default_rng(41)
    draws = np.array(
        [sample_indicators_ms(alpha, block, p00, p11, "TVP-MIX", rng) for _ in range(200)]
    )
    assert np.all(draws == absorbing)


@pytest.mark.parametrize("absorbing", [0, 1])
def test_ms_first_period_follows_stationary_support(absorbing):
    # one regime is absorbing and holds all stationary mass, and the first
    # observation sits 2000 of its scales off the center: its emission
    # underflows against the other regime's, yet s_1 must stay on the
    # stationary law's support (weighed outside logs the first filter row
    # is 0/0: NaN, and s_1 a fair coin)
    T = 12
    tight, wide = [1e-3, 1e-3], [1.0, 1.0]
    # make_block takes the regime-1 roots, then the regime-0 roots
    roots = (tight, wide) if absorbing else (wide, tight)
    block = make_block([0.0, 0.0], *roots)
    # after period 1 the path follows the absorbing regime's mean: regime 0
    # reverts to the center, regime 1 carries the deviation
    alpha = np.outer((np.arange(T) == 0) | bool(absorbing), [2.0, -2.0])
    p00, p11 = (0.6, 1.0) if absorbing else (1.0, 0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want, _ = _ms_draws_side_by_side(alpha, block, p00, p11, "TVP-MIX", 9, n=100)
    np.testing.assert_array_equal(got, want)
    assert np.all(got[:, 0] == absorbing)


def enum_site_marginals(loglik, p):
    """Exact P(s_t = 1) for one coefficient under the independent prior."""
    T = loglik.shape[0]
    joint = np.zeros((2,) * T)
    for idx in np.ndindex(*joint.shape):
        lp = 0.0
        for t in range(T):
            lp += np.log(p) if idx[t] else np.log1p(-p)
            lp += loglik[t, idx[t - 1] if t > 0 else 0, idx[t]]
        joint[idx] = np.exp(lp)
    joint /= joint.sum()
    marg = np.empty(T)
    for t in range(T):
        axes = tuple(a for a in range(T) if a != t)
        marg[t] = joint.sum(axis=axes)[1]
    return marg


def test_mix_sampler_single_period_is_pointwise():
    rng = np.random.default_rng(77)
    K = 2
    alpha0 = np.zeros(K)
    sp1 = np.array([1.0, 0.7])
    sp0 = np.array([0.1, 0.05])
    block = make_block(alpha0, sp1, sp0)
    alpha = np.array([[0.5, -0.2]])
    p = np.array([0.3, 0.6])

    want = np.empty(K)
    for i in range(K):
        l1 = stats.norm.logpdf(alpha[0, i], alpha0[i], sp1[i]) + np.log(p[i])
        l0 = stats.norm.logpdf(alpha[0, i], alpha0[i], sp0[i]) + np.log1p(-p[i])
        want[i] = 1.0 / (1.0 + np.exp(l0 - l1))

    n = 30000
    acc = np.zeros(K)
    start = np.ones((1, K), dtype=np.int8)
    for _ in range(n):
        acc += sample_indicators_mix(alpha, block, p, "TVP-MIX", rng, S=start)[0]
    freq = acc / n
    se = np.sqrt(np.maximum(want * (1.0 - want), 1e-6) / n)
    assert np.all(np.abs(freq - want) < 5.0 * se + 1e-4)


def test_mix_sampler_matches_enumeration():
    """Long-run site frequencies match brute-force joint marginals."""
    rng = np.random.default_rng(99)
    T, K = 5, 1
    alpha0 = np.array([0.2])
    sp1 = np.array([0.8])
    sp0 = np.array([0.12])
    block = make_block(alpha0, sp1, sp0)
    alpha = np.array([[0.25], [0.1], [0.9], [1.1], [0.3]])
    p = np.array([0.4])

    ll = loglik_reference(alpha, alpha0, sp1, sp0, "TVP-MIX")[:, 0]
    want = enum_site_marginals(ll, p[0])

    n = 40000
    s = np.ones((T, K), dtype=np.int8)
    acc = np.zeros(T)
    for _ in range(n):
        s = sample_indicators_mix(alpha, block, p, "TVP-MIX", rng, S=s)
        acc += s[:, 0]
    freq = acc / n
    # sweeps are a Markov chain, so pad the binomial error for correlation
    se = np.sqrt(np.maximum(want * (1.0 - want), 1e-6) / n)
    assert np.all(np.abs(freq - want) < 12.0 * se + 2e-3)


def test_transition_posterior_params_exact():
    s = np.array([0, 0, 1, 1, 0, 1], dtype=np.int8)
    counts = MsCounts(c00=0.3, c01=30.0, c10=30.0, c11=0.3)
    (a0, b0), (a1, b1) = transition_posterior_params(s, counts)
    assert (a0, b0) == (1.0 + 0.3, 2.0 + 30.0)
    assert (a1, b1) == (1.0 + 30.0, 1.0 + 0.3)
    rng = np.random.default_rng(0)
    p00, p11 = update_transition_probs(s, counts, rng)
    assert 0.0 < p00 < 1.0 and 0.0 < p11 < 1.0


def test_bernoulli_posterior_params_exact():
    S = np.ones((10, 1), dtype=np.int8)
    counts = BernoulliCounts(c0=0.3, c1=30.0)
    a, b = bernoulli_posterior_params(S, counts)
    assert a[0] == 10.3 and b[0] == 30.0
    rng = np.random.default_rng(1)
    p = update_bernoulli_probs(np.zeros((6, 3), dtype=np.int8), counts, rng)
    assert p.shape == (3,) and np.all((p > 0) & (p < 1))


def simulate_path_given_s(s, block, rng):
    """Prior draw of the centered path for the MS mixture law.

    On a regime-1 step the carried deviation is rescaled by the ratio of
    the arriving and departing innovation roots; regime 0 reverts to the
    center.  Period 1 starts from the center.
    """
    T = s.shape[0]
    K = block.K
    sd = np.where(s[:, None] == 1, block.sqrt_psi1, block.sqrt_psi0)
    alpha = np.empty((T, K))
    alpha[0] = block.alpha0 + sd[0] * rng.normal(size=K)
    for t in range(1, T):
        if s[t] == 1:
            mean = block.alpha0 + (sd[t] / sd[t - 1]) * (alpha[t - 1] - block.alpha0)
        else:
            mean = block.alpha0
        alpha[t] = mean + sd[t] * rng.normal(size=K)
    return alpha


def simulate_chain(p00, p11, T, rng):
    s = np.empty(T, dtype=np.int8)
    s[0] = rng.random() < stationary_probs(p00, p11)[1]
    for t in range(1, T):
        stay = p11 if s[t - 1] == 1 else 1.0 - p00
        s[t] = rng.random() < stay
    return s


def test_geweke_prior_invariance():
    """Alternating the three conditionals must leave the prior invariant."""
    rng = np.random.default_rng(314159)
    T, K = 20, 1
    block = make_block([0.5], [1.0], [0.05])
    counts = MsCounts(c00=3.0, c01=8.0, c10=4.0, c11=2.0)

    n_direct = 60000
    direct_occ = np.empty(n_direct)
    for j in range(n_direct):
        p00 = rng.beta(counts.c00, counts.c10)
        p11 = rng.beta(counts.c01, counts.c11)
        direct_occ[j] = simulate_chain(p00, p11, T, rng).mean()

    p00 = rng.beta(counts.c00, counts.c10)
    p11 = rng.beta(counts.c01, counts.c11)
    s = simulate_chain(p00, p11, T, rng)
    n_sweep, burn = 20000, 1000
    rec_p = np.empty((n_sweep, 2))
    rec_occ = np.empty(n_sweep)
    for j in range(n_sweep + burn):
        alpha = simulate_path_given_s(s, block, rng)
        s = sample_indicators_ms(alpha, block, p00, p11, "TVP-MIX", rng)
        p00, p11 = update_transition_probs(s, counts, rng)
        if j >= burn:
            rec_p[j - burn] = (p00, p11)
            rec_occ[j - burn] = s.mean()

    def batch_se(x, nb=50):
        m = x.reshape(nb, -1).mean(axis=1)
        return m.std(ddof=1) / np.sqrt(nb)

    mean_p00 = counts.c00 / (counts.c00 + counts.c10)
    mean_p11 = counts.c01 / (counts.c01 + counts.c11)
    assert abs(rec_p[:, 0].mean() - mean_p00) < 6.0 * batch_se(rec_p[:, 0]) + 1e-3
    assert abs(rec_p[:, 1].mean() - mean_p11) < 6.0 * batch_se(rec_p[:, 1]) + 1e-3
    se_occ = np.hypot(batch_se(rec_occ), direct_occ.std(ddof=1) / np.sqrt(n_direct))
    assert abs(rec_occ.mean() - direct_occ.mean()) < 6.0 * se_occ + 1e-3


def test_validation_errors():
    block = make_block([0.0], [1.0], [0.1])
    with pytest.raises(ValueError):
        regime_log_densities(np.zeros((3, 1)), block, "NOPE")
    no_spike = ConstantBlock(alpha0=np.zeros(1), sqrt_psi1=np.ones(1))
    with pytest.raises(ValueError):
        regime_log_densities(np.zeros((3, 1)), no_spike, "TVP-MIX")
    with pytest.raises(ValueError):
        MsCounts(c00=0.0, c01=1.0, c10=1.0, c11=1.0)
    with pytest.raises(ValueError):
        BernoulliCounts(c0=-1.0, c1=2.0)
    np.testing.assert_allclose(stationary_probs(1.0, 1.0), [0.5, 0.5])
