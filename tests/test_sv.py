"""Volatility sweep checks: mixture constants, joint path draw, recovery."""

import numpy as np
import pytest

from mixtvp.banded import NotPositiveDefiniteError
from mixtvp.sv import (
    DEFAULT_SV_PRIORS,
    MIX_MEAN,
    MIX_PROB,
    MIX_VAR,
    SvState,
    _draw_h_joint,
    _draw_mixture_indicators,
    _interweave_noncentered,
    initial_sv_state,
    sv_sweep,
)
from oracles import carter_kohn_scalar, interweave_dense
from prior_draws import sample_sv_prior


def test_mixture_constants_match_log_chisq_moments():
    assert MIX_PROB.sum() == pytest.approx(1.0, abs=1e-12)
    # E[log chi^2_1] = digamma(1/2) + log 2, Var = pi^2 / 2
    mean = np.sum(MIX_PROB * MIX_MEAN)
    var = np.sum(MIX_PROB * (MIX_VAR + MIX_MEAN**2)) - mean**2
    assert mean == pytest.approx(-1.2704, abs=2e-3)
    assert var == pytest.approx(np.pi**2 / 2, abs=2e-2)


def test_joint_path_draw_matches_kalman_oracle():
    rng = np.random.default_rng(77)
    T = 8
    state = SvState(h=np.zeros(T), h0=0.0, mu=-0.5, phi=0.8, psi=0.3)
    obs = rng.normal(size=T)
    d = 1.0 / rng.uniform(0.5, 2.0, size=T)

    n = 30_000
    fast = np.empty((n, T + 1))
    rng_a = np.random.default_rng(1)
    for i in range(n):
        fast[i] = _draw_h_joint(obs + state.mu, d, state, rng_a)
    rng_b = np.random.default_rng(2)
    slow = np.empty((n, T + 1))
    for i in range(n):
        slow[i] = carter_kohn_scalar(obs + state.mu, 1.0 / d, state.mu, state.phi, state.psi, rng_b)

    se = fast.std(axis=0, ddof=1) / np.sqrt(n) + slow.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(fast.mean(axis=0) - slow.mean(axis=0)) < 5 * se)
    assert np.all(np.abs(fast.std(axis=0) - slow.std(axis=0)) < 5 * se)


class _GivenNormals:
    """Stands in for a generator whose one normal draw is given."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def normal(self, size):
        assert size == self.z.size
        return self.z.copy()


def _dense_volatility_posterior(obs, d, state):
    """Precision Q of (h0, h_1..h_T) and its mean mu + Q^{-1} b, built from the model terms."""
    T = obs.size
    phi, psi = state.phi, state.psi
    Q = np.zeros((T + 1, T + 1))
    Q[0, 0] = (1.0 - phi**2) / psi  # stationary start
    for t in range(1, T + 1):
        row = np.zeros(T + 1)
        row[t], row[t - 1] = 1.0, -phi
        Q += np.outer(row, row) / psi
    Q[1:, 1:] += np.diag(d)
    b = np.concatenate(([0.0], d * (obs - state.mu)))
    return Q, state.mu + np.linalg.solve(Q, b)


def test_volatility_path_noise_map_reproduces_dense_moments():
    rng = np.random.default_rng(31)
    for T in (1, 2, 12, 40):
        phi, psi = rng.uniform(-0.95, 0.95), rng.uniform(0.05, 1.0)
        state = SvState(h=np.zeros(T), h0=0.0, mu=rng.normal(), phi=phi, psi=psi)
        obs = rng.normal(-1.0, 2.0, size=T)
        d = 1.0 / MIX_VAR[rng.integers(0, MIX_VAR.size, size=T)]
        Q, mean = _dense_volatility_posterior(obs, d, state)
        center = _draw_h_joint(obs, d, state, _GivenNormals(np.zeros(T + 1)))
        np.testing.assert_allclose(center, mean, rtol=0.0, atol=1e-12)
        # the unit-vector noise columns map to M with M M' = Q^{-1}
        cols = np.array([_draw_h_joint(obs, d, state, _GivenNormals(e)) - center for e in np.eye(T + 1)])
        np.testing.assert_allclose(cols.T @ cols, np.linalg.inv(Q), rtol=0.0, atol=1e-10)


def test_volatility_draw_failure_names_step_and_period():
    T = 8
    state = SvState(h=np.zeros(T), h0=0.0, mu=0.0, phi=0.9, psi=0.2)
    obs = np.zeros(T)
    d = np.ones(T)
    d[4] = np.nan  # h_5
    with pytest.raises(NotPositiveDefiniteError, match="volatility draw: non-finite pivot .* period 5"):
        _draw_h_joint(obs, d, state, np.random.default_rng(0))
    d[4] = 1.0
    d[2] = -1e6  # h_3
    with pytest.raises(NotPositiveDefiniteError, match="volatility draw: non-positive pivot .* period 3"):
        _draw_h_joint(obs, d, state, np.random.default_rng(0))


def test_mixture_indicators_name_their_step():
    ystar = np.zeros(5)
    ystar[3] = np.nan
    with pytest.raises(ValueError, match="volatility mixture indicators: .*row 3 "):
        _draw_mixture_indicators(ystar, np.zeros(5), np.random.default_rng(0))


def test_homoskedastic_limit_recovers_level():
    rng = np.random.default_rng(3)
    T = 500
    resid = np.exp(-0.5) * rng.normal(size=T)
    state = initial_sv_state(resid)
    chain = np.random.default_rng(4)
    mus = []
    for it in range(4000):
        state = sv_sweep(resid, state, chain)
        if it >= 1000:
            mus.append(state.mu)
    assert np.mean(mus) == pytest.approx(-1.0, abs=0.15)


def test_band_coverage_on_random_walk_volatility():
    hits = 0
    total = 0
    for rep in range(20):
        rng = np.random.default_rng(100 + rep)
        T = 100
        h_true = np.log(0.1) + np.cumsum(np.sqrt(0.1) * rng.normal(size=T))
        resid = np.exp(h_true / 2.0) * rng.normal(size=T)
        state = initial_sv_state(resid)
        chain = np.random.default_rng(200 + rep)
        kept = []
        for it in range(1500):
            state = sv_sweep(resid, state, chain)
            if it >= 500:
                kept.append(state.h)
        kept = np.asarray(kept)
        lo, hi = np.percentile(kept, [5, 95], axis=0)
        hits += int(np.sum((h_true >= lo) & (h_true <= hi)))
        total += T
    assert hits / total >= 0.80


def test_two_chain_agreement_from_dispersed_starts():
    rng = np.random.default_rng(11)
    T = 50
    resid = rng.normal(size=T) * np.exp(0.3 * np.sin(np.arange(T) / 5.0))
    state_a = initial_sv_state(resid)
    state_b = SvState(h=np.full(T, 3.0), h0=3.0, mu=3.0, phi=0.2, psi=1.0)
    chain_a, chain_b = np.random.default_rng(21), np.random.default_rng(22)
    sums = [np.zeros(T), np.zeros(T)]
    n_keep = 0
    for it in range(10_000):
        state_a = sv_sweep(resid, state_a, chain_a)
        state_b = sv_sweep(resid, state_b, chain_b)
        if it >= 2000:
            sums[0] += state_a.h
            sums[1] += state_b.h
            n_keep += 1
    mean_a, mean_b = sums[0] / n_keep, sums[1] / n_keep
    assert np.max(np.abs(mean_a - mean_b)) < 0.25


def test_zero_residuals_stay_finite():
    resid = np.zeros(30)
    resid[::3] = 0.5
    state = initial_sv_state(resid)
    rng = np.random.default_rng(0)
    for _ in range(50):
        state = sv_sweep(resid, state, rng)
        assert np.all(np.isfinite(state.h))
        assert state.psi > 0


def test_prior_simulation_and_validation():
    rng = np.random.default_rng(6)
    st = sample_sv_prior(40, rng)
    assert st.h.size == 40
    assert abs(st.phi) < 1
    with pytest.raises(ValueError):
        SvState(h=np.zeros(5), h0=0.0, mu=0.0, phi=1.0, psi=0.1)
    with pytest.raises(ValueError):
        SvState(h=np.zeros(5), h0=0.0, mu=0.0, phi=0.5, psi=0.0)
    with pytest.raises(ValueError):
        sv_sweep(np.ones(5), st, rng)


def test_interweave_matches_dense_oracle_on_the_same_stream():
    rng = np.random.default_rng(12)
    T = 198
    for trial in range(50):
        obs = rng.normal(-1.0, 2.0, size=T)
        d = 1.0 / MIX_VAR[rng.integers(0, MIX_VAR.size, size=T)]
        mu, psi = rng.normal(-1.0, 1.0), rng.uniform(1e-4, 0.5)
        h_full = mu + np.cumsum(np.sqrt(psi) * rng.normal(size=T + 1))
        rng_new, rng_ref = np.random.default_rng(trial), np.random.default_rng(trial)
        got = _interweave_noncentered(obs, d, h_full, mu, 0.9, psi, DEFAULT_SV_PRIORS, rng_new)
        want = interweave_dense(obs, d, h_full, mu, psi, DEFAULT_SV_PRIORS, rng_ref)
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=1e-12)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
