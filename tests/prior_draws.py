"""Draws from the model's prior and its measurement equation.

The prior-reproduction checks (Geweke 2004) start a chain from a state
drawn here and regenerate the data from every state the chain visits.
Block layout and fixed spike roots come from the sampler's own helpers,
and the AR coupling from ``ModelSpec.carries``, so a prior draw has the
shapes the sweep expects.
"""

import numpy as np

from mixtvp.banded import build_phi
from mixtvp.indicators import simulate_ms_chain
from mixtvp.sampler import (
    CLASS_CONST_MIN,
    CLASS_POOL,
    CLASS_RW,
    LAW_MIX,
    LAW_MS,
    EquationChainState,
    ModelSpec,
    _block_from_coefs,
    _fixed_spike,
)
from mixtvp.shrinkage import NgHyper
from mixtvp.statespace import reconstruct_centered
from mixtvp.sv import DEFAULT_SV_PRIORS, SvPriors, SvState


def solve_lower(sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve Phi x = rhs by forward substitution in O(T*K).

    ``sub`` is Phi's (T-1, K) subdiagonal from ``build_phi``.  ``rhs`` may
    be a (nu,) vector or a (n, nu) batch; the solve is applied row-wise in
    the batched case.
    """
    T, K = sub.shape[0] + 1, sub.shape[1]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1] != T * K:
        raise ValueError(f"vector length {rhs.shape[-1]} does not match nu={T * K}")
    r = rhs.reshape(rhs.shape[:-1] + (T, K))
    x = np.empty_like(r)
    x[..., 0, :] = r[..., 0, :]
    for t in range(1, T):
        x[..., t, :] = r[..., t, :] - sub[t - 1] * x[..., t - 1, :]
    return x.reshape(rhs.shape)


def sample_sv_prior(T: int, rng: np.random.Generator, priors: SvPriors = DEFAULT_SV_PRIORS) -> SvState:
    """Draw a full SV state from its prior."""
    mu = priors.mu_mean + np.sqrt(priors.mu_var) * rng.normal()
    phi = 2.0 * rng.beta(priors.phi_beta_a, priors.phi_beta_b) - 1.0
    psi = rng.gamma(shape=priors.psi_shape, scale=1.0 / priors.psi_rate)
    h0 = mu + np.sqrt(psi / (1.0 - phi**2)) * rng.normal()
    h = np.empty(T)
    prev = h0
    for t in range(T):
        prev = mu + phi * (prev - mu) + np.sqrt(psi) * rng.normal()
        h[t] = prev
    return SvState(h=h, h0=h0, mu=mu, phi=phi, psi=psi)


def sample_prior_state(
    x: np.ndarray, spec: ModelSpec, rng: np.random.Generator
) -> EquationChainState:
    """Draw every sampled symbol from its prior (non-pooled classes).

    The pooled law scales its mean prior by the empirical range of the
    states, so it has no closed prior to simulate from here.
    """
    if spec.model_class == CLASS_POOL:
        raise ValueError("the pooled law has an empirical prior component")
    if spec.model_class == CLASS_CONST_MIN:
        raise ValueError("the Minnesota benchmark has fixed, not sampled, scales")
    T, K = x.shape
    G = 1 + spec.n_variance_groups
    rho = [float(rng.exponential(1.0)) for _ in range(G)]
    lam = [float(rng.gamma(shape=spec.zeta, scale=1.0 / spec.zeta)) for _ in range(G)]
    width = spec.block_width(K)
    tau = np.empty(width)
    # group g owns block entries g*K .. (g+1)*K - 1, as in the sampler's hierarchy
    for g in range(G):
        tau[g * K: (g + 1) * K] = rng.gamma(shape=rho[g], scale=2.0 / (rho[g] * lam[g]), size=K)
    tau = np.maximum(tau, 1e-12)
    ng = NgHyper(tau=tau, lam=lam, rho=rho, zeta=spec.zeta)
    coefs = rng.normal(size=width) * np.sqrt(tau)
    block = _block_from_coefs(coefs, spec, _fixed_spike(x, spec))

    p00 = p11 = None
    p_mix = None
    S = None
    if spec.law == LAW_MS:
        counts = spec.default_ms_counts()
        p00 = float(rng.beta(counts.c00, counts.c10))
        p11 = float(rng.beta(counts.c01, counts.c11))
        s = simulate_ms_chain(p00, p11, T, rng)
        S = np.repeat(s[:, None], K, axis=1).astype(np.int8)
    elif spec.law == LAW_MIX:
        counts = spec.default_bernoulli_counts()
        p_mix = rng.beta(counts.c0, counts.c1, size=K)
        S = (rng.random(size=(T, K)) < p_mix).astype(np.int8)

    if spec.is_tvp:
        alpha_tilde = rng.normal(size=T * K)
        if spec.carries:
            # the AR diagonals: 1 under the random walk, S_t under the mixture
            diagonals = np.ones((T, K)) if spec.model_class == CLASS_RW else S.astype(float)
            alpha_tilde = solve_lower(build_phi(diagonals), alpha_tilde)
        alpha_tilde = alpha_tilde.reshape(T, K)
    else:
        alpha_tilde = np.zeros((T, K))
    sv = sample_sv_prior(T, rng, spec.sv_priors)
    return EquationChainState(
        block=block,
        alpha_tilde=alpha_tilde,
        S=S,
        p00=p00,
        p11=p11,
        p_mix=p_mix,
        ng=ng,
        sv=sv,
        pool=None,
    )


def simulate_observations(
    x: np.ndarray, spec: ModelSpec, state: EquationChainState, rng: np.random.Generator
) -> np.ndarray:
    """Draw y given the current latent state (the measurement equation)."""
    T, K = x.shape
    if spec.is_tvp:
        alpha = reconstruct_centered(state.block, state.S, state.alpha_tilde)
    else:
        alpha = np.broadcast_to(state.block.alpha0, (T, K))
    return (x * alpha).sum(axis=1) + state.sv.sigma() * rng.normal(size=T)
