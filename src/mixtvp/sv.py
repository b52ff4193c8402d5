"""Stochastic volatility sweep for the observation error variance.

log-variances follow a stationary AR(1); one sweep updates the auxiliary
mixture indicators, the joint log-variance path through its tridiagonal
precision, the AR(1) parameters in the centered parameterization, and then
re-draws level and scale in the non-centered parameterization (ancillary
sufficiency interweaving, Kastner & Fruhwirth-Schnatter 2014), which keeps
mixing fast when the innovation variance is small.

The path steps work on length-T arrays.  The path's precision Q is
factored as L D L' (LAPACK ``dpttrf``) and the path drawn as

    h = mu + Q^{-1} (b + L D^{1/2} z),   z ~ N(0, I_{T+1}),

whose noise term has covariance L D L' = Q, so h ~ N(mu + Q^{-1} b, Q^{-1}).
The parameter steps reduce the path to a few dot products and then run on
Python floats: the level and persistence draws, the innovation-variance
GIG draw (a one-element ``sample_gig_array`` call) and the interweaving
step's 2x2 Gaussian, whose Cholesky factor is written out in closed
form.  A failure in a step names it ("volatility mixture indicators",
"volatility draw", "volatility psi draw", "volatility interweave").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .banded import NotPositiveDefiniteError, dpttrs, factor_tridiagonal
from .distributions import log_uniform, sample_categorical_columns, sample_gig_array

# 10-component Gaussian mixture approximation to log chi^2(1)
MIX_PROB = np.array([
    0.00609, 0.04775, 0.13057, 0.20674, 0.22715,
    0.18842, 0.12047, 0.05591, 0.01575, 0.00115,
])
MIX_MEAN = np.array([
    1.92677, 1.34744, 0.73504, 0.02266, -0.85173,
    -1.97278, -3.46788, -5.55246, -8.68384, -14.65000,
])
MIX_VAR = np.array([
    0.11265, 0.17788, 0.26768, 0.40611, 0.62699,
    0.98583, 1.57469, 2.54498, 4.16591, 7.33342,
])

# log-weight terms of the mixture that do not depend on the data
_MIX_LOG_NORM = np.log(MIX_PROB) - 0.5 * np.log(MIX_VAR)
_MIX_HALF_PREC = 0.5 / MIX_VAR
_MIX_PREC = 1.0 / MIX_VAR
_MIX_MEAN_COL = MIX_MEAN[:, None]
_MIX_HALF_PREC_COL = _MIX_HALF_PREC[:, None]
_MIX_LOG_NORM_COL = _MIX_LOG_NORM[:, None]

LOG_OFFSET = 1e-8
PSI_FLOOR = 1e-12


@dataclass(frozen=True)
class SvPriors:
    """Priors: level N(mu_mean, mu_var), (persistence+1)/2 Beta(a, b),
    innovation variance Gamma(shape, rate)."""

    mu_mean: float = 0.0
    mu_var: float = 100.0
    phi_beta_a: float = 25.0
    phi_beta_b: float = 1.5
    psi_shape: float = 0.5
    psi_rate: float = 0.5


DEFAULT_SV_PRIORS = SvPriors()


@dataclass(frozen=True)
class SvState:
    """Log-variance path h (length T), pre-sample value h0, and AR(1)
    parameters (mu, phi, psi) with |phi| < 1 and psi > 0."""

    h: np.ndarray
    h0: float
    mu: float
    phi: float
    psi: float

    def __post_init__(self):
        if self.h.ndim != 1 or self.h.size == 0:
            raise ValueError("h must be a non-empty vector")
        if not np.isfinite(self.h).all() or not math.isfinite(self.h0):
            raise ValueError("h must be finite")
        if not abs(self.phi) < 1.0:
            raise ValueError("|phi| must be below one")
        if not self.psi > 0.0:
            raise ValueError("psi must be positive")

    def sigma(self) -> np.ndarray:
        return np.exp(self.h / 2.0)


def initial_sv_state(residuals: np.ndarray) -> SvState:
    level = float(np.log(np.var(residuals) + LOG_OFFSET))
    return SvState(h=np.full(residuals.shape[0], level), h0=level, mu=level, phi=0.95, psi=0.1)


def sv_sweep(
    residuals: np.ndarray,
    state: SvState,
    rng: np.random.Generator,
    priors: SvPriors = DEFAULT_SV_PRIORS,
) -> SvState:
    """One full update of the volatility block given observation residuals."""
    resid = np.asarray(residuals, dtype=float)
    if resid.ndim != 1 or resid.size == 0:
        raise ValueError("residuals must be a non-empty vector")
    if not np.isfinite(resid).all():
        raise ValueError("residuals must be finite")
    if resid.size != state.h.size:
        raise ValueError("residual length does not match state")
    T = resid.size
    ystar = np.log(resid**2 + LOG_OFFSET)

    comp = _draw_mixture_indicators(ystar, state.h, rng)
    m = MIX_MEAN[comp]
    d = _MIX_PREC[comp]

    obs = ystar - m
    h_full = _draw_h_joint(obs, d, state, rng)
    mu = _draw_mu_centered(h_full, state.phi, state.psi, priors, rng)
    phi = _draw_phi_centered(h_full, mu, state.phi, state.psi, priors, rng)
    psi = _draw_psi_centered(h_full, mu, phi, priors, rng)

    mu, psi, h_full = _interweave_noncentered(obs, d, h_full, mu, phi, psi, priors, rng)
    return SvState(h=h_full[1:], h0=float(h_full[0]), mu=mu, phi=phi, psi=psi)


def _draw_mixture_indicators(ystar, h, rng):
    # one row per component: the log weights come out in the (K, T) layout
    # that the categorical draw works in, computed in place
    lw = (ystar - h) - _MIX_MEAN_COL
    np.square(lw, out=lw)
    lw *= _MIX_HALF_PREC_COL
    np.subtract(_MIX_LOG_NORM_COL, lw, out=lw)
    try:
        return sample_categorical_columns(lw, rng)
    except ValueError as exc:
        raise ValueError(f"volatility mixture indicators: {exc}") from exc


def _draw_h_joint(obs, d, state, rng):
    """Joint draw of (h0, h_1..h_T) from the tridiagonal-precision Gaussian.

    obs = ystar - mixture mean, d = per-period observation precisions.
    The draw is mu + Q^{-1}(b + L D^{1/2} z) with Q = L D L' and
    z = ``rng.normal(size=T + 1)``.
    """
    T = obs.size
    phi, psi, mu = state.phi, state.psi, state.mu
    diag = np.full(T + 1, 1.0 / psi)
    diag[1:] += d
    diag[1:T] += phi**2 / psi
    D, L = factor_tridiagonal(diag, np.full(T, -phi / psi), "volatility draw")
    rhs = rng.normal(size=T + 1)
    rhs *= np.sqrt(D)
    rhs[1:] += L * rhs[:-1]
    rhs[1:] += d * (obs - mu)
    x, _ = dpttrs(D, L, rhs, overwrite_b=1)
    x += mu
    return x


def _draw_mu_centered(h_full, phi, psi, priors, rng):
    h0 = float(h_full[0])
    T = h_full.size - 1
    total = float(h_full.sum())
    # sum(h_t - phi h_{t-1}) over t = 1..T
    innov_sum = (total - h0) - phi * (total - float(h_full[-1]))
    prec = ((1.0 - phi * phi) + T * (1.0 - phi) ** 2) / psi + 1.0 / priors.mu_var
    lin = ((1.0 - phi * phi) * h0 + (1.0 - phi) * innov_sum) / psi
    lin += priors.mu_mean / priors.mu_var
    return lin / prec + rng.normal() / math.sqrt(prec)


def _draw_phi_centered(h_full, mu, phi, psi, priors, rng):
    g = h_full - mu
    g0, glag = float(g[0]), g[:-1]
    den = float(glag @ glag)
    if den <= 0.0:
        return phi
    center = float(g[1:] @ glag) / den
    prop = center + math.sqrt(psi / den) * rng.normal()
    if not abs(prop) < 1.0:
        return phi

    def log_extra(p):
        # Beta((p+1)/2; a, b) kernel; its constant and the log 2 terms cancel
        return (
            0.5 * math.log1p(-(p * p))
            - (1.0 - p * p) * g0 * g0 / (2.0 * psi)
            + (priors.phi_beta_a - 1.0) * math.log1p(p)
            + (priors.phi_beta_b - 1.0) * math.log1p(-p)
        )

    if log_uniform(rng) <= log_extra(prop) - log_extra(phi):
        return prop
    return phi


def _draw_psi_centered(h_full, mu, phi, priors, rng):
    g = h_full - mu
    g0 = float(g[0])
    e = g[1:] - phi * g[:-1]
    sse = (1.0 - phi * phi) * g0 * g0 + float(e @ e)
    T = h_full.size - 1
    a = priors.psi_shape - (T + 1) / 2.0
    try:
        psi = sample_gig_array(a, 2.0 * priors.psi_rate, max(sse, PSI_FLOOR), rng).item()
    except ValueError as exc:
        raise ValueError(f"volatility psi draw: {exc}") from exc
    return max(psi, PSI_FLOOR)


def _interweave_noncentered(obs, d, h_full, mu, phi, psi, priors, rng):
    """Re-draw (level, signed scale) with the path held fixed in
    non-centered form; valid only under the chi-square-type variance prior
    (psi_shape = 1/2), which is the square of a Gaussian scale.

    The 2x2 posterior precision [[p11, p12], [p12, p22]] is factored as
    L L' with L = [[l11, 0], [l21, l22]] in closed form; the draw is
    L'^{-1} (L^{-1} lin + z) for z = ``rng.normal(size=2)``.
    """
    if priors.psi_shape != 0.5:
        return mu, psi, h_full
    htil = h_full - mu
    htil /= math.sqrt(psi)
    x2 = htil[1:]
    dx2 = d * x2
    scale_prior_var = priors.psi_shape / priors.psi_rate  # N(0, v) on signed sqrt
    p11 = float(d.sum()) + 1.0 / priors.mu_var
    p12 = float(dx2.sum())
    p22 = float(dx2 @ x2) + 1.0 / scale_prior_var
    lin1 = float(d @ obs) + priors.mu_mean / priors.mu_var
    lin2 = float(dx2 @ obs)
    # pivots of the factorization are p11 and piv2; NaN fails the comparisons too
    piv2 = p22 - p12 * p12 / p11 if p11 > 0.0 else math.nan
    if not (0.0 < p11 < math.inf and 0.0 < piv2 < math.inf):
        raise NotPositiveDefiniteError("volatility interweave: precision not positive definite")
    l11 = math.sqrt(p11)
    l21 = p12 / l11
    l22 = math.sqrt(piv2)
    z1, z2 = rng.normal(size=2).tolist()
    w1 = lin1 / l11 + z1
    w2 = (lin2 - l21 * (lin1 / l11)) / l22 + z2
    scale_new = w2 / l22
    mu_new = (w1 - l21 * scale_new) / l11
    psi_new = max(scale_new * scale_new, PSI_FLOOR)
    htil *= scale_new
    htil += mu_new
    return mu_new, psi_new, htil
