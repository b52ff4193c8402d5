"""Random-variate generators for the non-standard conditionals.

The generalized inverse Gaussian here follows the three-parameter density

    p(x) propto x^(a-1) exp{-(b*x + c/x) / 2},   x > 0,

so Gamma(a, rate b/2) is the c = 0 special case and InverseGamma(-a, c/2)
the b = 0 special case.  ``sample_gig_array`` draws one variate per
element of parameter arrays (a, b, c): entries whose b*c is zero, exactly
or by underflow, are split out by mask to the exact Gamma and
inverse-Gamma reductions, and the rest go through Devroye's (2014)
rejection scheme on the log scale, which stays valid for arbitrarily small
or large b*c.  Its envelope constants are computed per element, and each
round re-proposes only the rejected elements.  ``sample_gig`` draws from
one parameter set through the same sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _first_invalid_gig(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the first element outside the valid regions."""
    checks = (
        (~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c)), "must be finite"),
        ((b < 0.0) | (c < 0.0), "requires b >= 0 and c >= 0"),
        ((c == 0.0) & (a <= 0.0), "with c = 0 requires a > 0 (Gamma reduction)"),
        ((b == 0.0) & (a >= 0.0), "with b = 0 requires a < 0 (inverse-Gamma reduction)"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, next(reason for mask, reason in checks if mask[i])


@dataclass(frozen=True)
class GigParams:
    """Parameters (a, b, c) of the generalized inverse Gaussian above.

    Valid regions: a > 0 with b > 0 (any c >= 0); a < 0 with c > 0
    (any b >= 0); a == 0 requires b > 0 and c > 0.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        found = _first_invalid_gig(*(np.array([v], dtype=float) for v in (self.a, self.b, self.c)))
        if found is not None:
            raise ValueError(f"GIG parameters {found[1]}")


def sample_gig(params: GigParams, rng: np.random.Generator, size: int | None = None):
    """Draw from the generalized inverse Gaussian distribution.

    Returns a scalar when ``size`` is None, else an array of ``size`` draws.
    """
    n = 1 if size is None else int(size)
    # GigParams has already checked the parameters
    draws = _draw_gig(*(np.full(n, v, dtype=float) for v in (params.a, params.b, params.c)), rng)
    return float(draws[0]) if size is None else draws


def sample_gig_array(a, b, c, rng: np.random.Generator) -> np.ndarray:
    """One GIG draw per element of (a, b, c), broadcast to a common 1-d shape.

    Every element must lie in a region ``GigParams`` accepts; the first one
    that does not is named by its index in the ``ValueError``.  Gamma
    draws are taken first, then inverse-Gamma draws, then the rejection
    rounds, each in element order.
    """
    a, b, c = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, c)))
    if a.ndim != 1:
        raise ValueError("GIG parameters must be scalars or 1-d arrays")
    found = _first_invalid_gig(a, b, c)
    if found is not None:
        i, reason = found
        raise ValueError(f"GIG parameters at index {i} (a={a[i]}, b={b[i]}, c={c[i]}) {reason}")
    return _draw_gig(a, b, c, rng)


def _draw_gig(a: np.ndarray, b: np.ndarray, c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draws for same-shape 1-d parameter arrays inside the valid regions."""
    omega = np.sqrt(b * c)
    # b*c is zero exactly (b or c is zero) or by underflow; the dominant
    # reduction is then exact at this precision
    reduced = omega == 0.0
    if not reduced.any():
        draws = _gig_two_param(np.abs(a), omega, rng)
        return np.where(a < 0.0, 1.0 / draws, draws) * np.sqrt(c / b)
    if np.any(reduced & (a == 0.0)):
        i = int(np.argmax(reduced & (a == 0.0)))
        raise ValueError(f"GIG parameters at index {i}: a = 0 requires b*c bounded away from zero")
    gamma = reduced & (a > 0.0)
    inv_gamma = reduced & (a < 0.0)
    out = np.empty(a.shape)
    if gamma.any():
        out[gamma] = rng.gamma(shape=a[gamma], scale=2.0 / b[gamma])
    if inv_gamma.any():
        out[inv_gamma] = 1.0 / rng.gamma(shape=-a[inv_gamma], scale=2.0 / c[inv_gamma])
    if not reduced.all():
        out[~reduced] = _draw_gig(a[~reduced], b[~reduced], c[~reduced], rng)
    return out


def _gig_two_param(lam: np.ndarray, omega: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draws from p(x) propto x^(lam-1) exp{-omega (x + 1/x) / 2}, lam >= 0.

    One draw per element of the arrays ``lam`` and ``omega > 0``.  Rejection
    sampler of Devroye (2014) built on the log-concave density of
    log(X / mode): a flat center piece with two exponential tails.  The
    acceptance rate is bounded away from zero uniformly in (lam, omega).
    """
    alpha = np.sqrt(omega * omega + lam * lam) - lam

    def psi(x, alpha, lam):
        return -alpha * (np.cosh(x) - 1.0) - lam * (np.expm1(x) - x)

    def dpsi(x, alpha, lam):
        return -alpha * np.sinh(x) - lam * np.expm1(x)

    # Candidates far in a tail overflow cosh to inf (a certain rejection),
    # and the unused branches of np.where may divide by zero.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Right and left switch points of the three-piece envelope, from
        # -psi(1) and -psi(-1).  In the left fallback 1/lam is inf at
        # lam = 0 and the log term is inf at alpha = 0 (never both, as
        # omega > 0), so the minimum picks the formula that applies.
        x0 = alpha * (math.cosh(1.0) - 1.0) + lam * (math.e - 2.0)
        t = np.where(
            (0.5 <= x0) & (x0 <= 2.0),
            1.0,
            np.where(x0 > 2.0, np.sqrt(2.0 / (alpha + lam)), np.log(4.0 / (alpha + 2.0 * lam))),
        )
        x1 = alpha * (math.cosh(1.0) - 1.0) + lam / math.e
        s = np.where(
            (0.5 <= x1) & (x1 <= 2.0),
            1.0,
            np.where(
                x1 > 2.0,
                np.sqrt(4.0 / (alpha * math.cosh(1.0) + lam)),
                np.minimum(
                    1.0 / lam,
                    np.log(1.0 + 1.0 / alpha + np.sqrt(1.0 / alpha**2 + 2.0 / alpha)),
                ),
            ),
        )

        eta = -psi(t, alpha, lam)
        zeta = -dpsi(t, alpha, lam)
        theta = -psi(-s, alpha, lam)
        xi = dpsi(-s, alpha, lam)
        p = 1.0 / xi
        r = 1.0 / zeta
        t_star = t - r * eta
        s_star = s - p * theta
        q = t_star + s_star
        # cumulative weights of the center and right pieces
        total = p + q + r
        cut_mid = q / total
        cut_right = (q + r) / total

        out = np.empty(lam.shape)
        pending = np.arange(lam.size)
        # one row per constant, one column per element still to be drawn
        consts = np.stack([alpha, lam, t, s, eta, zeta, theta, xi, p, r, t_star, s_star, q, cut_mid, cut_right])
        while pending.size:
            alpha_, lam_, t, s, eta, zeta, theta, xi, p, r, t_star, s_star, q, cut_mid, cut_right = consts
            u, v, w = rng.random((3, pending.size))
            mid = u < cut_mid
            right = ~mid & (u < cut_right)
            log_v = np.log(v)
            cand = np.where(
                mid, -s_star + q * v, np.where(right, t_star - r * log_v, -s_star + p * log_v)
            )
            log_envelope = np.where(
                mid, 0.0, np.where(right, -eta - zeta * (cand - t), -theta + xi * (cand + s))
            )
            accept = np.log(w) + log_envelope <= psi(cand, alpha_, lam_)
            out[pending[accept]] = cand[accept]
            pending = pending[~accept]
            consts = consts[:, ~accept]
    mode = (lam + np.sqrt(lam * lam + omega * omega)) / omega
    return np.exp(out) * mode


def sample_dirichlet(concentrations: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet draw that is robust to very small concentrations.

    Gamma variates with shape well below one underflow to exact zeros in
    the direct method; sampling their logs keeps the normalized weights
    finite.  Output is non-negative and sums to one within 1e-12.
    """
    conc = np.asarray(concentrations, dtype=float)
    if conc.ndim != 1 or conc.size == 0:
        raise ValueError("concentrations must be a non-empty 1-d array")
    if np.any(conc <= 0.0) or not np.all(np.isfinite(conc)):
        raise ValueError("concentrations must be positive and finite")
    # log Gamma(a) = log Gamma(a+1) + log(U)/a, exact for any a > 0
    log_g = np.log(rng.gamma(shape=conc + 1.0)) + np.log(rng.random(conc.size)) / conc
    log_g -= log_g.max()
    w = np.exp(log_g)
    return w / w.sum()


def sample_categorical(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Single draw of a 0-based category index proportional to ``weights``."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d array")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be non-negative and finite")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("weights sum to zero")
    u = rng.random() * total
    return int(np.searchsorted(np.cumsum(w), u, side="right").clip(0, w.size - 1))


def sample_categorical_rows(log_weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row-wise categorical draws from unnormalized log weights (n, K)."""
    lw = np.asarray(log_weights, dtype=float)
    lw = lw - lw.max(axis=1, keepdims=True)
    w = np.exp(lw)
    cdf = np.cumsum(w, axis=1)
    u = rng.random(lw.shape[0]) * cdf[:, -1]
    return (cdf < u[:, None]).sum(axis=1).clip(0, lw.shape[1] - 1)


def sample_gamma_rate(shape: float, rate: float, rng: np.random.Generator, size=None):
    """Gamma draw in shape/rate form, matching the G(a, b) convention here."""
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("Gamma shape and rate must be positive")
    return rng.gamma(shape=shape, scale=1.0 / rate, size=size)
