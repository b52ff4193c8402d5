"""Random-variate generators for the non-standard conditionals.

The generalized inverse Gaussian here follows the three-parameter density

    p(x) propto x^(a-1) exp{-(b*x + c/x) / 2},   x > 0,

so Gamma(a, rate b/2) is the c = 0 special case and InverseGamma(-a, c/2)
the b = 0 special case.  One algorithm draws every variate, on Python
floats: a parameter set whose b*c is zero, exactly or by underflow, takes
the exact Gamma or inverse-Gamma reduction (one ``rng.gamma`` call), and
any other goes through Devroye's (2014) rejection scheme on the log scale,
which stays valid for arbitrarily small or large b*c and takes one
``rng.random(3)`` per round.  ``sample_gig`` draws once from one
parameter set; ``sample_gig_array`` draws once per element of parameter
arrays, element after element, so n elements consume the generator as n
successive ``sample_gig`` calls do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_COSH1 = math.cosh(1.0)

# Each check flags parameters outside the valid regions; it takes floats
# or same-shape arrays alike.
_GIG_CHECKS = (
    (lambda a, b, c: ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c)), "must be finite"),
    (lambda a, b, c: (b < 0.0) | (c < 0.0), "requires b >= 0 and c >= 0"),
    (lambda a, b, c: (c == 0.0) & (a <= 0.0), "with c = 0 requires a > 0 (Gamma reduction)"),
    (lambda a, b, c: (b == 0.0) & (a >= 0.0), "with b = 0 requires a < 0 (inverse-Gamma reduction)"),
)


def _first_invalid_gig(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[int, str] | None:
    """Index and reason of the first element outside the valid regions."""
    masks = [(check(a, b, c), reason) for check, reason in _GIG_CHECKS]
    bad = np.logical_or.reduce([mask for mask, _ in masks])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, next(reason for mask, reason in masks if mask[i])


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
        a, b, c = float(self.a), float(self.b), float(self.c)
        for check, reason in _GIG_CHECKS:
            if check(a, b, c):
                raise ValueError(f"GIG parameters {reason}")


def sample_gig(params: GigParams, rng: np.random.Generator) -> float:
    """One draw from the generalized inverse Gaussian distribution."""
    # GigParams has already checked the parameters
    return _draw_gig(float(params.a), float(params.b), float(params.c), rng)


def sample_gig_array(a, b, c, rng: np.random.Generator) -> np.ndarray:
    """One GIG draw per element of (a, b, c), broadcast to a common 1-d shape.

    Every element must lie in a region ``GigParams`` accepts; the first one
    that does not is named by its index in the ``ValueError``.  The
    elements are then drawn in order, each as ``sample_gig`` draws it.
    """
    a, b, c = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, c)))
    if a.ndim != 1:
        raise ValueError("GIG parameters must be scalars or 1-d arrays")
    found = _first_invalid_gig(a, b, c)
    if found is not None:
        i, reason = found
        raise ValueError(f"GIG parameters at index {i} (a={a[i]}, b={b[i]}, c={c[i]}) {reason}")
    no_reduction = (a == 0.0) & (b * c == 0.0)
    if no_reduction.any():
        i = int(np.argmax(no_reduction))
        raise ValueError(f"GIG parameters at index {i}: a = 0 requires b*c bounded away from zero")
    return np.array([_draw_gig(*abc, rng) for abc in zip(a.tolist(), b.tolist(), c.tolist())])


def _draw_gig(a: float, b: float, c: float, rng: np.random.Generator) -> float:
    """One draw for parameters inside the valid regions."""
    omega = math.sqrt(b * c)
    # b*c is zero exactly (b or c is zero) or by underflow; the dominant
    # reduction is then exact at this precision
    if omega == 0.0:
        if a == 0.0:
            raise ValueError("GIG parameters: a = 0 requires b*c bounded away from zero")
        if a > 0.0:
            return float(rng.gamma(shape=a, scale=2.0 / b))
        # for small -a the Gamma draw underflows to exactly 0
        g = rng.gamma(shape=-a, scale=2.0 / c)
        return 1.0 / g if g > 0.0 else math.inf
    draw = _gig_two_param(abs(a), omega, rng)
    return (1.0 / draw if a < 0.0 else draw) * math.sqrt(c / b)


def _log(x: float) -> float:
    """log that maps 0 to -inf instead of raising."""
    return math.log(x) if x > 0.0 else -math.inf


def _envelope(lam: float, alpha: float, left_log_term: float, psi, dpsi) -> tuple:
    """Devroye's envelope constants for the log-density ``psi`` of log(X / mode).

    ``left_log_term`` is log(1 + 1/alpha + sqrt(1/alpha^2 + 2/alpha)), the
    left switch point's fallback when the log-density is nearly flat.
    """
    # Right and left switch points of the three-piece envelope, from
    # -psi(1) and -psi(-1)
    x0 = alpha * (_COSH1 - 1.0) + lam * (math.e - 2.0)
    if 0.5 <= x0 <= 2.0:
        t = 1.0
    elif x0 > 2.0:
        t = math.sqrt(2.0 / (alpha + lam))
    else:
        t = math.log(4.0 / (alpha + 2.0 * lam))
    x1 = alpha * (_COSH1 - 1.0) + lam / math.e
    if 0.5 <= x1 <= 2.0:
        s = 1.0
    elif x1 > 2.0:
        s = math.sqrt(4.0 / (alpha * _COSH1 + lam))
    else:
        # the fallback picks 1/lam (inf at lam = 0) or the log term (inf at
        # alpha = 0); never both, as omega > 0
        s = min(1.0 / lam if lam > 0.0 else math.inf, left_log_term)

    eta = -psi(t)
    zeta = -dpsi(t)
    theta = -psi(-s)
    xi = dpsi(-s)
    p = 1.0 / xi
    r = 1.0 / zeta
    t_star = t - r * eta
    s_star = s - p * theta
    q = t_star + s_star
    # cumulative weights of the center and right pieces
    total = p + q + r
    return t, s, eta, zeta, theta, xi, p, r, t_star, s_star, q, q / total, (q + r) / total


def _gig_two_param(lam: float, omega: float, rng: np.random.Generator) -> float:
    """One draw from p(x) propto x^(lam-1) exp{-omega (x + 1/x) / 2}, lam >= 0, omega > 0.

    Rejection sampler of Devroye (2014) built on the log-concave density of
    log(X / mode): a flat center piece with two exponential tails.  The
    acceptance rate is bounded away from zero uniformly in (lam, omega).
    Each round takes one ``rng.random(3)`` as (u, v, w): u picks the piece,
    v places the candidate in it and w decides acceptance.
    """
    # alpha = sqrt(omega^2 + lam^2) - lam without the cancellation that
    # rounds it to 0 when omega << lam: the left switch point would then be
    # s = 1/lam, whose cosh overflows for lam below ~1/710, every envelope
    # constant would be NaN and no candidate would ever be accepted
    alpha = omega * omega / (math.sqrt(omega * omega + lam * lam) + lam)

    def psi(x):
        # log density of log(X / mode), up to a constant: psi(0) = 0
        return -alpha * (math.cosh(x) - 1.0) - lam * (math.expm1(x) - x)

    def dpsi(x):
        return -alpha * math.sinh(x) - lam * math.expm1(x)

    # log(1 + 1/alpha + sqrt(1/alpha^2 + 2/alpha)), with no 1/alpha^2 to
    # overflow for small alpha
    left = math.log(1.0 + (1.0 + math.sqrt(1.0 + 2.0 * alpha)) / alpha) if alpha > 0.0 else math.inf
    try:
        consts = _envelope(lam, alpha, left, psi, dpsi)
        in_logs = not all(map(math.isfinite, consts))
    except (OverflowError, ZeroDivisionError):
        in_logs = True
    if in_logs:
        # Below alpha ~ 1e-308 (subnormal omega^2 against lam) 1/alpha
        # overflows, the left switch point falls back to 1/lam and
        # alpha*cosh(s) to inf*0.  alpha is then taken by its log, in the
        # envelope and in every acceptance test, so that alpha*cosh(x)
        # overflows only where psi does.
        log_alpha = 2.0 * math.log(omega) - math.log(math.sqrt(omega * omega + lam * lam) + lam)
        alpha_ = math.exp(log_alpha)

        def psi(x):
            return (
                -0.5 * (math.exp(log_alpha + x) + math.exp(log_alpha - x)) + alpha_ - lam * (math.expm1(x) - x)
            )

        def dpsi(x):
            return -0.5 * (math.exp(log_alpha + x) - math.exp(log_alpha - x)) - lam * math.expm1(x)

        left = math.log(alpha_ + 1.0 + math.sqrt(1.0 + 2.0 * alpha_)) - log_alpha
        consts = _envelope(lam, alpha_, left, psi, dpsi)
    t, s, eta, zeta, theta, xi, p, r, t_star, s_star, q, cut_mid, cut_right = consts

    while True:
        u, v, w = rng.random(3).tolist()
        if u < cut_mid:
            cand = -s_star + q * v
            log_envelope = 0.0
        elif u < cut_right:
            cand = t_star - r * _log(v)
            log_envelope = -eta - zeta * (cand - t)
        else:
            cand = -s_star + p * _log(v)
            log_envelope = -theta + xi * (cand + s)
        try:
            if _log(w) + log_envelope <= psi(cand):
                break
        except OverflowError:
            pass  # a candidate far in a tail: cosh or exp overflows, a certain rejection
    mode = (lam + math.sqrt(lam * lam + omega * omega)) / omega
    if in_logs:
        # the log-scale draw can sit below the smallest normal exp(cand)
        return math.exp(cand + math.log(mode))
    return math.exp(cand) * mode


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


def sample_categorical_rows(log_weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row-wise categorical draws from unnormalized log weights (n, K)."""
    lw = np.asarray(log_weights, dtype=float)
    lw = lw - lw.max(axis=1, keepdims=True)
    w = np.exp(lw)
    cdf = np.cumsum(w, axis=1)
    u = rng.random(lw.shape[0]) * cdf[:, -1]
    return (cdf < u[:, None]).sum(axis=1).clip(0, lw.shape[1] - 1)


def log_uniform(rng: np.random.Generator) -> float:
    """Log of one uniform draw, as a Metropolis-Hastings step compares it; exactly 0 gives -inf."""
    u = rng.random()
    return math.log(u) if u > 0.0 else -math.inf


def sample_gamma_rate(shape: float, rate: float, rng: np.random.Generator, size=None):
    """Gamma draw in shape/rate form, matching the G(a, b) convention here."""
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("Gamma shape and rate must be positive")
    return rng.gamma(shape=shape, scale=1.0 / rate, size=size)
