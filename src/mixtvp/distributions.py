"""Random-variate generators for the non-standard conditionals.

The generalized inverse Gaussian here follows the three-parameter density

    p(x) propto x^(a-1) exp{-(b*x + c/x) / 2},   x > 0,

so Gamma(a, rate b/2) is the c = 0 special case and InverseGamma(-a, c/2)
the b = 0 special case.  One algorithm draws every variate, on Python
floats: a parameter set whose b*c is zero, exactly or by underflow, takes
the exact Gamma or inverse-Gamma reduction (one ``rng.gamma`` call), and
any other goes through Devroye's (2014) rejection scheme on the log scale,
which stays valid for arbitrarily small b*c and for any b*c up to the
largest float (a b*c that overflows is refused).  Its envelope is computed
once per element, inline, from the square root of its parameter alpha,
which keeps it finite and free of cancellation over that whole range.  A
draw whose exp(log-scale draw), mode or scale c/b is not a normal float is
put together in logs.

Each rejection round uses one uniform triple (u, v, w).  The triples come
in blocks: when the block in hand is used up, the next one holds
3 x (elements still to draw before the next reduction) uniforms.  Every
such element takes at least one more triple, so a block is never drawn
past what the elements use, and a reduction's ``rng.gamma`` follows the
uniforms of the elements before it, as element-by-element drawing has
them.  ``rng.random(3 * m)`` gives the same values as m calls of
``rng.random(3)``, so the draws and the generator's final state are those
of one ``rng.random(3)`` per round.  ``sample_gig_array`` checks its
parameters once per call and then draws its elements in order, so one call
of n elements consumes the generator as n calls of one element do.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_COSH1 = math.cosh(1.0)
_COSH1_M1 = _COSH1 - 1.0
_E_M2 = math.e - 2.0
_LOG_MIN_NORMAL, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def _gig_reason(a: float, b: float, c: float) -> str | None:
    """Why (a, b, c) lies outside the valid regions, or None inside them."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return "must be finite"
    if b < 0.0 or c < 0.0:
        return "requires b >= 0 and c >= 0"
    if b * c == math.inf:
        # omega = sqrt(b*c) would be inf and no candidate ever accepted
        return "requires b*c below the largest float"
    if c == 0.0 and a <= 0.0:
        return "with c = 0 requires a > 0 (Gamma reduction)"
    if b == 0.0 and a >= 0.0:
        return "with b = 0 requires a < 0 (inverse-Gamma reduction)"
    return None


def sample_gig_array(a, b, c, rng: np.random.Generator) -> np.ndarray:
    """One GIG draw per element of (a, b, c), broadcast to a common 1-d shape.

    Valid regions: a > 0 with b > 0 (any c >= 0); a < 0 with c > 0 (any
    b >= 0); a == 0 requires b*c bounded away from zero.  In all of them
    b*c must not overflow.  The first element outside them is named by its
    index in the ``ValueError``, or by none when every parameter has one
    element.  The checks run once per call, before any draw: parameters
    with a finite a, b and c positive and b*c finite and nonzero everywhere
    are valid at once, and only others are checked element by element.
    The elements are then drawn in order, each as a one-element call draws
    it.
    """
    cols = [np.asarray(v, dtype=float) for v in (a, b, c)]
    if any(x.ndim > 1 for x in cols):
        raise ValueError("GIG parameters must be scalars or 1-d arrays")
    lengths = {x.size for x in cols if x.size != 1}
    if len(lengths) > 1:
        raise ValueError(f"GIG parameter lengths {sorted(lengths)} do not broadcast")
    n = max(lengths, default=1)
    # a length-one parameter is repeated to the common length
    al, bl, cl = (x.ravel().tolist() * (n if x.size == 1 else 1) for x in cols)
    # a NaN fails every comparison, so it leaves the interior too; a
    # finite b*c of positive b and c makes both finite
    interior = all(
        -math.inf < ai < math.inf and 0.0 < bi and 0.0 < ci and 0.0 < bi * ci < math.inf
        for ai, bi, ci in zip(al, bl, cl)
    )
    if not interior:
        for i, (ai, bi, ci) in enumerate(zip(al, bl, cl)):
            at = f" at index {i}" if lengths else ""
            reason = _gig_reason(ai, bi, ci)
            if reason is not None:
                values = f" (a={ai}, b={bi}, c={ci})" if lengths else ""
                raise ValueError(f"GIG parameters{at}{values} {reason}")
            if ai == 0.0 and bi * ci == 0.0:
                raise ValueError(f"GIG parameters{at}: a = 0 requires b*c bounded away from zero")
    return np.array(_draw_gigs(al, bl, cl, rng))


def _draw_gigs(al: list, bl: list, cl: list, rng: np.random.Generator) -> list:
    """One draw per element of the parameter lists, all inside the valid regions, in order.

    An element whose b*c is zero, exactly (b or c is zero) or by
    underflow, takes the dominant reduction, which is then exact at this
    precision.  Every other element is drawn by Devroye's (2014) sampler
    on the log scale: with lam = |a| and omega = sqrt(b*c) it draws X from

        p(x) propto x^(lam-1) exp{-omega (x + 1/x) / 2}

    through the log-concave density of log(X / mode),

        psi(x) = -A(x) - lam (e^x - 1 - x),   A(x) = alpha (cosh x - 1),

    with psi(0) = 0: a flat center piece with two exponential tails.  The
    acceptance rate is bounded away from zero uniformly in (lam, omega).
    alpha = hypot(lam, omega) - lam is held by its root, sqrt_alpha =
    omega / sqrt(lam + hypot(lam, omega)), and A(x) is evaluated as
    2 (sqrt_alpha sinh(x/2))^2 with derivative 2 (sqrt_alpha sinh(x/2))
    (sqrt_alpha cosh(x/2)): this does not cancel to 0 at small |x| (where
    b*c is large) and forms no 0 * inf where alpha is subnormal.  The
    envelope constants are computed once per element, in one pass.  Each
    round takes a uniform triple (u, v, w) from the block in hand (module
    docstring): u picks the piece, v places the candidate in it and w
    decides acceptance.  The element's draw is then X^sign(a) sqrt(c/b).
    """
    n = len(al)
    omegas = [math.sqrt(bi * ci) for bi, ci in zip(bl, cl)]
    # rejection elements from i up to the next reduction: a block of
    # uniforms drawn at element i is sized for these
    if 0.0 in omegas:
        run = [0] * n
        following = 0
        for i in range(n - 1, -1, -1):
            following = following + 1 if omegas[i] > 0.0 else 0
            run[i] = following
    else:
        run = range(n, 0, -1)
    out = []
    block, pos = [], 0
    for i, (a, b, c, omega) in enumerate(zip(al, bl, cl, omegas)):
        if omega == 0.0:
            if a > 0.0:
                out.append(float(rng.gamma(a, 2.0 / b)))
                continue
            # for small -a the Gamma draw underflows to exactly 0
            g = rng.gamma(-a, 2.0 / c)
            out.append(1.0 / g if g > 0.0 else math.inf)
            continue
        lam = abs(a)
        # sqrt_alpha >= ~1e-316 wherever lam + h is finite
        h = math.hypot(lam, omega)
        sqrt_alpha = omega / math.sqrt(lam + h)
        alpha = sqrt_alpha * sqrt_alpha
        # right and left switch points of the three-piece envelope, from
        # -psi(1) and -psi(-1)
        a_1 = alpha * _COSH1_M1  # A(1) = A(-1)
        x0 = a_1 + lam * _E_M2
        if 0.5 <= x0 <= 2.0:
            t = 1.0
        elif x0 > 2.0:
            t = math.sqrt(2.0 / (alpha + lam))
        else:
            t = math.log(4.0 / (alpha + 2.0 * lam))
        x1 = a_1 + lam / math.e
        if 0.5 <= x1 <= 2.0:
            s = 1.0
        elif x1 > 2.0:
            s = math.sqrt(4.0 / (alpha * _COSH1 + lam))
        else:
            # 1/lam (inf at lam = 0) or log(1 + 1/alpha + sqrt(1/alpha^2 +
            # 2/alpha)) with no 1/alpha to overflow; lam < e/2 here, so
            # sqrt_alpha > 0 even where alpha underflows
            left = math.log(alpha + 1.0 + math.sqrt(1.0 + 2.0 * alpha)) - 2.0 * math.log(sqrt_alpha)
            s = min(1.0 / lam if lam > 0.0 else math.inf, left)
        em_t, em_s = math.expm1(t), math.expm1(-s)
        # A and its derivative at t and -s, from sqrt_alpha sinh(x/2) and
        # sqrt_alpha cosh(x/2): s, t < ~750 keep both finite
        sh_t, ch_t = sqrt_alpha * math.sinh(0.5 * t), sqrt_alpha * math.cosh(0.5 * t)
        sh_s, ch_s = sqrt_alpha * math.sinh(0.5 * s), sqrt_alpha * math.cosh(0.5 * s)
        # eta = -psi(t), zeta = -psi'(t), theta = -psi(-s), xi = psi'(-s)
        eta = 2.0 * sh_t * sh_t + lam * (em_t - t)
        zeta = 2.0 * sh_t * ch_t + lam * em_t
        theta = 2.0 * sh_s * sh_s + lam * (em_s + s)
        xi = 2.0 * sh_s * ch_s - lam * em_s
        p, r = 1.0 / xi, 1.0 / zeta
        t_star, s_star = t - r * eta, s - p * theta
        q = t_star + s_star
        # cumulative weights of the center and right pieces
        total = p + q + r
        cut_mid, cut_right = q / total, (q + r) / total

        # each log maps 0 to -inf instead of raising
        while True:
            if pos == len(block):
                block, pos = rng.random(3 * run[i]).tolist(), 0
            u, v, w = block[pos], block[pos + 1], block[pos + 2]
            pos += 3
            if u < cut_mid:
                cand = -s_star + q * v
                log_envelope = 0.0
            elif u < cut_right:
                cand = t_star - r * (math.log(v) if v > 0.0 else -math.inf)
                log_envelope = -eta - zeta * (cand - t)
            else:
                cand = -s_star + p * (math.log(v) if v > 0.0 else -math.inf)
                log_envelope = -theta + xi * (cand + s)
            try:
                sh = sqrt_alpha * math.sinh(0.5 * cand)
                psi = -2.0 * sh * sh - lam * (math.expm1(cand) - cand)
                if (math.log(w) if w > 0.0 else -math.inf) + log_envelope <= psi:
                    break
            except OverflowError:
                pass  # a candidate far in a tail: sinh or exp overflows, a certain rejection
        # exp(cand) and c/b must be normal floats: a subnormal has lost digits
        ratio = c / b
        if _LOG_MIN_NORMAL < cand <= _LOG_MAX and ratio >= sys.float_info.min:
            x = math.exp(cand) * ((lam + h) / omega)
            draw = (1.0 / x if a < 0.0 else x) * math.sqrt(ratio)
        else:
            draw = math.nan
        if not 0.0 < draw < math.inf:
            # exp(cand), the mode (lam + h overflows) or c/b left the normal
            # float range: the same draw, put together in logs
            log_x = cand + math.log(h) + math.log1p(lam / h) - math.log(omega)
            log_draw = (-log_x if a < 0.0 else log_x) + 0.5 * (math.log(c) - math.log(b))
            draw = math.exp(log_draw) if log_draw <= _LOG_MAX else math.inf
        out.append(draw)
    return out


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


def sample_categorical_columns(cdf: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per column of unnormalized log weights (K, n).

    ``cdf`` is a C-ordered array and is overwritten.  A column needs a
    finite largest entry: a column that is all -inf, or holds a NaN or
    +inf, raises ``ValueError`` naming it as a row of the (n, K) weights
    it transposes.  Entries at -inf get weight zero and are never drawn: a
    column takes the first category whose CDF exceeds its uniform, so a
    uniform of exactly 0 still lands on a category of positive weight.
    One uniform is drawn per column.  Every step runs along rows of length
    n; the running sum adds category after category, row k - 1 to row k,
    in one in-place cumsum.
    """
    top = cdf.max(axis=0)
    bad = ~np.isfinite(top)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"categorical log weights of row {i} have no finite maximum: {cdf[:, i].tolist()}")
    cdf -= top
    np.exp(cdf, out=cdf)
    np.cumsum(cdf, axis=0, out=cdf)
    u = rng.random(cdf.shape[1]) * cdf[-1]
    return (cdf <= u).sum(axis=0)


def log_uniform(rng: np.random.Generator) -> float:
    """Log of one uniform draw, as a Metropolis-Hastings step compares it; exactly 0 gives -inf."""
    u = rng.random()
    return math.log(u) if u > 0.0 else -math.inf


def sample_gamma_rate(shape: float, rate: float, rng: np.random.Generator) -> float:
    """Gamma draw in shape/rate form, matching the G(a, b) convention here."""
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("Gamma shape and rate must be positive")
    return rng.gamma(shape=shape, scale=1.0 / rate)
