"""Regime indicator updates in the centered parameterization.

Holding the centered coefficient paths fixed makes the observation
equation independent of the indicators, so their conditionals involve
only the Gaussian transition densities of the state equation.  Regime 1
is the persistent-drift regime (slab variances), regime 0 the
abrupt-shift regime (spike variances).  The law of motion enters as
``ar``, the normalized state's autoregressive coefficient in regime 0
and in regime 1 (``ModelSpec.ar``): a regime with coefficient 0 reverts
to the center, one with coefficient 1 carries the deviation.

Because the dynamics are placed on the normalized states with unit
innovation variance, the centered transition carries the deviation from
the center scaled by the ratio of the arriving and departing innovation
roots.  An indicator therefore enters two adjacent transition densities:
its own period's, and the next period's through that root ratio.  The
chain sampler folds the second term into pair emissions; the independent
law updates one site at a time along the sample.  Period 1 starts the
normalized state at zero, so its indicator is identified from the
variance discrimination alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .shrinkage import ConstantBlock

VAR_FLOOR = 1e-10
# a filter total below the smallest normal float has underflowed
_TINY = sys.float_info.min


@dataclass(frozen=True)
class MsCounts:
    """Beta prior counts for the joint two-state chain."""

    c00: float
    c01: float
    c10: float
    c11: float

    def __post_init__(self):
        if min(self.c00, self.c01, self.c10, self.c11) <= 0.0:
            raise ValueError("prior counts must be positive")


@dataclass(frozen=True)
class BernoulliCounts:
    """Beta prior counts for independent per-covariate indicators."""

    c0: float
    c1: float

    def __post_init__(self):
        if min(self.c0, self.c1) <= 0.0:
            raise ValueError("prior counts must be positive")


def _pair_residuals(
    alpha: np.ndarray,
    block: ConstantBlock,
    ar: tuple[float, float],
    pool_means: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Deviation of alpha from its mean under each regime pair, and the variances.

    resid[k, l] is the (T, K) residual of the centered paths under regime
    k at t-1 and regime l at t.  var[l] holds the K floored variances of
    regime l.  Regime l's mean is the center plus ar[l] times the
    previous deviation scaled by the root ratio root_l / root_k, plus
    root_l times the cluster means when ``pool_means`` holds them.  The
    first period starts the normalized state at zero, so its residuals do
    not depend on k.

    The roots are signed regression coefficients, so the carry ratio and
    the pool offsets keep their signs; only the variances are squared.
    """
    if block.sqrt_psi0 is None:
        raise ValueError("regime densities need both variance regimes")
    root = np.array([block.sqrt_psi0, block.sqrt_psi1])
    var = np.maximum(root**2, VAR_FLOOR)
    e = alpha - block.alpha0
    dev = np.zeros_like(e)
    dev[1:] = e[:-1]
    if pool_means is not None:
        e = e - root[:, None, :] * pool_means
    # ratio[k, l] = ar_l * root_l / root_k per coefficient; the departing
    # root is floored in magnitude with its sign kept
    denom = np.copysign(np.maximum(np.abs(root), np.sqrt(VAR_FLOOR)), root)
    ratio = root[None, :, :] / denom[:, None, :] * np.asarray(ar, dtype=float)[None, :, None]
    return e - ratio[:, :, None, :] * dev, var


def regime_log_densities(
    alpha: np.ndarray,
    block: ConstantBlock,
    ar: tuple[float, float],
    pool_means: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise log transition densities, shape (T, K, 2, 2).

    Entry [t, i, k, l] is the log density of alpha[t, i] given regime k
    at t-1 and regime l at t; alpha holds the centered paths and
    ``_pair_residuals`` states the regime means.
    """
    resid, var = _pair_residuals(alpha, block, ar, pool_means)
    resid = resid.transpose(2, 3, 0, 1)
    var = var.T[:, None, :]
    return -0.5 * (np.log(2.0 * np.pi * var) + resid**2 / var)


def summed_log_densities(
    alpha: np.ndarray,
    block: ConstantBlock,
    ar: tuple[float, float],
    pool_means: np.ndarray | None = None,
) -> np.ndarray:
    """``regime_log_densities`` summed over coefficients, shape (T, 2, 2).

    Each regime pair's squared residuals meet the inverse variances in
    one matrix product, and the normalizing logs are summed once per
    regime.
    """
    resid, var = _pair_residuals(alpha, block, ar, pool_means)
    quad = (resid * resid) @ (1.0 / var)[:, :, None]
    log_norm = np.log(2.0 * np.pi * var).sum(axis=1)
    out = -0.5 * (quad[..., 0] + log_norm[:, None])
    return out.transpose(2, 0, 1)


def stationary_probs(p00: float, p11: float) -> np.ndarray:
    denom = 2.0 - p00 - p11
    if denom <= 0.0:
        return np.array([0.5, 0.5])
    return np.array([(1.0 - p11) / denom, (1.0 - p00) / denom])


def simulate_ms_chain(p00: float, p11: float, T: int, rng: np.random.Generator) -> np.ndarray:
    """Forward simulation of the two-state chain from its stationary law."""
    s = np.empty(T, dtype=np.int8)
    s[0] = rng.random() < stationary_probs(p00, p11)[1]
    for t in range(1, T):
        stay = p11 if s[t - 1] == 1 else 1.0 - p00
        s[t] = rng.random() < stay
    return s


def sample_indicators_ms(
    alpha: np.ndarray,
    block: ConstantBlock,
    p00: float,
    p11: float,
    ar: tuple[float, float],
    rng: np.random.Generator,
    pool_means: np.ndarray | None = None,
) -> np.ndarray:
    """Joint chain draw s_1..s_T by forward filtering, backward sampling.

    The per-period regime likelihood pools the pairwise transition
    densities over all coefficients; because the emission for period t
    depends on the regime pair (s_{t-1}, s_t), the emissions are folded
    into the transition kernel.  The chain starts from its stationary
    law.

    Each period's kernel is rescaled by its largest pair emission, which
    may belong to a pair the transition law forbids.  When a forward or
    backward total then underflows, that period is weighed again in logs,
    from log filter + log transition + log emission, so a state or
    transition of probability zero is never drawn.
    """
    loglik = summed_log_densities(alpha, block, ar, pool_means)
    T = loglik.shape[0]
    trans = np.array([[p00, 1.0 - p00], [1.0 - p11, p11]])

    # kernels[t][k, l] = P(k -> l) * emission_t(k, l), rescaled per period
    kernels = trans[None] * np.exp(
        loglik[1:] - loglik[1:].max(axis=(1, 2), keepdims=True)
    )
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
        # period 1 weighs the stationary law in logs: a regime without stationary
        # mass keeps weight zero even when the other one's emission underflows
        first = np.log(stationary_probs(p00, p11)) + loglik[0, 0]

    def log_terms(t, f0, f1):
        """[k][l] = log f_k + log P(k -> l) + log emission(k, l) of kernel row t."""
        logs = (log_trans + loglik[t + 1]).tolist()
        log_f = [math.log(f) if f > 0.0 else -math.inf for f in (f0, f1)]
        return [[lf + v for v in row] for lf, row in zip(log_f, logs)]

    f = np.exp(first - first.max())
    f0, f1 = (f / f.sum()).tolist()
    # two states: the recursions run on Python floats, the filter kept as
    # one list per state
    rows = kernels.reshape(T - 1, 4).tolist()
    filt0, filt1 = [f0], [f1]
    for t, (k00, k01, k10, k11) in enumerate(rows):
        g0 = f0 * k00 + f1 * k10
        g1 = f0 * k01 + f1 * k11
        total = g0 + g1
        if not total >= _TINY:
            (a00, a01), (a10, a11) = log_terms(t, f0, f1)
            top = max(a00, a01, a10, a11)
            g0 = math.exp(a00 - top) + math.exp(a10 - top)
            g1 = math.exp(a01 - top) + math.exp(a11 - top)
            total = g0 + g1
        f0 = g0 / total
        f1 = g1 / total
        filt0.append(f0)
        filt1.append(f1)
    # one uniform per period, consumed from s_T back to s_1
    u = rng.random(T).tolist()
    nxt = int(u[0] < f1)
    path = [nxt]
    for t, (k00, k01, k10, k11), f0, f1, ut in zip(
        range(T - 2, -1, -1), reversed(rows), reversed(filt0[:-1]), reversed(filt1[:-1]), u[1:]
    ):
        if nxt:
            w0 = f0 * k01
            w1 = f1 * k11
        else:
            w0 = f0 * k00
            w1 = f1 * k10
        total = w0 + w1
        if not total >= _TINY:
            (a00, a01), (a10, a11) = log_terms(t, f0, f1)
            a0, a1 = (a01, a11) if nxt else (a00, a10)
            top = max(a0, a1)
            w0, w1 = math.exp(a0 - top), math.exp(a1 - top)
            total = w0 + w1
        nxt = int(ut < w1 / total)
        path.append(nxt)
    return np.array(path[::-1], dtype=np.int8)


def sample_indicators_mix(
    alpha: np.ndarray,
    block: ConstantBlock,
    p: np.ndarray,
    ar: tuple[float, float],
    rng: np.random.Generator,
    pool_means: np.ndarray | None = None,
    *,
    S: np.ndarray,
) -> np.ndarray:
    """Per-coefficient indicator draws, one site at a time along t.

    With the centered path fixed, s_it enters its own period's
    transition density and, through the root ratio on the carried
    deviation, the next period's.  Coefficients are independent chains,
    so the scan is vectorized across them; S supplies the current
    configuration the single-site conditionals are built from.  When no
    regime carries (``ar`` = (0, 0)) both terms are regime-pair free and
    the sites decouple, so any S produces exact independent draws.
    """
    loglik = regime_log_densities(alpha, block, ar, pool_means)
    T, K = alpha.shape
    cols = np.arange(K)
    out = np.array(S, dtype=np.int8, copy=True)
    base_logit = np.log(p) - np.log1p(-p)
    for t in range(T):
        prev = out[t - 1] if t > 0 else np.zeros(K, dtype=np.int8)
        logit = base_logit + loglik[t, cols, prev, 1] - loglik[t, cols, prev, 0]
        if t + 1 < T:
            nxt = out[t + 1]
            logit = logit + loglik[t + 1, cols, 1, nxt] - loglik[t + 1, cols, 0, nxt]
        # the logistic as exp(-log(1 + e^-x)), which cannot overflow
        out[t] = rng.random(size=K) < np.exp(-np.logaddexp(0.0, -logit))
    return out


def transition_posterior_params(s: np.ndarray, counts: MsCounts):
    """Beta parameters for (p00, p11) given the sampled chain."""
    # transition k -> l counted in bin 2k + l
    t00, t01, t10, t11 = np.bincount(2 * s[:-1] + s[1:], minlength=4).tolist()
    return (t00 + counts.c00, t01 + counts.c10), (t11 + counts.c01, t10 + counts.c11)


def update_transition_probs(s, counts: MsCounts, rng) -> tuple[float, float]:
    (a0, b0), (a1, b1) = transition_posterior_params(s, counts)
    return float(rng.beta(a0, b0)), float(rng.beta(a1, b1))


def bernoulli_posterior_params(S: np.ndarray, counts: BernoulliCounts):
    """Beta parameters per covariate for the regime-1 probabilities.

    The regime-1 occupancy counts go on the first Beta parameter, the
    event whose probability is drawn.
    """
    t1 = S.sum(axis=0).astype(float)
    t0 = S.shape[0] - t1
    return t1 + counts.c0, t0 + counts.c1


def update_bernoulli_probs(S, counts: BernoulliCounts, rng) -> np.ndarray:
    a, b = bernoulli_posterior_params(S, counts)
    return rng.beta(a, b)
