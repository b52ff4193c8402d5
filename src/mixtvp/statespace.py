"""Static-form state regression: design rows, state loadings and the joint draw.

The normalized states enter the observation equation through per-period
rows only, so with W~ = Sigma^{-1} W (one K-row per period) their
conditional posterior precision

    Q = W~'W~ + Phi'Phi

is banded with bandwidth K: W~'W~ is block diagonal and Phi'Phi block
tridiagonal with diagonal off-diagonal blocks.  Its band is filled by one
product of the flattened W~ with its own shifts.  The path is drawn with
one banded Cholesky Q = U'U and two banded triangular solves, in
O(T*K^3):

    draw = U^{-1} U^{-T} b,   b = W~'(y~ - v) + Phi'(Phi a_0 + u),
    u ~ N(0, I_nu),  v ~ N(0, I_T).

b has mean W~'y~ + Phi'Phi a_0 and covariance W~'W~ + Phi'Phi = Q, so the
draw is N(Q^{-1}(W~'y~ + Phi'Phi a_0), Q^{-1}), the posterior under the
prior a_0 + Phi^{-1} u (Rue 2001; Chan and Jeliazkov 2009).  The AR
diagonals of Phi may take any values.

A law of motion without autoregression (Phi = I: the pooled law and the
single-variance mixture, whose states are exchangeable across periods)
makes Q block diagonal with blocks I + w_t w_t'.  The same b is then
solved per period by Sherman-Morrison, with no factorization:

    draw_t = b_t - w_t (w_t'b_t) / (1 + |w_t|^2),   b = W~'(y~ - v) + a_0 + u.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .banded import NotPositiveDefiniteError, factor_banded, solve_factored
from .shrinkage import ConstantBlock

SQRT_PSI_FLOOR = 1e-10


def sqrt_psi_matrix(block: ConstantBlock, S: np.ndarray | None, T: int) -> np.ndarray:
    """Signed square roots of the innovation variances, per period (T, K)."""
    if block.sqrt_psi1 is None:
        raise ValueError("block carries no innovation roots")
    if S is None:
        return np.broadcast_to(block.sqrt_psi1, (T, block.K)).copy()
    if block.sqrt_psi0 is None:
        raise ValueError("two-regime layout requires spike roots")
    S = np.asarray(S, dtype=float)
    return S * block.sqrt_psi1 + (1.0 - S) * block.sqrt_psi0


def build_design_rows(x: np.ndarray, alpha_tilde: np.ndarray, S: np.ndarray | None) -> np.ndarray:
    """Observation rows of the constant block given the states and regimes.

    A row multiplies the sampled block: means first, then slab roots, then
    spike roots.  With indicators present it is (x', (S x * a~)',
    ((I-S) x * a~)'); without them it collapses to (x', (x * a~)').
    """
    if alpha_tilde.shape != x.shape:
        raise ValueError("alpha_tilde shape mismatch")
    scaled = x * alpha_tilde
    if S is None:
        return np.hstack([x, scaled])
    return np.hstack([x, S * scaled, (1.0 - S) * scaled])


@lru_cache(maxsize=None)
def _cross_period_entries(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Band rows and within-period columns of the entries that pair two periods.

    Row K - k of the band holds superdiagonal k; at within-period column
    j < k it pairs a coefficient with one of the period before, where
    W~'W~ is zero.
    """
    rows, cols = np.nonzero(np.arange(K) < K - np.arange(1, K + 1)[:, None])
    rows += 1
    # the cache hands the same arrays to every caller
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def state_precision_band(wtilde: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Upper band of Q = W~'W~ + Phi'Phi in LAPACK storage, shape (K+1, T*K).

    ``sub`` is Phi's (T-1, K) subdiagonal from ``banded.build_phi``, or a
    (T-1, 1) one whose AR pattern all K coefficients of the period share;
    T and K come from ``wtilde``.  Row K - k holds superdiagonal k.  The blocks
    w_t w_t' fill offsets below K within each period; Phi'Phi adds
    1 + sub_t^2 to the diagonal and puts sub_t at offset K.
    Rows 1..K come from one product of the flattened W~ with its shifts by
    0..K-1 places, after which the entries that pair two periods are set
    to zero.
    """
    T, K = wtilde.shape
    n = T * K
    # the flattened W~ behind K zeros; row r of ``shifted`` is it shifted by
    # K - 1 - r places, a view with no copy
    padded = np.zeros(n + K)
    padded[K:] = wtilde.reshape(n)
    shifted = np.lib.stride_tricks.sliding_window_view(padded[1:], n)
    ab = np.empty((K + 1, n))
    np.multiply(shifted, padded[K:], out=ab[1:])
    band = ab.reshape(K + 1, T, K)
    rows, cols = _cross_period_entries(K)
    band[rows, :, cols] = 0.0
    band[K] += 1.0
    band[K, :-1] += sub**2
    ab[0, :K] = 0.0
    band[0, 1:] = sub
    return ab


def draw_states_fast(
    ytilde: np.ndarray,
    wtilde: np.ndarray,
    a0: np.ndarray,
    sub: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Joint draw of the normalized states from their posterior precision.

    T and K come from the (T, K) loadings ``wtilde``.  ``sub`` is the
    (T-1, K) subdiagonal of Phi from ``banded.build_phi``, which couples
    consecutive periods, or a (T-1, 1) one: one AR pattern that the K
    coefficients share (the random walk, and one regime chain per
    equation).  The draw then goes through one banded
    factorization of the precision.  ``sub=None`` stands for Phi = I (a
    law without autoregression): the precision is then block diagonal and
    each period is drawn in closed form, with no factorization.  u and
    then v are standard normal from ``rng``.
    """
    T, K = wtilde.shape
    nu = T * K
    shapes = ((T - 1, K), (T - 1, 1))
    if ytilde.shape != (T,) or a0.shape != (nu,) or (sub is not None and sub.shape not in shapes):
        raise ValueError("input dimensions do not match wtilde")
    u = rng.normal(size=nu).reshape(T, K)
    v = rng.normal(size=T)

    b = wtilde * (ytilde - v)[:, None]
    if sub is None:
        b += a0.reshape(T, K) + u
        # Sherman-Morrison on each block I + w_t w_t' of the precision
        denom = 1.0 + np.einsum("tk,tk->t", wtilde, wtilde)
        bad = ~np.isfinite(denom)
        if bad.any():
            raise NotPositiveDefiniteError(
                f"state draw: non-finite pivot in the precision at period {int(np.argmax(bad)) + 1}"
            )
        proj = np.einsum("tk,tk->t", b, wtilde) / denom
        return (b - proj[:, None] * wtilde).reshape(nu)
    U = factor_banded(state_precision_band(wtilde, sub), "state draw", block=K)
    # Phi'(Phi a_0 + u): Phi adds sub times the period before, Phi' sub
    # times the period after
    prior = a0.reshape(T, K).copy()
    prior[1:] += sub * prior[:-1]
    prior += u
    prior[:-1] += sub * prior[1:]
    b += prior
    return solve_factored(U, b.reshape(nu))


def reconstruct_centered(block: ConstantBlock, S: np.ndarray | None, alpha_tilde: np.ndarray) -> np.ndarray:
    """Centered coefficient paths alpha_t = alpha0 + sqrt(Psi_t) * a~_t."""
    T = alpha_tilde.shape[0]
    return block.alpha0 + sqrt_psi_matrix(block, S, T) * alpha_tilde


def normalized_from_centered(block: ConstantBlock, S: np.ndarray | None, alpha_centered: np.ndarray) -> np.ndarray:
    """Invert the centering map; roots below the floor pin the state to zero."""
    T = alpha_centered.shape[0]
    roots = sqrt_psi_matrix(block, S, T)
    return np.divide(
        alpha_centered - block.alpha0,
        roots,
        out=np.zeros_like(alpha_centered),
        where=np.abs(roots) >= SQRT_PSI_FLOOR,
    )
