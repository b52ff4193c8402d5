"""Zero-frequency spectral summaries of reduced-form VAR draws.

The long-run (zero-frequency) spectral density of a stable VAR is
accumulated from the companion form, and the ratio of its off-diagonal
to diagonal entries summarizes the low-frequency co-movement of a pair
of variables. Unstable draws are flagged and excluded from bands.

Every stability decision goes through ``_stable_draws``: a draw whose
powers F^(2^j), j <= 6, shrink fast enough is certified stable without
an eigen-decomposition, and only the draws left over go to one batched
``np.linalg.eigvals`` call. Bands over a whole posterior sample run as
one array pipeline over the stacked (record, period) draws: structural
to reduced form, companion matrix, that stability decision, one batched
m x m inverse of I - A_1 - ... - A_p (the leading block of (I - F)^-1),
and per-period quantiles.
Periods are processed in blocks of at most ``_BLOCK_DRAWS`` draws so
that the (draws, mp, mp) intermediates stay bounded however many
records the sample holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .var import reduced_from_paths

__all__ = [
    "BAND_QUANTILES",
    "STABILITY_MARGIN",
    "CompanionForm",
    "companion",
    "low_freq_matrix",
    "low_freq",
    "low_freq_path_bands",
    "bands_csv",
]

STABILITY_MARGIN = 1e-8
# the quantiles of low_freq_path_bands, in its column order: lower, median, upper
BAND_QUANTILES = (0.16, 0.5, 0.84)
# squarings of the power screen, so powers up to F^64
_SCREEN_SQUARINGS = 6
# relative slack of the screen's certificate, far above the rounding of the
# squarings and of eigvals
_SCREEN_SLACK = 1e-3
# backward error of eigvals that a certificate covers, relative to ||F||_inf
_EIG_BACKWARD = 1e-12
# draws per period block of low_freq_path_bands; at least one period per block
_BLOCK_DRAWS = 4096
# stacks shorter than this take numpy's reductions in _inf_norms
_SHORT_STACK = 64


@dataclass(frozen=True)
class CompanionForm:
    """First-order stacking of a VAR(p): Z_t = F Z_{t-1} + E_t.

    ``F`` is mp x mp, ``upsilon`` embeds the reduced-form error
    covariance in the leading m x m block, and ``J = [I_m, 0]`` selects
    the contemporaneous subvector.
    """

    F: np.ndarray
    upsilon: np.ndarray
    J: np.ndarray

    @property
    def m(self) -> int:
        return self.J.shape[0]

    def is_stable(self, margin: float = STABILITY_MARGIN) -> bool:
        return bool(_stable_draws(self.F, margin))


def _power_screen(F: np.ndarray, margin: float) -> np.ndarray:
    """Draws of a finite (n, d, d) stack certified stable by their powers.

    rho(F)^k <= ||F^k||_inf for every k, so a draw is certified when a power
    P ~ F^k, k = 2^j from repeated squaring, has ||P|| + E below
    (1 - margin)^k (1 - ``_SCREEN_SLACK``).  E bounds ||P - (F + D)^k|| over
    every D with ||D|| <= ``_EIG_BACKWARD`` ||F||: the rounding of the
    squarings and a backward error of eigvals, so that a certified draw is
    one that eigvals, backward stable within that bound, calls stable too.
    Squaring P, whose error bound is E, leaves an error of at most
    gamma ||P||^2 + 2 ||P|| E + E^2, gamma = d eps.

    The norms are ``_inf_norms``: numpy reduces an axis of length d by
    calling its inner loop once per row, which costs more than the
    arithmetic when d is small and the stack is tall, so there the sums
    over a row are written out as d adds of whole columns and the maximum
    over the rows as d - 1 elementwise maxima.
    """
    n, d = F.shape[:2]
    certified = np.zeros(n, dtype=bool)
    todo = np.arange(n)
    gamma = d * np.finfo(float).eps
    norm = _inf_norms(F)
    err, P = _EIG_BACKWARD * norm, F
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(_SCREEN_SQUARINGS + 1):
            if j:
                err = gamma * norm**2 + 2.0 * norm * err + err**2
                P = P @ P
                norm = _inf_norms(P)
            bound = norm + err
            ok = bound < (1.0 - margin) ** (2**j) * (1.0 - _SCREEN_SLACK)
            certified[todo[ok]] = True
            # an overflowed power certifies nothing more
            keep = ~ok & np.isfinite(bound)
            if not keep.any():
                break
            todo, P, norm, err = todo[keep], P[keep], norm[keep], err[keep]
    return certified


def _inf_norms(P: np.ndarray) -> np.ndarray:
    """``np.abs(P).sum(axis=-1).max(axis=-1)`` of an (n, d, d) stack.

    A stack of fewer than ``_SHORT_STACK`` draws takes numpy's form.  On a
    taller one numpy's per-row inner loop costs more than the arithmetic,
    so the row sums are in-order adds of whole columns of ``np.abs(P)``
    and the maximum over the rows is d - 1 elementwise maxima, which keep
    any NaN.  Below 8 columns this is numpy's order, bit for bit; from 8 on
    numpy sums pairwise and the last bits may differ, which can only move a
    draw between certified and decided by eigvals: the screen's slack is
    far above that rounding, so the decision is the same.
    """
    if len(P) < _SHORT_STACK:
        return np.abs(P).sum(axis=-1).max(axis=-1)
    a = np.abs(P)
    rows = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        rows += a[..., k]
    norm = rows[..., 0].copy()
    for i in range(1, rows.shape[-1]):
        np.maximum(norm, rows[..., i], out=norm)
    return norm


def _lag_sum(F: np.ndarray, m: int) -> np.ndarray:
    """A_1 + ... + A_p of companion draws, as ``reshape(..., m, p, m).sum(axis=-2)``.

    For m > 1 numpy adds the p lag blocks in order to its identity 0.0,
    which is written out here as whole-block adds, bit for bit; for m = 1
    the lags are one contiguous row, which numpy sums itself.
    """
    top = F[..., :m, :]
    if m == 1:
        return top.sum(axis=-1, keepdims=True)
    out = top[..., :m] + 0.0
    for l in range(m, top.shape[-1], m):
        out += top[..., l : l + m]
    return out


def _stable_draws(F: np.ndarray, margin: float = STABILITY_MARGIN) -> np.ndarray:
    """Whether max |eig F| < 1 - margin, for stacked (..., d, d) draws.

    The package's one stability decision.  The power screen certifies
    most stable draws; the rest go to one batched ``np.linalg.eigvals``
    call, which decides them.  Raises ``ValueError`` for a draw with a
    non-finite entry.
    """
    F = np.asarray(F, dtype=float)
    flat = F.reshape((-1,) + F.shape[-2:])
    if not np.isfinite(flat).all():
        raise ValueError("companion matrix has a non-finite entry")
    stable = _power_screen(flat, margin)
    rest = np.flatnonzero(~stable)
    if rest.size:
        radius = np.max(np.abs(np.linalg.eigvals(flat[rest])), axis=-1)
        stable[rest] = radius < 1.0 - margin
    return stable.reshape(F.shape[:-2])


def _companion_matrix(A: np.ndarray, p: int) -> np.ndarray:
    """Companion matrices of stacked reduced-form coefficients.

    ``A`` is (..., m, mp+1); returns F with shape (..., mp, mp).
    """
    A = np.asarray(A, dtype=float)
    m = A.shape[-2]
    if A.shape[-1] != m * p + 1:
        raise ValueError("A must be m x (mp+1)")
    d = m * p
    F = np.zeros(A.shape[:-2] + (d, d))
    F[..., :m, :] = A[..., :-1]
    F[..., m:, :-m] = np.eye(d - m)
    return F


def companion(A: np.ndarray, sigma_red: np.ndarray, p: int) -> CompanionForm:
    """Build the companion form from reduced-form coefficients.

    ``A`` is m x (mp+1) ordered as (lag blocks, intercept); the
    intercept does not enter the dynamics and is dropped.
    """
    F = _companion_matrix(A, p)
    d = F.shape[0]
    m = d // p
    upsilon = np.zeros((d, d))
    upsilon[:m, :m] = sigma_red
    J = np.zeros((m, d))
    J[:, :m] = np.eye(m)
    return CompanionForm(F=F, upsilon=upsilon, J=J)


def _low_freq_stack(F: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pi(0) and the stability flag of stacked companion draws.

    ``F`` is (..., mp, mp) in companion form, ``sigma`` the (..., m, m)
    covariance in the leading block of Upsilon.  Only the leading m x m
    block of (I-F)^-1 meets Upsilon, and for a companion matrix that block
    is (I - A_1 - ... - A_p)^-1, one m x m inverse per draw.  Stability is
    ``_stable_draws``; unstable draws are skipped by the inverse and get
    NaN entries.
    """
    stable = _stable_draws(F)
    m = sigma.shape[-1]
    lag_sum = _lag_sum(F, m)
    lead = np.linalg.inv(np.eye(m) - np.where(stable[..., None, None], lag_sum, 0.0))
    pi = lead @ sigma @ np.swapaxes(lead, -1, -2)
    pi = 0.5 * (pi + np.swapaxes(pi, -1, -2))
    return np.where(stable[..., None, None], pi, np.nan), stable


def low_freq_matrix(cf: CompanionForm) -> np.ndarray:
    """Zero-frequency spectral density J (I-F)^-1 Ups (I-F')^-1 J'.

    Requires a stable companion matrix, whose rows below the first m are
    [I, 0]; symmetric PSD by construction.
    """
    m = cf.m
    d = cf.F.shape[0]
    if cf.F.shape != (d, d) or d % m or not np.array_equal(cf.F[m:], np.eye(d - m, d)):
        raise ValueError("F is not a companion matrix: its rows below the first m must be [I, 0]")
    pi, stable = _low_freq_stack(cf.F, cf.upsilon[:m, :m])
    if not stable:
        raise ValueError("companion matrix too close to the unit circle")
    return pi


def low_freq(cf: CompanionForm, i: int, j: int) -> float:
    """Ratio Pi_ij(0) / Pi_jj(0) of the zero-frequency density."""
    pi = low_freq_matrix(cf)
    return float(pi[i, j] / pi[j, j])


def _ratios(A, sigma, p, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Pi_ij(0) / Pi_jj(0) of stacked draws (NaN where unstable), and stability."""
    pi, stable = _low_freq_stack(_companion_matrix(A, p), sigma)
    return pi[..., i, j] / pi[..., j, j], stable


def low_freq_path_bands(
    alphas: list[np.ndarray],
    sigma2s: list[np.ndarray],
    p: int,
    i: int,
    j: int,
) -> tuple[np.ndarray, int]:
    """Per-period quantiles of the ratio over every record of a sample.

    ``alphas[k]`` is equation k's (n, T, K_k) coefficient paths in the
    layout of ``var.structural_from_paths`` and ``sigma2s[k]`` its
    (n, T) error variances. Returns a (T, 3) array of the
    ``BAND_QUANTILES`` and the number of unstable (record, period) draws
    excluded. A period with no stable draw gets a row of NaN, and its
    draws are in that count. Raises ``ValueError`` naming the equation,
    record and period of the first non-finite coefficient or non-finite
    or non-positive variance.
    """
    for k, (a, s) in enumerate(zip(alphas, sigma2s)):
        for bad, what in (
            (~np.isfinite(a).all(axis=-1), "a non-finite coefficient"),
            (~(np.isfinite(s) & (s > 0.0)), "a non-finite or non-positive error variance"),
        ):
            if bad.any():
                r, t = np.unravel_index(np.argmax(bad), bad.shape)
                raise ValueError(f"equation {k + 1} has {what} at record {r}, t={t}")
    n, T = np.shape(sigma2s[0])
    step = max(1, _BLOCK_DRAWS // n)
    bands = np.empty((T, len(BAND_QUANTILES)))
    excluded = 0
    for t0 in range(0, T, step):
        block = slice(t0, t0 + step)
        A, sigma = reduced_from_paths(
            [a[:, block] for a in alphas], [s[:, block] for s in sigma2s]
        )
        ratio, stable = _ratios(A, sigma, p, i, j)
        excluded += int(np.count_nonzero(~stable))
        bands[block] = _nanquantile_columns(ratio, BAND_QUANTILES).T
    return bands, excluded


def _nanquantile_columns(x: np.ndarray, quantiles) -> np.ndarray:
    """``np.nanquantile(x, quantiles, axis=0)`` without a loop over columns.

    numpy applies its NaN-skipping quantile column by column; here each
    column keeps its own count of finite entries after one sort (NaN sort
    last). The index and interpolation arithmetic follow numpy's linear
    method, so the results agree bit for bit. A column with no non-NaN
    entry gives NaN at every quantile: it is read at index 0, not at the
    wrapped-around index -1, and then set to NaN.
    """
    srt = np.sort(x, axis=0)
    k = np.count_nonzero(~np.isnan(x), axis=0)
    empty = k == 0
    k[empty] = 1
    q = np.asarray(quantiles, dtype=float)[:, None]
    virtual = (k - 1) * q
    lo = np.minimum(np.floor(virtual), k - 1)
    gamma = virtual - lo
    a = np.take_along_axis(srt, lo.astype(np.intp), axis=0)
    b = np.take_along_axis(srt, np.minimum(lo + 1, k - 1).astype(np.intp), axis=0)
    diff = b - a
    out = np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)
    out[:, empty] = np.nan
    return out


def bands_csv(bands: np.ndarray, excluded: int) -> str:
    """Per-period band table of ``low_freq_path_bands``: t, median, lower, upper quantile."""
    lo, _, hi = BAND_QUANTILES
    out = [f"# excluded_unstable: {excluded}", f"t,median,q{round(100 * lo)},q{round(100 * hi)}"]
    for t, (q_lo, q_med, q_hi) in enumerate(bands):
        out.append(f"{t}," + ",".join(format(v, ".17g") for v in (q_med, q_lo, q_hi)))
    return "\n".join(out) + "\n"
