"""Zero-frequency spectral summaries of reduced-form VAR draws.

The long-run (zero-frequency) spectral density of a stable VAR is
accumulated from the companion form, and the ratio of its off-diagonal
to diagonal entries summarizes the low-frequency co-movement of a pair
of variables. Unstable draws are flagged and excluded from bands.

Bands over a whole posterior sample run as one array pipeline over the
stacked (record, period) draws: structural to reduced form, companion
matrix, one batched eigen-decomposition per draw for the stability
test, one batched solve for the leading columns of (I - F)^-1, and
per-period quantiles. Periods are processed in blocks of at most
``_BLOCK_DRAWS`` draws so that the (draws, mp, mp) intermediates stay
bounded however many records the sample holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .var import reduced_from_paths

__all__ = [
    "STABILITY_MARGIN",
    "CompanionForm",
    "companion",
    "low_freq_matrix",
    "low_freq",
    "low_freq_bands",
    "low_freq_path_bands",
    "bands_csv",
]

STABILITY_MARGIN = 1e-8
# draws per period block of low_freq_path_bands; at least one period per block
_BLOCK_DRAWS = 4096


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

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.F))))

    def is_stable(self, margin: float = STABILITY_MARGIN) -> bool:
        return self.spectral_radius() < 1.0 - margin


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
    """Pi(0) and the stability flag of stacked draws.

    ``F`` is (..., d, d), ``sigma`` the (..., m, m) covariance in the
    leading block of Upsilon. Each draw gets one eigen-decomposition;
    unstable draws are skipped by the solve and get NaN entries.
    """
    stable = np.max(np.abs(np.linalg.eigvals(F)), axis=-1) < 1.0 - STABILITY_MARGIN
    d, m = F.shape[-1], sigma.shape[-1]
    lhs = np.eye(d) - np.where(stable[..., None, None], F, 0.0)
    # only the leading m x m block of (I-F)^-1 meets Upsilon
    cols = np.linalg.solve(lhs, np.broadcast_to(np.eye(d)[:, :m], F.shape[:-1] + (m,)))
    lead = cols[..., :m, :]
    pi = lead @ sigma @ np.swapaxes(lead, -1, -2)
    pi = 0.5 * (pi + np.swapaxes(pi, -1, -2))
    return np.where(stable[..., None, None], pi, np.nan), stable


def low_freq_matrix(cf: CompanionForm) -> np.ndarray:
    """Zero-frequency spectral density J (I-F)^-1 Ups (I-F')^-1 J'.

    Requires a stable companion matrix; symmetric PSD by construction.
    """
    m = cf.m
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


def low_freq_bands(
    draws: list[tuple[np.ndarray, np.ndarray]],
    p: int,
    i: int,
    j: int,
    quantiles: tuple[float, ...] = (0.16, 0.5, 0.84),
) -> tuple[np.ndarray, int]:
    """Quantiles of the ratio over posterior draws, skipping unstable ones.

    ``draws`` holds (A, Sigma_red) pairs for one period. Returns the
    requested quantiles and how many draws were excluded; raises if
    every draw is unstable.
    """
    if not draws:
        raise ValueError("no draws")
    ratio, stable = _ratios(
        np.stack([A for A, _ in draws]), np.stack([s for _, s in draws]), p, i, j
    )
    if not stable.any():
        raise ValueError("every draw was unstable")
    return np.quantile(ratio[stable], quantiles), int(np.count_nonzero(~stable))


def low_freq_path_bands(
    alphas: list[np.ndarray],
    sigma2s: list[np.ndarray],
    p: int,
    i: int,
    j: int,
    quantiles: tuple[float, ...] = (0.16, 0.5, 0.84),
) -> tuple[np.ndarray, int]:
    """Per-period quantiles of the ratio over every record of a sample.

    ``alphas[k]`` is equation k's (n, T, K_k) coefficient paths in the
    layout of ``var.structural_from_paths`` and ``sigma2s[k]`` its
    (n, T) error variances. Returns a (T, len(quantiles)) array and the
    number of unstable (record, period) draws excluded; raises
    ``ValueError`` naming the first period whose draws are all unstable.
    """
    n, T = np.shape(sigma2s[0])
    step = max(1, _BLOCK_DRAWS // n)
    bands = np.empty((T, len(quantiles)))
    excluded = 0
    for t0 in range(0, T, step):
        block = slice(t0, t0 + step)
        A, sigma = reduced_from_paths(
            [a[:, block] for a in alphas], [s[:, block] for s in sigma2s]
        )
        ratio, stable = _ratios(A, sigma, p, i, j)
        empty = ~stable.any(axis=0)
        if empty.any():
            raise ValueError(f"every draw unstable at t={t0 + int(np.argmax(empty))}")
        excluded += int(np.count_nonzero(~stable))
        bands[block] = _nanquantile_columns(ratio, quantiles).T
    return bands, excluded


def _nanquantile_columns(x: np.ndarray, quantiles) -> np.ndarray:
    """``np.nanquantile(x, quantiles, axis=0)`` without a loop over columns.

    numpy applies its NaN-skipping quantile column by column; here each
    column keeps its own count of finite entries after one sort (NaN sort
    last). The index and interpolation arithmetic follow numpy's linear
    method, so the results agree bit for bit. Every column needs at
    least one non-NaN entry.
    """
    srt = np.sort(x, axis=0)
    k = np.count_nonzero(~np.isnan(x), axis=0)
    q = np.asarray(quantiles, dtype=float)[:, None]
    virtual = (k - 1) * q
    lo = np.minimum(np.floor(virtual), k - 1)
    gamma = virtual - lo
    a = np.take_along_axis(srt, lo.astype(np.intp), axis=0)
    b = np.take_along_axis(srt, np.minimum(lo + 1, k - 1).astype(np.intp), axis=0)
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)


def bands_csv(rows: list[tuple[int, float, float, float]], excluded: int) -> str:
    """Per-period band table: t, median, 16th, 84th percentile."""
    out = [f"# excluded_unstable: {excluded}", "t,median,q16,q84"]
    for t, med, lo, hi in rows:
        out.append(
            f"{t}," + ",".join(format(v, ".17g") for v in (med, lo, hi))
        )
    return "\n".join(out) + "\n"
