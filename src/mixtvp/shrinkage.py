"""Normal-Gamma shrinkage hierarchy for the constant block.

The constant block stacks the coefficient means with the signed square
roots of the state innovation variances; every entry gets its own local
scale, and the locals share one global scale and one hyper-shape per
group (means, slab roots, spike roots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .banded import NotPositiveDefiniteError, dpotrf, dtrtrs
from .distributions import log_uniform, sample_gamma_rate, sample_gig_array

TAU_FLOOR = 1e-12


@dataclass(frozen=True)
class ConstantBlock:
    """Coefficient means plus signed square roots of innovation variances.

    ``sqrt_psi0`` is absent for the single-variance layout; for the fixed
    spike layout it holds the (positive) fixed roots that are not sampled.
    """

    alpha0: np.ndarray
    sqrt_psi1: np.ndarray | None = None
    sqrt_psi0: np.ndarray | None = None

    def __post_init__(self):
        K = self.alpha0.shape[0]
        for part in (self.sqrt_psi1, self.sqrt_psi0):
            if part is not None and part.shape != (K,):
                raise ValueError("block parts must share length K")

    @property
    def K(self) -> int:
        return self.alpha0.shape[0]


@dataclass
class NgHyper:
    """Local scales plus per-group global scale and hyper-shape.

    The groups are the block's means, slab roots and spike roots, in that
    order and with K entries each: group g owns ``tau[g*K:(g+1)*K]`` and
    ``lam[g]``, ``rho[g]``.
    """

    tau: np.ndarray
    lam: list[float]
    rho: list[float]
    zeta: float = 0.01

    def per_coef(self) -> tuple[np.ndarray, np.ndarray]:
        """rho and lam broadcast to one value per block entry."""
        K = self.tau.shape[0] // len(self.rho)
        return np.repeat(self.rho, K), np.repeat(self.lam, K)


def default_ng_hyper(K: int, n_variance_groups: int, zeta: float = 0.01) -> NgHyper:
    """Hierarchy for a block of K means plus 0, 1 or 2 variance-root groups."""
    if n_variance_groups not in (0, 1, 2):
        raise ValueError("n_variance_groups must be 0, 1 or 2")
    G = 1 + n_variance_groups
    return NgHyper(tau=np.ones(G * K), lam=[1.0] * G, rho=[0.5] * G, zeta=zeta)


def _factor_block(y, xhat, sigma, tau):
    """Lower Cholesky factor L of the block precision, and L^-1 times its linear term."""
    xw = xhat / sigma[:, None]
    prec = xw.T @ xw
    prec.flat[:: prec.shape[0] + 1] += 1.0 / tau
    lin = xw.T @ (y / sigma)
    chol, info = dpotrf(prec, lower=1)
    # a non-finite precision factors without error into a NaN factor
    if info != 0 or not chol.diagonal().min() > 0.0:
        raise NotPositiveDefiniteError("constant block: precision not positive definite")
    return chol, dtrtrs(chol, lin, lower=1)[0]


def draw_constant_block(y, xhat, sigma, tau, rng) -> np.ndarray:
    chol, half = _factor_block(y, xhat, sigma, tau)
    z = rng.normal(size=half.shape[0])
    # mean + L^-T z = L^-T (L^-1 lin + z)
    return dtrtrs(chol, half + z, lower=1, trans=1)[0]


def draw_tau(coefs: np.ndarray, hyper: NgHyper, rng: np.random.Generator) -> np.ndarray:
    """Local scales: tau_j ~ GIG(rho_j - 1/2, rho_j lam_j, coef_j^2)."""
    rho, lam = hyper.per_coef()
    return np.maximum(sample_gig_array(rho - 0.5, rho * lam, coefs**2, rng), TAU_FLOOR)


def lambda_posterior_params(tau_group: np.ndarray, rho: float, zeta: float) -> tuple[float, float]:
    shape = zeta + rho * tau_group.shape[0]
    rate = zeta + 0.5 * rho * float(np.sum(tau_group))
    return shape, rate


def draw_lambda(tau_group, rho, zeta, rng) -> float:
    shape, rate = lambda_posterior_params(tau_group, rho, zeta)
    return float(sample_gamma_rate(shape, rate, rng))


def _rho_log_kernel(rho: float, lam: float, p: int, sum_log_tau: float, sum_tau: float) -> float:
    # product of Gamma(tau_j; rho, rho*lam/2) likelihoods, Exponential(1) prior
    rate = rho * lam / 2.0
    log_rate = math.log(rate) if rate > 0.0 else -math.inf
    return (
        p * (rho * log_rate - math.lgamma(rho))
        + (rho - 1.0) * sum_log_tau
        - 0.5 * rho * lam * sum_tau
        - rho
    )


def _scale_stats(tau_group: np.ndarray) -> tuple[int, float, float]:
    """Count, sum of logs and sum of the local scales: all the rho target reads of them."""
    return tau_group.shape[0], float(np.log(tau_group).sum()), float(tau_group.sum())


def log_scale_step(value: float, scale: float, log_kernel, rng) -> tuple[float, bool]:
    """One random-walk Metropolis step on log(value); returns the new value and acceptance.

    ``log_kernel`` is the target's log density in ``value``; the step adds
    the log Jacobian of the log-scale proposal.  Every step draws its
    normal and then its uniform, also when the proposal overflows or
    leaves (0, inf), which is refused.
    """
    try:
        prop = value * math.exp(scale * rng.normal())
    except OverflowError:
        prop = math.inf
    log_u = log_uniform(rng)
    if not 0.0 < prop < math.inf:
        return value, False
    log_ratio = log_kernel(prop) - log_kernel(value) + math.log(prop) - math.log(value)
    if log_u < log_ratio:
        return prop, True
    return value, False


def update_rho(tau_group, lam, rho, scale, rng) -> tuple[float, bool]:
    """Log-scale random-walk step on the group hyper-shape."""
    stats = _scale_stats(tau_group)
    return log_scale_step(rho, scale, lambda r: _rho_log_kernel(r, lam, *stats), rng)


@dataclass
class MhScale:
    """Adaptive proposal scale, tuned toward a target rate during burn-in."""

    scale: float
    target: float = 0.3
    window: int = 50
    accepted: int = 0
    tried: int = 0
    batches: int = field(default=0)

    def record(self, accepted: bool, adapting: bool):
        self.tried += 1
        self.accepted += int(accepted)
        if adapting and self.tried >= self.window:
            rate = self.accepted / self.tried
            self.batches += 1
            step = 1.0 / np.sqrt(self.batches)
            self.scale = float(np.clip(self.scale * np.exp(step * (rate - self.target)), 1e-3, 10.0))
            self.accepted = 0
            self.tried = 0
