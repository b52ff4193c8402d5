"""Finite location mixture pooling for normalized state innovations.

The pooled law of motion treats each period's normalized state vector as
an exchangeable draw from a sparse finite mixture: a symmetric Dirichlet
over cluster weights whose concentration is itself learned, Gaussian
cluster means with coefficient-specific shrinkage scales, and unit
innovation variance in the normalized parameterization.  Emptying
clusters is how the model learns the effective number of regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import sample_categorical_columns, sample_dirichlet, sample_gig_array
from .shrinkage import MhScale, log_scale_step

RANGE_FLOOR = 1e-8
WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class PoolPriors:
    """Hyperparameters of the pooling layer.

    d0 sets the Gamma(d0, d0 * n_clusters) prior on the Dirichlet
    concentration; e0, e1 parameterize the shrinkage on cluster-mean
    scales.
    """

    n_clusters: int = 10
    d0: float = 10.0
    e0: float = 0.6
    e1: float = 0.6

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("need at least one cluster")
        if min(self.d0, self.e0, self.e1) <= 0.0:
            raise ValueError("pool hyperparameters must be positive")


@dataclass(frozen=True)
class PoolState:
    """Current values of the pooling block."""

    omega: np.ndarray
    xi: float
    theta: np.ndarray
    mu: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        N, K = self.mu.shape
        if self.omega.shape != (N,):
            raise ValueError("weights and means disagree on cluster count")
        if self.l.shape != (K,):
            raise ValueError("scale vector must have one entry per coefficient")
        if self.xi <= 0.0:
            raise ValueError("concentration must be positive")
        if self.theta.min() < 0 or self.theta.max() >= N:
            raise ValueError("cluster labels out of range")

    @property
    def n_clusters(self) -> int:
        return self.omega.shape[0]

    def occupancy(self) -> np.ndarray:
        return np.bincount(self.theta, minlength=self.n_clusters).astype(float)

    def prior_mean_stack(self) -> np.ndarray:
        """Per-period prior means for the normalized states, shape (T, K)."""
        return self.mu[self.theta]


def initial_pool_state(T: int, K: int, priors: PoolPriors, rng: np.random.Generator) -> PoolState:
    N = priors.n_clusters
    xi = float(rng.gamma(shape=priors.d0, scale=1.0 / (priors.d0 * N)))
    omega = sample_dirichlet(np.full(N, xi), rng)
    theta = rng.integers(0, N, size=T)
    lam0 = np.ones(K)
    mu = rng.normal(size=(N, K)) * np.sqrt(lam0)
    return PoolState(omega=omega, xi=xi, theta=theta, mu=mu, l=np.ones(K))


def coefficient_ranges(alpha_tilde: np.ndarray) -> np.ndarray:
    """Per-coefficient spread of normalized states, floored away from zero."""
    r = alpha_tilde.max(axis=0) - alpha_tilde.min(axis=0)
    return np.maximum(r, RANGE_FLOOR)


def weight_posterior_params(theta: np.ndarray, n_clusters: int, xi: float) -> np.ndarray:
    return xi + np.bincount(theta, minlength=n_clusters).astype(float)


def sample_weights(theta, n_clusters, xi, rng) -> np.ndarray:
    return sample_dirichlet(weight_posterior_params(theta, n_clusters, xi), rng)


def _xi_log_kernel(xi: float, n_clusters: int, sum_log_omega: float, d0: float) -> float:
    loglik = (
        math.lgamma(n_clusters * xi) - n_clusters * math.lgamma(xi) + (xi - 1.0) * sum_log_omega
    )
    logprior = (d0 - 1.0) * math.log(xi) - d0 * n_clusters * xi
    return loglik + logprior


def _sum_log_weights(omega: np.ndarray) -> float:
    return float(np.log(np.maximum(omega, WEIGHT_FLOOR)).sum())


def update_xi(xi, omega, priors: PoolPriors, rng, scale: float) -> tuple[float, bool]:
    """Random-walk step on log xi; returns the new value and acceptance."""
    stats = (omega.shape[0], _sum_log_weights(omega), priors.d0)
    return log_scale_step(xi, scale, lambda v: _xi_log_kernel(v, *stats), rng)


def sample_group_indicators(alpha_tilde, omega, mu, rng) -> np.ndarray:
    """Cluster labels per period under unit innovation variance.

    The log weight of cluster j in period t is log omega_j - |a_t - mu_j|^2 / 2.
    Expanding the square leaves a_t'mu_j - |mu_j|^2 / 2 plus -|a_t|^2 / 2,
    which is the same for every cluster of a row and drops out of the
    draw, so all (T, N) scores come from one (T, K) x (K, N) product.
    """
    log_omega = np.log(np.maximum(omega, WEIGHT_FLOOR))
    logw = alpha_tilde @ mu.T + (log_omega - 0.5 * np.einsum("nk,nk->n", mu, mu))
    try:
        return sample_categorical_columns(np.array(logw.T, order="C"), rng)
    except ValueError as exc:
        raise ValueError(f"pool labels: {exc}") from exc


def group_mean_moments(alpha_tilde, theta, n_clusters, lam0):
    """Posterior mean and variance of each cluster mean, shapes (N, K)."""
    T = alpha_tilde.shape[0]
    members = np.zeros((n_clusters, T))
    members[theta, np.arange(T)] = 1.0
    counts = members.sum(axis=1)
    sums = members @ alpha_tilde
    prec = counts[:, None] + 1.0 / lam0[None, :]
    return sums / prec, 1.0 / prec


def sample_group_means(alpha_tilde, theta, n_clusters, lam0, rng) -> np.ndarray:
    mean, var = group_mean_moments(alpha_tilde, theta, n_clusters, lam0)
    return mean + np.sqrt(var) * rng.standard_normal(mean.shape)


def _l_posterior_arrays(mu: np.ndarray, ranges: np.ndarray, priors: PoolPriors):
    """Generalized inverse Gaussian (a, b, c) of the scales: scalar a and b, c per coefficient."""
    a = priors.e0 - 0.5 * mu.shape[0]
    return a, 2.0 * priors.e1, (mu**2).sum(axis=0) / ranges


def sample_l(mu, ranges, priors: PoolPriors, rng) -> np.ndarray:
    return sample_gig_array(*_l_posterior_arrays(mu, ranges, priors), rng)


def pool_sweep(
    alpha_tilde: np.ndarray,
    state: PoolState,
    priors: PoolPriors,
    rng: np.random.Generator,
    xi_scale: MhScale,
    adapting: bool = False,
) -> PoolState:
    """One full refresh of the pooling block, in fixed order."""
    N = state.n_clusters
    omega = sample_weights(state.theta, N, state.xi, rng)
    xi, accepted = update_xi(state.xi, omega, priors, rng, xi_scale.scale)
    xi_scale.record(accepted, adapting)
    theta = sample_group_indicators(alpha_tilde, omega, state.mu, rng)
    ranges = coefficient_ranges(alpha_tilde)
    lam0 = state.l * ranges**2
    mu = sample_group_means(alpha_tilde, theta, N, lam0, rng)
    l = sample_l(mu, ranges, priors, rng)
    return PoolState(omega=omega, xi=xi, theta=theta, mu=mu, l=l)
