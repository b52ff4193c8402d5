"""Independent reference implementations used only by the test suite.

Everything here is dense, textbook-style code: Kalman filtering with
backward sampling and brute-force posterior moments.  None of it shares
code paths with the package internals it is used to check.
"""

import numpy as np


def dense_state_posterior(ytilde, wtilde, a0, phi_dense):
    """Posterior moments of the stacked normalized states, fully dense.

    Model: ytilde = Wtilde alpha + N(0, I_T), alpha ~ N(a0, (Phi'Phi)^{-1}).
    """
    T, K = wtilde.shape
    nu = T * K
    W = np.zeros((T, nu))
    for t in range(T):
        W[t, t * K:(t + 1) * K] = wtilde[t]
    prior_prec = phi_dense.T @ phi_dense
    post_prec = W.T @ W + prior_prec
    cov = np.linalg.inv(post_prec)
    mean = cov @ (W.T @ ytilde + prior_prec @ a0)
    return mean, cov


def carter_kohn_scalar(y, obs_var, mu, phi, psi, rng):
    """Joint draw of (h_0, h_1..h_T) for a scalar AR(1) state observed in noise.

    y_t = h_t + N(0, obs_var_t) for t = 1..T; h_t AR(1) around mu with
    innovation variance psi; h_0 from the stationary law.
    """
    T = y.size
    m = np.empty(T + 1)
    P = np.empty(T + 1)
    m[0], P[0] = mu, psi / (1.0 - phi**2)
    for t in range(1, T + 1):
        mp = mu + phi * (m[t - 1] - mu)
        Pp = phi**2 * P[t - 1] + psi
        k = Pp / (Pp + obs_var[t - 1])
        m[t] = mp + k * (y[t - 1] - mp)
        P[t] = (1.0 - k) * Pp
    h = np.empty(T + 1)
    h[T] = m[T] + np.sqrt(P[T]) * rng.normal()
    for t in range(T - 1, -1, -1):
        denom = phi**2 * P[t] + psi
        gain = phi * P[t] / denom
        mean = m[t] + gain * (h[t + 1] - (mu + phi * (m[t] - mu)))
        var = P[t] - gain * phi * P[t]
        h[t] = mean + np.sqrt(max(var, 0.0)) * rng.normal()
    return h


def carter_kohn_tvp(y, x, psi_bar, alpha0, sigma, rng):
    """Centered random-walk TVP path draw via Kalman filtering.

    y_t = x_t' a_t + N(0, sigma_t^2); a_t = a_{t-1} + N(0, diag(psi_bar));
    a_1 ~ N(alpha0, diag(psi_bar)).  Returns the (T, K) sampled path.
    """
    T, K = x.shape
    Q = np.diag(psi_bar)
    means = np.empty((T, K))
    covs = np.empty((T, K, K))
    m = np.asarray(alpha0, dtype=float)
    P = Q.copy()
    for t in range(T):
        if t > 0:
            P = P + Q
        S = x[t] @ P @ x[t] + sigma[t] ** 2
        k = P @ x[t] / S
        m = m + k * (y[t] - x[t] @ m)
        P = P - np.outer(k, x[t] @ P)
        P = 0.5 * (P + P.T)
        means[t] = m
        covs[t] = P
    draws = np.empty((T, K))
    draws[T - 1] = _mvn_draw(means[T - 1], covs[T - 1], rng)
    for t in range(T - 2, -1, -1):
        Pt = covs[t]
        J = Pt @ np.linalg.inv(Pt + Q)
        mean = means[t] + J @ (draws[t + 1] - means[t])
        cov = Pt - J @ Pt
        draws[t] = _mvn_draw(mean, 0.5 * (cov + cov.T), rng)
    return draws


def ffbs_two_state(loglik, p00, p11, rng):
    """Two-state chain draw by per-period forward filtering, backward sampling.

    loglik has shape (T, 2, 2): entry [t, k, l] is the pooled log emission
    under regime k at t-1 and l at t; the first period reads the k = 0 slice.
    The chain starts from its stationary law.  A forward or backward total
    that underflows to zero falls back to equal odds.  Returns the draw and
    the number of such fallbacks.
    """
    T = loglik.shape[0]
    trans = np.array([[p00, 1.0 - p00], [1.0 - p11, p11]])
    denom = 2.0 - p00 - p11
    init = np.array([0.5, 0.5]) if denom <= 0.0 else np.array([(1.0 - p11) / denom, (1.0 - p00) / denom])
    kernels = trans[None] * np.exp(loglik[1:] - loglik[1:].max(axis=(1, 2), keepdims=True))
    fallbacks = 0
    filt = np.empty((T, 2))
    first = loglik[0, 0]
    f = init * np.exp(first - first.max())
    filt[0] = f / f.sum()
    for t in range(1, T):
        f = filt[t - 1] @ kernels[t - 1]
        total = f.sum()
        if total > 0:
            filt[t] = f / total
        else:
            filt[t] = np.array([0.5, 0.5])
            fallbacks += 1
    s = np.empty(T, dtype=np.int8)
    s[T - 1] = rng.random() < filt[T - 1, 1]
    for t in range(T - 2, -1, -1):
        w = filt[t] * kernels[t][:, s[t + 1]]
        total = w.sum()
        fallbacks += not total > 0
        s[t] = rng.random() < (w[1] / total if total > 0 else 0.5)
    return s, fallbacks


def _mvn_draw(mean, cov, rng):
    w, V = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    return mean + (V * np.sqrt(w)) @ rng.normal(size=mean.size)


def mixture_density_fourier(y, weights, means, variances):
    """Gaussian-mixture density via numerical inversion of the
    characteristic function; an oracle that avoids the density formula."""
    from scipy import integrate

    weights = np.asarray(weights, float)
    means = np.asarray(means, float)
    variances = np.asarray(variances, float)

    def integrand(t):
        cf = np.sum(weights * np.exp(1j * t * means - 0.5 * variances * t**2))
        return (np.exp(-1j * t * y) * cf).real

    val, _ = integrate.quad(integrand, 0, 50.0, limit=400)
    return val / np.pi
