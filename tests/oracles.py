"""Independent reference implementations used only by the test suite.

Everything here is dense, textbook-style code: Kalman filtering with
backward sampling and brute-force posterior moments.  None of it shares
code paths with the package internals it is used to check.
"""

import numpy as np


def dense_phi(sub):
    """The dense (T*K, T*K) Phi: identity plus diag(sub[t]) at block (t+1, t)."""
    T, K = sub.shape[0] + 1, sub.shape[1]
    out = np.eye(T * K)
    for t in range(T - 1):
        rows = np.arange((t + 1) * K, (t + 2) * K)
        out[rows, rows - K] = sub[t]
    return out


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

    With a leading chain axis, psi_bar and alpha0 of shape (n, K) and sigma
    of shape (n, T), n chains on the same data are filtered and sampled in
    lockstep, and the (n, T, K) paths are returned.
    """
    batched = np.ndim(alpha0) == 2
    psi_bar, alpha0, sigma = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (psi_bar, alpha0, sigma))
    T, K = x.shape
    n = alpha0.shape[0]
    Q = psi_bar[:, :, None] * np.eye(K)
    means = np.empty((T, n, K))
    covs = np.empty((T, n, K, K))
    m = alpha0.copy()
    P = Q.copy()
    for t in range(T):
        if t > 0:
            P = P + Q
        Px = P @ x[t]
        S = Px @ x[t] + sigma[:, t] ** 2
        k = Px / S[:, None]
        m = m + k * (y[t] - m @ x[t])[:, None]
        P = P - k[:, :, None] * Px[:, None, :]
        P = 0.5 * (P + P.swapaxes(1, 2))
        means[t] = m
        covs[t] = P
    draws = np.empty((T, n, K))
    draws[T - 1] = _mvn_draw(means[T - 1], covs[T - 1], rng)
    for t in range(T - 2, -1, -1):
        Pt = covs[t]
        J = Pt @ np.linalg.inv(Pt + Q)
        mean = means[t] + (J @ (draws[t + 1] - means[t])[:, :, None])[:, :, 0]
        cov = Pt - J @ Pt
        draws[t] = _mvn_draw(mean, 0.5 * (cov + cov.swapaxes(1, 2)), rng)
    draws = draws.swapaxes(0, 1)
    return draws if batched else draws[0]


def ffbs_two_state(loglik, p00, p11, rng):
    """Two-state chain draw by per-period forward filtering, backward sampling.

    loglik has shape (T, 2, 2): entry [t, k, l] is the pooled log emission
    under regime k at t-1 and l at t; the first period reads the k = 0 slice.
    The chain starts from its stationary law, weighed with the first
    emission in logs so that a regime without stationary mass is never
    drawn at t = 1.  Each later period's kernel is rescaled by its largest
    pair emission; a forward or backward total below the smallest normal
    float is recomputed in logs, from log filter + log transition + log
    emission.  Returns the draw and the number of steps weighed in logs.
    """
    T = loglik.shape[0]
    tiny = np.finfo(float).tiny
    trans = np.array([[p00, 1.0 - p00], [1.0 - p11, p11]])
    denom = 2.0 - p00 - p11
    init = np.array([0.5, 0.5]) if denom <= 0.0 else np.array([(1.0 - p11) / denom, (1.0 - p00) / denom])
    kernels = trans[None] * np.exp(loglik[1:] - loglik[1:].max(axis=(1, 2), keepdims=True))
    log_steps = 0
    filt = np.empty((T, 2))
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
        first = np.log(init) + loglik[0, 0]
    f = np.exp(first - first.max())
    filt[0] = f / f.sum()

    def log_pairs(t):
        # [k, l]: log f_{t-1}(k) + log P(k -> l) + log emission_t(k, l)
        with np.errstate(divide="ignore"):
            return np.log(filt[t - 1])[:, None] + (log_trans + loglik[t])

    for t in range(1, T):
        f = filt[t - 1] @ kernels[t - 1]
        if not f.sum() >= tiny:
            lp = log_pairs(t)
            f = np.exp(lp - lp.max()).sum(axis=0)
            log_steps += 1
        filt[t] = f / f.sum()
    s = np.empty(T, dtype=np.int8)
    s[T - 1] = rng.random() < filt[T - 1, 1]
    for t in range(T - 2, -1, -1):
        w = filt[t] * kernels[t][:, s[t + 1]]
        if not w.sum() >= tiny:
            lp = log_pairs(t + 1)[:, s[t + 1]]
            w = np.exp(lp - lp.max())
            log_steps += 1
        s[t] = rng.random() < w[1] / w.sum()
    return s, log_steps


def predictive_per_record(est, horizon, nsim, rng):
    """Predictive simulation one record at a time, states stored per path.

    The reference for ``var.simulate_predictive``: for each record every
    equation's coefficient and volatility paths are simulated forward and
    stored, then the system is solved period by period with dense forward
    substitution.  Returns draws (n_rec * nsim, horizon, m) with row
    r * nsim + k holding record r's k-th path, and the one-step Gaussian
    components h1_mean and h1_var, each (n_rec * nsim, m).
    """
    m, p = est.m, est.p
    n_rec = est.n_records
    draws = np.empty((n_rec * nsim, horizon, m))
    h1_mean = np.empty((n_rec * nsim, m))
    h1_var = np.empty((n_rec * nsim, m))
    last_lags = est.Y[-p:][::-1].copy()
    for r in range(n_rec):
        alphas, sds = [], []
        for eq in est.equations:
            a, s = _forward_states(eq, est.spec, r, horizon, nsim, rng)
            alphas.append(a)
            sds.append(s)
        hist = np.tile(last_lags[None], (nsim, 1, 1))
        lo = r * nsim
        for step in range(horizon):
            b0 = np.zeros((nsim, m, m))
            rhs = np.empty((nsim, m))
            zlag = np.concatenate([hist.reshape(nsim, p * m), np.ones((nsim, 1))], axis=1)
            for i in range(m):
                path = alphas[i][:, step, :]
                b0[:, i, :i] = path[:, :i]
                rhs[:, i] = (path[:, i:] * zlag).sum(axis=1)
            eps = np.column_stack([sds[i][:, step] for i in range(m)])
            shocks = eps * rng.normal(size=(nsim, m))
            sol = _unit_lower_solve(b0, np.stack([rhs, shocks], axis=-1))
            mean = sol[:, :, 0]
            y_new = mean + sol[:, :, 1]
            if step == 0:
                Lfac = _unit_lower_solve(b0, eps[:, :, None] * np.eye(m))
                h1_mean[lo : lo + nsim] = mean
                h1_var[lo : lo + nsim] = (Lfac**2).sum(axis=2)
            draws[lo : lo + nsim, step, :] = y_new
            hist = np.concatenate([y_new[:, None, :], hist[:, :-1, :]], axis=1)
    return draws, h1_mean, h1_var


def _forward_states(eq, spec, r, horizon, nsim, rng):
    """One equation's centered coefficients (nsim, horizon, K) and error
    standard deviations (nsim, horizon) simulated forward from record r.

    A regime switch rescales the carried deviation from the center by the
    ratio of the arriving and departing innovation roots.
    """
    K = eq.alpha_last.shape[1]
    alpha0 = eq.alpha0[r]
    alpha_prev = np.tile(eq.alpha_last[r], (nsim, 1))
    h_prev = np.full(nsim, eq.h[r, -1])
    mu, phi_sv, sd_sv = eq.sv_mu[r], eq.sv_phi[r], np.sqrt(eq.sv_psi[r])
    sqrt1 = eq.sqrt_psi1[r] if eq.sqrt_psi1 is not None else np.zeros(K)
    sqrt0 = eq.sqrt_psi0[r] if eq.sqrt_psi0 is not None else np.zeros(K)
    law = "MS" if spec.subclass == "FLEX-MS" else (
        "MIX" if spec.subclass in ("FLEX-MIX", "SSVS-MIX") else None
    )
    if eq.S_last is not None:
        s_prev = np.tile(eq.S_last[r].astype(np.int8), (nsim, 1))
    else:
        s_prev = np.ones((nsim, K), dtype=np.int8)
    root_prev = np.where(s_prev == 1, sqrt1, sqrt0)
    if law == "MS":
        s_chain = np.full(nsim, eq.S_last[r, 0], dtype=np.int8)
        p00, p11 = eq.p00[r], eq.p11[r]
    elif law == "MIX":
        p_mix = eq.p_mix[r]
    if spec.model_class == "TVP-POOL":
        log_omega = np.log(np.maximum(eq.pool_omega[r], 1e-300))
        pool_mu = eq.pool_mu[r]

    alpha_out = np.empty((nsim, horizon, K))
    sd_out = np.empty((nsim, horizon))
    for step in range(horizon):
        h_prev = mu + phi_sv * (h_prev - mu) + sd_sv * rng.normal(size=nsim)
        sd_out[:, step] = np.exp(0.5 * h_prev)
        if not spec.is_tvp:
            alpha_out[:, step] = alpha_prev
            continue
        if law == "MS":
            stay = np.where(s_chain == 1, p11, 1.0 - p00)
            s_chain = (rng.random(nsim) < stay).astype(np.int8)
            S = np.repeat(s_chain[:, None], K, axis=1)
        elif law == "MIX":
            S = (rng.random((nsim, K)) < p_mix).astype(np.int8)
        else:
            S = np.ones((nsim, K), dtype=np.int8)
        root = np.where(S == 1, sqrt1, sqrt0)
        z = rng.normal(size=(nsim, K))
        denom = np.copysign(np.maximum(np.abs(root_prev), 1e-150), root_prev)
        ratio = np.where(S == s_prev, 1.0, root / denom)
        if spec.model_class == "TVP-RW":
            alpha_prev = alpha0 + ratio * (alpha_prev - alpha0) + root * z
        elif spec.model_class == "TVP-MIX" and law is not None:
            alpha_prev = alpha0 + S * ratio * (alpha_prev - alpha0) + root * z
        elif spec.model_class == "TVP-POOL":
            w = np.exp(log_omega - log_omega.max())
            cdf = np.cumsum(np.broadcast_to(w, (nsim, w.size)), axis=1)
            u = rng.random(nsim) * cdf[:, -1]
            theta = (cdf < u[:, None]).sum(axis=1).clip(0, w.size - 1)
            alpha_prev = alpha0 + root * (pool_mu[theta] + z)
        else:
            # single-variance mixture cell: states regenerate about alpha0
            alpha_prev = alpha0 + root * z
        s_prev, root_prev = S, root
        alpha_out[:, step] = alpha_prev
    return alpha_out, sd_out


def _unit_lower_solve(b0, rhs):
    """Solve (I - b0) y = rhs for strictly lower triangular b0, batched."""
    m = b0.shape[-1]
    y = np.array(rhs, dtype=float)
    for i in range(1, m):
        for j in range(i):
            y[..., i, :] += b0[..., i, j, None] * y[..., j, :]
    return y


def _mvn_draw(mean, cov, rng):
    """One Gaussian draw per row of mean (n, K) and cov (n, K, K)."""
    w, V = np.linalg.eigh(cov)
    w = np.clip(w, 0.0, None)
    z = rng.normal(size=mean.shape)
    return mean + ((V * np.sqrt(w)[:, None, :]) @ z[:, :, None])[:, :, 0]


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


def split_scan_lstsq(y, x):
    """Best single split by one ``lstsq`` fit per segment and candidate.

    The reference for ``sampler.best_single_split``: candidates t run over
    [K + 2, T - K - 2), and the split minimises the summed residual sums
    of squares of rows [0, t) and [t, T).  None when no candidate exists.
    """
    T, K = x.shape
    lo, hi = K + 2, T - K - 2
    if lo >= hi:
        return None

    def ssr(rows):
        coef, *_ = np.linalg.lstsq(x[rows], y[rows], rcond=None)
        err = y[rows] - x[rows] @ coef
        return float(err @ err)

    totals = [ssr(slice(0, t)) + ssr(slice(t, T)) for t in range(lo, hi)]
    return lo + int(np.argmin(totals))


def interweave_dense(obs, d, h_full, mu, psi, priors, rng):
    """The non-centered (level, signed scale) re-draw through np.linalg.

    The reference for ``sv._interweave_noncentered`` under psi_shape = 1/2:
    the same 2x2 Gaussian posterior, factored by ``np.linalg.cholesky`` and
    drawn with one ``rng.normal(size=2)``.  Returns (mu, psi, h_full).
    """
    htil = (h_full - mu) / np.sqrt(psi)
    x1 = np.ones(obs.size)
    x2 = htil[1:]
    scale_prior_var = priors.psi_shape / priors.psi_rate
    p11 = np.sum(d * x1 * x1) + 1.0 / priors.mu_var
    p12 = np.sum(d * x1 * x2)
    p22 = np.sum(d * x2 * x2) + 1.0 / scale_prior_var
    prec = np.array([[p11, p12], [p12, p22]])
    lin = np.array([np.sum(d * obs) + priors.mu_mean / priors.mu_var, np.sum(d * obs * x2)])
    chol = np.linalg.cholesky(prec)
    mean = np.linalg.solve(chol.T, np.linalg.solve(chol, lin))
    draw = mean + np.linalg.solve(chol.T, rng.normal(size=2))
    mu_new, scale_new = float(draw[0]), float(draw[1])
    psi_new = max(scale_new**2, 1e-12)
    return mu_new, psi_new, mu_new + scale_new * htil


def group_indicators_by_differences(alpha_tilde, omega, mu, rng):
    """Pool cluster labels scored from the full (T, N, K) difference array.

    The reference for ``pool.sample_group_indicators``: log omega_j minus
    half the squared distance of each period's state to each cluster mean,
    then an inverse-cdf draw per row from one ``rng.random(T)``.
    """
    diff = alpha_tilde[:, None, :] - mu[None, :, :]
    logw = np.log(np.maximum(omega, 1e-300))[None, :] - 0.5 * (diff**2).sum(axis=2)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    cdf = np.cumsum(w, axis=1)
    u = rng.random(logw.shape[0]) * cdf[:, -1]
    return (cdf < u[:, None]).sum(axis=1).clip(0, logw.shape[1] - 1)


def state_precision_band_loop(wtilde, sub):
    """Upper band of W~'W~ + Phi'Phi in LAPACK storage, one superdiagonal at a time.

    The reference for ``statespace.state_precision_band``: row K - k gets
    w_t[j-k] w_t[j] at within-period column j >= k, and zeros elsewhere.
    """
    T, K = wtilde.shape
    ab = np.zeros((K + 1, T * K))
    band = ab.reshape(K + 1, T, K)
    for k in range(K):
        band[K - k, :, k:] = wtilde[:, : K - k] * wtilde[:, k:]
    band[K] += 1.0
    band[K, :-1] += sub**2
    band[0, 1:] = sub
    return ab


def spectral_radius(F):
    """Largest eigenvalue modulus of a square matrix, from ``np.linalg.eigvals``."""
    return float(np.max(np.abs(np.linalg.eigvals(F))))


def low_freq_bands(draws, p, i, j, margin, quantiles=(0.16, 0.5, 0.84)):
    """Quantiles of Pi_ij(0) / Pi_jj(0) over one period's (A, Sigma_red) draws.

    The per-period band oracle for ``spectral.low_freq_path_bands``: each
    draw gets its dense companion matrix F, is excluded when its spectral
    radius is not below 1 - margin, and otherwise gives Pi(0) = J (I-F)^-1
    Upsilon (I-F')^-1 J' from one full mp x mp solve.  Returns the
    quantiles over the stable draws and how many draws were excluded;
    raises ``ValueError`` when there are no draws or none is stable.
    """
    if not draws:
        raise ValueError("no draws")
    ratios, excluded = [], 0
    for A, sigma in draws:
        m = A.shape[0]
        d = m * p
        F = np.zeros((d, d))
        F[:m] = A[:, :d]
        F[m:, :-m] = np.eye(d - m)
        if spectral_radius(F) >= 1.0 - margin:
            excluded += 1
            continue
        lead = np.linalg.solve(np.eye(d) - F, np.eye(d)[:, :m])[:m]
        pi = lead @ sigma @ lead.T
        ratios.append(pi[i, j] / pi[j, j])
    if not ratios:
        raise ValueError("every draw was unstable")
    return np.quantile(ratios, quantiles), excluded
