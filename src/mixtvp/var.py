"""Equation-wise estimation of triangularized VARs and predictive simulation.

A VAR with contemporaneous triangularization splits into m unrelated
regressions: equation i regresses variable i on the preceding i-1
contemporaneous values, p lags of every variable, and an intercept.
Chains therefore run per equation with independent seeds spawned from a
single master seed, so every equation's draws are reproducible on
their own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sampler import (
    CLASS_CONST_MIN,
    CLASS_MIX,
    CLASS_POOL,
    CLASS_RW,
    LAW_MIX,
    LAW_MS,
    ModelSpec,
    PosteriorDraws,
    ar_ols_variances,
    run_chain,
    with_context,
)

__all__ = [
    "StructuralDraw",
    "VarEstimate",
    "ForecastDistribution",
    "split_equations",
    "structural_from_paths",
    "structural_to_reduced",
    "reduced_from_paths",
    "minnesota_variances",
    "estimate_var",
    "simulate_predictive",
]


def split_equations(Y: np.ndarray, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a T x m panel into m per-equation regression datasets.

    Equation i (1-based) has covariates (y_1t, ..., y_{i-1,t}, lags, 1),
    so K_i = mp + i. The first p rows are consumed as initial lags.

    Parameters
    ----------
    Y : ndarray
        Observation panel, shape (T, m), ordered as modeled.
    p : int
        Lag order, at least 1 and smaller than T.

    Returns
    -------
    list of (y, x)
        Per-equation response (T-p,) and covariates (T-p, mp+i).
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a T x m panel")
    T, m = Y.shape
    if p < 1:
        raise ValueError("lag order must be at least 1")
    if p >= T:
        raise ValueError("need more observations than lags")
    n = T - p
    lags = np.column_stack([Y[p - l : T - l] for l in range(1, p + 1)])
    out = []
    for i in range(m):
        x = np.column_stack([Y[p:, :i], lags, np.ones(n)])
        out.append((Y[p:, i].copy(), x))
    return out


@dataclass(frozen=True)
class StructuralDraw:
    """One draw of the triangular system's time-varying matrices.

    Parameters
    ----------
    b0 : ndarray
        Contemporaneous coefficient paths, shape (T, m, m), strictly
        lower triangular with zero main diagonal at every t.
    b : ndarray
        Lag coefficient paths, shape (T, p, m, m).
    c : ndarray
        Intercept paths, shape (T, m).
    sigma2 : ndarray
        Diagonal error variances, shape (T, m), positive.
    """

    b0: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        T, m = self.c.shape
        if self.b0.shape != (T, m, m):
            raise ValueError("b0 must be T x m x m")
        if self.b.ndim != 4 or self.b.shape[0] != T or self.b.shape[2:] != (m, m):
            raise ValueError("b must be T x p x m x m")
        if self.sigma2.shape != (T, m):
            raise ValueError("sigma2 must be T x m")
        rows, cols = np.triu_indices(m)
        if np.any(self.b0[:, rows, cols] != 0.0):
            raise ValueError("b0 must be strictly lower triangular")
        if np.any(self.sigma2 <= 0.0):
            raise ValueError("error variances must be positive")

    @property
    def m(self) -> int:
        return self.c.shape[1]

    @property
    def p(self) -> int:
        return self.b.shape[1]

    @property
    def n_periods(self) -> int:
        return self.c.shape[0]


def structural_from_paths(
    alphas: list[np.ndarray], sigma2s: list[np.ndarray]
) -> StructuralDraw:
    """Assemble per-equation coefficient paths into system matrices.

    ``alphas[i]`` is the (T, K_i) centered path of equation i with the
    layout (contemporaneous, lag 1 block, ..., lag p block, intercept);
    ``sigma2s[i]`` the matching (T,) error variances.
    """
    m = len(alphas)
    T = alphas[0].shape[0]
    mp = alphas[0].shape[1] - 1
    if mp % m != 0:
        raise ValueError("equation 1 width must be mp + 1")
    p = mp // m
    b0 = np.zeros((T, m, m))
    b = np.zeros((T, p, m, m))
    c = np.zeros((T, m))
    sigma2 = np.zeros((T, m))
    for i, path in enumerate(alphas):
        if path.shape != (T, m * p + i + 1):
            raise ValueError(f"equation {i + 1} path has the wrong width")
        b0[:, i, :i] = path[:, :i]
        b[:, :, i, :] = path[:, i : i + m * p].reshape(T, p, m)
        c[:, i] = path[:, -1]
        sigma2[:, i] = sigma2s[i]
    return StructuralDraw(b0=b0, b=b, c=c, sigma2=sigma2)


def structural_to_reduced(
    draw: StructuralDraw, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Map the period-t structural system to its reduced form.

    Returns
    -------
    A : ndarray
        Reduced-form coefficients, shape (m, mp+1), ordered as
        (lag 1 block, ..., lag p block, intercept).
    Sigma : ndarray
        Reduced-form error covariance, shape (m, m), symmetric PD.
    """
    if not 0 <= t < draw.n_periods:
        raise ValueError("t out of range")
    stacked = np.concatenate(
        [draw.b[t, l] for l in range(draw.p)] + [draw.c[t][:, None]], axis=1
    )
    return _reduce(draw.b0[t], stacked, draw.sigma2[t])


def reduced_from_paths(
    alphas: list[np.ndarray], sigma2s: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced form of stacked structural draws, batched over leading axes.

    ``alphas[i]`` holds equation i's coefficients with shape (..., K_i)
    in the layout of ``structural_from_paths``, ``sigma2s[i]`` the
    matching (...) error variances; every equation shares the leading
    axes, such as (record, period). Returns A with shape (..., m, mp+1)
    and Sigma with shape (..., m, m), each entry equal to what
    ``structural_to_reduced`` gives for that draw.
    """
    m = len(alphas)
    lead = alphas[0].shape[:-1]
    mp = alphas[0].shape[-1] - 1
    if mp % m != 0:
        raise ValueError("equation 1 width must be mp + 1")
    b0 = np.zeros(lead + (m, m))
    stacked = np.empty(lead + (m, mp + 1))
    sigma2 = np.empty(lead + (m,))
    for i, path in enumerate(alphas):
        if path.shape != lead + (mp + i + 1,):
            raise ValueError(f"equation {i + 1} path has the wrong width")
        b0[..., i, :i] = path[..., :i]
        stacked[..., i, :] = path[..., i:]
        sigma2[..., i] = sigma2s[i]
    return _reduce(b0, stacked, sigma2)


def _reduce(b0, stacked, sigma2):
    """A = (I - B0)^{-1} stacked and Sigma = L L' with L = (I - B0)^{-1} diag(sigma)."""
    m = b0.shape[-1]
    sol = _solve_unit_lower(
        b0, np.concatenate([stacked, np.sqrt(sigma2)[..., None] * np.eye(m)], axis=-1)
    )
    L = sol[..., -m:]
    # symmetric PD by construction
    return sol[..., :-m], L @ np.swapaxes(L, -1, -2)


def _solve_unit_lower(b0, rhs):
    """Row-wise forward substitution of (I - b0) y = rhs, batched.

    ``b0`` is (..., m, m) strictly lower triangular and ``rhs``
    (..., m, k); the loop runs over the m rows only.
    """
    m = b0.shape[-1]
    y = np.array(rhs, dtype=float)
    for i in range(1, m):
        for j in range(i):
            y[..., i, :] += b0[..., i, j, None] * y[..., j, :]
    return y


def minnesota_variances(
    Y: np.ndarray,
    p: int,
    own: float = 0.2,
    cross: float = 0.5,
    level: float = 100.0,
) -> list[np.ndarray]:
    """Per-equation prior variances in the classic own/cross/level pattern.

    Own lag l gets (own/l)^2, a cross lag of variable j in equation i
    gets (own*cross*sigma_i / (l*sigma_j))^2, and intercepts plus
    contemporaneous terms get the loose (own*level*sigma_i)^2. The
    sigma_i are AR(p) OLS residual standard deviations; a constant
    column's zero variance is replaced by 1 so scale ratios stay finite.
    """
    Y = np.asarray(Y, dtype=float)
    T, m = Y.shape
    sig = np.sqrt(ar_ols_variances(Y, p))
    sig = np.where(sig > 0.0, sig, 1.0)
    out = []
    for i in range(m):
        loose = (own * level * sig[i]) ** 2
        v = [loose] * i
        for l in range(1, p + 1):
            for j in range(m):
                if j == i:
                    v.append((own / l) ** 2)
                else:
                    v.append((own * cross * sig[i] / (l * sig[j])) ** 2)
        v.append(loose)
        out.append(np.asarray(v))
    return out


@dataclass(frozen=True)
class VarEstimate:
    """Fitted per-equation chains plus the data needed to forecast."""

    Y: np.ndarray
    p: int
    spec: ModelSpec
    equations: list[PosteriorDraws]
    names: tuple[str, ...]

    def __post_init__(self):
        m = self.Y.shape[1]
        if len(self.equations) != m or len(self.names) != m:
            raise ValueError("need one chain and one name per variable")
        if self.p != self.spec.p:
            raise ValueError(f"lag order p = {self.p} disagrees with the spec's p = {self.spec.p}")
        counts = {eq.n_records for eq in self.equations}
        if len(counts) != 1:
            raise ValueError("equations disagree on the number of records")

    @property
    def m(self) -> int:
        return self.Y.shape[1]

    @property
    def n_records(self) -> int:
        return self.equations[0].n_records


def estimate_var(
    Y: np.ndarray,
    spec: ModelSpec,
    seed,
    names: tuple[str, ...] | None = None,
) -> VarEstimate:
    """Estimate every equation of the triangularized VAR(``spec.p``).

    Seeds are spawned per equation from ``seed``, so each equation's
    chain depends on ``seed`` and its position only.
    """
    Y = np.asarray(Y, dtype=float)
    datasets = split_equations(Y, spec.p)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(len(datasets))
    if spec.model_class == CLASS_CONST_MIN:
        prior_vars = minnesota_variances(
            Y, spec.p, spec.minnesota_own, spec.minnesota_cross, spec.minnesota_level
        )
        specs = [replace(spec, prior_variances=tuple(v)) for v in prior_vars]
    else:
        specs = [spec] * len(datasets)

    def fit(i):
        y, x = datasets[i]
        try:
            return run_chain(y, x, specs[i], seed=children[i])
        except (ArithmeticError, ValueError) as exc:
            raise with_context(exc, f"equation {i + 1}") from exc

    equations = [fit(i) for i in range(len(datasets))]
    if names is None:
        names = tuple(f"y{i + 1}" for i in range(Y.shape[1]))
    return VarEstimate(Y=Y, p=spec.p, spec=spec, equations=equations, names=tuple(names))


@dataclass(frozen=True)
class ForecastDistribution:
    """Pooled predictive simulation output.

    ``draws`` has shape (n, horizon, m). ``h1_mean`` and ``h1_var``
    hold the per-draw Gaussian components of the one-step predictive,
    shape (n, m) each, for mixture-based density scoring.
    """

    draws: np.ndarray
    h1_mean: np.ndarray
    h1_var: np.ndarray
    names: tuple[str, ...]


# record x path rows per block of simulate_predictive; whole records, at least one
_BLOCK_ROWS = 2048
# smallest root magnitude a regime switch divides by
_ROOT_FLOOR = 1e-150


def _per_record(w, a):
    """Per-record weights w (R, n, k) applied to a (k, R, nsim); (R, n, nsim)."""
    return w @ a.transpose(1, 0, 2)


def _state_paths(eq, spec, recs, x, work, rng):
    """Yield one equation's row of the system, one period per step.

    A step gives the contemporaneous coefficients alpha[:i], shape
    (i, R, nsim) or (i, R, 1), the lag and intercept term alpha[i:] . x and
    the error sd, (R, nsim) each, for R records of nsim paths.  ``x`` is the
    (mp+1, R, nsim) regressor array that the caller shifts in place between
    steps; ``work`` (2, K_max, R, nsim) is scratch shared by the block's
    equations.  The constant classes hold their coefficients fixed.

    The state is carried standardized, alpha = alpha0 + f(s) u, where f is
    the regime's root floored in magnitude at ``_ROOT_FLOOR`` and u starts
    at (alpha_T - alpha0) / f(s_T).  The random walk moves u <- u + z, the
    mixture class with a law u <- s u + z (regime 0 forgets), and the pooled
    class and the single-variance mixture cell regenerate u = mu + z, mu a
    cluster mean or zero.  No coefficient array is formed: per-record weight
    vectors (alpha0[i:], f0[i:], f1[i:]) meet x and x * u in small matrix
    products.  A root under the floor has lambda = root / f < 1, which
    scales z and, on a switch into its regime, u: a record whose regime has
    a zero root keeps alpha_T (plug-in), and one that switches out of it
    carries (alpha_T - alpha0) / floor, as the old ratio of roots did.
    """
    h = eq.h[recs, -1][:, None]
    a_last = eq.alpha_last[recs]
    K, i = a_last.shape[1], a_last.shape[1] - x.shape[0]
    mu, phi = eq.sv_mu[recs][:, None], eq.sv_phi[recs][:, None]
    sd_sv, h_dev = np.sqrt(eq.sv_psi[recs])[:, None], np.repeat(h - mu, x.shape[2], axis=1)
    if not spec.is_tvp:
        b0, w = a_last.T[:i, :, None], a_last[:, None, i:]
        while True:
            h_dev = phi * h_dev + sd_sv * rng.standard_normal(h_dev.shape)
            yield b0, _per_record(w, x)[:, 0], np.exp(0.5 * (mu + h_dev))
    (R, nsim), law, cls = h_dev.shape, spec.law, spec.model_class
    a0 = eq.alpha0[recs]
    b0_center, w0 = a0.T[:i, :, None], a0[:, None, i:]
    z, xu = work[0, :K], work[1, : K - i]
    carry = cls == CLASS_RW or (cls == CLASS_MIX and law is not None)
    r1 = eq.sqrt_psi1[recs]
    r0 = r1 if law is None else eq.sqrt_psi0[recs]
    f1, f0 = (np.copysign(np.maximum(np.abs(r), _ROOT_FLOOR), r) for r in (r1, r0))
    lam1, lam0 = (r1 / f1).T[:, :, None], (r0 / f0).T[:, :, None]
    floored = np.any(lam1 != 1.0) or np.any(lam0 != 1.0)
    w = f1[:, None, i:] if law is None else np.stack([f0[:, i:], f1[:, i:]], axis=1)
    s = s_rec = None
    if law == LAW_MS:
        # one regime per path, broadcast over the coefficients
        s_rec = eq.S_last[recs, :1] == 1
        s = np.repeat(s_rec, nsim, axis=1)
        p01, p11 = (1.0 - eq.p00[recs])[:, None], eq.p11[recs][:, None]
    elif law == LAW_MIX:
        s_rec = eq.S_last[recs] == 1
        s = np.repeat(s_rec.T[:, :, None], nsim, axis=2)
        p_mix = eq.p_mix[recs].T[:, :, None]
    u = z
    if carry:
        start = f1 if s_rec is None else np.where(s_rec, f1, f0)
        u = np.repeat(((a_last - a0) / start).T[:, :, None], nsim, axis=2)
    # the contemporaneous coefficients' roots
    c1, c0 = f1.T[:i, :, None], f0.T[:i, :, None]
    if cls == CLASS_POOL:
        log_omega = np.log(np.maximum(eq.pool_omega[recs], 1e-300))
        cdf = np.cumsum(np.exp(log_omega - log_omega.max(axis=1, keepdims=True)), axis=1)
        N = cdf.shape[1]
        pool_mu = np.moveaxis(eq.pool_mu[recs], 2, 0).reshape(K, R * N)
    while True:
        h_dev = phi * h_dev + sd_sv * rng.standard_normal(h_dev.shape)
        sd = np.exp(0.5 * (mu + h_dev))
        prev = s
        if law == LAW_MS:
            s = rng.random(prev.shape) < np.where(prev, p11, p01)
        elif law == LAW_MIX:
            s = rng.random(prev.shape) < p_mix
        rng.standard_normal(out=z)
        if cls == CLASS_POOL:
            pick = rng.random((R, nsim)) * cdf[:, -1:]
            theta = np.minimum((cdf[:, :, None] < pick[:, None, :]).sum(axis=1), N - 1)
            z += np.take(pool_mu, N * np.arange(R)[:, None] + theta, axis=1)
        if floored:
            lam = lam1 if s is None else np.where(s, lam1, lam0)
            z *= lam
            if carry and s is not None:
                u *= np.where(prev == s, 1.0, lam)
        if carry:
            if cls == CLASS_MIX:
                u *= s
            u += z
        root = c1 if s is None else np.where(s if law == LAW_MS else s[:i], c1, c0)
        b0 = b0_center + root * u[:i]
        rhs = _per_record(w0, x)[:, 0]
        np.multiply(x, u[i:], out=xu)
        if law is None:
            rhs += _per_record(w, xu)[:, 0]
        elif law == LAW_MS:
            t = _per_record(w, xu)
            rhs += np.where(s, t[:, 1], t[:, 0])
        else:
            # split x * u by regime so that each meets its own root
            xsu = xu * s[i:]
            xu -= xsu
            rhs += _per_record(w[:, :1], xu)[:, 0] + _per_record(w[:, 1:], xsu)[:, 0]
        yield b0, rhs, sd


def simulate_predictive(
    est: VarEstimate, horizon: int, nsim: int, rng: np.random.Generator
) -> ForecastDistribution:
    """Simulate the predictive distribution of Y_{T+1..T+horizon}.

    For every stored posterior record, ``nsim`` paths propagate the states
    ``horizon`` periods under the fitted law of motion (indicator
    transitions, regime innovation variances, log-variance recursion) and
    iterate the triangular system with Gaussian shocks; row r * nsim + k is
    record r's k-th path.  Whole records run in blocks of about
    ``_BLOCK_ROWS`` paths, a period at a time; each equation's states feed
    its row of the system at once, so no state path is stored.  The states
    move as standardized deviations u, alpha = alpha0 + f(s) u with f the
    regime's root floored at ``_ROOT_FLOOR`` (see ``_state_paths``): a
    zero-variance record stays plug-in, and a switch out of a zero root
    carries the floored ratio.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if nsim < 1:
        raise ValueError(f"nsim must be at least 1, got {nsim}")
    m, p, n_rec = est.m, est.p, est.n_records
    for i, eq in enumerate(est.equations):
        if eq.alpha_last.shape[1] != p * m + i + 1:
            raise ValueError(
                f"equation {i + 1} has {eq.alpha_last.shape[1]} coefficients; a "
                f"VAR({p}) in {m} variables needs {p * m + i + 1}"
            )
    draws = np.empty((n_rec, nsim, horizon, m))
    h1_mean, h1_var = np.empty((n_rec, nsim, m)), np.empty((n_rec, nsim, m))
    per_block = max(1, _BLOCK_ROWS // nsim)
    for lo in range(0, n_rec, per_block):
        recs = slice(lo, min(lo + per_block, n_rec))
        _simulate_block(est, recs, rng, draws[recs], h1_mean[recs], h1_var[recs])
    return ForecastDistribution(
        draws=draws.reshape(n_rec * nsim, horizon, m),
        h1_mean=h1_mean.reshape(n_rec * nsim, m),
        h1_var=h1_var.reshape(n_rec * nsim, m),
        names=est.names,
    )


def _simulate_block(est, recs, rng, draws, h1_mean, h1_var):
    """Fill one block's draws (R, nsim, horizon, m) and one-step components."""
    (R, nsim, horizon, m), p = draws.shape, est.p
    # lag regressors, newest lag first, then the intercept
    x = np.append(est.Y[-p:][::-1].ravel(), 1.0)[:, None, None] * np.ones((R, nsim))
    work = np.empty((2, p * m + m, R, nsim))
    paths = [_state_paths(eq, est.spec, recs, x, work, rng) for eq in est.equations]
    for t in range(horizon):
        rows = []
        for i, path in enumerate(paths):
            b0, rhs, sd = next(path)
            # the draw, and at t = 0 the Gaussian components: the mean and
            # row i of L = (I - B0)^{-1} diag(sd)
            v = np.zeros((2 + m if t == 0 else 1, R, nsim))
            v[0] = rhs + sd * rng.standard_normal((R, nsim))
            if t == 0:
                v[1], v[2 + i] = rhs, sd
            # row i of (I - B0) y = rhs + shock: the rows j < i are known
            for j in range(i):
                v += b0[j] * rows[j]
            rows.append(v)
            draws[:, :, t, i] = v[0]
            if t == 0:
                h1_mean[:, :, i], h1_var[:, :, i] = v[1], (v[2:] ** 2).sum(axis=0)
        x[m:-1] = x[: -1 - m].copy()
        x[:m] = [v[0] for v in rows]
