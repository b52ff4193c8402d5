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

from .distributions import sample_categorical_rows
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
    p: int,
    spec: ModelSpec,
    seed,
    names: tuple[str, ...] | None = None,
) -> VarEstimate:
    """Estimate every equation of the triangularized system.

    Seeds are spawned per equation from ``seed``, so each equation's
    chain depends on ``seed`` and its position only.
    """
    Y = np.asarray(Y, dtype=float)
    datasets = split_equations(Y, p)
    if spec.p != p:
        spec = replace(spec, p=p)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(len(datasets))
    if spec.model_class == CLASS_CONST_MIN:
        prior_vars = minnesota_variances(
            Y, p, spec.minnesota_own, spec.minnesota_cross, spec.minnesota_level
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
    return VarEstimate(Y=Y, p=p, spec=spec, equations=equations, names=tuple(names))


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

    @property
    def horizon(self) -> int:
        return self.draws.shape[1]

    @property
    def m(self) -> int:
        return self.draws.shape[2]

    def mean(self) -> np.ndarray:
        """Predictive mean per (horizon, variable)."""
        return self.draws.mean(axis=0)

    def to_csv(self) -> str:
        rows = ["draw,horizon,variable,value"]
        n, H, m = self.draws.shape
        for d in range(n):
            for h in range(H):
                for j in range(m):
                    rows.append(
                        f"{d},{h + 1},{self.names[j]},"
                        + format(self.draws[d, h, j], ".17g")
                    )
        return "\n".join(rows) + "\n"


def _forward_states(eq, spec, r, horizon, nsim, rng, freeze):
    """Simulate one equation's states forward from record r.

    A regime switch rescales the carried deviation from the center by the
    ratio of the arriving and departing innovation roots, matching the law
    of motion the estimation targets; within a regime the ratio is one, so
    zero-variance records stay plug-in.  Returns centered coefficients
    (nsim, horizon, K) and error standard deviations (nsim, horizon).
    """
    K = eq.alpha_last.shape[1]
    alpha0 = eq.alpha0[r]
    alpha_prev = np.tile(eq.alpha_last[r], (nsim, 1))

    h_prev = np.full(nsim, eq.h[r, -1])
    mu, phi_sv, psi_sv = eq.sv_mu[r], eq.sv_phi[r], eq.sv_psi[r]
    sd_sv = np.sqrt(psi_sv)

    sqrt1 = eq.sqrt_psi1[r] if eq.sqrt_psi1 is not None else np.zeros(K)
    sqrt0 = eq.sqrt_psi0[r] if eq.sqrt_psi0 is not None else np.zeros(K)
    law = spec.law
    if eq.S_last is not None:
        s_prev = np.tile(eq.S_last[r].astype(np.int8), (nsim, 1))
    else:
        s_prev = np.ones((nsim, K), dtype=np.int8)
    root_prev = np.where(s_prev == 1, sqrt1, sqrt0)
    if law == LAW_MS:
        s_chain = np.full(nsim, eq.S_last[r, 0], dtype=np.int8)
        p00, p11 = eq.p00[r], eq.p11[r]
    elif law == LAW_MIX:
        p_mix = eq.p_mix[r]
    if spec.model_class == CLASS_POOL:
        log_omega = np.log(np.maximum(eq.pool_omega[r], 1e-300))
        pool_mu = eq.pool_mu[r]

    alpha_out = np.empty((nsim, horizon, K))
    sd_out = np.empty((nsim, horizon))
    for step in range(horizon):
        if freeze:
            alpha_out[:, step] = alpha_prev
            sd_out[:, step] = np.exp(0.5 * h_prev)
            continue
        h_prev = mu + phi_sv * (h_prev - mu) + sd_sv * rng.normal(size=nsim)
        sd_out[:, step] = np.exp(0.5 * h_prev)
        if not spec.is_tvp:
            alpha_out[:, step] = alpha_prev
            continue
        if law == LAW_MS:
            stay = np.where(s_chain == 1, p11, 1.0 - p00)
            s_chain = (rng.random(nsim) < stay).astype(np.int8)
            S = np.repeat(s_chain[:, None], K, axis=1)
        elif law == LAW_MIX:
            S = (rng.random((nsim, K)) < p_mix).astype(np.int8)
        else:
            S = np.ones((nsim, K), dtype=np.int8)
        root = np.where(S == 1, sqrt1, sqrt0)
        z = rng.normal(size=(nsim, K))
        # ratio is identically one within a regime, so degenerate roots
        # only matter on an actual switch; roots are signed, so the floor
        # on the departing root keeps its sign
        denom = np.copysign(np.maximum(np.abs(root_prev), 1e-150), root_prev)
        ratio = np.where(S == s_prev, 1.0, root / denom)
        if spec.model_class == CLASS_RW:
            alpha_prev = alpha0 + ratio * (alpha_prev - alpha0) + root * z
        elif spec.model_class == CLASS_MIX and spec.law is not None:
            alpha_prev = alpha0 + S * ratio * (alpha_prev - alpha0) + root * z
        elif spec.model_class == CLASS_POOL:
            theta = sample_categorical_rows(
                np.broadcast_to(log_omega, (nsim, log_omega.size)), rng
            )
            alpha_prev = alpha0 + root * (pool_mu[theta] + z)
        else:
            # single-variance mixture cell: states regenerate about alpha0
            alpha_prev = alpha0 + root * z
        s_prev, root_prev = S, root
        alpha_out[:, step] = alpha_prev
    return alpha_out, sd_out


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


def simulate_predictive(
    est: VarEstimate,
    horizon: int,
    nsim: int,
    rng: np.random.Generator,
    freeze_states: bool = False,
) -> ForecastDistribution:
    """Simulate the predictive distribution of Y_{T+1..T+horizon}.

    For every stored posterior record, states are propagated forward
    ``horizon`` periods under the fitted law of motion (indicator
    transitions, regime innovation variances, log-variance recursion),
    the system is solved to reduced form each period, and the VAR is
    iterated with Gaussian shocks ``nsim`` times. ``freeze_states``
    pins coefficients and volatilities at their period-T values instead,
    for sensitivity runs.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    m, p = est.m, est.p
    n_rec = est.n_records
    spec = est.spec
    K_list = [eq.alpha_last.shape[1] for eq in est.equations]

    draws = np.empty((n_rec * nsim, horizon, m))
    h1_mean = np.empty((n_rec * nsim, m))
    h1_var = np.empty((n_rec * nsim, m))
    last_lags = est.Y[-p:][::-1].copy()

    for r in range(n_rec):
        alphas = []
        sds = []
        for eq in est.equations:
            a, s = _forward_states(eq, spec, r, horizon, nsim, rng, freeze_states)
            alphas.append(a)
            sds.append(s)
        hist = np.tile(last_lags[None], (nsim, 1, 1))
        lo = r * nsim
        for step in range(horizon):
            b0 = np.zeros((nsim, m, m))
            rhs = np.empty((nsim, m))
            zlag = np.concatenate(
                [hist.reshape(nsim, p * m), np.ones((nsim, 1))], axis=1
            )
            for i in range(m):
                path = alphas[i][:, step, :]
                b0[:, i, :i] = path[:, :i]
                rhs[:, i] = (path[:, i:] * zlag).sum(axis=1)
            eps = np.column_stack([sds[i][:, step] for i in range(m)])
            shocks = eps * rng.normal(size=(nsim, m))
            sol = _solve_unit_lower(b0, np.stack([rhs, shocks], axis=-1))
            mean = sol[:, :, 0]
            y_new = mean + sol[:, :, 1]
            if step == 0:
                # Gaussian components: variance rows of (I-B0)^{-1} diag(sd)
                Lfac = _solve_unit_lower(b0, eps[:, :, None] * np.eye(m))
                h1_mean[lo : lo + nsim] = mean
                h1_var[lo : lo + nsim] = (Lfac**2).sum(axis=2)
            draws[lo : lo + nsim, step, :] = y_new
            hist = np.concatenate([y_new[:, None, :], hist[:, :-1, :]], axis=1)
        assert all(K_list[i] == p * m + i + 1 for i in range(m))
    return ForecastDistribution(
        draws=draws, h1_mean=h1_mean, h1_var=h1_var, names=est.names
    )
