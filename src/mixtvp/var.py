"""Equation-wise estimation of triangularized VARs and predictive simulation.

A VAR with contemporaneous triangularization splits into m unrelated
regressions: equation i regresses variable i on the preceding i-1
contemporaneous values, p lags of every variable, and an intercept.
Chains therefore run per equation with independent seeds spawned from a
single master seed, so every equation's draws are reproducible on
their own.

The predictive simulation moves all m equations together.  Paths run in
blocks of at most 1024: whole records when a record has at most 1024
paths, otherwise each record's paths split into equal-sized runs of at
most 1024.  In a block the lag-and-intercept states of every equation
form one (m, mp+1, R, n) array, n the block's paths per record, and the
m(m-1)/2 contemporaneous states a second one, stacked in one buffer, and
each period takes one normal fill.  Block b draws from an SFC64
generator on the b-th child of a ``SeedSequence`` seeded from the
caller's generator stream, and writes only its own rows.  The blocks are
dealt in turn to min(CPUs available to the process, blocks, 2048 //
block paths) threads, the calling thread among them, so at most 2048
paths are in flight whatever the CPU count, and the same seed gives
byte-identical draws at any thread count.
"""

from __future__ import annotations

import os
import threading
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




# most paths per block of simulate_predictive
_BLOCK_PATHS = 1024
# paths that the threads of one simulate_predictive call hold at once
_IN_FLIGHT_PATHS = 2048
# smallest root magnitude a regime switch divides by
_ROOT_FLOOR = 1e-150


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def simulate_predictive(
    est: VarEstimate, horizon: int, nsim: int, rng: np.random.Generator
) -> ForecastDistribution:
    """Simulate the predictive distribution of Y_{T+1..T+horizon}.

    For every stored posterior record, ``nsim`` paths propagate the states
    ``horizon`` periods under the fitted law of motion (indicator
    transitions, regime innovation variances, log-variance recursion) and
    iterate the triangular system with Gaussian shocks; row r * nsim + k is
    record r's k-th path.  Paths run in blocks of at most ``_BLOCK_PATHS``,
    all m equations of a block together (``_simulate_block``): whole
    records when nsim <= ``_BLOCK_PATHS``, otherwise record after record,
    each record's paths cut into ceil(nsim / ``_BLOCK_PATHS``) runs of
    equal size (within one path).  Four 64-bit integers drawn from ``rng``
    seed a ``SeedSequence``; block b draws from
    ``Generator(SFC64(child b))`` and writes only its own rows.  Thread k
    of min(available CPUs, blocks, ``_IN_FLIGHT_PATHS`` // block paths)
    runs blocks k, k + n_threads, ..., the calling thread being thread 0,
    so memory does not grow with the CPU count and the same seed gives
    byte-identical draws at any thread count.  Each call advances ``rng``,
    so two calls on one generator draw differently; a refused call draws
    nothing from it.
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
    # a block is per_block whole records, or one of the runs a record's
    # paths are cut into
    runs = -(-nsim // _BLOCK_PATHS)
    per_block = max(1, _BLOCK_PATHS // nsim)
    cuts = [k * nsim // runs for k in range(runs + 1)]
    blocks = [
        (slice(r, r + per_block), slice(a, b))
        for r in range(0, n_rec, per_block)
        for a, b in zip(cuts, cuts[1:])
    ]
    block_paths = per_block * -(-nsim // runs)
    # the block seeds come from the generator's stream: the children of its
    # seed sequence are the chains' streams when it was made from the seed
    # estimate_var was given
    root = np.random.SeedSequence(rng.integers(2**63, size=4))
    streams = [np.random.Generator(np.random.SFC64(s)) for s in root.spawn(len(blocks))]
    n_threads = min(_available_cpus(), len(blocks), max(1, _IN_FLIGHT_PATHS // block_paths))
    errors = []

    def work(k):
        try:
            for b in range(k, len(blocks), n_threads):
                rows = blocks[b]
                _simulate_block(est, rows[0], streams[b], draws[rows], h1_mean[rows], h1_var[rows])
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=work, args=(k,)) for k in range(1, n_threads)]
    for thread in helpers:
        thread.start()
    work(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return ForecastDistribution(
        draws=draws.reshape(n_rec * nsim, horizon, m),
        h1_mean=h1_mean.reshape(n_rec * nsim, m),
        h1_var=h1_var.reshape(n_rec * nsim, m),
        names=est.names,
    )


def _state_rows(arrays):
    """Per-equation arrays (..., K_i) stacked coefficient-first as (n_rows, ...).

    The rows are every equation's lag and intercept coefficients, equation
    after equation, then every equation's contemporaneous ones: equation
    i's (0-based) start at row m(mp+1) + i(i-1)/2.
    """
    moved = [np.moveaxis(a, -1, 0) for a in arrays]
    return np.concatenate([a[i:] for i, a in enumerate(moved)] + [a[:i] for i, a in enumerate(moved)])


def _simulate_block(est, recs, rng, draws, h1_mean, h1_var):
    """Fill one block's draws (R, nsim, horizon, m) and one-step components.

    ``recs`` selects the block's R records and the outputs are its rows:
    all of a record's paths, or one run of them, so ``nsim`` here is the
    block's paths per record.

    The m equations move together, their states stacked in one
    (n_rows, R, nsim) array in the row order of ``_state_rows``: the
    m(mp+1) lag-and-intercept states, viewed as (m, mp+1, R, nsim), then
    the m(m-1)/2 contemporaneous ones.  Each period takes one normal fill
    (log-variance innovations, shocks, state innovations) and, under a law
    or the pooled class, one uniform fill (regimes, cluster picks), all
    from the block's own generator ``rng``.  The block reads the
    estimate and writes only its own output rows, so blocks give the same
    bytes on any thread and in any order.

    The states are carried standardized, alpha = alpha0 + f(s) u, where f
    is the regime's root floored in magnitude at ``_ROOT_FLOOR`` and u
    starts at (alpha_T - alpha0) / f(s_T).  The random walk moves
    u <- u + z, the mixture class with a law u <- s u + z (regime 0
    forgets), and the pooled class and the single-variance mixture cell
    regenerate u = mu + z, mu a cluster mean or zero; the constant classes
    hold alpha_T.  The Markov-switching law gives each equation one regime
    per path, the mixture law each coefficient its own.  A root under the
    floor has lambda = root / f < 1, which scales z and, on a switch into
    its regime, u: a record whose regime has a zero root keeps alpha_T
    (plug-in), and one that switches out of it carries
    (alpha_T - alpha0) / floor.  Per-record weight rows (alpha0, f0, f1)
    meet x and x * u in small matrix products, so no lag coefficient array
    is formed.
    """
    (R, nsim, horizon, m), p, spec = draws.shape, est.p, est.spec
    paths = draws.reshape(R * nsim, horizon, m)
    eqs, law, cls, tvp = est.equations, spec.law, spec.model_class, spec.is_tvp
    K = p * m + 1
    n_lag = m * K

    def stack(get):
        # one value per (equation, record), as (m, R, 1)
        return np.stack([get(eq)[recs] for eq in eqs])[:, :, None]

    def rows(name):
        return _state_rows([getattr(eq, name)[recs] for eq in eqs])

    def lag_weights(r):
        # the lag-and-intercept rows of r (n_rows, R) as (m, R, 1, mp+1)
        return r[:n_lag].reshape(m, K, R).transpose(0, 2, 1)[:, :, None, :]

    mu, phi = stack(lambda eq: eq.sv_mu), stack(lambda eq: eq.sv_phi)
    sd_sv = np.sqrt(stack(lambda eq: eq.sv_psi))
    h_dev = np.repeat(stack(lambda eq: eq.h[:, -1]) - mu, nsim, axis=2)
    # lag regressors, newest lag first, then the intercept
    x = np.empty((K, R, nsim))
    x[:] = np.append(est.Y[-p:][::-1].ravel(), 1.0)[:, None, None]
    center = rows("alpha0" if tvp else "alpha_last")
    w_center, b0_center = lag_weights(center), center[n_lag:, :, None]
    n_rows = center.shape[0] if tvp else 0
    z = np.empty((2 * m + n_rows, R, nsim))
    z_h, z_y, z_s = z[:m], z[m : 2 * m], z[2 * m :]
    s = s_rows = unif = None
    if tvp:
        carry = cls == CLASS_RW or (cls == CLASS_MIX and law is not None)
        r1 = rows("sqrt_psi1")
        r0 = r1 if law is None else rows("sqrt_psi0")
        f1, f0 = (np.copysign(np.maximum(np.abs(r), _ROOT_FLOOR), r) for r in (r1, r0))
        lam1, lam0 = (r1 / f1)[..., None], (r0 / f0)[..., None]
        floored = np.any(lam1 != 1.0) or np.any(lam0 != 1.0)
        w_roots = lag_weights(f1) if law is None else np.concatenate([lag_weights(f0), lag_weights(f1)], axis=2)
        # the contemporaneous coefficients' roots
        c1, c0 = f1[n_lag:, :, None], f0[n_lag:, :, None]
        n_unif = 0
        if law == LAW_MS:
            # one regime per equation and path; row_eq maps each state row to its equation
            row_eq = np.concatenate([np.repeat(np.arange(m), K), np.repeat(np.arange(m), np.arange(m))])
            s = stack(lambda eq: eq.S_last[:, 0]) == 1
            s_rows = s[row_eq]
            p01, p11 = 1.0 - stack(lambda eq: eq.p00), stack(lambda eq: eq.p11)
            n_unif = m
        elif law == LAW_MIX:
            s = s_rows = rows("S_last")[..., None] == 1
            p_mix = rows("p_mix")[..., None]
            n_unif = n_rows
        if carry:
            start = f1 if s is None else np.where(s_rows[..., 0], f1, f0)
            u = np.repeat(((rows("alpha_last") - center) / start)[..., None], nsim, axis=2)
        if cls == CLASS_POOL:
            log_omega = np.log(np.maximum(np.stack([eq.pool_omega[recs] for eq in eqs]), 1e-300))
            cdf = np.cumsum(np.exp(log_omega - log_omega.max(axis=2, keepdims=True)), axis=2)
            N = cdf.shape[2]
            pool_mu = rows("pool_mu")
            # (row, record * N + cluster)
            pool_lag, pool_con = pool_mu[:n_lag].reshape(m, K, R * N), pool_mu[n_lag:].reshape(-1, R * N)
            z_lag, z_con = z_s[:n_lag].reshape(m, K, R, nsim), z_s[n_lag:]
            n_unif += m
        if n_unif:
            unif = np.empty((n_unif, R, nsim))
        # the lag-and-intercept terms under each root: (f0, f1), or f1 alone
        terms = np.empty((m, R, w_roots.shape[2], nsim))
    rhs = np.empty((m, R, nsim))
    for t in range(horizon):
        rng.standard_normal(out=z)
        h_dev *= phi
        z_h *= sd_sv
        h_dev += z_h
        # the error sd, written over the spent innovations
        sd = z_h
        np.add(h_dev, mu, out=sd)
        sd *= 0.5
        np.exp(sd, out=sd)
        np.matmul(w_center, x.transpose(1, 0, 2), out=rhs[:, :, None])
        b0 = b0_center
        if tvp:
            if floored:
                prev_rows = s_rows
            if unif is not None:
                rng.random(out=unif)
            if law == LAW_MS:
                s = unif[:m] < np.where(s, p11, p01)
                s_rows = s[row_eq]
            elif law == LAW_MIX:
                s = s_rows = unif[:n_rows] < p_mix
            if cls == CLASS_POOL:
                # an equation's innovations all move by the mean of the
                # cluster its path picks
                picks = unif[-m:] * cdf[:, :, -1:]
                for i in range(m):
                    theta = np.minimum((cdf[i, :, :, None] < picks[i, :, None, :]).sum(axis=1), N - 1)
                    at = theta + N * np.arange(R)[:, None]
                    z_lag[i] += np.take(pool_lag[i], at, axis=1)
                    con = slice(i * (i - 1) // 2, i * (i + 1) // 2)
                    z_con[con] += np.take(pool_con[con], at, axis=1)
            if floored:
                lam = lam1 if s is None else np.where(s_rows, lam1, lam0)
                z_s *= lam
                if carry and s is not None:
                    u *= np.where(prev_rows == s_rows, 1.0, lam)
            if carry:
                if cls == CLASS_MIX:
                    u *= s_rows
                u += z_s
            else:
                u = z_s
            root = c1 if s is None else np.where(s_rows[n_lag:], c1, c0)
            b0 = root * u[n_lag:]
            b0 += b0_center
            # x * u, written over the spent lag innovations
            xu = z_s[:n_lag].reshape(m, K, R, nsim)
            np.multiply(u[:n_lag].reshape(m, K, R, nsim), x, out=xu)
            if law == LAW_MIX:
                # split x * u by regime so that each meets its own root
                xsu = xu * s_rows[:n_lag].reshape(m, K, R, nsim)
                xu -= xsu
                np.matmul(w_roots[:, :, :1], xu.transpose(0, 2, 1, 3), out=terms[:, :, :1])
                np.matmul(w_roots[:, :, 1:], xsu.transpose(0, 2, 1, 3), out=terms[:, :, 1:])
                rhs += terms[:, :, 0]
                rhs += terms[:, :, 1]
            else:
                np.matmul(w_roots, xu.transpose(0, 2, 1, 3), out=terms)
                rhs += terms[:, :, 0] if law is None else np.where(s, terms[:, :, 1], terms[:, :, 0])
        if t == 0:
            _one_step_components(b0, rhs, sd, h1_mean, h1_var)
        # the draw: (I - B0) y = rhs + sd * shock
        z_y *= sd
        z_y += rhs
        _add_contemporaneous(b0, z_y)
        paths[:, t] = z_y.reshape(m, R * nsim).T
        # the lags move down a period, the oldest first
        for l in range(p - 1, 0, -1):
            x[l * m : (l + 1) * m] = x[(l - 1) * m : l * m]
        x[:m] = z_y


def _one_step_components(b0, rhs, sd, h1_mean, h1_var):
    """Write the one-step Gaussian components of every path into (R, nsim, m) outputs.

    The mean solves (I - B0) mean = rhs, and the variance is the row sum
    of squares of L = (I - B0)^{-1} diag(sd), built one column at a time
    so that no (m, m, R, nsim) array is held; ``rhs`` and ``sd`` are
    (m, R, nsim) and ``b0`` as in ``_add_contemporaneous``.
    """
    mean, var = np.moveaxis(h1_mean, -1, 0), np.moveaxis(h1_var, -1, 0)
    mean[:] = rhs
    _add_contemporaneous(b0, mean)
    var[:] = 0.0
    col = np.empty_like(rhs)
    for k in range(rhs.shape[0]):
        col[:] = 0.0
        col[k] = sd[k]
        _add_contemporaneous(b0, col)
        var += np.square(col, out=col)


def _add_contemporaneous(b0, v):
    """Solve (I - B0) y = v in place, row after row; v is (m, ...).

    ``b0`` holds the contemporaneous coefficients in the row order of
    ``_state_rows``: B0[i, j] is row i(i-1)/2 + j.
    """
    for i in range(1, v.shape[0]):
        for j in range(i):
            v[i] += b0[i * (i - 1) // 2 + j] * v[j]
