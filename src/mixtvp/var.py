"""Equation-wise estimation of triangularized VARs and predictive simulation.

A VAR with contemporaneous triangularization splits into m unrelated
regressions: equation i regresses variable i on the preceding i-1
contemporaneous values, p lags of every variable, and an intercept.
Chains therefore run per equation with independent seeds spawned from a
single master seed, so every equation's draws are reproducible on
their own.

The contemporaneous block B0 has one layout: its strictly lower entries
packed row after row on a leading axis, B0[i, j] at i(i-1)/2 + j, the
order in which the predictive stacks its contemporaneous states
(``_state_rows``).  Every read of the draws that solves (I - B0) y = v
does so with one forward substitution, ``_forward_substitute``, solved
axis first: the reduced form of stored draws (``reduced_from_paths``,
``structural_to_reduced``) and the predictive's draws and one-step
components.  Only ``StructuralDraw``, the per-draw reference form, holds
B0 as a dense (T, m, m) array.

The predictive simulation moves all m equations together.  Paths run in
blocks sized by bytes: the blocks of one call may hold 3 MB at once
(``_IN_FLIGHT_BYTES``), and a block takes whole records, as many as fit
half of it at the bytes a path of the model holds, spread evenly over
whole rounds of the blocks in flight, or, when one record does not fit,
an equal-sized run of a record's paths.  In a block the
lag-and-intercept states of every equation form one (m, mp+1, R, n)
array, n the block's paths per record, and the m(m-1)/2 contemporaneous
states a second one, stacked in one buffer; each period takes one normal
fill, and the buffers are reused from period to period.  Block b draws
from an SFC64 generator on the b-th child of a ``SeedSequence`` seeded
from the caller's generator stream, and writes only its own rows.  The
blocks are dealt in turn to min(CPUs available to the process, blocks,
budget // block bytes) threads, the calling thread among them, so the
bytes in flight do not grow with the CPU count, and the same seed gives
byte-identical draws at any thread count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .sampler import (
    CLASS_CONST_MIN,
    CLASS_POOL,
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
    # B0's strictly lower entries row after row: B0[i, j] at i(i-1)/2 + j
    return _reduce(draw.b0[t][np.tril_indices(draw.m, -1)], stacked, draw.sigma2[t])


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
    stacked = np.empty(lead + (m, mp + 1))
    for i, path in enumerate(alphas):
        if path.shape != lead + (mp + i + 1,):
            raise ValueError(f"equation {i + 1} path has the wrong width")
        stacked[..., i, :] = path[..., i:]
    # equation i's contemporaneous coefficients are B0's row i
    b0 = np.concatenate([np.moveaxis(path[..., :i], -1, 0) for i, path in enumerate(alphas)])
    return _reduce(b0, stacked, np.stack(sigma2s, axis=-1))


def _reduce(b0, stacked, sigma2):
    """A = (I - B0)^{-1} stacked and Sigma = L L' with L = (I - B0)^{-1} diag(sigma).

    ``b0`` is (m(m-1)/2, ...) in the row order of ``_forward_substitute``,
    ``stacked`` (..., m, mp+1) and ``sigma2`` (..., m).  Both solves are
    one, in place on the columns of [stacked, diag(sigma)].
    """
    m = stacked.shape[-2]
    sol = np.concatenate([stacked, np.sqrt(sigma2)[..., None] * np.eye(m)], axis=-1)
    _forward_substitute(b0[..., None], np.moveaxis(sol, -2, 0))
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




# bytes that the blocks of one simulate_predictive call hold at once
_IN_FLIGHT_BYTES = 3_000_000
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
    record r's k-th path.  Paths run in blocks, all m equations of a block
    together (``_simulate_block``).  A block may hold half of
    ``_IN_FLIGHT_BYTES``, at ``_path_bytes`` per path: a group of whole
    records, or, when one record does not fit, an equal-sized run (within
    one path) of a record's paths, record after record.  When the records
    need more than one group, their count is a multiple of the blocks the
    budget keeps in flight and the records spread evenly over them, so
    the threads get equal shares.  Four 64-bit integers drawn from ``rng``
    seed a ``SeedSequence``; block b draws from
    ``Generator(SFC64(child b))`` and writes only its own rows.  Thread k
    of min(available CPUs, blocks, ``_IN_FLIGHT_BYTES`` // largest block
    bytes) runs blocks k, k + n_threads, ..., the calling thread being
    thread 0, so memory does not grow with the CPU count and the same seed
    gives byte-identical draws at any thread count.  Each call advances
    ``rng``, so two calls on one generator draw differently; a refused
    call draws nothing from it.
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
    # a block is a group of at most per_block whole records, or one of the
    # runs a record's paths are cut into
    path_bytes = _path_bytes(m, p, est.spec)
    fit = max(1, _IN_FLIGHT_BYTES // 2 // path_bytes)
    runs = -(-nsim // fit)
    per_block = max(1, fit // nsim)
    block_bytes = per_block * -(-nsim // runs) * path_bytes
    slots = max(1, _IN_FLIGHT_BYTES // block_bytes)
    n_groups = -(-n_rec // per_block)
    if n_groups > 1:
        # whole rounds of the blocks in flight, so that the threads get
        # equal shares; the records spread evenly, larger groups first
        n_groups = min(n_rec, -(-n_groups // slots) * slots)
    size, extra = divmod(n_rec, n_groups)
    firsts = [k * size + min(k, extra) for k in range(n_groups + 1)]
    cuts = [k * nsim // runs for k in range(runs + 1)]
    blocks = [
        (slice(r, r_end), slice(a, b))
        for r, r_end in zip(firsts, firsts[1:])
        for a, b in zip(cuts, cuts[1:])
    ]
    # the block seeds come from the generator's stream: the children of its
    # seed sequence are the chains' streams when it was made from the seed
    # estimate_var was given
    root = np.random.SeedSequence(rng.integers(2**63, size=4))
    streams = [np.random.Generator(np.random.SFC64(s)) for s in root.spawn(len(blocks))]
    n_threads = min(_available_cpus(), len(blocks), slots)
    constants = _RecordConstants(est)
    errors = []

    def work(k):
        try:
            for b in range(k, len(blocks), n_threads):
                rows = blocks[b]
                _simulate_block(constants, rows[0], streams[b], draws[rows], h1_mean[rows], h1_var[rows])
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


def _block_rows(m: int, p: int, spec: ModelSpec) -> dict[str, int]:
    """The float rows per path of each buffer that a block of ``_simulate_block`` holds."""
    K = p * m + 1
    n_rows = m * K + m * (m - 1) // 2 if spec.is_tvp else 0
    n_regime = {LAW_MS: m, LAW_MIX: n_rows}.get(spec.law, 0) if spec.is_tvp else 0
    return {
        # log-variance innovations, shocks and state innovations
        "z": 2 * m + n_rows,
        # lags and the intercept
        "x": K,
        "h_dev": m,
        "rhs": m,
        # the carried deviations
        "u": n_rows if spec.carries else 0,
        # uniforms for the regimes and the cluster picks
        "unif": n_regime + (m if spec.model_class == CLASS_POOL else 0),
        # terms per root; the Markov-switching law forms them in rhs and
        # the spent uniforms
        "terms": m * {LAW_MS: 0, LAW_MIX: 2}.get(spec.law, 1) if spec.is_tvp else 0,
        # one-step scratch; time-varying states lend their spent normals
        "work": 0 if spec.is_tvp else 2 * m,
    }


def _path_bytes(m: int, p: int, spec: ModelSpec) -> int:
    """Bytes that one path holds in a block of ``_simulate_block``.

    The block's buffers and the step's largest temporaries, 8 bytes per
    float row and 1 per boolean row.
    """
    rows = _block_rows(m, p, spec)
    pooled = spec.model_class == CLASS_POOL
    # the buffers and the step's temporaries (2m rows)
    floats = sum(rows.values()) + 2 * m
    # the regimes, one per regime uniform, and the masks that a floored
    # root takes
    bools = 4 * (rows["unif"] - m * pooled + (m * (m - 1) // 2 if spec.law == LAW_MS else 0))
    if pooled:
        # the scaled picks, the cluster and its index, one equation's
        # cluster means, and the clusters compared
        floats += m + 3 + rows["x"]
        bools += spec.n_clusters
    return 8 * floats + bools


def _state_rows(arrays):
    """Per-equation arrays (..., K_i) stacked coefficient-first as (n_rows, ...).

    The rows are every equation's lag and intercept coefficients, equation
    after equation, then every equation's contemporaneous ones: equation
    i's (0-based) start at row m(mp+1) + i(i-1)/2.
    """
    moved = [np.moveaxis(a, -1, 0) for a in arrays]
    return np.concatenate([a[i:] for i, a in enumerate(moved)] + [a[:i] for i, a in enumerate(moved)])


class _RecordConstants:
    """What the blocks of one ``simulate_predictive`` call read, for every record.

    Each array has the records on axis 1, so that a block slices its own
    records out: (m, n_rec, 1) per equation, (n_rows, n_rec, 1) per state
    row in the order of ``_state_rows``, and lag weights as
    (m, n_rec, roots, mp+1).  ``floored`` marks the records with a root
    under ``_ROOT_FLOOR``.
    """

    def __init__(self, est: VarEstimate):
        spec, eqs, m, p = est.spec, est.equations, est.m, est.p
        self.m, self.p, self.K = m, p, p * m + 1
        self.n_lag = m * self.K
        self.law, self.cls, self.tvp, self.carry = spec.law, spec.model_class, spec.is_tvp, spec.carries
        self.ar = spec.ar
        self.buffer_rows = _block_rows(m, p, spec)

        def stack(get):
            # one value per (equation, record), as (m, n_rec, 1)
            return np.stack([get(eq) for eq in eqs])[:, :, None]

        def rows(name):
            return _state_rows([getattr(eq, name) for eq in eqs])

        self.mu, self.phi = stack(lambda eq: eq.sv_mu), stack(lambda eq: eq.sv_phi)
        self.sd_sv = np.sqrt(stack(lambda eq: eq.sv_psi))
        self.h_dev = stack(lambda eq: eq.h[:, -1]) - self.mu
        # lag regressors, newest lag first, then the intercept
        self.x = np.append(est.Y[-p:][::-1].ravel(), 1.0)[:, None, None]
        center = rows("alpha0" if self.tvp else "alpha_last")
        self.w_center, self.b0_center = self.lag_weights(center), center[self.n_lag :, :, None]
        self.n_rows = center.shape[0] if self.tvp else 0
        if not self.tvp:
            return
        law = self.law
        # the equation of each state row
        self.row_eq = np.concatenate([np.repeat(np.arange(m), self.K), np.repeat(np.arange(m), np.arange(m))])
        r1 = rows("sqrt_psi1")
        r0 = r1 if law is None else rows("sqrt_psi0")
        f1, f0 = (np.copysign(np.maximum(np.abs(r), _ROOT_FLOOR), r) for r in (r1, r0))
        self.lam1, self.lam0 = (r1 / f1)[..., None], (r0 / f0)[..., None]
        self.floored = np.any((self.lam1 != 1.0) | (self.lam0 != 1.0), axis=(0, 2))
        if law is None:
            self.w_roots = self.lag_weights(f1)
        else:
            self.w_roots = np.concatenate([self.lag_weights(f0), self.lag_weights(f1)], axis=2)
        # the contemporaneous coefficients' roots
        self.c1, self.c0 = f1[self.n_lag :, :, None], f0[self.n_lag :, :, None]
        if law == LAW_MS:
            self.s = stack(lambda eq: eq.S_last[:, 0]) == 1
            self.p01, self.p11 = 1.0 - stack(lambda eq: eq.p00), stack(lambda eq: eq.p11)
            s_rows = self.s[self.row_eq]
        elif law == LAW_MIX:
            self.s = s_rows = rows("S_last")[..., None] == 1
            self.p_mix = rows("p_mix")[..., None]
        if self.carry:
            start = f1 if law is None else np.where(s_rows[..., 0], f1, f0)
            self.u = ((rows("alpha_last") - center) / start)[..., None]
        if self.cls == CLASS_POOL:
            log_omega = np.log(np.maximum(np.stack([eq.pool_omega for eq in eqs]), 1e-300))
            self.cdf = np.cumsum(np.exp(log_omega - log_omega.max(axis=2, keepdims=True)), axis=2)
            pool_mu = rows("pool_mu")
            # (row, record * N + cluster)
            N = self.cdf.shape[2]
            self.pool_lag = pool_mu[: self.n_lag].reshape(m, self.K, -1)
            self.pool_con = pool_mu[self.n_lag :].reshape(-1, pool_mu.shape[1] * N)

    def lag_weights(self, r):
        """The lag-and-intercept rows of r (n_rows, n_rec) as (m, n_rec, 1, mp+1)."""
        return r[: self.n_lag].reshape(self.m, self.K, -1).transpose(0, 2, 1)[:, :, None, :]


def _simulate_block(c, recs, rng, draws, h1_mean, h1_var):
    """Fill one block's draws (R, nsim, horizon, m) and one-step components.

    ``recs`` selects the block's R records from ``c``, the call's
    ``_RecordConstants``, and the outputs are its rows: all of a record's
    paths, or one run of them, so ``nsim`` here is the block's paths per
    record.

    The m equations move together, their states stacked in one
    (n_rows, R, nsim) array in the row order of ``_state_rows``: the
    m(mp+1) lag-and-intercept states, viewed as (m, mp+1, R, nsim), then
    the m(m-1)/2 contemporaneous ones.  Each period takes one normal fill
    (log-variance innovations, shocks, state innovations) and, under a law
    or the pooled class, one uniform fill (regimes, cluster picks), all
    from the block's own generator ``rng``.  The block reads the
    constants and writes only its own output rows, so blocks give the same
    bytes on any thread and in any order.  Its buffers are made once and
    reused every period: B0, x * u and the one-step scratch are written
    over spent normals and the Markov-switching law's regime-1 terms over
    spent uniforms, so the block holds what ``_path_bytes`` counts.

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
    (R, nsim, horizon, m), p, K, n_lag, law = draws.shape, c.p, c.K, c.n_lag, c.law
    paths = draws.reshape(R * nsim, horizon, m)
    # the block's float buffers, carved out of one allocation
    pool = np.empty((sum(c.buffer_rows.values()), R, nsim))
    z, x, h_dev, rhs, u, unif, terms, work = np.split(pool, np.cumsum(list(c.buffer_rows.values()))[:-1])
    z_h, z_y, z_s = z[:m], z[m : 2 * m], z[2 * m :]
    mu, phi, sd_sv = c.mu[:, recs], c.phi[:, recs], c.sd_sv[:, recs]
    h_dev[:] = c.h_dev[:, recs]
    x[:] = c.x
    w_center, b0_center = c.w_center[:, recs], c.b0_center[:, recs]
    n_rows = c.n_rows
    # the one-step scratch: the spent lag innovations when the states vary
    work = (z_s[: 2 * m] if c.tvp else work).reshape(2, m, R, nsim)
    s = None
    if c.tvp:
        lam1, lam0, c1, c0 = c.lam1[:, recs], c.lam0[:, recs], c.c1[:, recs], c.c0[:, recs]
        floored, w_roots = c.floored[recs].any(), c.w_roots[:, recs]
        if law is not None:
            s = np.repeat(c.s[:, recs], nsim, axis=2)
        if law == LAW_MS:
            p01, p11 = c.p01[:, recs], c.p11[:, recs]
            row_con = c.row_eq[n_lag:]
            # f0's terms go into rhs and f1's into the spent uniforms
            spent = unif[:m]

            def by_regime(a):
                # a's rows as the regimes group them: the lag rows by equation, the contemporaneous rows
                return a[:n_lag].reshape((m, K) + a.shape[1:]), a[n_lag:]

            def regimes(v):
                # the regimes v (m, R, nsim) as masks of by_regime's groups
                return v[:, None], v[row_con]

        else:
            # the lag-and-intercept terms under (f0, f1), or f1 alone
            terms = terms.reshape(m, R, -1, nsim)
            if law == LAW_MIX:
                p_mix = c.p_mix[:, recs]

                def by_regime(a):
                    return (a,)

                def regimes(v):
                    return (v,)

        if c.carry:
            u[:] = c.u[:, recs]
        if c.cls == CLASS_POOL:
            cdf = c.cdf[:, recs]
            N = cdf.shape[2]
            # each record's clusters in the flat (record * N + cluster) columns
            offsets = N * np.arange(recs.start, recs.stop)[:, None]
            z_lag, z_con = z_s[:n_lag].reshape(m, K, R, nsim), z_s[n_lag:]
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
        if c.tvp:
            # regimes and cluster picks; a class with neither draws nothing
            rng.random(out=unif)
            if floored and s is not None:
                before = s.copy()
            if law == LAW_MS:
                # the probability of regime 1 next, in rhs until the mean is
                # formed: a selection in place, as np.where would buffer
                # its broadcast operands
                np.copyto(rhs, p01)
                np.copyto(rhs, p11, where=s)
                np.less(unif[:m], rhs, out=s)
            elif law == LAW_MIX:
                np.less(unif[:n_rows], p_mix, out=s)
            if s is not None:
                masks = regimes(s)
                s_con = masks[1] if law == LAW_MS else s[n_lag:]
            if c.cls == CLASS_POOL:
                # an equation's innovations all move by the mean of the
                # cluster its path picks
                picks = unif[-m:] * cdf[:, :, -1:]
                for i in range(m):
                    theta = np.minimum((cdf[i, :, :, None] < picks[i, :, None, :]).sum(axis=1), N - 1)
                    at = theta + offsets
                    z_lag[i] += np.take(c.pool_lag[i], at, axis=1)
                    con = slice(i * (i - 1) // 2, i * (i + 1) // 2)
                    z_con[con] += np.take(c.pool_con[con], at, axis=1)
            if floored:
                if s is None:
                    z_s *= lam1
                else:
                    for a, l1, l0, now in zip(by_regime(z_s), by_regime(lam1), by_regime(lam0), masks):
                        np.multiply(a, l1, out=a, where=now)
                        np.multiply(a, l0, out=a, where=~now)
                    if c.carry:
                        # a switch into a regime rescales the carried deviation
                        groups = zip(by_regime(u), by_regime(lam1), by_regime(lam0), masks, regimes(before))
                        for a, l1, l0, now, was in groups:
                            np.multiply(a, l1, out=a, where=now & ~was)
                            np.multiply(a, l0, out=a, where=was & ~now)
            if c.carry:
                if c.ar[0] == 0:
                    # regime 0 forgets the carried deviation
                    for a, now in zip(by_regime(u), masks):
                        a *= now
                u += z_s
            else:
                u = z_s
            # B0, written over the spent contemporaneous innovations (or,
            # regenerated, over u itself)
            b0 = z_s[n_lag:]
            if s is None:
                np.multiply(c1, u[n_lag:], out=b0)
            elif c.carry:
                np.copyto(b0, c0)
                np.copyto(b0, c1, where=s_con)
                b0 *= u[n_lag:]
            else:
                b0 *= np.where(s_con, c1, c0)
            b0 += b0_center
            # x * u, written over the spent lag innovations
            xu = z_s[:n_lag].reshape(m, K, R, nsim)
            u_lag = u[:n_lag].reshape(m, K, R, nsim)
            np.multiply(u_lag, x, out=xu)
            if law == LAW_MIX:
                # x * u split by regime, so that each meets its own root;
                # the regime-1 part goes into the spent uniforms
                xsu = unif[:n_lag].reshape(m, K, R, nsim)
                np.multiply(xu, s[:n_lag].reshape(m, K, R, nsim), out=xsu)
                xu -= xsu
                np.matmul(w_roots[:, :, :1], xu.transpose(0, 2, 1, 3), out=terms[:, :, :1])
                np.matmul(w_roots[:, :, 1:], xsu.transpose(0, 2, 1, 3), out=terms[:, :, 1:])
            elif law == LAW_MS:
                np.matmul(w_roots[:, :, :1], xu.transpose(0, 2, 1, 3), out=rhs[:, :, None])
                np.matmul(w_roots[:, :, 1:], xu.transpose(0, 2, 1, 3), out=spent[:, :, None])
                # each path's regime picks its terms
                terms = np.where(s, spent, rhs)[:, :, None]
            else:
                np.matmul(w_roots, xu.transpose(0, 2, 1, 3), out=terms)
        else:
            b0 = b0_center
        np.matmul(w_center, x.transpose(1, 0, 2), out=rhs[:, :, None])
        if c.tvp:
            for k in range(terms.shape[2]):
                rhs += terms[:, :, k]
        if t == 0:
            _one_step_components(b0, rhs, sd, h1_mean, h1_var, work)
        # the draw: (I - B0) y = rhs + sd * shock
        z_y *= sd
        z_y += rhs
        _forward_substitute(b0, z_y)
        np.copyto(paths[:, t], z_y.reshape(m, R * nsim).T)
        # the lags move down a period, the oldest first
        for l in range(p - 1, 0, -1):
            x[l * m : (l + 1) * m] = x[(l - 1) * m : l * m]
        x[:m] = z_y


def _one_step_components(b0, rhs, sd, h1_mean, h1_var, work):
    """Write the one-step Gaussian components of every path into (R, nsim, m) outputs.

    The mean solves (I - B0) mean = rhs, and the variance is the row sum
    of squares of L = (I - B0)^{-1} diag(sd), built one column at a time
    so that no (m, m, R, nsim) array is held; column k is zero above row
    k, so only its rows from k on are solved.  ``rhs`` and ``sd`` are
    (m, R, nsim) and ``b0`` as in ``_forward_substitute``.  Both are
    formed in ``work``, a (2, m, R, nsim) scratch array, and copied out
    once, so the strided outputs take no arithmetic.
    """
    acc, col = work
    acc[:] = rhs
    _forward_substitute(b0, acc)
    np.moveaxis(h1_mean, -1, 0)[:] = acc
    acc[:] = 0.0
    for k in range(rhs.shape[0]):
        col[k] = sd[k]
        col[k + 1 :] = 0.0
        _forward_substitute(b0, col, k)
        acc[k:] += np.square(col[k:], out=col[k:])
    np.moveaxis(h1_var, -1, 0)[:] = acc


def _forward_substitute(b0, v, start=0):
    """Solve (I - B0) y = v in place, row after row; v is (m, ...).

    This is the one solver of the triangular system.  ``b0`` holds B0's
    strictly lower entries packed row after row on its first axis: B0[i, j]
    is row i(i-1)/2 + j, the order in which ``_state_rows`` stacks the
    contemporaneous states, and its other axes broadcast against v's rows.
    Rows before ``start`` are taken as zero and left as they are.  Row i
    adds its products with the rows before it in column order, formed in
    one call.
    """
    for i in range(start + 1, v.shape[0]):
        first = i * (i - 1) // 2
        products = b0[first + start : first + i] * v[start:i]
        for term in products:
            v[i] += term
