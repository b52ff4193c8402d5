"""Per-equation Gibbs sampler for mixture-law time-varying regressions.

One sweep updates, in fixed order: (1) the constant block with its
Normal-Gamma hierarchy, (2) the normalized state path through the static
representation, (3) the error volatilities, (4) the regime indicators in
the centered parameterization, and (5) the pooling block when the law of
motion clusters state means.  Reordering the steps is off limits: the
indicator step must see states drawn under the current regimes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .banded import build_phi, solve_lower
from .indicators import (
    CLASS_MIX,
    CLASS_POOL,
    CLASS_RW,
    PAIRING_LITERAL,
    PAIRING_SUCCESS,
    BernoulliCounts,
    MsCounts,
    sample_indicators_mix,
    sample_indicators_ms,
    simulate_ms_chain,
    update_bernoulli_probs,
    update_transition_probs,
)
from .pool import PoolPriors, PoolState, initial_pool_state, pool_sweep
from .shrinkage import (
    GROUP_MEANS,
    GROUP_SLAB,
    GROUP_SPIKE,
    ConstantBlock,
    MhScale,
    NgHyper,
    default_ng_hyper,
    draw_constant_block,
    draw_lambda,
    draw_tau,
    update_rho,
)
from .statespace import (
    build_design_rows,
    draw_states_fast,
    normalized_from_centered,
    reconstruct_centered,
)
from .sv import (
    DEFAULT_SV_PRIORS,
    SvPriors,
    SvState,
    initial_sv_state,
    sample_sv_prior,
    sv_sweep,
)

CLASS_CONST_NG = "CONST-NG"
CLASS_CONST_MIN = "CONST-MIN"
TVP_CLASSES = (CLASS_MIX, CLASS_POOL, CLASS_RW)
CONST_CLASSES = (CLASS_CONST_NG, CLASS_CONST_MIN)

SUB_FLEX_MS = "FLEX-MS"
SUB_FLEX_MIX = "FLEX-MIX"
SUB_SINGLE = "SINGLE"
SUB_SSVS_MIX = "SSVS-MIX"
SUBCLASSES = (SUB_FLEX_MS, SUB_FLEX_MIX, SUB_SINGLE, SUB_SSVS_MIX)

LAW_MS = "MS"
LAW_MIX = "MIX"

HOMOSKEDASTIC_IG_SHAPE = 0.01
HOMOSKEDASTIC_IG_RATE = 0.01
ROOT_INIT = 0.1


@dataclass(frozen=True)
class ModelSpec:
    """Complete configuration of one model cell plus sampler settings."""

    model_class: str
    subclass: str | None = None
    p: int = 1
    sv: bool = True
    n_clusters: int = 10
    iterations: int = 20000
    burnin: int = 10000
    thin: int = 1
    store_paths: bool = True
    bernoulli_pairing: str = PAIRING_SUCCESS
    zeta: float = 0.01
    kappa: float = 1e-6
    d0: float = 10.0
    e0: float = 0.6
    e1: float = 0.6
    minnesota_own: float = 0.2
    minnesota_cross: float = 0.5
    minnesota_level: float = 100.0
    ms_counts: tuple[float, float, float, float] | None = None
    bernoulli_counts: tuple[float, float] | None = None
    prior_variances: tuple[float, ...] | None = None
    prior_means: tuple[float, ...] | None = None
    sv_priors: SvPriors = field(default_factory=lambda: DEFAULT_SV_PRIORS)

    def __post_init__(self):
        if self.model_class in TVP_CLASSES:
            if self.subclass not in SUBCLASSES:
                raise ValueError(
                    f"class {self.model_class} needs a subclass from {SUBCLASSES}"
                )
        elif self.model_class in CONST_CLASSES:
            if self.subclass is not None:
                raise ValueError("constant benchmarks take no subclass")
        else:
            raise ValueError(f"unknown model class {self.model_class!r}")
        if not 0 <= self.burnin < self.iterations:
            raise ValueError("need 0 <= burnin < iterations")
        if self.thin < 1 or self.p < 1 or self.n_clusters < 1:
            raise ValueError("thin, p and n_clusters must be positive")
        if self.bernoulli_pairing not in (PAIRING_SUCCESS, PAIRING_LITERAL):
            raise ValueError("unknown Bernoulli pairing")

    @property
    def is_tvp(self) -> bool:
        return self.model_class in TVP_CLASSES

    @property
    def law(self) -> str | None:
        """Indicator law: a joint chain, independent sites, or none."""
        if self.subclass == SUB_FLEX_MS:
            return LAW_MS
        if self.subclass in (SUB_FLEX_MIX, SUB_SSVS_MIX):
            return LAW_MIX
        return None

    @property
    def n_variance_groups(self) -> int:
        """Sampled root groups: 2 for two free regimes, 1 for one, 0 constant."""
        if not self.is_tvp:
            return 0
        if self.subclass in (SUB_FLEX_MS, SUB_FLEX_MIX):
            return 2
        return 1

    def block_width(self, K: int) -> int:
        return K * (1 + self.n_variance_groups)

    def default_ms_counts(self) -> MsCounts:
        if self.ms_counts is not None:
            return MsCounts(*self.ms_counts)
        if self.model_class == CLASS_MIX:
            return MsCounts(c00=0.3, c01=30.0, c10=30.0, c11=0.3)
        return MsCounts(c00=0.3, c01=0.3, c10=3.0, c11=3.0)

    def default_bernoulli_counts(self) -> BernoulliCounts:
        if self.bernoulli_counts is not None:
            return BernoulliCounts(*self.bernoulli_counts)
        if self.model_class == CLASS_MIX:
            return BernoulliCounts(c0=0.3, c1=30.0)
        return BernoulliCounts(c0=0.3, c1=3.0)

    def pool_priors(self) -> PoolPriors:
        return PoolPriors(n_clusters=self.n_clusters, d0=self.d0, e0=self.e0, e1=self.e1)


@dataclass(frozen=True)
class EquationChainState:
    """All sampled quantities of one equation's chain."""

    block: ConstantBlock
    alpha_tilde: np.ndarray
    S: np.ndarray | None
    p00: float | None
    p11: float | None
    p_mix: np.ndarray | None
    ng: NgHyper | None
    sv: SvState
    pool: PoolState | None


@dataclass
class SweepScales:
    """Adaptive proposal scales shared across sweeps of one chain."""

    rho: dict[str, MhScale]
    xi: MhScale | None = None


def make_scales(spec: ModelSpec) -> SweepScales:
    names = [GROUP_MEANS] + [GROUP_SLAB, GROUP_SPIKE][: spec.n_variance_groups]
    xi = MhScale(scale=0.3) if spec.model_class == CLASS_POOL else None
    return SweepScales(rho={n: MhScale(scale=0.4) for n in names}, xi=xi)


def _phi_diagonals(spec: ModelSpec, S: np.ndarray | None, T: int, K: int) -> np.ndarray:
    if spec.model_class == CLASS_RW:
        return np.ones((T, K))
    if spec.model_class == CLASS_MIX and S is not None:
        return S.astype(float)
    # pooled laws and the single-variance mixture carry no autoregression
    return np.zeros((T, K))


def _block_from_coefs(
    coefs: np.ndarray, spec: ModelSpec, fixed_spike: np.ndarray | None = None
) -> ConstantBlock:
    """Unpack sampled block coefficients: K means, then one K-slice per root group.

    The layout follows ``default_ng_hyper``: means, slab roots, spike roots.
    SSVS-MIX samples no spike roots; its fixed ones come in ``fixed_spike``.
    """
    parts = np.split(coefs, 1 + spec.n_variance_groups)
    if spec.subclass == SUB_SSVS_MIX:
        parts.append(fixed_spike)
    return ConstantBlock(*parts)


def _draw_block_and_ng(y, x, spec, state, rng, scales, adapting):
    """Step 1: constant block plus the full shrinkage hierarchy."""
    T, K = x.shape
    sigma = state.sv.sigma()
    if spec.is_tvp:
        xhat = build_design_rows(x, state.alpha_tilde, state.S, state.block, sigma).xhat
    else:
        xhat = x
    y_eff = y
    width = spec.block_width(K)
    if spec.subclass == SUB_SSVS_MIX:
        # fixed spike roots enter as a known offset, not as sampled columns
        y_eff = y - xhat[:, 2 * K:] @ state.block.sqrt_psi0
        xhat = xhat[:, : 2 * K]
    if xhat.shape[1] != width:
        raise AssertionError("design width disagrees with the subclass layout")

    ng = state.ng
    coefs = draw_constant_block(y_eff, xhat, sigma, ng.tau, rng)
    tau = draw_tau(coefs, ng, rng)
    lam = dict(ng.lam)
    rho = dict(ng.rho)
    for name, idx in ng.groups.items():
        lam[name] = draw_lambda(tau[idx], rho[name], ng.zeta, rng)
        rho[name], accepted = update_rho(
            tau[idx], lam[name], rho[name], scales.rho[name].scale, rng
        )
        scales.rho[name].record(accepted, adapting)
    new_ng = replace(ng, tau=tau, lam=lam, rho=rho)

    return _block_from_coefs(coefs, spec, state.block.sqrt_psi0), new_ng


def _draw_states(y, x, spec, block, state, rng):
    """Step 2: normalized path through the static representation."""
    T, K = x.shape
    sigma = state.sv.sigma()
    design = build_design_rows(x, state.alpha_tilde, state.S, block, sigma)
    Phi = build_phi(_phi_diagonals(spec, state.S, T, K))
    if spec.model_class == CLASS_POOL:
        a0 = state.pool.prior_mean_stack().reshape(-1)
    else:
        a0 = np.zeros(T * K)
    ytilde = (y - x @ block.alpha0) / sigma
    draw = draw_states_fast(ytilde, design.wtilde, a0, Phi, rng)
    return draw.reshape(T, K)


def _update_volatility(y, x, alpha, spec, sv, rng):
    """Step 3: stochastic volatility, or a single conjugate variance."""
    resid = y - (x * alpha).sum(axis=1)
    if spec.sv:
        return sv_sweep(resid, sv, rng, spec.sv_priors)
    T = resid.shape[0]
    shape = HOMOSKEDASTIC_IG_SHAPE + 0.5 * T
    rate = HOMOSKEDASTIC_IG_RATE + 0.5 * float(resid @ resid)
    var = 1.0 / rng.gamma(shape=shape, scale=1.0 / rate)
    level = math.log(var)
    return SvState(
        h=np.full(T, level), h0=level, mu=level, phi=0.0, psi=1e-12
    )


def _update_indicators(alpha, spec, block, state, rng):
    """Step 4: regime indicators in the centered parameterization."""
    pool_means = (
        state.pool.prior_mean_stack() if spec.model_class == CLASS_POOL else None
    )
    # probabilities first, from the incoming regimes: a warm-start spell
    # then faces transition odds that already count it, not bare prior odds
    if spec.law == LAW_MS:
        p00, p11 = update_transition_probs(
            state.S[:, 0], spec.default_ms_counts(), rng
        )
        s = sample_indicators_ms(
            alpha, block, p00, p11, spec.model_class, rng, pool_means
        )
        S = np.repeat(s[:, None], block.K, axis=1).astype(np.int8)
        return S, p00, p11, state.p_mix
    p_mix = update_bernoulli_probs(
        state.S, spec.default_bernoulli_counts(), rng, spec.bernoulli_pairing
    )
    S = sample_indicators_mix(
        alpha, block, p_mix, spec.model_class, rng, pool_means, S=state.S
    )
    return S, state.p00, state.p11, p_mix


def gibbs_sweep(
    y: np.ndarray,
    x: np.ndarray,
    spec: ModelSpec,
    state: EquationChainState,
    rng: np.random.Generator,
    scales: SweepScales | None = None,
    adapting: bool = False,
) -> EquationChainState:
    """One full pass over all conditionals; the state is replaced atomically."""
    T, K = x.shape
    if scales is None:
        scales = make_scales(spec)

    if spec.model_class == CLASS_CONST_MIN:
        if spec.prior_variances is None:
            raise ValueError("the Minnesota benchmark needs prior variances")
        tau = np.asarray(spec.prior_variances, dtype=float)
        mean = (
            np.asarray(spec.prior_means, dtype=float)
            if spec.prior_means is not None
            else np.zeros(K)
        )
        coefs = draw_constant_block(y, x, state.sv.sigma(), tau, rng, prior_mean=mean)
        block = ConstantBlock(alpha0=coefs)
        alpha = np.broadcast_to(block.alpha0, (T, K))
        sv = _update_volatility(y, x, alpha, spec, state.sv, rng)
        return replace(state, block=block, sv=sv)

    if spec.model_class == CLASS_CONST_NG:
        block, ng = _draw_block_and_ng(y, x, spec, state, rng, scales, adapting)
        alpha = np.broadcast_to(block.alpha0, (T, K))
        sv = _update_volatility(y, x, alpha, spec, state.sv, rng)
        return replace(state, block=block, ng=ng, sv=sv)

    block, ng = _draw_block_and_ng(y, x, spec, state, rng, scales, adapting)
    alpha_tilde = _draw_states(y, x, spec, block, replace(state, block=block), rng)

    interim = replace(state, block=block, ng=ng, alpha_tilde=alpha_tilde)
    alpha = reconstruct_centered(block, interim.S, alpha_tilde)
    sv = _update_volatility(y, x, alpha, spec, interim.sv, rng)
    interim = replace(interim, sv=sv)

    if spec.law is not None:
        S, p00, p11, p_mix = _update_indicators(alpha, spec, block, interim, rng)
        alpha_tilde = normalized_from_centered(block, S, alpha)
        interim = replace(
            interim, S=S, p00=p00, p11=p11, p_mix=p_mix, alpha_tilde=alpha_tilde
        )

    if spec.model_class == CLASS_POOL:
        pool = pool_sweep(
            interim.alpha_tilde,
            interim.pool,
            spec.pool_priors(),
            rng,
            scales.xi,
            adapting,
        )
        interim = replace(interim, pool=pool)
    return interim


def ar_ols_variances(x: np.ndarray, p: int) -> np.ndarray:
    """Residual variance of an order-p autoregression per covariate column.

    Constant columns (and columns shorter than the fit needs) yield 0.0,
    which fixed-spike layouts turn into an effectively frozen coefficient.
    """
    T, K = x.shape
    out = np.zeros(K)
    if T <= p + 2:
        return out
    for j in range(K):
        col = x[:, j]
        if np.ptp(col) == 0.0:
            continue
        rows = np.column_stack(
            [col[p - lag - 1: T - lag - 1] for lag in range(p)] + [np.ones(T - p)]
        )
        target = col[p:]
        beta, *_ = np.linalg.lstsq(rows, target, rcond=None)
        resid = target - rows @ beta
        dof = max(T - p - rows.shape[1], 1)
        out[j] = float(resid @ resid) / dof
    return out


def best_single_split(y: np.ndarray, x: np.ndarray) -> int | None:
    """Index minimising the two-segment OLS residual sum of squares.

    Scans interior split points with enough rows on both sides for a
    least-squares fit.  Returns None when no admissible split exists.

    Every candidate's segment fits come from running sums of a_t a_t' for
    the augmented rows a_t = (x_t, y_t), accumulated forward for the head
    segments and backward for the tail segments (no differences of sums).
    The last Cholesky pivot of a segment's augmented gram [[X'X, X'y],
    [y'X, y'y]] is the square root of its residual sum of squares, so
    each side is one batched Cholesky over all candidates.  A side with
    any segment whose augmented gram is not numerically positive definite
    (a rank-deficient X, such as a column that is zero on the segment, or
    an exact fit) is scanned with ``lstsq`` instead, which keeps the
    minimum-norm residual sum of squares there.
    """
    T, K = x.shape
    lo, hi = K + 2, T - K - 2
    if lo >= hi:
        return None
    aug = np.column_stack([x, y])
    outer = aug[:, :, None] * aug[:, None, :]

    def ssr(rows: slice) -> float:
        coef, *_ = np.linalg.lstsq(x[rows], y[rows], rcond=None)
        err = y[rows] - x[rows] @ coef
        return float(err @ err)

    def side_ssr(rows, gram):
        try:
            return np.linalg.cholesky(gram)[:, K, K] ** 2
        except np.linalg.LinAlgError:
            return np.array([ssr(r) for r in rows])

    cuts = range(lo, hi)
    # head sums over rows [0, t) and tail sums over rows [t, T)
    head = side_ssr((slice(0, t) for t in cuts), np.cumsum(outer, axis=0)[lo - 1: hi - 1])
    tail = side_ssr((slice(t, T) for t in cuts), np.cumsum(outer[::-1], axis=0)[::-1][lo:hi])
    return lo + int(np.argmin(head + tail))


def init_equation_state(
    y: np.ndarray, x: np.ndarray, spec: ModelSpec, rng: np.random.Generator
) -> EquationChainState:
    """Starting values: OLS for the block, slab regime everywhere."""
    T, K = x.shape
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta

    # Warm-start the variance regimes from the best single-split OLS
    # segmentation: the walk regime covers the early segment and the
    # anchor regime the late one, with the centre taken from the late
    # segment's own fit.  Anchoring on the recent segment keeps the
    # centre at the level forecasts revert to, and both scale groups see
    # data from sweep one instead of waiting for a regime spell to
    # nucleate out of an all-slab start.
    split = best_single_split(y, x) if spec.law is not None else None
    beta_head = None
    if split is not None:
        beta, *_ = np.linalg.lstsq(x[split:], y[split:], rcond=None)
        beta_head, *_ = np.linalg.lstsq(x[:split], y[:split], rcond=None)
        # volatilities start from the segmented fit's residuals: the
        # full-sample residuals carry the segment misfit, and a noise
        # level inflated that way lets the first sweeps explain the
        # shift as variance instead of coefficient movement
        resid = np.concatenate(
            [y[:split] - x[:split] @ beta_head, y[split:] - x[split:] @ beta]
        )
    sv = initial_sv_state(resid)

    if not spec.is_tvp:
        block = ConstantBlock(alpha0=beta)
    elif spec.subclass == SUB_SSVS_MIX:
        spike = np.sqrt(spec.kappa * ar_ols_variances(x, spec.p))
        block = ConstantBlock(
            alpha0=beta, sqrt_psi1=np.full(K, ROOT_INIT), sqrt_psi0=spike
        )
    elif spec.n_variance_groups == 2:
        block = ConstantBlock(
            alpha0=beta,
            sqrt_psi1=np.full(K, ROOT_INIT),
            sqrt_psi0=np.full(K, ROOT_INIT / 2),
        )
    else:
        block = ConstantBlock(alpha0=beta, sqrt_psi1=np.full(K, ROOT_INIT))

    if spec.law is None:
        S = None
    else:
        S = np.ones((T, K), dtype=np.int8)
        if split is not None:
            S[split:] = 0

    # The path starts on the segment fits too: a zero state would hand
    # the first scale update empty regressor columns and let the roots
    # drift away from the data before the smoother has run once.
    alpha_tilde = np.zeros((T, K))
    if split is not None and spec.is_tvp:
        centered = np.broadcast_to(beta, (T, K)).copy()
        centered[:split] = beta_head
        alpha_tilde = normalized_from_centered(block, S, centered)
    counts = spec.default_ms_counts()
    p00 = counts.c00 / (counts.c00 + counts.c10) if spec.law == LAW_MS else None
    p11 = counts.c01 / (counts.c01 + counts.c11) if spec.law == LAW_MS else None
    if spec.law == LAW_MIX:
        b = spec.default_bernoulli_counts()
        p_mix = np.full(K, b.c0 / (b.c0 + b.c1))
    else:
        p_mix = None

    if spec.model_class == CLASS_CONST_MIN:
        ng = None
    else:
        ng = default_ng_hyper(K, spec.n_variance_groups, spec.zeta)
        # Start the local/global scales on the regime geometry of the
        # root inits.  With tau at 1 the first block draw hands an
        # unidentified spike root a unit-scale value, which swaps the
        # regime labels before any identification exists.
        for name, scale in (
            (GROUP_SLAB, ROOT_INIT**2),
            (GROUP_SPIKE, (ROOT_INIT / 2) ** 2),
        ):
            if name in ng.groups:
                ng.tau[ng.groups[name]] = scale
                ng.lam[name] = 2.0 / scale
    pool = (
        initial_pool_state(T, K, spec.pool_priors(), rng)
        if spec.model_class == CLASS_POOL
        else None
    )
    return EquationChainState(
        block=block,
        alpha_tilde=alpha_tilde,
        S=S,
        p00=p00,
        p11=p11,
        p_mix=p_mix,
        ng=ng,
        sv=sv,
        pool=pool,
    )


@dataclass
class PosteriorDraws:
    """Post-burn-in records of one equation's chain, array per symbol."""

    meta: dict[str, str]
    alpha0: np.ndarray
    h: np.ndarray
    h0: np.ndarray
    sv_mu: np.ndarray
    sv_phi: np.ndarray
    sv_psi: np.ndarray
    alpha_last: np.ndarray
    sqrt_psi1: np.ndarray | None = None
    sqrt_psi0: np.ndarray | None = None
    alpha: np.ndarray | None = None
    S: np.ndarray | None = None
    S_last: np.ndarray | None = None
    p00: np.ndarray | None = None
    p11: np.ndarray | None = None
    p_mix: np.ndarray | None = None
    lam: np.ndarray | None = None
    rho: np.ndarray | None = None
    pool_omega: np.ndarray | None = None
    pool_xi: np.ndarray | None = None
    pool_theta: np.ndarray | None = None
    pool_mu: np.ndarray | None = None
    pool_occupied: np.ndarray | None = None

    ARRAY_FIELDS = (
        "alpha0", "h", "h0", "sv_mu", "sv_phi", "sv_psi", "alpha_last",
        "sqrt_psi1", "sqrt_psi0", "alpha", "S", "S_last",
        "p00", "p11", "p_mix", "lam", "rho", "pool_omega", "pool_xi",
        "pool_theta", "pool_mu", "pool_occupied",
    )

    @property
    def n_records(self) -> int:
        return self.alpha0.shape[0]

    def save(self, out_dir) -> None:
        """Raw little-endian arrays plus a sorted plain-text manifest."""
        from pathlib import Path

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = [f"meta.{k}: {v}" for k, v in self.meta.items()]
        for name in self.ARRAY_FIELDS:
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.ascontiguousarray(arr)
            (out / f"{name}.bin").write_bytes(arr.tobytes())
            shape = "x".join(str(d) for d in arr.shape)
            lines.append(f"array.{name}: {arr.dtype.str} {shape}")
        (out / "manifest.txt").write_text("\n".join(sorted(lines)) + "\n")
        (out / "summary.csv").write_text(self.summary_csv())

    @classmethod
    def load(cls, in_dir) -> "PosteriorDraws":
        from pathlib import Path

        src = Path(in_dir)
        meta: dict[str, str] = {}
        arrays: dict[str, np.ndarray] = {}
        for line in (src / "manifest.txt").read_text().splitlines():
            key, _, value = line.partition(": ")
            if key.startswith("meta."):
                meta[key[5:]] = value
            elif key.startswith("array."):
                name = key[6:]
                dtype, shape = value.split(" ")
                dims = tuple(int(d) for d in shape.split("x"))
                raw = (src / f"{name}.bin").read_bytes()
                arrays[name] = np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(dims)
        return cls(meta=meta, **arrays)

    def summary_csv(self) -> str:
        """Mean and quantiles for the scalar and per-coefficient symbols."""
        rows = ["parameter,mean,q05,q16,q50,q84,q95"]
        targets = (
            "alpha0", "sqrt_psi1", "sqrt_psi0", "sv_mu", "sv_phi", "sv_psi",
            "p00", "p11", "p_mix", "lam", "rho", "pool_xi", "pool_occupied",
        )
        for name in targets:
            arr = getattr(self, name)
            if arr is None:
                continue
            mat = arr.reshape(arr.shape[0], -1).astype(float)
            qs = np.quantile(mat, [0.05, 0.16, 0.5, 0.84, 0.95], axis=0)
            means = mat.mean(axis=0)
            for j in range(mat.shape[1]):
                label = name if mat.shape[1] == 1 else f"{name}[{j}]"
                cells = [means[j]] + [qs[i, j] for i in range(5)]
                rows.append(label + "," + ",".join(format(c, ".17g") for c in cells))
        return "\n".join(rows) + "\n"


def with_context(exc: ArithmeticError | ValueError, where: str) -> Exception:
    """An exception of the same type whose message is prefixed by ``where``."""
    return type(exc)(f"{where}: {exc}")


def _group_names(spec: ModelSpec) -> list[str]:
    if spec.model_class == CLASS_CONST_MIN:
        return []
    return [GROUP_MEANS] + [GROUP_SLAB, GROUP_SPIKE][: spec.n_variance_groups]


def run_chain(
    y: np.ndarray,
    x: np.ndarray,
    spec: ModelSpec,
    seed,
    init: EquationChainState | None = None,
) -> PosteriorDraws:
    """Run one equation's chain start to finish and collect the records.

    Sweeps ``burnin`` .. ``iterations - 1`` at step ``thin`` are recorded.
    ``_record`` alone decides what a record holds; each field's array is
    allocated from its first record's shape and dtype.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
        raise ValueError("data must be finite")
    T, K = x.shape
    if y.shape != (T,):
        raise ValueError("y and x disagree on the sample size")
    if T <= 2 * K:
        warnings.warn("sample shorter than twice the covariate count", stacklevel=2)

    rng = np.random.default_rng(seed)
    state = init if init is not None else init_equation_state(y, x, spec, rng)
    scales = make_scales(spec)

    n = len(range(spec.burnin, spec.iterations, spec.thin))
    rec: dict[str, np.ndarray] = {}
    slot = 0
    next_record = spec.burnin
    for it in range(spec.iterations):
        try:
            state = gibbs_sweep(y, x, spec, state, rng, scales, adapting=it < spec.burnin)
        except (ArithmeticError, ValueError) as exc:
            raise with_context(exc, f"iteration {it + 1}") from exc
        if it == next_record:
            for name, value in _record(state, spec).items():
                if name not in rec:
                    value = np.asarray(value)
                    rec[name] = np.empty((n,) + value.shape, dtype=value.dtype)
                rec[name][slot] = value
            slot += 1
            next_record += spec.thin
    assert slot == n

    meta = {
        "T": str(T),
        "K": str(K),
        "model_class": spec.model_class,
        "subclass": spec.subclass or "",
        "iterations": str(spec.iterations),
        "burnin": str(spec.burnin),
        "thin": str(spec.thin),
        "sv": str(int(spec.sv)),
        "groups": ",".join(_group_names(spec)),
        "n_records": str(n),
        "seed": " ".join(str(seed).split()),
    }
    return PosteriorDraws(meta=meta, **rec)


def _record(state: EquationChainState, spec: ModelSpec) -> dict:
    """What one record of the chain stores, keyed by ``PosteriorDraws`` field.

    The keys, shapes and dtypes of the first record fix the store's layout.
    """
    block, sv = state.block, state.sv
    out = {
        "alpha0": block.alpha0,
        "h": sv.h,
        "h0": sv.h0,
        "sv_mu": sv.mu,
        "sv_phi": sv.phi,
        "sv_psi": sv.psi,
    }
    if spec.is_tvp:
        alpha = reconstruct_centered(block, state.S, state.alpha_tilde)
        out["sqrt_psi1"] = block.sqrt_psi1
        if block.sqrt_psi0 is not None:
            out["sqrt_psi0"] = block.sqrt_psi0
        if spec.store_paths:
            out["alpha"] = alpha
        out["alpha_last"] = alpha[-1]
    else:
        out["alpha_last"] = block.alpha0
    names = _group_names(spec)
    if names:
        out["lam"] = [state.ng.lam[g] for g in names]
        out["rho"] = [state.ng.rho[g] for g in names]
    if state.S is not None:
        if spec.store_paths:
            out["S"] = state.S
        out["S_last"] = state.S[-1]
        if spec.law == LAW_MS:
            out["p00"] = state.p00
            out["p11"] = state.p11
        else:
            out["p_mix"] = state.p_mix
    if state.pool is not None:
        pool = state.pool
        out["pool_omega"] = pool.omega
        out["pool_xi"] = pool.xi
        out["pool_theta"] = pool.theta
        out["pool_mu"] = pool.mu
        out["pool_occupied"] = int(np.sum(pool.occupancy() > 0))
    return out


def sample_prior_state(
    x: np.ndarray, spec: ModelSpec, rng: np.random.Generator
) -> EquationChainState:
    """Draw every sampled symbol from its prior (non-pooled classes).

    The pooled law scales its mean prior by the empirical range of the
    states, so it has no closed prior to simulate from here.
    """
    if spec.model_class == CLASS_POOL:
        raise ValueError("the pooled law has an empirical prior component")
    if spec.model_class == CLASS_CONST_MIN:
        raise ValueError("the Minnesota benchmark has fixed, not sampled, scales")
    T, K = x.shape
    names = _group_names(spec)
    rho = {n: float(rng.exponential(1.0)) for n in names}
    lam = {n: float(rng.gamma(shape=spec.zeta, scale=1.0 / spec.zeta)) for n in names}
    width = spec.block_width(K)
    ng = default_ng_hyper(K, spec.n_variance_groups, spec.zeta)
    tau = np.empty(width)
    for name, idx in ng.groups.items():
        tau[idx] = rng.gamma(shape=rho[name], scale=2.0 / (rho[name] * lam[name]), size=idx.size)
    tau = np.maximum(tau, 1e-12)
    ng = replace(ng, tau=tau, lam=lam, rho=rho)
    coefs = rng.normal(size=width) * np.sqrt(tau)

    spike = (
        np.sqrt(spec.kappa * ar_ols_variances(x, spec.p))
        if spec.subclass == SUB_SSVS_MIX
        else None
    )
    block = _block_from_coefs(coefs, spec, spike)

    p00 = p11 = None
    p_mix = None
    S = None
    if spec.law == LAW_MS:
        counts = spec.default_ms_counts()
        p00 = float(rng.beta(counts.c00, counts.c10))
        p11 = float(rng.beta(counts.c01, counts.c11))
        s = simulate_ms_chain(p00, p11, T, rng)
        S = np.repeat(s[:, None], K, axis=1).astype(np.int8)
    elif spec.law == LAW_MIX:
        counts = spec.default_bernoulli_counts()
        p_mix = rng.beta(counts.c0, counts.c1, size=K)
        S = (rng.random(size=(T, K)) < p_mix).astype(np.int8)

    if spec.is_tvp:
        Phi = build_phi(_phi_diagonals(spec, S, T, K))
        alpha_tilde = solve_lower(Phi, rng.normal(size=T * K)).reshape(T, K)
    else:
        alpha_tilde = np.zeros((T, K))
    sv = sample_sv_prior(T, rng, spec.sv_priors)
    return EquationChainState(
        block=block,
        alpha_tilde=alpha_tilde,
        S=S,
        p00=p00,
        p11=p11,
        p_mix=p_mix,
        ng=ng,
        sv=sv,
        pool=None,
    )


def simulate_observations(
    x: np.ndarray, spec: ModelSpec, state: EquationChainState, rng: np.random.Generator
) -> np.ndarray:
    """Draw y given the current latent state (the measurement equation)."""
    T, K = x.shape
    if spec.is_tvp:
        alpha = reconstruct_centered(state.block, state.S, state.alpha_tilde)
    else:
        alpha = np.broadcast_to(state.block.alpha0, (T, K))
    return (x * alpha).sum(axis=1) + state.sv.sigma() * rng.normal(size=T)
