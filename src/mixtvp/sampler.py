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
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .banded import build_phi
from .indicators import (
    BernoulliCounts,
    MsCounts,
    bernoulli_posterior_params,
    sample_indicators_mix,
    sample_indicators_ms,
    transition_posterior_params,
    update_bernoulli_probs,
    update_transition_probs,
)
from .pool import PoolPriors, PoolState, initial_pool_state, pool_sweep
from .shrinkage import (
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
    sqrt_psi_matrix,
)
from .sv import (
    DEFAULT_SV_PRIORS,
    SvPriors,
    SvState,
    initial_sv_state,
    sv_sweep,
)

CLASS_MIX = "TVP-MIX"
CLASS_POOL = "TVP-POOL"
CLASS_RW = "TVP-RW"
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
        for name, n in (("ms_counts", 4), ("bernoulli_counts", 2)):
            counts = getattr(self, name)
            if counts is not None and (len(counts) != n or not all(0 < c < math.inf for c in counts)):
                raise ValueError(f"{name} needs {n} finite positive counts, got {tuple(counts)}")
        # a zero Minnesota scale pins its coefficients at 0
        for name in ("minnesota_own", "minnesota_cross", "minnesota_level"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        # zeta = 0 and kappa = 0 are limits the samplers handle
        for name in ("zeta", "kappa"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")

    @property
    def is_tvp(self) -> bool:
        return self.model_class in TVP_CLASSES

    @property
    def ar(self) -> tuple[int, int]:
        """The normalized state's AR coefficient in regime 0 and in regime 1.

        The class decides, not the drawn regimes: the random walk carries the
        state in both regimes and a mixture with a law in the slab regime
        only, while the pooled law, the single-variance mixture and the
        constant classes carry it in neither.
        """
        if self.model_class == CLASS_RW:
            return 1, 1
        if self.model_class == CLASS_MIX and self.law is not None:
            return 0, 1
        return 0, 0

    @property
    def carries(self) -> bool:
        """Whether some regime carries the normalized state from period to period.

        A two-regime mixture keeps its coupling even when every S_t is 0.
        """
        return any(self.ar)

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
    """All sampled quantities of one equation's chain.

    ``S`` holds the int8 regimes: (T, 1) under the Markov-switching law,
    whose one chain moves all K coefficients together, (T, K) under the
    mixture law, and None without a law.  The store keeps that layout.
    """

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
    """What the sweeps of one chain share.

    The adaptive proposal scales, plus the values that follow from the
    spec alone (indicator prior counts, pool priors, the Minnesota prior's
    variances), built once per chain instead of once per sweep.
    """

    rho: list[MhScale]
    xi: MhScale | None = None
    ms_counts: MsCounts | None = None
    bernoulli_counts: BernoulliCounts | None = None
    pool_priors: PoolPriors | None = None
    prior_variances: np.ndarray | None = None


def make_scales(spec: ModelSpec) -> SweepScales:
    pool = spec.model_class == CLASS_POOL
    scales = SweepScales(
        rho=[MhScale(scale=0.4) for _ in _group_names(spec)],
        xi=MhScale(scale=0.3) if pool else None,
        ms_counts=spec.default_ms_counts() if spec.law == LAW_MS else None,
        bernoulli_counts=spec.default_bernoulli_counts() if spec.law == LAW_MIX else None,
        pool_priors=spec.pool_priors() if pool else None,
    )
    if spec.model_class == CLASS_CONST_MIN:
        if spec.prior_variances is None:
            raise ValueError("the Minnesota benchmark needs prior variances")
        scales.prior_variances = np.asarray(spec.prior_variances, dtype=float)
    return scales


def _block_from_coefs(
    coefs: np.ndarray, spec: ModelSpec, fixed_spike: np.ndarray | None = None
) -> ConstantBlock:
    """Unpack sampled block coefficients: K means, then one K-slice per root group.

    The layout follows ``default_ng_hyper``: means, slab roots, spike roots.
    SSVS-MIX samples no spike roots; its fixed ones come in ``fixed_spike``.
    """
    K = coefs.shape[0] // (1 + spec.n_variance_groups)
    parts = [coefs[j: j + K] for j in range(0, coefs.shape[0], K)]
    if spec.subclass == SUB_SSVS_MIX:
        parts.append(fixed_spike)
    return ConstantBlock(*parts)


def _fixed_spike(x: np.ndarray, spec: ModelSpec) -> np.ndarray | None:
    """SSVS-MIX's unsampled spike roots, sqrt(kappa) times each covariate's AR residual sd."""
    if spec.subclass != SUB_SSVS_MIX:
        return None
    return np.sqrt(spec.kappa * ar_ols_variances(x, spec.p))


def _draw_block_and_ng(y, x, spec, state, rng, scales, adapting):
    """Step 1: constant block plus the full shrinkage hierarchy.

    The Minnesota benchmark draws its block under the fixed prior
    variances and keeps no hierarchy.
    """
    T, K = x.shape
    sigma = state.sv.sigma()
    if spec.model_class == CLASS_CONST_MIN:
        coefs = draw_constant_block(y, x, sigma, scales.prior_variances, rng)
        return _block_from_coefs(coefs, spec), state.ng
    xhat = build_design_rows(x, state.alpha_tilde, state.S) if spec.is_tvp else x
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
    lam, rho = [], []
    for g, scale in enumerate(scales.rho):
        tau_g = tau[g * K: (g + 1) * K]
        lam.append(draw_lambda(tau_g, ng.rho[g], ng.zeta, rng))
        rho_g, accepted = update_rho(tau_g, lam[g], ng.rho[g], scale.scale, rng)
        rho.append(rho_g)
        scale.record(accepted, adapting)

    return _block_from_coefs(coefs, spec, state.block.sqrt_psi0), NgHyper(tau, lam, rho, ng.zeta)


def ar_subdiagonal(spec: ModelSpec, S: np.ndarray | None, T: int) -> np.ndarray | None:
    """Phi's (T-1, columns) subdiagonal under the regimes S, or None (Phi = I).

    Period t's AR diagonal is ``spec.ar`` at S_t.  A law whose regimes
    share one coefficient gives every coefficient one column, whatever S.
    """
    if not spec.carries:
        return None
    ar0, ar1 = spec.ar
    return build_phi(np.full((T, 1), ar1) if ar0 == ar1 else np.where(S == 1, ar1, ar0))


def _draw_states(y, x, spec, block, roots, state, rng):
    """Step 2: normalized path through the static representation.

    ``roots`` are the (T, K) ``sqrt_psi_matrix`` of the block and the
    incoming regimes; the state loadings are x * roots over the volatility.
    """
    T, K = x.shape
    sigma = state.sv.sigma()
    wtilde = x * roots / sigma[:, None]
    sub = ar_subdiagonal(spec, state.S, T)
    if spec.model_class == CLASS_POOL:
        a0 = state.pool.prior_mean_stack().reshape(-1)
    else:
        a0 = np.zeros(T * K)
    ytilde = (y - x @ block.alpha0) / sigma
    draw = draw_states_fast(ytilde, wtilde, a0, sub, rng)
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


def _update_indicators(alpha, spec, block, state, rng, scales):
    """Step 4: regime indicators in the centered parameterization."""
    pool_means = (
        state.pool.prior_mean_stack() if spec.model_class == CLASS_POOL else None
    )
    # probabilities first, from the incoming regimes: a warm-start spell
    # then faces transition odds that already count it, not bare prior odds
    if spec.law == LAW_MS:
        p00, p11 = update_transition_probs(
            state.S[:, 0], scales.ms_counts, rng
        )
        s = sample_indicators_ms(alpha, block, p00, p11, spec.ar, rng, pool_means)
        return s[:, None], p00, p11, state.p_mix
    p_mix = update_bernoulli_probs(state.S, scales.bernoulli_counts, rng)
    S = sample_indicators_mix(alpha, block, p_mix, spec.ar, rng, pool_means, S=state.S)
    return S, state.p00, state.p11, p_mix


def gibbs_sweep(
    y: np.ndarray,
    x: np.ndarray,
    spec: ModelSpec,
    state: EquationChainState,
    rng: np.random.Generator,
    scales: SweepScales,
    adapting: bool = False,
) -> EquationChainState:
    """One full pass over all conditionals; the state is replaced atomically.

    The constant benchmarks skip the state, indicator and pool steps: their
    coefficients are the block's means in every period.
    """
    T, K = x.shape
    # each step gets what this sweep drew as arguments and reads the rest from
    # the incoming state, so the sweep builds its result once, at the end
    block, ng = _draw_block_and_ng(y, x, spec, state, rng, scales, adapting)
    alpha_tilde = state.alpha_tilde
    alpha = np.broadcast_to(block.alpha0, (T, K))
    if spec.is_tvp:
        # one set of roots from the incoming regimes serves the state draw
        # and the centered paths (``reconstruct_centered``) built from it
        roots = sqrt_psi_matrix(block, state.S, T)
        alpha_tilde = _draw_states(y, x, spec, block, roots, state, rng)
        alpha = block.alpha0 + roots * alpha_tilde
    sv = _update_volatility(y, x, alpha, spec, state.sv, rng)

    S, p00, p11, p_mix = state.S, state.p00, state.p11, state.p_mix
    if spec.law is not None:
        S, p00, p11, p_mix = _update_indicators(alpha, spec, block, state, rng, scales)
        alpha_tilde = normalized_from_centered(block, S, alpha)

    pool = state.pool
    if spec.model_class == CLASS_POOL:
        pool = pool_sweep(alpha_tilde, pool, scales.pool_priors, rng, scales.xi, adapting)
    return EquationChainState(
        block=block, alpha_tilde=alpha_tilde, S=S, p00=p00, p11=p11,
        p_mix=p_mix, ng=ng, sv=sv, pool=pool,
    )


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

    roots = [np.full(K, ROOT_INIT), np.full(K, ROOT_INIT / 2)][: spec.n_variance_groups]
    block = _block_from_coefs(np.concatenate([beta, *roots]), spec, _fixed_spike(x, spec))

    if spec.law is None:
        S = None
    else:
        # one chain per equation under the joint law, one per coefficient otherwise
        S = np.ones((T, K if spec.law == LAW_MIX else 1), dtype=np.int8)
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
    # the probabilities start at their prior means: the Beta parameters at zero counts
    p00 = p11 = p_mix = None
    if spec.law == LAW_MS:
        (a0, b0), (a1, b1) = transition_posterior_params(np.zeros(1, dtype=np.int8), spec.default_ms_counts())
        p00, p11 = a0 / (a0 + b0), a1 / (a1 + b1)
    elif spec.law == LAW_MIX:
        a, b = bernoulli_posterior_params(np.zeros((0, K), dtype=np.int8), spec.default_bernoulli_counts())
        p_mix = a / (a + b)

    if spec.model_class == CLASS_CONST_MIN:
        ng = None
    else:
        ng = default_ng_hyper(K, spec.n_variance_groups, spec.zeta)
        # Start the local/global scales on the regime geometry of the
        # root inits.  With tau at 1 the first block draw hands an
        # unidentified spike root a unit-scale value, which swaps the
        # regime labels before any identification exists.
        inits = (ROOT_INIT**2, (ROOT_INIT / 2) ** 2)[: spec.n_variance_groups]
        for g, scale in enumerate(inits, start=1):
            ng.tau[g * K: (g + 1) * K] = scale
            ng.lam[g] = 2.0 / scale
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

    # every field but meta, in declaration order; set below the class
    ARRAY_FIELDS: ClassVar[tuple[str, ...]]

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
        """Mean and quantiles for the scalar and per-coefficient symbols.

        The quantiles of every column come from one ``np.quantile`` over
        the columns side by side, which partitions that one copy in place;
        the means are taken per symbol.
        """
        rows = ["parameter,mean,q05,q16,q50,q84,q95"]
        targets = (
            "alpha0", "sqrt_psi1", "sqrt_psi0", "sv_mu", "sv_phi", "sv_psi",
            "p00", "p11", "p_mix", "lam", "rho", "pool_xi", "pool_occupied",
        )
        labels, means, mats = [], [], []
        for name in targets:
            arr = getattr(self, name)
            if arr is None:
                continue
            mat = arr.reshape(arr.shape[0], -1)
            mats.append(mat)
            means.extend(mat.astype(float).mean(axis=0).tolist())
            labels.extend([name] if mat.shape[1] == 1 else [f"{name}[{j}]" for j in range(mat.shape[1])])
        stacked = np.hstack(mats).astype(float, copy=False)
        qs = np.quantile(stacked, [0.05, 0.16, 0.5, 0.84, 0.95], axis=0, overwrite_input=True).T.tolist()
        for label, mean, q in zip(labels, means, qs):
            rows.append(label + "," + ",".join(format(c, ".17g") for c in [mean, *q]))
        return "\n".join(rows) + "\n"


PosteriorDraws.ARRAY_FIELDS = tuple(f.name for f in fields(PosteriorDraws) if f.name != "meta")


def with_context(exc: ArithmeticError | ValueError, where: str) -> Exception:
    """An exception of the same type whose message is prefixed by ``where``."""
    return type(exc)(f"{where}: {exc}")


def _group_names(spec: ModelSpec) -> list[str]:
    """The hierarchy's groups in block order: means, then slab and spike roots."""
    if spec.model_class == CLASS_CONST_MIN:
        return []
    return ["a", "psi1", "psi0"][: 1 + spec.n_variance_groups]


def run_chain(
    y: np.ndarray,
    x: np.ndarray,
    spec: ModelSpec,
    seed,
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
    state = init_equation_state(y, x, spec, rng)
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
    if state.ng is not None:
        out["lam"] = state.ng.lam
        out["rho"] = state.ng.rho
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

