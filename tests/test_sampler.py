"""Tests for the per-equation chain orchestrator.

The two heavy checks are a full-chain comparison of the random-walk
single-variance cell against an independently coded centered sampler,
and a successive-conditional prior-reproduction run that exercises every
update of the mixture cell jointly.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

import mixtvp.sampler as sampler
from mixtvp.dgp import generate_var_break
from mixtvp.sampler import (
    CLASS_CONST_MIN,
    CLASS_CONST_NG,
    CLASS_MIX,
    CLASS_POOL,
    CLASS_RW,
    SUB_FLEX_MS,
    SUB_SINGLE,
    EquationChainState,
    ModelSpec,
    PosteriorDraws,
    best_single_split,
    gibbs_sweep,
    init_equation_state,
    make_scales,
    run_chain,
)
from mixtvp.sv import SvPriors
from mixtvp.var import split_equations
from oracles import carter_kohn_tvp, split_scan_lstsq
from prior_draws import sample_prior_state, simulate_observations


def test_const_ng_conjugate_recovery():
    rng = np.random.default_rng(42)
    T, K = 200, 3
    x = np.column_stack([rng.normal(size=(T, K - 1)), np.ones(T)])
    beta = np.array([1.5, -2.0, 0.7])
    y = x @ beta + 0.1 * rng.normal(size=T)
    spec = ModelSpec(model_class=CLASS_CONST_NG, iterations=1500, burnin=500)
    draws = run_chain(y, x, spec, seed=3)
    mean = draws.alpha0.mean(axis=0)
    sd = draws.alpha0.std(axis=0, ddof=1)
    assert np.all(np.abs(mean - beta) < 3.0 * sd + 0.02)


def test_record_count_and_thinning():
    rng = np.random.default_rng(0)
    T = 30
    x = np.column_stack([rng.normal(size=T)])
    y = rng.normal(size=T)
    spec = ModelSpec(
        model_class=CLASS_RW, subclass=SUB_SINGLE, iterations=10, burnin=5
    )
    assert run_chain(y, x, spec, seed=1).n_records == 5
    spec2 = ModelSpec(
        model_class=CLASS_RW, subclass=SUB_SINGLE, iterations=10, burnin=5, thin=2
    )
    assert run_chain(y, x, spec2, seed=1).n_records == 3


def test_determinism_and_store_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    T = 40
    x = np.column_stack([rng.normal(size=T), np.ones(T)])
    y = rng.normal(size=T)
    spec = ModelSpec(
        model_class=CLASS_MIX, subclass=SUB_FLEX_MS, iterations=40, burnin=20
    )
    a = run_chain(y, x, spec, seed=99)
    b = run_chain(y, x, spec, seed=99)
    for name in a.ARRAY_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        if va is not None:
            np.testing.assert_array_equal(va, vb)

    a.save(tmp_path / "store")
    loaded = type(a).load(tmp_path / "store")
    assert loaded.meta == a.meta
    for name in a.ARRAY_FIELDS:
        va, vb = getattr(a, name), getattr(loaded, name)
        if va is None:
            assert vb is None
        else:
            np.testing.assert_array_equal(va, vb)

    b.save(tmp_path / "store2")
    for f in sorted(p.name for p in (tmp_path / "store").iterdir()):
        assert (tmp_path / "store" / f).read_bytes() == (tmp_path / "store2" / f).read_bytes()


def test_config_validation():
    with pytest.raises(ValueError):
        ModelSpec(model_class="NOPE")
    with pytest.raises(ValueError):
        ModelSpec(model_class=CLASS_POOL)
    with pytest.raises(ValueError):
        ModelSpec(model_class=CLASS_CONST_NG, subclass=SUB_SINGLE)
    with pytest.raises(ValueError):
        ModelSpec(model_class=CLASS_MIX, subclass=SUB_FLEX_MS, iterations=5, burnin=5)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 1))
    y = rng.normal(size=20)
    spec = ModelSpec(model_class=CLASS_CONST_MIN, iterations=4, burnin=1)
    with pytest.raises(ValueError):
        run_chain(y, x, spec, seed=0)
    with pytest.raises(ValueError):
        run_chain(np.r_[y[:-1], np.nan], x, spec, seed=0)


def test_config_refuses_hyperparameters_that_give_a_wrong_answer_by_name():
    # a zero Minnesota scale pins its coefficients at 0; the other values
    # stop mid-chain with a message that names no field
    bad = [
        ("minnesota_own", 0.0), ("minnesota_own", -0.2), ("minnesota_own", np.inf), ("minnesota_own", np.nan),
        ("minnesota_cross", 0.0), ("minnesota_cross", np.inf),
        ("minnesota_level", 0.0), ("minnesota_level", np.nan),
        ("zeta", -1.0), ("zeta", np.nan), ("zeta", np.inf),
        ("kappa", -1.0), ("kappa", np.inf),
    ]
    for field, value in bad:
        with pytest.raises(ValueError, match=f"^{field} must be finite and "):
            ModelSpec(model_class=CLASS_MIX, subclass="SSVS-MIX", **{field: value})
    # zero zeta and kappa run, and stay allowed
    for field in ("zeta", "kappa"):
        assert getattr(ModelSpec(model_class=CLASS_MIX, subclass="SSVS-MIX", **{field: 0.0}), field) == 0.0


@pytest.mark.parametrize(
    "model_class, subclass, ar",
    [(CLASS_RW, sub, (1, 1)) for sub in ("FLEX-MS", "FLEX-MIX", "SINGLE", "SSVS-MIX")]
    + [(CLASS_MIX, "FLEX-MS", (0, 1)), (CLASS_MIX, "FLEX-MIX", (0, 1)), (CLASS_MIX, "SINGLE", (0, 0)),
       (CLASS_MIX, "SSVS-MIX", (0, 1))]
    + [(CLASS_POOL, sub, (0, 0)) for sub in ("FLEX-MS", "FLEX-MIX", "SINGLE", "SSVS-MIX")]
    + [(CLASS_CONST_NG, None, (0, 0)), (CLASS_CONST_MIN, None, (0, 0))],
)
def test_law_of_motion_per_cell(model_class, subclass, ar):
    # the normalized state's AR coefficient in regime 0, then in regime 1
    spec = ModelSpec(model_class=model_class, subclass=subclass)
    assert spec.ar == ar
    assert spec.carries == (ar != (0, 0))


def test_rw_single_band_coverage():
    """Random-walk DGP: 68% bands on the centered path cover >= 55% of t."""
    rng = np.random.default_rng(2024)
    T, K = 150, 1
    x = rng.normal(size=(T, K))
    path = np.cumsum(0.2 * rng.normal(size=T)) + 1.0
    y = x[:, 0] * path + 0.3 * rng.normal(size=T)
    spec = ModelSpec(
        model_class=CLASS_RW, subclass=SUB_SINGLE, iterations=2000, burnin=700
    )
    draws = run_chain(y, x, spec, seed=11)
    lo = np.quantile(draws.alpha[:, :, 0], 0.16, axis=0)
    hi = np.quantile(draws.alpha[:, :, 0], 0.84, axis=0)
    coverage = np.mean((path >= lo) & (path <= hi))
    assert coverage >= 0.55


class CenteredRwChains:
    """Independently coded centered sampler for the RW single-variance cell.

    Same model, different route: Kalman-filter FFBS for the path, direct
    conjugate updates elsewhere, GIG draws through scipy.  Used only to
    cross-validate the non-centered machinery.  ``n`` chains on the same
    data run in lockstep from one generator: every conditional is drawn
    for all chains at once, through one Kalman FFBS with a chain axis and
    one array-parameter ``geninvgauss.rvs`` call per GIG step.
    """

    def __init__(self, y, x, zeta, n, rng):
        self.y, self.x, self.zeta, self.rng = y, x, zeta, rng
        K = x.shape[1]
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        self.alpha0 = np.tile(beta, (n, 1))
        self.psi = np.full((n, K), 0.01)
        self.tau = {"a": np.ones((n, K)), "r": np.ones((n, K))}
        self.lam = {"a": np.ones(n), "r": np.ones(n)}
        self.rho = {"a": np.full(n, 0.5), "r": np.full(n, 0.5)}
        self.sigma2 = np.full(n, float(np.var(y - x @ beta) + 1e-4))

    def _gig(self, a, b, c):
        a, b, c = np.broadcast_arrays(a, b, c)
        z = stats.geninvgauss.rvs(a, np.sqrt(b * c), random_state=self.rng)
        return np.maximum(z * np.sqrt(c / b), 1e-12)

    def _rho_step(self, which):
        rho, lam, tau = self.rho[which], self.lam[which], self.tau[which]
        prop = rho * np.exp(0.4 * self.rng.normal(size=rho.shape))
        p = tau.shape[1]

        def logt(r):
            return (
                p * (r * np.log(r * lam / 2.0) - gammaln(r))
                + (r - 1.0) * np.log(tau).sum(axis=1)
                - 0.5 * r * lam * tau.sum(axis=1)
                - r
            )

        accept = np.log(self.rng.random(rho.shape)) < logt(prop) - logt(rho) + np.log(prop / rho)
        self.rho[which] = np.where(accept, prop, rho)

    def sweep(self):
        T, K = self.x.shape
        sig = np.repeat(np.sqrt(self.sigma2)[:, None], T, axis=1)
        path = carter_kohn_tvp(self.y, self.x, self.psi, self.alpha0, sig, self.rng)
        # alpha0 enters only through the initial state
        prec = 1.0 / self.tau["a"] + 1.0 / self.psi
        mean = (path[:, 0] / self.psi) / prec
        self.alpha0 = mean + self.rng.normal(size=mean.shape) / np.sqrt(prec)
        diffs = np.concatenate([path[:, :1] - self.alpha0[:, None], np.diff(path, axis=1)], axis=1)
        sse = (diffs**2).sum(axis=1)
        self.psi = self._gig(0.5 * (1 - T), 1.0 / self.tau["r"], sse)
        rho_a, rho_r = self.rho["a"][:, None], self.rho["r"][:, None]
        self.tau["a"] = self._gig(rho_a - 0.5, rho_a * self.lam["a"][:, None], self.alpha0**2)
        self.tau["r"] = self._gig(rho_r - 0.5, rho_r * self.lam["r"][:, None], self.psi)
        for which in ("a", "r"):
            rho, tau = self.rho[which], self.tau[which]
            self.lam[which] = self.rng.gamma(
                shape=self.zeta + rho * K, scale=1.0 / (self.zeta + 0.5 * rho * tau.sum(axis=1))
            )
            self._rho_step(which)
        resid = self.y - (self.x * path).sum(axis=2)
        shape = 0.01 + 0.5 * T
        rate = 0.01 + 0.5 * (resid**2).sum(axis=1)
        self.sigma2 = 1.0 / self.rng.gamma(shape=shape, scale=1.0 / rate)


def test_rw_single_matches_centered_oracle():
    """Posterior means agree across 20 seeds (two-sample test at 1%)."""
    rng = np.random.default_rng(777)
    T, K = 40, 1
    x = rng.normal(size=(T, K))
    path = np.cumsum(0.25 * rng.normal(size=T)) + 0.5
    y = x[:, 0] * path + 0.4 * rng.normal(size=T)
    iters, burn = 1200, 400

    spec = ModelSpec(
        model_class=CLASS_RW,
        subclass=SUB_SINGLE,
        sv=False,
        iterations=iters,
        burnin=burn,
    )
    mine = {"alpha0": [], "psi": [], "sigma2": []}
    for seed in range(20):
        d = run_chain(y, x, spec, seed=1000 + seed)
        mine["alpha0"].append(d.alpha0.mean())
        mine["psi"].append((d.sqrt_psi1**2).mean())
        mine["sigma2"].append(np.exp(d.h).mean())

    # 20 oracle chains in lockstep, each averaged over its kept sweeps
    chains = CenteredRwChains(y, x, zeta=0.01, n=20, rng=np.random.default_rng(5000))
    other = {"alpha0": np.zeros(20), "psi": np.zeros(20), "sigma2": np.zeros(20)}
    for j in range(iters):
        chains.sweep()
        if j >= burn:
            other["alpha0"] += chains.alpha0[:, 0]
            other["psi"] += chains.psi[:, 0]
            other["sigma2"] += chains.sigma2
    other = {k: v / (iters - burn) for k, v in other.items()}

    for k in mine:
        t, p = stats.ttest_ind(mine[k], other[k], equal_var=False)
        assert p > 0.01, (k, np.mean(mine[k]), np.mean(other[k]), p)


def test_geweke_prior_reproduction():
    """Sweeping on self-generated data must keep prior marginals intact."""
    rng = np.random.default_rng(20240817)
    T, K = 30, 2
    x = np.column_stack([rng.normal(size=T), np.ones(T)])
    spec = ModelSpec(
        model_class=CLASS_MIX,
        subclass=SUB_FLEX_MS,
        zeta=1.0,
        iterations=2,
        burnin=1,
        sv_priors=SvPriors(mu_var=1.0),
    )
    scales = make_scales(spec)
    state = sample_prior_state(x, spec, rng)
    y = simulate_observations(x, spec, state, rng)
    n_sweep, burn = 6000, 500
    rec_p = np.empty((n_sweep, 2))
    rec_lam = np.empty((n_sweep, 3))
    for j in range(n_sweep + burn):
        state = gibbs_sweep(y, x, spec, state, rng, scales, adapting=False)
        y = simulate_observations(x, spec, state, rng)
        if j >= burn:
            rec_p[j - burn] = (state.p00, state.p11)
            rec_lam[j - burn] = state.ng.lam

    def mc_se(v):
        # Monte Carlo standard error of the mean by Geyer's (1992) initial
        # monotone sequence: sums of adjacent autocovariance pairs, cut at
        # the first non-positive one and made non-increasing
        n = v.size
        f = np.fft.rfft(v - v.mean(), 2 * n)
        acov = np.fft.irfft(f * np.conj(f), 2 * n)[:n] / n
        pairs = acov[: n - n % 2].reshape(-1, 2).sum(axis=1)
        k = int(np.argmax(pairs <= 0.0)) if np.any(pairs <= 0.0) else pairs.size
        return np.sqrt((2.0 * np.minimum.accumulate(pairs[:k]).sum() - acov[0]) / n)

    counts = spec.default_ms_counts()
    want_p00 = counts.c00 / (counts.c00 + counts.c10)
    want_p11 = counts.c01 / (counts.c01 + counts.c11)
    assert abs(rec_p[:, 0].mean() - want_p00) < 6 * mc_se(rec_p[:, 0]) + 2e-3
    assert abs(rec_p[:, 1].mean() - want_p11) < 6 * mc_se(rec_p[:, 1]) + 2e-3
    # lambda ~ Gamma(1, 1) under zeta = 1: mean 1
    for g in range(3):
        assert abs(rec_lam[:, g].mean() - 1.0) < 6 * mc_se(rec_lam[:, g]) + 0.02


@pytest.mark.parametrize("model_class, subclass", [(CLASS_MIX, SUB_FLEX_MS), (CLASS_CONST_NG, None)])
def test_sweep_keeps_the_fixed_group_layout(model_class, subclass):
    # every sweep builds a new hierarchy with one lam and rho per group and
    # one positive local scale per block entry, G groups of K entries
    rng = np.random.default_rng(6)
    T, K = 40, 2
    x = np.column_stack([rng.normal(size=T), np.ones(T)])
    y = x @ np.array([0.5, 1.0]) + 0.3 * rng.normal(size=T)
    spec = ModelSpec(model_class=model_class, subclass=subclass, iterations=2, burnin=1)
    state = init_equation_state(y, x, spec, rng)
    scales = make_scales(spec)
    G = 1 + spec.n_variance_groups
    for _ in range(3):
        new = gibbs_sweep(y, x, spec, state, rng, scales)
        assert new.ng is not state.ng
        assert len(new.ng.lam) == len(new.ng.rho) == len(scales.rho) == G
        assert new.ng.tau.shape == (G * K,) and np.all(new.ng.tau > 0.0)
        state = new


@pytest.mark.parametrize(
    "model_class, subclass, columns",
    [(CLASS_RW, SUB_SINGLE, 1), (CLASS_RW, SUB_FLEX_MS, 1), (CLASS_MIX, SUB_FLEX_MS, 1), (CLASS_MIX, "FLEX-MIX", 3)],
)
def test_sweep_hands_the_state_draw_one_ar_pattern_per_chain(monkeypatch, model_class, subclass, columns):
    # the random walk and the equation's one Markov-switching chain give all
    # K coefficients one AR pattern; the mixture law gives each its own
    rng = np.random.default_rng(12)
    T, K = 40, 3
    x = np.column_stack([rng.normal(size=(T, K - 1)), np.ones(T)])
    y = x @ np.array([0.5, -0.3, 1.0]) + 0.3 * rng.normal(size=T)
    spec = ModelSpec(model_class=model_class, subclass=subclass, iterations=2, burnin=1)
    state = init_equation_state(y, x, spec, rng)
    subs = []
    real = sampler.draw_states_fast

    def recording(ytilde, wtilde, a0, sub, rng):
        subs.append(sub.shape)
        return real(ytilde, wtilde, a0, sub, rng)

    monkeypatch.setattr(sampler, "draw_states_fast", recording)
    for _ in range(2):
        state = gibbs_sweep(y, x, spec, state, rng, make_scales(spec))
    assert subs == [(T - 1, columns)] * 2
    if spec.law is not None:
        assert state.S.shape == (T, columns)


def test_prior_state_and_observation_shapes():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 2))
    spec = ModelSpec(model_class=CLASS_MIX, subclass=SUB_FLEX_MS, iterations=2, burnin=1)
    state = sample_prior_state(x, spec, rng)
    assert isinstance(state, EquationChainState)
    # one regime chain for the equation, held once
    assert state.S.shape == (25, 1) and state.S.dtype == np.int8
    y = simulate_observations(x, spec, state, rng)
    assert y.shape == (25,) and np.all(np.isfinite(y))
    with pytest.raises(ValueError):
        sample_prior_state(x, ModelSpec(model_class=CLASS_POOL, subclass=SUB_FLEX_MS,
                                        iterations=2, burnin=1), rng)


def test_warns_on_short_sample():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(9, 5))
    y = rng.normal(size=9)
    spec = ModelSpec(model_class=CLASS_CONST_NG, iterations=4, burnin=2)
    with pytest.warns(UserWarning):
        run_chain(y, x, spec, seed=0)


def test_best_single_split_matches_lstsq_scan_on_var_break_equations():
    checked = 0
    for p in (2, 4):
        for seed in range(1, 41):
            for y, x in split_equations(generate_var_break(T=200, seed=seed).Y, p):
                assert best_single_split(y, x) == split_scan_lstsq(y, x), (p, seed, x.shape)
                checked += 1
    assert checked == 240


@pytest.mark.parametrize("zero_rows", [slice(0, 60), slice(-60, None)])
def test_best_single_split_keeps_lstsq_fit_on_rank_deficient_segments(zero_rows):
    # the last column is zero on the first (or last) 60 rows, so every head
    # (or tail) segment inside them has a singular X'X
    rng = np.random.default_rng(8)
    T = 160
    x = np.column_stack([rng.normal(size=(T, 3)), np.ones(T), rng.normal(size=T)])
    x[zero_rows, -1] = 0.0
    shift = np.where(np.arange(T) < 78, 0.0, 1.5)
    y = x @ np.array([0.5, -1.0, 0.3, 0.2, 0.8]) + shift + 0.3 * rng.normal(size=T)
    want = split_scan_lstsq(y, x)
    assert best_single_split(y, x) == want
    assert abs(want - 78) <= 3


def test_best_single_split_none_without_admissible_split():
    rng = np.random.default_rng(1)
    # candidates run over [K + 2, T - K - 2): none for T <= 2K + 4
    for T, K in [(10, 3), (5, 1), (12, 5)]:
        x, y = rng.normal(size=(T, K)), rng.normal(size=T)
        assert best_single_split(y, x) is None
        assert split_scan_lstsq(y, x) is None
    x, y = rng.normal(size=(9, 2)), rng.normal(size=9)
    assert best_single_split(y, x) == split_scan_lstsq(y, x) == 4


def test_init_state_layouts():
    rng = np.random.default_rng(10)
    x = np.column_stack([rng.normal(size=30), np.ones(30)])
    y = rng.normal(size=30)
    ssvs = ModelSpec(model_class=CLASS_RW, subclass="SSVS-MIX", iterations=2, burnin=1)
    st = init_equation_state(y, x, ssvs, rng)
    # fixed spike roots: zero for the constant column, tiny for the other
    assert st.block.sqrt_psi0[1] == 0.0
    assert 0.0 < st.block.sqrt_psi0[0] < 1e-2
    assert st.ng.tau.shape == (4,)
    single = ModelSpec(model_class=CLASS_MIX, subclass=SUB_SINGLE, iterations=2, burnin=1)
    st2 = init_equation_state(y, x, single, rng)
    assert st2.S is None and st2.block.sqrt_psi0 is None
    assert st2.ng.tau.shape == (4,)


# What a store holds per cell, beyond the fields every store has; a
# trailing * marks a per-period field kept only with store_paths.
STORE_LAYOUTS = [
    (CLASS_CONST_NG, None, "lam rho"),
    (CLASS_CONST_MIN, None, ""),
    (CLASS_MIX, "FLEX-MS", "sqrt_psi1 sqrt_psi0 alpha* lam rho S* S_last p00 p11"),
    (CLASS_MIX, "FLEX-MIX", "sqrt_psi1 sqrt_psi0 alpha* lam rho S* S_last p_mix"),
    (CLASS_MIX, "SINGLE", "sqrt_psi1 alpha* lam rho"),
    (CLASS_MIX, "SSVS-MIX", "sqrt_psi1 sqrt_psi0 alpha* lam rho S* S_last p_mix"),
    (CLASS_RW, "FLEX-MS", "sqrt_psi1 sqrt_psi0 alpha* lam rho S* S_last p00 p11"),
    (CLASS_RW, "FLEX-MIX", "sqrt_psi1 sqrt_psi0 alpha* lam rho S* S_last p_mix"),
    (CLASS_RW, "SINGLE", "sqrt_psi1 alpha* lam rho"),
    (CLASS_RW, "SSVS-MIX", "sqrt_psi1 sqrt_psi0 alpha* lam rho S* S_last p_mix"),
    (CLASS_POOL, "FLEX-MS", "sqrt_psi1 sqrt_psi0 alpha* lam rho S* S_last p00 p11 POOL"),
    (CLASS_POOL, "FLEX-MIX", "sqrt_psi1 sqrt_psi0 alpha* lam rho S* S_last p_mix POOL"),
    (CLASS_POOL, "SINGLE", "sqrt_psi1 alpha* lam rho POOL"),
    (CLASS_POOL, "SSVS-MIX", "sqrt_psi1 sqrt_psi0 alpha* lam rho S* S_last p_mix POOL"),
]
# root groups with lam/rho records: means, then slab and spike when sampled
LAYOUT_GROUPS = {None: 1, "FLEX-MS": 3, "FLEX-MIX": 3, "SINGLE": 2, "SSVS-MIX": 2}
ALWAYS_STORED = "alpha0 h h0 sv_mu sv_phi sv_psi alpha_last"
POOL_FIELDS = "pool_omega pool_xi pool_theta pool_mu pool_occupied"
# dtype and shape per field in the symbols n (records), T, K, G (groups), N
# (clusters), R (regime chains: one per equation under FLEX-MS, else K)
FIELD_LAYOUT = {
    "alpha0": ("float64", "nK"), "h": ("float64", "nT"), "h0": ("float64", "n"),
    "sv_mu": ("float64", "n"), "sv_phi": ("float64", "n"), "sv_psi": ("float64", "n"),
    "alpha_last": ("float64", "nK"), "sqrt_psi1": ("float64", "nK"),
    "sqrt_psi0": ("float64", "nK"), "alpha": ("float64", "nTK"),
    "S": ("int8", "nTR"), "S_last": ("int8", "nR"), "p00": ("float64", "n"),
    "p11": ("float64", "n"), "p_mix": ("float64", "nK"), "lam": ("float64", "nG"),
    "rho": ("float64", "nG"), "pool_omega": ("float64", "nN"), "pool_xi": ("float64", "n"),
    "pool_theta": ("int64", "nT"), "pool_mu": ("float64", "nNK"),
    "pool_occupied": ("int64", "n"),
}


@pytest.mark.parametrize("store_paths", [True, False])
@pytest.mark.parametrize("model_class,subclass,extra", STORE_LAYOUTS)
def test_stored_layout_per_cell(tmp_path, model_class, subclass, extra, store_paths):
    rng = np.random.default_rng(17)
    T, K = 30, 2
    x = np.column_stack([rng.normal(size=T), np.ones(T)])
    y = x @ np.array([0.5, 0.2]) + 0.3 * rng.normal(size=T)
    spec = ModelSpec(
        model_class=model_class, subclass=subclass, iterations=7, burnin=2, thin=2,
        store_paths=store_paths, n_clusters=4,
        prior_variances=(1.0, 1.0) if model_class == CLASS_CONST_MIN else None,
    )
    run_chain(y, x, spec, seed=5).save(tmp_path)
    draws = PosteriorDraws.load(tmp_path)

    want = set(ALWAYS_STORED.split())
    for name in extra.replace("POOL", POOL_FIELDS).split():
        if not name.endswith("*"):
            want.add(name)
        elif store_paths:
            want.add(name[:-1])
    held = {name for name in PosteriorDraws.ARRAY_FIELDS if getattr(draws, name) is not None}
    assert held == want
    sizes = {
        "n": 3, "T": T, "K": K, "G": LAYOUT_GROUPS[subclass], "N": 4,
        "R": 1 if subclass == "FLEX-MS" else K,
    }
    for name in held:
        dtype, dims = FIELD_LAYOUT[name]
        arr = getattr(draws, name)
        assert (name, arr.dtype, arr.shape) == (name, np.dtype(dtype), tuple(sizes[d] for d in dims))
