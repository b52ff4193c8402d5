"""Tests for the zero-frequency spectral summaries."""

import numpy as np
import pytest

import mixtvp.spectral
from mixtvp.spectral import (
    _SHORT_STACK,
    BAND_QUANTILES,
    STABILITY_MARGIN,
    CompanionForm,
    _companion_matrix,
    _inf_norms,
    _lag_sum,
    _nanquantile_columns,
    _power_screen,
    _stable_draws,
    bands_csv,
    companion,
    low_freq,
    low_freq_matrix,
    low_freq_path_bands,
)
from mixtvp.var import reduced_from_paths, structural_from_paths, structural_to_reduced
from oracles import low_freq_bands, spectral_radius


def _truncated_longrun(F, upsilon, J, L=4000):
    """Oracle: sum of autocovariances of the companion process.

    Gamma_0 solves the discrete Lyapunov fixed point by iteration;
    Pi(0) = sum_{k=-L}^{L} Gamma_k restricted to the observed block.
    """
    d = F.shape[0]
    gamma0 = np.zeros((d, d))
    term = upsilon.copy()
    for _ in range(20000):
        gamma0 += term
        term = F @ term @ F.T
        if np.max(np.abs(term)) < 1e-16:
            break
    total = gamma0.copy()
    Fk = np.eye(d)
    for _ in range(L):
        Fk = F @ Fk
        gk = Fk @ gamma0
        total += gk + gk.T
        if np.max(np.abs(gk)) < 1e-14:
            break
    return J @ total @ J.T


def test_companion_shapes_and_examples():
    A = np.array([[0.5, 0.2, 1.0], [0.1, 0.4, -1.0]])
    cf = companion(A, np.eye(2), p=1)
    np.testing.assert_array_equal(cf.F, A[:, :2])
    np.testing.assert_array_equal(cf.J, np.eye(2))

    a1, a2 = 0.5, 0.3
    cf2 = companion(np.array([[a1, a2, 0.0]]), np.array([[1.0]]), p=2)
    np.testing.assert_array_equal(cf2.F, [[a1, a2], [1.0, 0.0]])

    cf3 = companion(np.zeros((1, 3)), np.array([[1.0]]), p=2)
    assert cf3.is_stable() and spectral_radius(cf3.F) == 0.0
    with pytest.raises(ValueError):
        companion(np.zeros((2, 4)), np.eye(2), p=2)


def test_white_noise_case():
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    cf = companion(np.zeros((2, 3)), sigma, p=1)
    np.testing.assert_allclose(low_freq_matrix(cf), sigma, atol=1e-14)
    assert low_freq(cf, 0, 1) == pytest.approx(0.6 / 1.0, abs=1e-14)
    assert low_freq(cf, 1, 1) == pytest.approx(1.0, abs=1e-14)


def test_scalar_longrun_variance():
    cf = companion(np.array([[0.5, 0.0]]), np.array([[1.0]]), p=1)
    np.testing.assert_allclose(low_freq_matrix(cf), [[4.0]], atol=1e-12)


def test_matches_autocovariance_sum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, p = 2, 2
        while True:
            A = np.column_stack([0.4 * rng.normal(size=(m, m * p)), rng.normal(size=m)])
            cf_try = companion(A, np.eye(m), p)
            if spectral_radius(cf_try.F) < 0.95:
                break
        L = rng.normal(size=(m, m))
        sigma = L @ L.T + 0.5 * np.eye(m)
        cf = companion(A, sigma, p)
        got = low_freq_matrix(cf)
        want = _truncated_longrun(cf.F, cf.upsilon, cf.J)
        assert np.max(np.abs(got - want)) < 1e-6
        np.testing.assert_allclose(got, got.T, atol=1e-13)
        assert np.all(np.linalg.eigvalsh(got) > -1e-12)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_low_freq_lag_sum_inverse_matches_full_companion_solve(p):
    rng = np.random.default_rng(40 + p)
    m = 3
    n = 0
    while n < 10:
        A = np.column_stack([0.5 / p * rng.normal(size=(m, m * p)), rng.normal(size=m)])
        L = rng.normal(size=(m, m))
        cf = companion(A, L @ L.T + 0.1 * np.eye(m), p)
        if not cf.is_stable():
            continue
        n += 1
        # the whole (mp x mp) system, of which only the leading block is used
        lead = np.linalg.solve(np.eye(m * p) - cf.F, np.eye(m * p)[:, :m])[:m]
        want = lead @ cf.upsilon[:m, :m] @ lead.T
        np.testing.assert_allclose(low_freq_matrix(cf), want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_low_freq_matrix_refuses_a_non_companion_matrix():
    A = np.array([[0.5, 0.1, 0.1, 0.0, 0.0], [0.2, 0.3, 0.0, 0.1, 0.0]])
    cf = companion(A, 2.0 * np.eye(2), p=2)
    F = cf.F.copy()
    F[3, 1] = 0.4  # the identity block below the first m rows broken
    with pytest.raises(ValueError, match="not a companion matrix"):
        low_freq_matrix(CompanionForm(F=F, upsilon=cf.upsilon, J=cf.J))


def test_diagonal_var_has_no_cross_ratio():
    A = np.array([[0.5, 0.0, 0.0], [0.0, -0.3, 0.0]])
    cf = companion(A, np.diag([1.0, 2.0]), p=1)
    assert low_freq(cf, 0, 1) == pytest.approx(0.0, abs=1e-14)
    assert low_freq(cf, 1, 0) == pytest.approx(0.0, abs=1e-14)
    assert low_freq(cf, 0, 0) == 1.0 and low_freq(cf, 1, 1) == 1.0


def test_unstable_draws_flagged_and_excluded():
    stable = (np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]), np.eye(2))
    unit = (np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0]]), np.eye(2))
    cf = companion(unit[0], unit[1], p=1)
    assert not cf.is_stable()
    with pytest.raises(ValueError):
        low_freq_matrix(cf)
    qs, excl = low_freq_bands([stable, unit, stable], p=1, i=0, j=1, margin=STABILITY_MARGIN)
    assert excl == 1 and qs.shape == (3,)
    with pytest.raises(ValueError):
        low_freq_bands([unit], p=1, i=0, j=1, margin=STABILITY_MARGIN)
    # the same three draws as one period of three records, in structural
    # form (no contemporaneous terms, unit variances)
    A = np.stack([stable[0], unit[0], stable[0]])
    alphas = [A[:, None, 0], np.concatenate([np.zeros((3, 1, 1)), A[:, None, 1]], axis=-1)]
    bands, excluded = low_freq_path_bands(alphas, [np.ones((3, 1))] * 2, 1, 0, 1)
    assert excluded == excl
    np.testing.assert_array_equal(bands[0], qs)


def test_bands_csv_layout():
    # the bands' columns are the BAND_QUANTILES, lower first; the table puts the median first
    text = bands_csv(np.array([[0.5, 1.0, 1.5], [1.0, 2.0, 3.0]]), excluded=3)
    lines = text.strip().splitlines()
    assert BAND_QUANTILES == (0.16, 0.5, 0.84)
    assert lines[0] == "# excluded_unstable: 3"
    assert lines[1] == "t,median,q16,q84"
    assert lines[2:] == ["0,1,0.5,1.5", "1,2,1,3"]


def test_companion_form_radius_matches_eigvals():
    # CompanionForm.is_stable on one 2-D F, rescaled so that its spectral
    # radius sits on either side of 1 - margin, agrees with the eigvals radius
    rng = np.random.default_rng(1)
    F0 = rng.normal(size=(4, 4))
    F0 /= spectral_radius(F0)
    for margin in (0.0, STABILITY_MARGIN, 0.05):
        for radius in (0.5, 0.9, 0.98, 0.999, 1.001, 1.2):
            cf = CompanionForm(F=radius * F0, upsilon=np.eye(4), J=np.eye(4))
            assert cf.is_stable(margin) == (spectral_radius(cf.F) < 1.0 - margin)


def _tvp_paths(n, T, m=3, p=2, scale=0.3, seed=0):
    """Random (n, T, K_i) coefficient paths and (n, T) variances; some draws explode."""
    rng = np.random.default_rng(seed)
    alphas = [scale * rng.normal(size=(n, T, m * p + i + 1)) for i in range(m)]
    sigma2s = [rng.uniform(0.5, 2.0, size=(n, T)) for _ in range(m)]
    return alphas, sigma2s


def _reference_bands(alphas, sigma2s, p, i, j):
    """Per-draw loop: structural -> reduced per record, then the band oracle per period."""
    n, T = sigma2s[0].shape
    draws = [structural_from_paths([a[r] for a in alphas], [s[r] for s in sigma2s]) for r in range(n)]
    rows, excluded = [], 0
    for t in range(T):
        qs, excl = low_freq_bands([structural_to_reduced(d, t) for d in draws], p, i, j, STABILITY_MARGIN)
        rows.append(qs)
        excluded += excl
    return np.array(rows), excluded


@pytest.mark.parametrize("block_draws", [4096, 7])
def test_path_bands_match_per_draw_reference(monkeypatch, block_draws):
    # 7 draws per block splits the 11 periods of 5 records into blocks of one
    monkeypatch.setattr(mixtvp.spectral, "_BLOCK_DRAWS", block_draws)
    alphas, sigma2s = _tvp_paths(n=5, T=11)
    want, want_excluded = _reference_bands(alphas, sigma2s, 2, 0, 2)
    got, excluded = low_freq_path_bands(alphas, sigma2s, 2, 0, 2)
    assert 0 < excluded < 5 * 11
    assert excluded == want_excluded
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_path_bands_name_the_all_unstable_period():
    alphas, sigma2s = _tvp_paths(n=4, T=6, scale=0.1)
    alphas[0][:, 3, 0] = 1.5  # own first lag of variable 1 explodes at t=3 in every record
    bands, excluded = low_freq_path_bands(alphas, sigma2s, 2, 0, 1)
    # that period's row is NaN and its 4 draws are counted; the others are bands
    assert np.isnan(bands[3]).all()
    assert np.isfinite(np.delete(bands, 3, axis=0)).all()
    assert excluded == 4
    clean, _ = low_freq_path_bands(*_tvp_paths(n=4, T=6, scale=0.1), 2, 0, 1)
    np.testing.assert_array_equal(np.delete(bands, 3, axis=0), np.delete(clean, 3, axis=0))


def test_one_eigen_decomposition_call_whatever_the_sample_size(monkeypatch):
    # at most one batched eigvals call, over exactly the draws the power
    # screen did not certify
    calls = []
    real = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    # every draw of the first sample is certified, some of the second are not
    for n, T, scale in ((3, 4, 0.1), (40, 60, 0.3)):
        alphas, sigma2s = _tvp_paths(n=n, T=T, scale=scale)
        A, _ = reduced_from_paths(alphas, sigma2s)
        uncertified = np.count_nonzero(~_power_screen(_companion_matrix(A, 2).reshape(-1, 6, 6), STABILITY_MARGIN))
        calls.clear()
        low_freq_path_bands(alphas, sigma2s, 2, 0, 1)
        assert len(calls) == (uncertified > 0)
        assert all(shape == (uncertified, 6, 6) for shape in calls)
    assert uncertified > 0
    calls.clear()
    low_freq(companion(np.array([[0.5, 0.1, 0.0]]), np.eye(1), p=2), 0, 0)
    assert len(calls) <= 1


def _screen_cases():
    """Stacked 6 x 6 draws named by family, each a hard case for the screen."""
    rng = np.random.default_rng(7)
    theta = 1.0 - STABILITY_MARGIN

    def companion_with_radius(radius):
        # A_l -> c^l A_l scales every root of the companion matrix by c
        A = rng.normal(size=(3, 6))
        rho = np.max(np.abs(np.linalg.eigvals(_companion_matrix(np.column_stack([A, np.zeros(3)]), 2))))
        c = radius / rho
        A[:, 3:] *= c
        return _companion_matrix(np.column_stack([c * A, np.zeros(3)]), 2)

    near = [
        companion_with_radius(theta + sign * delta)
        for delta in 10.0 ** -np.arange(4, 11)
        for sign in (-1.0, 1.0)
        for _ in range(20)
    ]
    inside = [companion_with_radius(r) for r in rng.uniform(0.05, 0.999, size=200)]

    def jordan_like(lam, cond):
        # a defective block behind an ill-conditioned similarity
        J = lam * np.eye(6) + np.eye(6, k=1)
        S = rng.normal(size=(6, 6)) @ np.diag(np.logspace(0, np.log10(cond), 6))
        return S @ J @ np.linalg.inv(S)

    jordan = [
        jordan_like(lam, cond)
        for lam in (0.01, 0.3, 0.5, 0.9, 0.99, theta - 1e-6, theta + 1e-6, 1.01)
        for cond in (1.0, 1e3, 1e6)
        for _ in range(5)
    ]
    # entries near 1e40: every power past the first overflows
    exploding = [1e40 * rng.normal(size=(6, 6)) for _ in range(20)]
    exploding += [companion_with_radius(r) for r in (1.5, 10.0, 1e5)]
    return {
        "near_margin": np.array(near),
        "inside": np.array(inside),
        "jordan": np.array(jordan),
        "exploding": np.array(exploding),
    }


@pytest.mark.parametrize("family", ["near_margin", "inside", "jordan", "exploding"])
def test_stability_decision_equals_eigvals(family):
    F = _screen_cases()[family]
    want = np.max(np.abs(np.linalg.eigvals(F)), axis=-1) < 1.0 - STABILITY_MARGIN
    certified = _power_screen(F, STABILITY_MARGIN)
    assert not np.any(certified & ~want)
    np.testing.assert_array_equal(_stable_draws(F), want)
    if family == "inside":
        assert certified.mean() > 0.5
    if family == "exploding":
        assert not want.any()


def test_stability_decision_refuses_non_finite_draws():
    F = np.zeros((3, 2, 2))
    for bad in (np.nan, np.inf):
        F[1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite entry"):
            _stable_draws(F)
        with pytest.raises(ValueError, match="non-finite entry"):
            CompanionForm(F=F[1], upsilon=np.eye(2), J=np.eye(2)).is_stable()


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("sigma2", np.inf, "equation 1 has a non-finite or non-positive error variance at record 1, t=1"),
        ("sigma2", 0.0, "equation 1 has a non-finite or non-positive error variance at record 1, t=1"),
        ("alpha", np.nan, "equation 3 has a non-finite coefficient at record 1, t=1"),
        ("alpha", -np.inf, "equation 3 has a non-finite coefficient at record 1, t=1"),
    ],
)
def test_path_bands_refuse_non_finite_draws(where, value, message):
    alphas, sigma2s = _tvp_paths(n=4, T=5, scale=0.1)
    if where == "sigma2":
        sigma2s[0][1, 1] = value
    else:
        alphas[2][1, 1, 4] = value
    with pytest.raises(ValueError, match=message):
        low_freq_path_bands(alphas, sigma2s, 2, 0, 1)


def test_nanquantile_columns_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.normal(size=(rng.integers(1, 30), 6)) * 10.0 ** rng.uniform(-3, 3)
        x[rng.random(x.shape) < 0.5] = np.nan
        x[0] = rng.normal(size=6)  # at least one value per column
        q = (0.16, 0.5, 0.84, 0.0, 1.0, rng.random())
        np.testing.assert_array_equal(_nanquantile_columns(x, q), np.nanquantile(x, q, axis=0))


def test_nanquantile_columns_gives_nan_for_a_column_with_no_value():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3))
    x[:, 1] = np.nan
    q = (0.16, 0.5, 0.84)
    got = _nanquantile_columns(x, q)
    assert np.isnan(got[:, 1]).all()
    np.testing.assert_array_equal(got[:, [0, 2]], np.quantile(x[:, [0, 2]], q, axis=0))


def _wide_stack(rng, shape):
    """Entries over 300 decades, with some exact zeros of either sign."""
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, size=shape)
    a[rng.random(shape) < 0.1] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    return a


@pytest.mark.parametrize("d", list(range(2, 13)) + [17])
def test_screen_norms_match_numpy_reductions(d):
    # powers of a wide stack overflow to inf, and meet zeros as NaN
    rng = np.random.default_rng(d)
    F = _wide_stack(rng, (400, d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.concatenate([F, F @ F, F @ F @ F @ F])
    assert np.isinf(P).any() and np.isnan(P).any()
    want = np.abs(P).sum(axis=-1).max(axis=-1)
    got = _inf_norms(P)
    if d < 8:
        # in-order column adds are numpy's own order below 8 columns
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=d * np.finfo(float).eps)
    # a short stack takes numpy's reduction itself
    short = P[: _SHORT_STACK - 1]
    assert _inf_norms(short).tobytes() == np.abs(short).sum(axis=-1).max(axis=-1).tobytes()
    assert _inf_norms(P[:0]).shape == (0,)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_lag_sum_equals_the_reshape_sum_bit_for_bit(p):
    rng = np.random.default_rng(10 + p)
    for m in range(1, 13 // p + 1):
        d = m * p
        if d < 2:
            continue
        for lead in ((), (7,), (3, 5)):
            F = _wide_stack(rng, lead + (d, d))
            want = F[..., :m, :].reshape(lead + (m, p, m)).sum(axis=-2)
            got = _lag_sum(F, m)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, p, lead)
