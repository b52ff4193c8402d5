"""Tests for the zero-frequency spectral summaries."""

import numpy as np
import pytest

import mixtvp.spectral
from mixtvp.spectral import (
    STABILITY_MARGIN,
    CompanionForm,
    _nanquantile_columns,
    bands_csv,
    companion,
    low_freq,
    low_freq_bands,
    low_freq_matrix,
    low_freq_path_bands,
)
from mixtvp.var import structural_from_paths, structural_to_reduced


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
    assert cf3.is_stable() and cf3.spectral_radius() == 0.0
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
            if cf_try.spectral_radius() < 0.95:
                break
        L = rng.normal(size=(m, m))
        sigma = L @ L.T + 0.5 * np.eye(m)
        cf = companion(A, sigma, p)
        got = low_freq_matrix(cf)
        want = _truncated_longrun(cf.F, cf.upsilon, cf.J)
        assert np.max(np.abs(got - want)) < 1e-6
        np.testing.assert_allclose(got, got.T, atol=1e-13)
        assert np.all(np.linalg.eigvalsh(got) > -1e-12)


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
    qs, excl = low_freq_bands([stable, unit, stable], p=1, i=0, j=1)
    assert excl == 1 and qs.shape == (3,)
    with pytest.raises(ValueError):
        low_freq_bands([unit], p=1, i=0, j=1)


def test_bands_csv_layout():
    text = bands_csv([(0, 1.0, 0.5, 1.5), (1, 2.0, 1.0, 3.0)], excluded=3)
    lines = text.strip().splitlines()
    assert lines[0] == "# excluded_unstable: 3"
    assert lines[1] == "t,median,q16,q84"
    assert lines[2].startswith("0,1,0.5,1.5")


def test_companion_form_radius_matches_eigvals():
    rng = np.random.default_rng(1)
    F = 0.3 * rng.normal(size=(4, 4))
    cf = CompanionForm(F=F, upsilon=np.eye(4), J=np.eye(4))
    assert cf.spectral_radius() == pytest.approx(
        np.max(np.abs(np.linalg.eigvals(F)))
    )


def _tvp_paths(n, T, m=3, p=2, scale=0.3, seed=0):
    """Random (n, T, K_i) coefficient paths and (n, T) variances; some draws explode."""
    rng = np.random.default_rng(seed)
    alphas = [scale * rng.normal(size=(n, T, m * p + i + 1)) for i in range(m)]
    sigma2s = [rng.uniform(0.5, 2.0, size=(n, T)) for _ in range(m)]
    return alphas, sigma2s


def _reference_bands(alphas, sigma2s, p, i, j):
    """Per-draw loop: structural -> reduced -> companion -> eigvals -> Pi(0)."""
    n, T = sigma2s[0].shape
    rows, excluded = [], 0
    for t in range(T):
        vals = []
        for r in range(n):
            draw = structural_from_paths([a[r] for a in alphas], [s[r] for s in sigma2s])
            cf = companion(*structural_to_reduced(draw, t), p)
            if np.max(np.abs(np.linalg.eigvals(cf.F))) >= 1.0 - STABILITY_MARGIN:
                excluded += 1
                continue
            pi = low_freq_matrix(cf)
            vals.append(pi[i, j] / pi[j, j])
        rows.append(np.quantile(vals, [0.16, 0.5, 0.84]))
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
    with pytest.raises(ValueError, match="every draw unstable at t=3"):
        low_freq_path_bands(alphas, sigma2s, 2, 0, 1)


def test_one_eigen_decomposition_call_whatever_the_sample_size(monkeypatch):
    calls = []
    real = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    for n, T in ((3, 4), (40, 60)):
        calls.clear()
        low_freq_path_bands(*_tvp_paths(n=n, T=T, scale=0.1), 2, 0, 1)
        assert len(calls) == 1 and calls[0][:-1] == (n, T, 6)
    calls.clear()
    low_freq(companion(np.array([[0.5, 0.1, 0.0]]), np.eye(1), p=2), 0, 0)
    assert len(calls) == 1


def test_nanquantile_columns_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.normal(size=(rng.integers(1, 30), 6)) * 10.0 ** rng.uniform(-3, 3)
        x[rng.random(x.shape) < 0.5] = np.nan
        x[0] = rng.normal(size=6)  # at least one value per column
        q = (0.16, 0.5, 0.84, 0.0, 1.0, rng.random())
        np.testing.assert_array_equal(_nanquantile_columns(x, q), np.nanquantile(x, q, axis=0))
