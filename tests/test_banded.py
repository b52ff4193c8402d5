"""Structured solves checked against dense linear algebra oracles."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixtvp
from mixtvp.banded import (
    NotPositiveDefiniteError,
    _load_flapack,
    build_phi,
    factor_banded,
    solve_factored,
)
from oracles import dense_phi
from prior_draws import solve_lower


def random_phi(rng, T, K):
    phi = rng.integers(0, 2, size=(T, K)).astype(float)
    return build_phi(phi)


def dense_omega0(sub):
    D = dense_phi(sub)
    return np.linalg.inv(D.T @ D)


def test_build_phi_matches_dense_layout():
    phi = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sub = build_phi(phi)
    assert isinstance(sub, np.ndarray) and sub.shape == (2, 2)
    D = dense_phi(sub)
    expected = np.eye(6)
    expected[2, 0] = -0.0
    expected[3, 1] = -1.0
    expected[4, 2] = -1.0
    expected[5, 3] = -1.0
    np.testing.assert_allclose(D, expected)


def test_solve_lower_random_walk_cumulates():
    sub = build_phi(np.ones((3, 1)))
    x = solve_lower(sub, np.ones(3))
    np.testing.assert_allclose(x, [1.0, 2.0, 3.0])


def test_solves_match_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        T = int(rng.integers(2, 9))
        K = int(rng.integers(1, 4))
        sub = random_phi(rng, T, K)
        rhs = rng.normal(size=T * K)
        want = np.linalg.solve(dense_phi(sub), rhs)
        np.testing.assert_allclose(solve_lower(sub, rhs), want, atol=1e-12)


def test_solve_round_trip():
    rng = np.random.default_rng(3)
    sub = random_phi(rng, 7, 2)
    rhs = rng.normal(size=14)
    x = solve_lower(sub, rhs)
    np.testing.assert_allclose(dense_phi(sub) @ x, rhs, atol=1e-12)


def test_batched_solve_matches_loop():
    rng = np.random.default_rng(11)
    sub = random_phi(rng, 5, 2)
    rhs = rng.normal(size=(4, 10))
    batched = solve_lower(sub, rhs)
    for i in range(4):
        np.testing.assert_allclose(batched[i], solve_lower(sub, rhs[i]))


def test_omega0_block_diagonal_across_zero_boundaries():
    # a zero AR coefficient at period t decouples that coefficient's
    # prior covariance across the t-1 / t boundary
    phi = np.ones((6, 2))
    phi[3, 0] = 0.0
    omega0 = dense_omega0(build_phi(phi))
    idx_before = [0, 2, 4]          # coefficient 0 at periods 1..3
    idx_after = [6, 8, 10]          # coefficient 0 at periods 4..6
    for i in idx_before:
        for j in idx_after:
            assert omega0[i, j] == pytest.approx(0.0, abs=1e-14)


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        solve_lower(build_phi(np.ones((3, 2))), np.ones(5))
    with pytest.raises(ValueError, match="2-d"):
        build_phi(np.ones(3))
    phi = np.ones((3, 2))
    phi[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        build_phi(phi)


def test_build_phi_is_the_negated_tail():
    # period 1 carries no coupling, so the subdiagonal is -phi[1:] and T = 1
    # leaves none; the result is a float array that shares no memory with
    # the input
    rng = np.random.default_rng(21)
    for T in (1, 2, 6):
        for phi in (rng.integers(-2, 3, size=(T, 3)), rng.normal(size=(T, 3))):
            kept = phi.copy()
            sub = build_phi(phi)
            assert sub.dtype == float and sub.shape == (T - 1, 3)
            np.testing.assert_array_equal(sub, -kept[1:].astype(float))
            sub[...] = 7.0
            np.testing.assert_array_equal(phi, kept)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_build_phi_refuses_infinite_diagonals(bad):
    phi = np.ones((4, 2))
    phi[3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        build_phi(phi)


def random_band(rng, n, kd):
    """Upper LAPACK band of a random diagonally dominant SPD matrix, and Q."""
    Q = np.zeros((n, n))
    for k in range(1, kd + 1):
        off = rng.normal(size=n - k)
        Q += np.diag(off, k) + np.diag(off, -k)
    Q += np.diag(np.abs(Q).sum(axis=1) + 1.0)
    ab = np.zeros((kd + 1, n))
    for k in range(kd + 1):
        ab[kd - k, k:] = np.diag(Q, k)
    return ab, Q


def test_prior_precision_inverse_random_walk_min_index():
    # the random-walk prior precision Phi'Phi inverts to min(s, t)
    T = 5
    D = dense_phi(build_phi(np.ones((T, 1))))
    ab = np.zeros((2, T))
    ab[1] = np.diag(D.T @ D)
    ab[0, 1:] = np.diag(D.T @ D, 1)
    omega0 = solve_factored(factor_banded(ab, "prior"), np.eye(T))
    expected = np.minimum.outer(np.arange(1, T + 1), np.arange(1, T + 1)).astype(float)
    np.testing.assert_allclose(omega0, expected, atol=1e-12)


def test_solve_factored_matches_dense():
    rng = np.random.default_rng(19)
    for _ in range(10):
        kd = int(rng.integers(0, 4))
        n = int(rng.integers(kd + 2, 12))
        ab, Q = random_band(rng, n, kd)
        U = factor_banded(ab, "test")
        dense_U = np.linalg.cholesky(Q).T
        np.testing.assert_allclose(sum(np.diag(U[kd - k, k:], k) for k in range(kd + 1)), dense_U, atol=1e-12)
        rhs = rng.normal(size=(n, 3))
        np.testing.assert_allclose(solve_factored(U, rhs), np.linalg.solve(Q, rhs), atol=1e-10)


def test_factor_banded_failure_names_step_and_period():
    ab = np.zeros((3, 8))
    ab[2] = 1.0
    ab[2, 5] = -1.0  # row 5 is period 3 at two rows per period
    with pytest.raises(NotPositiveDefiniteError, match="state draw: non-positive pivot .* period 3"):
        factor_banded(ab, "state draw", block=2)
    ab[2, 5] = 1.0
    ab[1, 3] = np.nan  # Q[2, 3] first spoils the pivot of row 3: period 2
    with pytest.raises(NotPositiveDefiniteError, match="state draw: non-finite pivot .* period 2"):
        factor_banded(ab, "state draw", block=2)


@pytest.mark.parametrize(
    "first, second", [("mixtvp.banded", "scipy.linalg.lapack"), ("scipy.linalg.lapack", "mixtvp.banded")]
)
def test_lapack_routines_are_scipys_own_in_either_import_order(first, second):
    # the directly loaded extension is the one scipy.linalg registers, so
    # every routine is the very object scipy.linalg.lapack exports
    code = (
        "import importlib, sys\n"
        f"importlib.import_module({first!r})\n"
        f"importlib.import_module({second!r})\n"
        "banded, lapack = sys.modules['mixtvp.banded'], sys.modules['scipy.linalg.lapack']\n"
        "names = ['dpbtrf', 'dtbtrs', 'dpttrf', 'dpttrs', 'dpotrf', 'dtrtrs']\n"
        "print([n for n in names if getattr(banded, n) is not getattr(lapack, n)])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mixtvp.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_flapack_loader_names_the_directory_it_searched(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        _load_flapack([str(tmp_path)])
