"""Structured linear algebra for the stacked state regression.

The non-centered state equation couples consecutive periods through a unit
lower block-bidiagonal matrix Phi whose subdiagonal blocks are diagonal.
``build_phi`` gives Phi as the (T-1, K) array of those diagonals, and the
state draw applies Phi and Phi' to a path as elementwise products with it,
in O(T*K) time.  The posterior precision of the state path is symmetric
banded: it is factored once as U'U by banded Cholesky, and every solve
goes through two banded triangular solves with that factor.  The
volatility path's precision is tridiagonal and is factored as L D L'
(``factor_tridiagonal``).  No dense matrix of path size is formed.  A
state law without autoregression (Phi = I) uses none of this: its
precision is block diagonal, and ``statespace.draw_states_fast`` draws it
period by period in closed form.

The six LAPACK routines the package calls (``dpbtrf``, ``dtbtrs``,
``dpttrf`` and ``dpttrs`` here, ``dpotrf`` and ``dtrtrs`` in
``shrinkage``) come from scipy's compiled wrapper module
``scipy.linalg._flapack``, which this module loads once, straight from
scipy's ``linalg`` directory.  Importing it as ``scipy.linalg.lapack``
would first run ``scipy/linalg/__init__.py``, which pulls in
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma`` and takes longer than
the rest of ``import mixtvp``; every fresh process (each CLI command) would
pay for it.  The extension registers itself in ``sys.modules`` under its
own name, so a later ``import scipy.linalg`` reuses it and both see the
same routine objects.  ``tests/test_cli.py::test_package_import_stays_light``
checks that no command imports ``scipy.linalg``, and ``tests/test_banded.py``
that the routines are scipy's own.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from collections.abc import Iterable
from types import ModuleType

import numpy as np


def _load_flapack(scipy_dirs: Iterable[str]) -> ModuleType:
    """scipy's ``scipy.linalg._flapack`` from the ``linalg`` folder under ``scipy_dirs``."""
    linalg_dirs = [os.path.join(d, "linalg") for d in scipy_dirs]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", linalg_dirs)
    if spec is None:
        raise ImportError(f"scipy.linalg._flapack not found in {linalg_dirs}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# find_spec of a top-level name locates scipy without importing it
_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ImportError("mixtvp needs scipy for its LAPACK routines")
_flapack = _load_flapack(_scipy.submodule_search_locations)
dpbtrf, dtbtrs, dpttrf, dpttrs, dpotrf, dtrtrs = (
    _flapack.dpbtrf, _flapack.dtbtrs, _flapack.dpttrf, _flapack.dpttrs, _flapack.dpotrf, _flapack.dtrtrs
)


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a banded factorization hits a non-positive or non-finite pivot."""


def build_phi(phi_diagonals: np.ndarray) -> np.ndarray:
    """Subdiagonal of the state-coupling matrix Phi from per-period AR diagonals.

    Phi is unit lower block-bidiagonal; its block (t+1, t), counted from 0,
    is diagonal and holds -phi_diagonals[t+1].  The first row is ignored:
    the period-1 block carries no subdiagonal, which encodes the convention
    that the initial state innovation is standard Gaussian regardless of the
    period-1 regime.  Phi has determinant one, so it is invertible for any
    finite coefficients.

    Parameters
    ----------
    phi_diagonals : ndarray, shape (T, K)
        Diagonals of phi_t for t = 1..T.

    Returns
    -------
    ndarray, shape (T-1, K)
        ``-phi_diagonals[1:]``, the diagonals of Phi's subdiagonal blocks.
    """
    phi = np.asarray(phi_diagonals, dtype=float)
    if phi.ndim != 2:
        raise ValueError("phi_diagonals must be 2-d with shape (T, K)")
    sub = -phi[1:]
    if not np.isfinite(sub).all():
        raise ValueError("AR diagonals must be finite")
    return sub


def _pivot_error(step: str, kind: str, period: int) -> NotPositiveDefiniteError:
    return NotPositiveDefiniteError(f"{step}: {kind} pivot in the precision at period {period}")


def factor_banded(ab: np.ndarray, step: str, block: int = 1) -> np.ndarray:
    """Upper Cholesky factor U, with U'U = Q, of a banded SPD matrix Q.

    ``ab`` holds the upper band of Q in LAPACK storage: row -1 is the main
    diagonal, row -1-k the k-th superdiagonal (right-aligned).  A NaN or
    infinity in Q reaches the factor's diagonal, so it is caught with the
    non-positive pivots.  Both raise NotPositiveDefiniteError naming
    ``step`` and the period of the first bad pivot, counting ``block`` rows
    per period from period 1.
    """
    U, info = dpbtrf(ab, lower=0)
    if info != 0:
        raise _pivot_error(step, "non-positive", (info - 1) // block + 1)
    bad = ~np.isfinite(U[-1])
    if bad.any():
        raise _pivot_error(step, "non-finite", int(np.argmax(bad)) // block + 1)
    return U


def factor_tridiagonal(diag: np.ndarray, off: np.ndarray, step: str) -> tuple[np.ndarray, np.ndarray]:
    """L D L' factor of a symmetric tridiagonal SPD matrix Q, by LAPACK ``dpttrf``.

    ``diag`` is Q's diagonal and ``off`` its off-diagonal.  Returns D's
    diagonal and L's subdiagonal (L is unit lower bidiagonal), the pair
    ``dpttrs`` solves with.  A non-positive pivot, or a NaN or infinity in
    Q, raises NotPositiveDefiniteError as ``factor_banded`` does, with one
    row per period counted from period 0.  The factor is computed in the
    memory of ``diag`` and ``off``, which it overwrites.
    """
    d, e, info = dpttrf(diag, off, overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise _pivot_error(step, "non-positive", info - 1)
    if not np.isfinite(d).all():
        raise _pivot_error(step, "non-finite", int(np.argmax(~np.isfinite(d))))
    return d, e


def solve_factored(U: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Q^{-1} rhs, as U^{-1} U^{-T} rhs, from the factor of ``factor_banded``.

    ``rhs`` is a vector, or a matrix with one right-hand side per column.
    """
    x, _ = dtbtrs(U, rhs, uplo="U", trans="T")
    x, _ = dtbtrs(U, x, uplo="U", trans="N")
    return x
