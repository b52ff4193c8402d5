"""Sampler checks against quadrature oracles and exact reductions."""

import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import kv, kve

import mixtvp
from mixtvp.distributions import (
    sample_categorical_columns,
    sample_dirichlet,
    sample_gamma_rate,
    sample_gig_array,
)


def gig_moment_quadrature(a, b, c, k):
    """E[X^k] for p(x) propto x^(a-1) exp(-(b x + c/x)/2) via quadrature."""
    mode = (a - 1 + np.sqrt((a - 1) ** 2 + b * c)) / b if b > 0 else c / 2
    cut = max(mode * 50.0, 50.0 / max(b, 1e-3))

    def density(x, extra):
        return x ** (a - 1 + extra) * np.exp(-(b * x + c / x) / 2.0)

    def full(extra):
        head, _ = integrate.quad(
            density, 0, cut, args=(extra,), points=[mode * 0.1, mode, mode * 5.0], limit=300
        )
        tail, _ = integrate.quad(density, cut, np.inf, args=(extra,), limit=300)
        return head + tail

    return full(k) / full(0)


@pytest.mark.parametrize("a,b,c", [(2.5, 3.0, 2.0), (-1.5, 2.0, 4.0), (0.25, 0.05, 8.0)])
def test_gig_mean_matches_quadrature(a, b, c):
    rng = np.random.default_rng(42)
    n = 200_000
    draws = sample_gig_array(np.full(n, a), b, c, rng)
    expected = gig_moment_quadrature(a, b, c, 1)
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - expected) < 5 * se


def test_gig_second_moment_matches_quadrature():
    a, b, c = 1.0, 4.0, 1.0
    rng = np.random.default_rng(1)
    draws = sample_gig_array(np.full(200_000, a), b, c, rng)
    expected = gig_moment_quadrature(a, b, c, 2)
    se = (draws**2).std(ddof=1) / np.sqrt(draws.size)
    assert abs((draws**2).mean() - expected) < 5 * se


def test_gig_gamma_reduction_is_exact_dispatch():
    # c = 0 must delegate to the Gamma generator bitwise
    draws = sample_gig_array(np.full(5, 2.5), 3.0, 0.0, np.random.default_rng(9))
    expected = np.random.default_rng(9).gamma(shape=2.5, scale=2.0 / 3.0, size=5)
    np.testing.assert_array_equal(draws, expected)


def test_gig_inverse_gamma_reduction_mean():
    # b = 0, a = -3, c = 4 is InverseGamma(3, 2) with mean 2 / (3 - 1) = 1
    rng = np.random.default_rng(4)
    draws = sample_gig_array(np.full(300_000, -3.0), 0.0, 4.0, rng)
    assert draws.mean() == pytest.approx(1.0, rel=0.02)


def test_gig_invalid_parameters():
    # a call whose parameters all have one element names no index, and a
    # refused call draws nothing
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for a, b, c, message in [
        (-1.0, 2.0, 0.0, "GIG parameters with c = 0 requires a > 0"),
        (1.0, 0.0, 2.0, "GIG parameters with b = 0 requires a < 0"),
        (0.0, 0.0, 1.0, "GIG parameters with b = 0 requires a < 0"),
        (1.0, -1.0, 1.0, "GIG parameters requires b >= 0 and c >= 0"),
        (np.inf, 1.0, 1.0, "GIG parameters must be finite"),
        (0.0, 1e-170, 1e-170, r"GIG parameters: a = 0 requires b\*c bounded away from zero"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}"):
            sample_gig_array(a, b, c, rng)
    assert rng.bit_generator.state == state


def test_gig_extreme_arguments_stay_finite():
    rng = np.random.default_rng(10)
    for a, b, c in [(0.0, 1e-6, 1e-6), (-0.5, 1e-8, 50.0), (10.0, 200.0, 1e-12), (0.5, 1e-30, 1e-30)]:
        draws = sample_gig_array(np.full(1000, a), b, c, rng)
        assert np.all(np.isfinite(draws))
        assert np.all(draws > 0)


@pytest.mark.parametrize("a,b,c", [(1e-3, 1e-12, 1e-12), (-2e-3, 1e-20, 1e-6), (1e-8, 1e-100, 1e-100)])
def test_gig_log_mean_when_omega_is_far_below_a(a, b, c):
    # E[log X] = d/da log K_a(omega) + log(c/b)/2 for omega = sqrt(b*c); these
    # parameters put alpha = sqrt(omega^2 + a^2) - |a| far below |a| * 1e-16
    omega, h = np.sqrt(b * c), 1e-6
    want = (np.log(kve(a + h, omega)) - np.log(kve(a - h, omega))) / (2 * h) + 0.5 * np.log(c / b)
    logs = np.log(sample_gig_array(np.full(50_000, a), b, c, np.random.default_rng(17)))
    assert abs(logs.mean() - want) < 5.0 * logs.std(ddof=1) / np.sqrt(logs.size)


def test_gig_returns_when_b_times_c_is_subnormal():
    # b*c = 1e-320 leaves alpha ~ 5e-313, whose inverse overflows; the
    # envelope must still come out finite.  A child process with a timeout
    # turns a sampler that never returns into a failure, not a hung suite.
    code = (
        "import numpy as np\n"
        "from mixtvp.distributions import sample_gig_array\n"
        "rng = np.random.default_rng(3)\n"
        "draws = sample_gig_array(np.full(2000, 1e-8), [1e-160], [1e-160], rng)\n"
        "mixed = sample_gig_array([1e-8, 2.0, -2e-9], [1e-160, 1.0, 1e-170], [1e-160, 3.0, 1e-150], rng)\n"
        "(one,) = sample_gig_array(1e-8, 1e-160, 1e-160, rng)\n"
        "logs = np.log(draws)\n"
        "print(bool(np.all(np.isfinite(draws)) and np.all(draws > 0)),"
        " bool(np.all(np.isfinite(mixed)) and np.all(mixed > 0)),"
        " bool(np.isfinite(one) and one > 0), logs.mean(), logs.std(ddof=1))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mixtvp.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60
    )
    finite, mixed_finite, one_finite, log_mean, log_sd = out.stdout.split()
    assert finite == mixed_finite == one_finite == "True"
    # log X has density propto exp(a y - omega cosh y): E[log X] from the
    # Bessel function as below, and nearly flat over |y| < log(2 / omega)
    a, omega, h = 1e-8, 1e-160, 1e-6
    want = (np.log(kve(a + h, omega)) - np.log(kve(a - h, omega))) / (2 * h)
    assert abs(float(log_mean) - want) < 5.0 * float(log_sd) / np.sqrt(2000)
    assert abs(float(log_sd) - np.log(2.0 / omega) / np.sqrt(3.0)) < 0.1 * float(log_sd)


def test_gig_refuses_b_times_c_that_overflows():
    # b*c = 1e400 overflows with b and c finite: omega = sqrt(b*c) would be
    # inf and no candidate ever accepted.  The alarm turns a sampler that
    # never returns into a failure, not a hung suite.
    def hung(signum, frame):
        raise TimeoutError("GIG sampler did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match=r"^GIG parameters requires b\*c below the largest float"):
            sample_gig_array(1.0, 1e200, 1e200, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"index 1 .* b\*c below the largest float"):
            sample_gig_array([1.0, 1.0], [1.0, 1e200], [1.0, 1e200], np.random.default_rng(0))
        # b*c = 1e308 is still drawn; log(X / mode) has sd ~ 1e-77, so the
        # draw is the mode, 1, to double precision
        (draw,) = sample_gig_array(1.0, 1e154, 1e154, np.random.default_rng(0))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert abs(draw - 1.0) < 1e-12


@pytest.mark.parametrize("bc", [1e28, 1e32, 1e40, 1e60])
def test_gig_log_spread_at_large_b_times_c(bc):
    # log(X / mode) is close to normal with variance 1 / (alpha + lam) =
    # 1 / hypot(lam, omega); alpha (cosh x - 1) cancels to 0 for |x| below
    # ~1e-8 and gave 0.90 of that sd at b*c = 1e32 and 1.45 from 1e40
    a, omega = 1.0, np.sqrt(bc)
    draws = sample_gig_array(np.full(20_000, a), omega, omega, np.random.default_rng(1))
    mode = (a + np.hypot(a, omega)) / omega
    ratio = np.log(draws / mode).std(ddof=1) * np.sqrt(np.hypot(omega, a))
    assert abs(ratio - 1.0) < 0.05


def test_gig_scale_keeps_its_digits_when_c_over_b_is_subnormal():
    # c/b = 1.1 * 2**-1070 is subnormal, ~1% off in its root.  b*c is the
    # same float for (a, b, c) and (a, 1, b*c), so both draw the same X and
    # differ only by their scales sqrt(c/b) and sqrt(b*c), whose ratio is 1/b
    a, b, c = 2.0, 2.0**530, 1.1 * 2.0**-540
    got = sample_gig_array(np.full(200, a), b, c, np.random.default_rng(8))
    unit = sample_gig_array(np.full(200, a), 1.0, b * c, np.random.default_rng(8))
    np.testing.assert_allclose(got, unit / b, rtol=1e-13)


@pytest.mark.parametrize(
    "a,b,c",
    [
        (2.5, 3.0, 2.0),  # a > 0
        (0.25, 0.05, 8.0),  # a > 0, small b
        (-99.0, 1.0, 250.0),  # a << 0, as in the volatility psi draw
        (-99.0, 1.0, 1e-12),  # a << 0, psi near its floor
        (1.5, 1e-160, 1e-170),  # b*c underflows: Gamma reduction
        (-3.0, 1e-170, 1e-160),  # b*c underflows: inverse-Gamma reduction
        (2.5, 3.0, 0.0),  # Gamma
        (-3.0, 0.0, 4.0),  # inverse Gamma
        (1e-3, 1e-12, 1e-12),  # omega far below |a|
    ],
)
def test_scalar_gig_matches_array_on_the_same_stream(a, b, c):
    # the sampler draws its elements one after another, each as a
    # one-element call draws it
    n = 200
    rng_scalar, rng_array = np.random.default_rng(5), np.random.default_rng(5)
    got = np.concatenate([sample_gig_array(a, b, c, rng_scalar) for _ in range(n)])
    want = sample_gig_array(np.full(n, a), b, c, rng_array)
    np.testing.assert_array_equal(got, want)
    assert rng_scalar.bit_generator.state == rng_array.bit_generator.state


class _CountingGenerator:
    """Wraps a generator and counts its ``random`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.random_calls = 0

    def random(self, size=None):
        self.random_calls += 1
        return self.rng.random(size)

    def gamma(self, shape, scale=1.0):
        return self.rng.gamma(shape, scale)


def test_gig_array_draws_its_uniforms_in_a_few_blocks():
    # one block of 3 x (elements left) uniforms per refill, where one call
    # per rejection round would make more than 200
    spy = _CountingGenerator(np.random.default_rng(8))
    c = np.random.default_rng(9).uniform(0.01, 2.0, 200)
    draws = sample_gig_array(np.full(200, 0.4), 0.8, c, spy)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)
    assert spy.random_calls <= 10


def test_gig_array_with_reductions_between_elements_matches_scalar_draws():
    # a reduction's rng.gamma must follow every uniform the elements before
    # it used and precede those of the elements after it, as when each
    # element is drawn on its own
    regions = [(2.5, 3.0, 2.0), (1.5, 1e-160, 1e-170), (-1.5, 2.0, 4.0), (0.25, 0.05, 8.0),
               (2.5, 3.0, 0.0), (-3.0, 0.0, 4.0), (0.0, 1.0, 1.0), (-3.0, 1e-170, 1e-160)]
    order = np.random.default_rng(4).integers(0, len(regions), size=300)
    a, b, c = np.array([regions[k] for k in order]).T
    rng_scalar, rng_array = np.random.default_rng(12), np.random.default_rng(12)
    want = np.concatenate([sample_gig_array(*abc, rng_scalar) for abc in zip(a, b, c)])
    got = sample_gig_array(a, b, c, rng_array)
    np.testing.assert_array_equal(got, want)
    assert rng_scalar.bit_generator.state == rng_array.bit_generator.state


@pytest.mark.parametrize(
    "a, b, c, want",
    [
        # Gamma(a, rate b/2) limits: mean 2a/b
        (1e300, 1e150, 1e-300, 2e150),
        (1e300, 1.0, 1.0, 2e300),
        (5.0, 1e150, 1e-300, 1e-149),
        # inverse-Gamma(-a, scale c/2) limit: mean c / (2 (-a - 1))
        (-1e300, 1e-300, 1e150, 5e-151),
    ],
)
def test_gig_draws_near_their_limit_when_mode_or_scale_leave_the_float_range(a, b, c, want):
    # lam^2 overflows in the mode, or c/b under- or overflows in the scale;
    # the direct product gave NaN, inf or 0 for these parameters
    n = 2000
    draws = sample_gig_array(np.full(n, a), b, c, np.random.default_rng(21))
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)
    ratio = draws / want
    # |a| = 1e300 leaves a spread of ~1e-150 relative to the mean; a = 5
    # that of a Gamma(5) draw, sd 1/sqrt(5)
    tol = 5.0 * ratio.std(ddof=1) / np.sqrt(n) + 1e-12
    assert abs(ratio.mean() - 1.0) < tol


def test_gig_inverse_gamma_reduction_returns_inf_when_the_gamma_draw_underflows():
    # b*c underflows to 0, so each element is 1 / Gamma(1e-3, scale 2/c),
    # and a Gamma draw at shape 1e-3 is exactly 0 about half the time
    c = 1e-160
    with np.errstate(divide="ignore"):
        want = 1.0 / np.random.default_rng(6).gamma(shape=1e-3, scale=2.0 / c, size=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither an exception nor a divide-by-zero warning
        got = sample_gig_array(np.full(2000, -1e-3), 1e-170, c, np.random.default_rng(6))
    assert np.isinf(want).any() and np.isfinite(want).any()
    np.testing.assert_array_equal(got, want)


def test_gig_array_mixed_regions_match_exact_means():
    # interior (a > 0, a < 0, a = 0), c = 0, b = 0, and b*c underflowing
    # to zero with a > 0 and with a < 0, interleaved in one call
    regions = np.array([
        (2.5, 3.0, 2.0),
        (-1.5, 2.0, 4.0),
        (0.0, 1.0, 1.0),
        (0.25, 0.05, 8.0),
        (2.5, 3.0, 0.0),
        (-3.0, 0.0, 4.0),
        (1.5, 1e-160, 1e-170),
        (-3.0, 1e-170, 1e-160),
    ])
    n = 40_000
    a, b, c = np.tile(regions, (n, 1)).T
    draws = sample_gig_array(a, b, c, np.random.default_rng(31)).reshape(n, len(regions))
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)
    for k, (ak, bk, ck) in enumerate(regions):
        if bk * ck > 0.0:
            omega = np.sqrt(bk * ck)
            want = np.sqrt(ck / bk) * kv(ak + 1.0, omega) / kv(ak, omega)
        elif ak > 0.0:
            want = 2.0 * ak / bk  # Gamma(a, rate b/2)
        else:
            want = ck / (2.0 * (-ak - 1.0))  # InverseGamma(-a, scale c/2)
        ratio = draws[:, k] / want  # relative, so the huge Gamma means do not overflow
        se = ratio.std(ddof=1) / np.sqrt(n)
        assert abs(ratio.mean() - 1.0) < 5.0 * se, (ak, bk, ck)


def test_gig_array_names_the_first_invalid_index():
    rng = np.random.default_rng(0)
    ok = np.ones(4)
    with pytest.raises(ValueError, match=r"index 2 .* c = 0 requires a > 0"):
        sample_gig_array([1.0, 1.0, -1.0, 1.0], ok, [1.0, 1.0, 0.0, 0.0], rng)
    with pytest.raises(ValueError, match=r"index 3 .* b = 0 requires a < 0"):
        sample_gig_array(ok, [1.0, 1.0, 1.0, 0.0], ok, rng)
    with pytest.raises(ValueError, match=r"index 1 .* must be finite"):
        sample_gig_array([1.0, np.nan, 1.0, 1.0], ok, ok, rng)
    with pytest.raises(ValueError, match=r"index 0 .* requires b >= 0 and c >= 0"):
        sample_gig_array(ok, ok, [-1.0, 1.0, 1.0, 1.0], rng)
    with pytest.raises(ValueError, match=r"index 2: a = 0 requires b\*c bounded away from zero"):
        sample_gig_array([1.0, 1.0, 0.0, 1.0], ok * 1e-170, ok * 1e-170, rng)


def test_dirichlet_simplex_and_small_concentrations():
    rng = np.random.default_rng(12)
    for conc in (np.array([0.4, 10.3, 1.0]), np.full(8, 0.01)):
        for _ in range(50):
            w = sample_dirichlet(conc, rng)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12


def test_dirichlet_moments():
    conc = np.array([2.0, 3.0, 5.0])
    rng = np.random.default_rng(2)
    draws = np.array([sample_dirichlet(conc, rng) for _ in range(40_000)])
    np.testing.assert_allclose(draws.mean(axis=0), conc / conc.sum(), atol=0.005)


def test_dirichlet_exchangeable_under_symmetric_concentration():
    rng = np.random.default_rng(3)
    draws = np.array([sample_dirichlet(np.full(3, 0.5), rng) for _ in range(40_000)])
    means = draws.mean(axis=0)
    variances = draws.var(axis=0)
    assert means.max() - means.min() < 0.01
    assert variances.max() - variances.min() < 0.01


def test_dirichlet_invalid():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_dirichlet(np.array([1.0, 0.0]), rng)
    with pytest.raises(ValueError):
        sample_dirichlet(np.array([]), rng)


def _categorical_rows(log_weights, rng):
    """Row-wise draws from (n, K) log weights, through the (K, n) C copy they transpose to."""
    return sample_categorical_columns(np.array(log_weights.T, order="C"), rng)


def test_categorical_rows_matches_scalar_frequencies():
    rng = np.random.default_rng(21)
    logw = np.log(np.array([[0.5, 0.5], [0.9, 0.1]]))
    draws = np.array([_categorical_rows(logw, rng) for _ in range(20_000)])
    np.testing.assert_allclose(draws[:, 0].mean(), 0.5, atol=0.02)
    np.testing.assert_allclose(draws[:, 1].mean(), 0.1, atol=0.02)


@pytest.mark.parametrize(
    "bad_row",
    [[-np.inf, -np.inf, -np.inf], [0.0, np.nan, 1.0], [0.0, np.inf, 0.0]],
    ids=["all-minus-inf", "nan", "plus-inf"],
)
def test_categorical_rows_refuse_a_row_without_a_finite_maximum(bad_row):
    logw = np.array([[0.0, 1.0, 2.0], bad_row, [1.0, 1.0, 1.0]])
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="row 1 "):
        _categorical_rows(logw, rng)
    assert rng.bit_generator.state == state


def test_categorical_rows_never_draw_minus_inf_entries():
    rng = np.random.default_rng(22)
    inf = np.inf
    logw = np.array([[-inf, 0.0, -inf, 3.0], [2.0, -inf, -700.0, -inf], [-inf, -inf, 5.0, -inf]])
    draws = np.array([_categorical_rows(logw, rng) for _ in range(5000)])
    assert set(draws[:, 0]) == {1, 3}
    assert set(draws[:, 1]) <= {0, 2}
    assert set(draws[:, 2]) == {2}


class _EdgeUniforms:
    """Stands in for a generator whose uniforms are all 0.0 or all 1 - 2**-53."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


@pytest.mark.parametrize("u, expected", [(0.0, [1, 0, 2]), (1.0 - 2.0**-53, [3, 0, 2])], ids=["zero", "top"])
def test_categorical_rows_keep_edge_uniforms_off_minus_inf_entries(u, expected):
    inf = np.inf
    logw = np.array([[-inf, 0.0, -inf, 3.0, -inf], [2.0, -inf, -700.0, -inf, -inf], [-inf, -inf, 5.0, -inf, -inf]])
    np.testing.assert_array_equal(_categorical_rows(logw, _EdgeUniforms(u)), expected)


def test_gamma_rate_convention():
    # G(a, b) has rate b: the draw is numpy's Gamma with scale 1/b, from the same stream
    for seed, (shape, rate) in enumerate([(0.5, 0.5), (2.5, 1.5), (0.01, 100.0)]):
        want = np.random.default_rng(seed).gamma(shape=shape, scale=1.0 / rate)
        assert sample_gamma_rate(shape, rate, np.random.default_rng(seed)) == want
    with pytest.raises(ValueError):
        sample_gamma_rate(0.0, 1.0, np.random.default_rng(5))
