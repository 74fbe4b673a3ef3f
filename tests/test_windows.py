"""Smooth windows, plateau brackets, quadrature and Fourier data."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from sectorlab import windows
from sectorlab.errors import MAX_SUPPORT, BadEps, BadInput, QuadratureFailure
from sectorlab.windows import (
    DEFAULT_QUAD_TOL,
    HALF_PI,
    adaptive_simpson,
    custom_window,
    fourier_coefficient,
    fourier_coefficients_bulk,
    fourier_hat,
    mollifier_eval,
    mollifier_window,
    periodized_eval,
    plateau_minus,
    plateau_plus,
)


# ------------------------------------------------------------- mollifier

def test_mollifier_pointwise():
    assert mollifier_eval(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert mollifier_eval(1.0) == 0.0
    assert mollifier_eval(-1.0) == 0.0
    assert mollifier_eval(1.5) == 0.0
    assert mollifier_eval(-7.0) == 0.0


def test_mollifier_even_and_bounded():
    x = np.linspace(-2.0, 2.0, 801)
    v = mollifier_eval(x)
    assert np.array_equal(v, mollifier_eval(-x))
    assert np.all(v >= 0.0)
    assert np.all(v <= math.exp(-1.0))
    assert np.all(v[np.abs(x) >= 1.0] == 0.0)


def test_mollifier_eval_bitwise_contract():
    # the masked formula is the reference; the clamped one-pass evaluation
    # must reproduce it bit for bit, edges included, without a warning
    rng = np.random.default_rng(20190311)
    edges = [1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
             np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.0, -0.0,
             np.inf, -np.inf, np.nan, 0.5]
    x = np.concatenate([rng.uniform(-1.5, 1.5, 100_000), edges])
    before = x.copy()
    want = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    want[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mollifier_eval(x)
        scalar = mollifier_eval(0.5)
        zero_d = mollifier_eval(np.array(0.5))
        outside = [mollifier_eval(v) for v in (1.0, np.inf, np.nan)]
    assert np.array_equal(got, want)
    assert np.array_equal(x, before, equal_nan=True)
    assert type(scalar) is float and type(zero_d) is float
    assert scalar == zero_d == want[-1] > 0.0
    assert outside == [0.0, 0.0, 0.0]


def test_mollifier_window_fields():
    f = mollifier_window()
    assert (f.kind, f.lo, f.hi, f.eps) == ("mollifier", -1.0, 1.0, None)
    assert f(np.array([0.0]))[0] == mollifier_eval(0.0)
    assert f(0.25) == mollifier_eval(0.25)


# -------------------------------------------------------------- plateaus

def test_plateau_plus_unit_core_values():
    w = plateau_plus(eps=0.1)
    assert w(0.5) == 1.0
    assert w(0.0) == 1.0
    assert w(1.0) == 1.0
    assert w(-0.1) == 0.0
    assert w(1.1) == 0.0
    assert w(-0.2) == 0.0
    assert (w.lo, w.hi) == (-0.1, 1.1)


def test_plateau_minus_unit_core_values():
    w = plateau_minus(eps=0.1)
    assert w(0.1) == 1.0
    assert w(0.5) == 1.0
    assert w(0.9) == 1.0
    assert w(0.0) == 0.0
    assert w(1.0) == 0.0
    assert w(-0.01) == 0.0
    assert (w.lo, w.hi) == (0.0, 1.0)


def test_plateau_values_between_zero_and_one():
    for w in (plateau_plus(eps=0.3), plateau_minus(eps=0.3),
              plateau_plus(core=(1.0, 2.0), eps=0.05)):
        x = np.linspace(w.lo - 0.5, w.hi + 0.5, 2001)
        v = w(x)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_plateau_ramp_monotone():
    w = plateau_plus(eps=0.2)
    left = w(np.linspace(-0.2, 0.0, 300))
    right = w(np.linspace(1.0, 1.2, 300))
    assert np.all(np.diff(left) >= -1e-15)
    assert np.all(np.diff(right) <= 1e-15)


def test_ramp_matches_the_scalar_formula():
    def g(t):
        return math.exp(-1.0 / t) if t > 0.0 else 0.0

    for t in (0.0, 1e-3, 0.25, 0.5, 1.0):
        want = g(t) / (g(t) + g(1.0 - t))
        assert float(windows._ramp(t)) == pytest.approx(want, rel=1e-15, abs=0.0), t


def test_plateau_ramp_symmetry():
    # the smoothstep g(t) / (g(t) + g(1 - t)) swaps its two terms under
    # t -> 1 - t, so ramp(t) + ramp(1 - t) = 1 and the window is even about
    # its center
    w = plateau_plus(eps=0.25)
    s = np.linspace(0.0, 1.0, 401)
    rising = w(-0.25 + 0.25 * s)
    falling = w(1.25 - 0.25 * s)
    np.testing.assert_allclose(rising, falling, atol=1e-12, rtol=0)
    np.testing.assert_allclose(rising + w(-0.25 + 0.25 * (1.0 - s)),
                               np.ones_like(s), atol=1e-12, rtol=0)


def test_plateau_minus_below_indicator_below_plus():
    eps = 0.15
    plus, minus = plateau_plus(eps=eps), plateau_minus(eps=eps)
    x = np.linspace(-0.5, 1.5, 1001)
    indicator = ((x >= 0.0) & (x <= 1.0)).astype(float)
    assert np.all(minus(x) <= indicator + 1e-15)
    assert np.all(indicator <= plus(x) + 1e-15)
    assert np.all(minus(x) <= plus(x) + 1e-15)


def test_plateau_shifted_core():
    w = plateau_plus(core=(1.0, 2.0), eps=0.05)
    assert w(1.0) == 1.0 and w(1.5) == 1.0 and w(2.0) == 1.0
    assert w(0.95) == 0.0 and w(2.05) == 0.0
    m = plateau_minus(core=(1.0, 2.0), eps=0.05)
    assert m(1.05) == 1.0 and m(1.95) == 1.0
    assert m(1.0) == 0.0 and m(2.0) == 0.0


def test_plateau_eps_validation():
    for eps in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(BadEps):
            plateau_plus(eps=eps)
        with pytest.raises(BadEps):
            plateau_minus(eps=eps)
    # minus needs room for both ramps inside the core
    with pytest.raises(BadEps):
        plateau_minus(core=(0.0, 0.5), eps=0.3)


def test_custom_window_rejects_empty_support():
    with pytest.raises(BadInput):
        custom_window(lambda u: u, lo=1.0, hi=1.0)


@pytest.mark.parametrize("evaluator", [5, None])
def test_custom_window_requires_a_callable_evaluator(evaluator):
    # refused where built, not with a TypeError at its first use
    with pytest.raises(BadInput, match="not callable"):
        custom_window(evaluator, -1.0, 1.0)


@pytest.mark.parametrize("build", [
    lambda: plateau_plus(core=(0.0, 1e19), eps=0.1),
    lambda: plateau_minus(core=(-math.inf, 1.0), eps=0.1),
    lambda: plateau_plus(core=(0.0, 512.0), eps=0.1),
    lambda: custom_window(lambda u: mollifier_eval(u / 1e19), -1e19, 1e19),
    lambda: custom_window(mollifier_eval, math.nan, 1.0),
    lambda: custom_window(mollifier_eval, -1.0, math.inf),
], ids=["plateau 1e19", "plateau -inf", "plateau 512.1", "custom 1e19", "custom nan",
        "custom inf"])
def test_support_past_the_ceiling_is_refused_where_built(build):
    # the scatter's int64 cells and pair count are exact only for supports
    # within MAX_SUPPORT; the named windows reach 2.5
    with pytest.raises(BadInput):
        build()


def test_support_at_the_ceiling_is_accepted():
    assert custom_window(mollifier_eval, -MAX_SUPPORT, MAX_SUPPORT).hi == MAX_SUPPORT


def test_periodized_eval_checks_its_pairs(monkeypatch):
    # 10 angles and a support of length 2 at K = 1: three translates each
    monkeypatch.setattr(windows, "MAX_PAIRS", 29)
    with pytest.raises(BadInput):
        periodized_eval(mollifier_window(), 1.0, np.linspace(0.0, 1.0, 10))
    monkeypatch.setattr(windows, "MAX_PAIRS", 30)
    assert periodized_eval(mollifier_window(), 1.0, np.linspace(0.0, 1.0, 10)).shape == (10,)


def test_window_immutable():
    w = plateau_plus(eps=0.1)
    with pytest.raises(AttributeError):
        w.lo = -1.0


# ------------------------------------------------------------- integrals

def test_plateau_integral_brackets():
    for eps in (0.05, 0.1, 0.3):
        plus_i = plateau_plus(eps=eps).integral()
        minus_i = plateau_minus(eps=eps).integral()
        assert 1.0 <= plus_i <= 1.0 + 2 * eps
        assert 1.0 - 2 * eps <= minus_i <= 1.0
        # the symmetric ramps integrate to eps/2 each
        assert plus_i == pytest.approx(1.0 + eps, abs=1e-9)
        assert minus_i == pytest.approx(1.0 - eps, abs=1e-9)


def test_mollifier_integral_against_scipy():
    f = mollifier_window()
    want, err = scipy.integrate.quad(lambda u: math.exp(-1.0 / (1.0 - u * u)), -1, 1)
    assert f.integral() == pytest.approx(want, abs=max(1e-10, 2 * err))


# ------------------------------------------------------- adaptive Simpson

def test_adaptive_simpson_sine():
    got = adaptive_simpson(np.sin, 0.0, math.pi, tol=1e-10)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_adaptive_simpson_cubic_exact():
    got = adaptive_simpson(lambda u: u**3 - 2 * u, -1.0, 3.0, tol=1e-12)
    assert got == pytest.approx(20.0 - 8.0, abs=1e-9)


def test_adaptive_simpson_narrow_interval_converges():
    got = adaptive_simpson(lambda u: np.ones_like(u), 0.0, 1e-8, tol=1e-10)
    assert got == pytest.approx(1e-8, rel=1e-12)


def test_adaptive_simpson_unattainable_tolerance_fails():
    with pytest.raises(QuadratureFailure, match="exceeded"):
        adaptive_simpson(mollifier_eval, -1.0, 1.0, tol=1e-18)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_adaptive_simpson_non_finite_integrand_fails_in_first_round(kind, value):
    # refining a NaN or inf integrand never meets a budget, so the failure
    # comes with the first round's sums: g is called on the edges, the
    # midpoints and the two quarter points, and no more
    fill = value if kind == "real" else complex(1.0, value)
    calls = []

    def g(u):
        calls.append(u.size)
        return np.full(u.shape, fill)

    with np.errstate(invalid="ignore"), pytest.raises(QuadratureFailure, match="non-finite"):
        adaptive_simpson(g, -1.0, 1.0, tol=1e-8)
    assert len(calls) == 5


def test_quadrature_failure_propagates_through_fourier_hat(monkeypatch):
    monkeypatch.setattr(windows, "DEFAULT_QUAD_TOL", 1e-18)
    with pytest.raises(QuadratureFailure):
        fourier_hat(mollifier_window(), 0.3)


# ------------------------------------------------------------ fourier_hat

def test_fourier_hat_at_zero_is_integral():
    for w in (mollifier_window(), plateau_plus(eps=0.1)):
        assert fourier_hat(w, 0.0).real == pytest.approx(w.integral(), abs=1e-12)
        assert abs(fourier_hat(w, 0.0).imag) < 1e-14


def test_fourier_hat_even_window_is_real():
    f = mollifier_window()
    for xi in (0.3, 1.0, 2.7, 5.0):
        assert abs(fourier_hat(f, xi).imag) < 1e-12


def test_fourier_hat_conjugate_symmetry():
    w = plateau_plus(core=(1.0, 2.0), eps=0.05)
    for xi in (0.25, 1.0, 3.5):
        plus = fourier_hat(w, xi)
        minus = fourier_hat(w, -xi)
        assert minus.real == pytest.approx(plus.real, abs=1e-12)
        assert minus.imag == pytest.approx(-plus.imag, abs=1e-12)


def test_fourier_hat_decay():
    f = mollifier_window()
    assert abs(fourier_hat(f, 10.0)) < 1e-3 * fourier_hat(f, 0.0).real


def test_fourier_hat_against_scipy():
    for w, xis in ((mollifier_window(), (0.0, 0.5, 2.0)),
                   (plateau_plus(core=(1.0, 2.0), eps=0.05), (0.0, 0.5, 2.0))):
        for xi in xis:
            re, _ = scipy.integrate.quad(
                lambda u: w(u) * math.cos(2 * math.pi * u * xi), w.lo, w.hi, limit=200)
            im, _ = scipy.integrate.quad(
                lambda u: -w(u) * math.sin(2 * math.pi * u * xi), w.lo, w.hi, limit=200)
            got = fourier_hat(w, xi)
            assert got.real == pytest.approx(re, abs=1e-8)
            assert got.imag == pytest.approx(im, abs=1e-8)


def test_fourier_hat_richardson_stability():
    # the adaptive answer must sit within DEFAULT_QUAD_TOL of a much finer
    # fixed-resolution midpoint evaluation
    f = mollifier_window()
    for xi in (0.0, 1.5):
        n = 1 << 16
        h = (f.hi - f.lo) / n
        u = f.lo + (np.arange(n) + 0.5) * h
        brute = np.sum(f(u) * np.exp(-2j * np.pi * u * xi)) * h
        assert abs(fourier_hat(f, xi) - brute) < DEFAULT_QUAD_TOL


# ----------------------------------------------------- fourier coefficient

def test_fourier_coefficient_zero_mode():
    f = mollifier_window()
    for K in (1.0, 8.0, 100.0):
        c0 = fourier_coefficient(f, K, 0)
        assert c0.real == pytest.approx(f.integral() / K, rel=1e-10)
        assert abs(c0.imag) < 1e-14


def test_fourier_coefficient_even_window_real_and_symmetric():
    f = mollifier_window()
    for k in (1, 3, 17):
        ck = fourier_coefficient(f, 8.0, k)
        cmk = fourier_coefficient(f, 8.0, -k)
        assert abs(ck.imag) < 1e-12
        assert cmk.real == pytest.approx(ck.real, abs=1e-12)
        assert cmk.imag == pytest.approx(-ck.imag, abs=1e-12)


def test_fourier_coefficient_requires_k_at_least_one():
    with pytest.raises(BadInput):
        fourier_coefficient(mollifier_window(), 0.5, 1)


def test_bulk_coefficients_match_single():
    f = mollifier_window()
    K = 8.0
    bulk = fourier_coefficients_bulk(f, K, 64)
    assert bulk.shape == (65,)
    for k in (0, 1, 2, 7, 32, 64):
        single = fourier_coefficient(f, K, k)
        assert abs(bulk[k] - single) < 1e-13 * max(1.0, abs(single))


def test_coefficient_sum_recovers_periodization_at_zero():
    # Fourier inversion at theta = 0: sum of c_k over |k| <= 40K equals
    # F_K(0), K = 10
    f = mollifier_window()
    K = 10.0
    bulk = fourier_coefficients_bulk(f, K, 400)
    total = bulk[0].real + 2.0 * math.fsum(bulk[1:].real)
    direct = periodized_eval(f, K, 0.0)
    assert abs(total - direct) < 1e-8


# ------------------------------------------------------------ periodized

def test_periodized_single_translate_examples():
    f = mollifier_window()
    assert periodized_eval(f, 100.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert periodized_eval(f, 100.0, math.pi / 4.0) == 0.0


def test_periodized_periodicity():
    f = mollifier_window()
    rng = np.random.default_rng(20260814)
    thetas = rng.uniform(-2.0, 2.0, 256)
    base = periodized_eval(f, 3.0, thetas)
    shifted = periodized_eval(f, 3.0, thetas + HALF_PI)
    np.testing.assert_allclose(shifted, base, atol=1e-12, rtol=0)
    # where the shift is exactly representable the values are identical
    exact = (thetas + HALF_PI) - HALF_PI == thetas
    assert np.any(exact)
    assert np.array_equal(shifted[exact], base[exact])


def test_periodized_wraparound_mass():
    # K = 1: every theta collects contributions from both neighbours
    th = np.linspace(0.0, HALF_PI, 97, endpoint=False)
    direct = np.zeros_like(th)
    for j in range(-3, 4):
        direct += mollifier_eval((th - j * HALF_PI) / HALF_PI)
    np.testing.assert_allclose(periodized_eval(mollifier_window(), 1.0, th), direct,
                               atol=1e-13, rtol=0)


def test_periodized_rejects_small_K():
    with pytest.raises(BadInput):
        periodized_eval(mollifier_window(), 0.5, 0.0)


@pytest.mark.parametrize("K", [0.5, math.inf, math.nan])
def test_windows_reject_sharpness_not_finite_at_least_one(K):
    with pytest.raises(BadInput):
        periodized_eval(mollifier_window(), K, 0.0)
    with pytest.raises(BadInput):
        fourier_coefficient(mollifier_window(), K, 1)
    with pytest.raises(BadInput):
        fourier_coefficients_bulk(mollifier_window(), K, 8)


# ------------------------------------------------------------ descriptors

def test_descriptor_roundtrip_and_identity():
    w = plateau_plus(core=(1.0, 2.0), eps=0.05)
    d = w.descriptor()
    assert d == json.loads(json.dumps(d))
    assert d["kind"] == "plateau_plus"
    assert d["lo"] == 0.95 and d["hi"] == 2.05
    assert d["eps"] == 0.05
    assert plateau_plus(core=(1.0, 2.0), eps=0.05).descriptor() == d
    assert plateau_minus(core=(1.0, 2.0), eps=0.05).descriptor() != d
    assert plateau_plus(core=(1.0, 2.0), eps=0.1).descriptor() != d
    assert mollifier_window().descriptor() != d
