"""Smooth windows, plateau brackets, quadrature and Fourier data."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import masked_plateau
from sectorlab import windows
from sectorlab.errors import MAX_SUPPORT, BadEps, BadInput
from sectorlab.windows import (
    HALF_PI,
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


def _scalar_clamp_mollifier(x):
    out = np.multiply(x, x, out=np.empty_like(x))
    np.subtract(1.0, out, out=out)
    np.fmax(out, windows._TINY, out=out)
    np.divide(-1.0, out, out=out)
    return np.exp(out, out=out)


def _scalar_clamp_ramp(t):
    rise = np.exp(-1.0 / np.fmax(t, windows._TINY))
    fall = np.exp(-1.0 / np.fmax(1.0 - t, windows._TINY))
    return rise / (rise + fall)


def _scalar_clamp_plateau(w, x):
    x = np.fmin(np.fmax(x, w.lo), w.hi)
    return np.minimum(_scalar_clamp_ramp((x - w.lo) / w.eps),
                      _scalar_clamp_ramp((w.hi - x) / w.eps))


CLAMP_EDGES = [1.0, -1.0, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), math.inf, -math.inf, math.nan, -0.0,
               0.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1030), 2.0**-1022, 0.5, -2.0]
BLOCK = windows._CLAMP_BLOCK


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, (1 << 16) + 3])
def test_clamps_match_the_scalar_operand_formula_bytes(size):
    # the clamps take their constant as a row of _CLAMP_BLOCK copies; every
    # value must be the bytes that numpy's scalar-operand fmax and fmin give,
    # on both sides of the block length, past 2^16 values, at the edges
    rng = np.random.default_rng(size)
    plateaus = (plateau_plus(), plateau_minus(), plateau_plus(core=(1.0, 2.0), eps=0.05))
    # the ramps never see NaN, which the plateau clamps away first; only the
    # plateau's upper clamp keeps (x - lo)/eps finite at x = 1e308
    for lo, hi, evaluate, want_of, extra in [
        (-1.5, 1.5, windows.mollifier_eval, _scalar_clamp_mollifier, []),
        (-0.5, 1.5, windows._ramp, _scalar_clamp_ramp, []),
        *[(w.lo - 0.5, w.hi + 0.5, w._eval, lambda x, w=w: _scalar_clamp_plateau(w, x),
           [1e308, -1e308]) for w in plateaus],
    ]:
        edges = CLAMP_EDGES + extra + [lo + 0.5, hi - 0.5, np.nextafter(lo + 0.5, hi)]
        if evaluate is windows._ramp:
            edges = [v for v in edges if not math.isnan(v)]
        x = rng.uniform(lo, hi, size)
        x[:min(size, len(edges))] = edges[:size]
        rng.shuffle(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate(x)
            zero_d = [evaluate(np.array(v)) for v in edges]
            two_d = evaluate(x.reshape(1, -1)) if size else got
            # a transposed and a strided input, the edges and points outside
            # the support among them: a flat view of either would be a copy
            e = np.array(edges[:12])
            others = [(v, evaluate(v)) for v in (e.reshape(3, 4).T, e[::2], e.reshape(3, 4).T[1:])]
        for v, got_v in others:
            assert got_v.shape == v.shape
            want_v = np.ascontiguousarray(want_of(v))
            assert np.ascontiguousarray(got_v).tobytes() == want_v.tobytes()
        want = want_of(x)
        assert np.asarray(got).shape == x.shape
        assert np.asarray(got).tobytes() == want.tobytes(), evaluate
        assert np.asarray(two_d).tobytes() == want.tobytes(), evaluate
        assert np.array([zero_d]).tobytes() == np.array([want_of(np.array(edges))]).tobytes()


@pytest.mark.parametrize("make", [float, np.float64, np.array])
def test_window_and_periodization_give_a_float_for_a_scalar(make):
    # a Python float, a numpy scalar and a 0-d array are each one value
    f = plateau_plus(eps=0.1)
    got = f(make(0.05))
    assert type(got) is float and got == f(np.array([0.05]))[0] > 0.0
    got = periodized_eval(f, 4.0, make(0.3))
    assert type(got) is float and got == periodized_eval(f, 4.0, np.array([0.3]))[0] > 0.0


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


def test_plateau_edges_match_the_masked_formula():
    # the one-pass evaluator clamps x into [lo, hi] in place of a mask: at
    # the ends, past them, at +-inf and at NaN it must give the masked
    # formula's +0.0, and inside the same bytes, with no warning raised
    rng = np.random.default_rng(40)
    for w in (plateau_plus(), plateau_minus(), plateau_plus(core=(1.0, 2.0), eps=0.05),
              plateau_minus(core=(-3.0, 0.5), eps=0.2)):
        ends = [w.lo, w.hi, np.nextafter(w.lo, w.hi), np.nextafter(w.hi, w.lo),
                np.nextafter(w.lo, -math.inf), np.nextafter(w.hi, math.inf)]
        x = np.array([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0,
                      *ends, *rng.uniform(w.lo - 0.5, w.hi + 0.5, 500)])
        want = masked_plateau(w, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = w(x)
            one_by_one = np.array([w(v) for v in x])
            clamped = w._eval(x)
        assert got.tobytes() == one_by_one.tobytes() == clamped.tobytes() == want.tobytes(), w
        assert np.count_nonzero(want) > 100  # the random points reach inside


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
        # the symmetric ramps integrate to eps/2 each, and the midpoint rule
        # is spectrally exact on them: the sum is the integral to rounding
        assert abs(plus_i - (1.0 + eps)) <= 2 * np.spacing(1.0 + eps)
        assert abs(minus_i - (1.0 - eps)) <= 2 * np.spacing(1.0 - eps)


def test_mollifier_integral_against_scipy():
    f = mollifier_window()
    want, err = scipy.integrate.quad(lambda u: math.exp(-1.0 / (1.0 - u * u)), -1, 1)
    assert f.integral() == pytest.approx(want, abs=max(1e-10, 2 * err))


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


def test_fourier_hat_admits_a_zero_bump_and_no_frequency_past_the_node_ceiling():
    # a zero bump's transform is zero, the right answer; the node count of a
    # huge |xi| is refused before any allocation, even past the float range
    # of 4 |xi|
    zero = custom_window(lambda u: np.zeros_like(u), -1.0, 1.0)
    assert fourier_hat(zero, 0.3) == 0.0 and fourier_coefficient(zero, 2.0, 3) == 0.0
    for xi in (2.0**18, 1e308, -1e308):
        with pytest.raises(BadInput, match="midpoint nodes"):
            fourier_hat(mollifier_window(), xi)


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
            assert got.real == pytest.approx(re, abs=1e-12)
            assert got.imag == pytest.approx(im, abs=1e-12)


def test_fourier_hat_richardson_stability(monkeypatch):
    # the midpoint rule has converged: at twice its nodes fourier_hat moves
    # by rounding alone
    cases = [(w, xi) for w in (mollifier_window(), plateau_plus(core=(1.0, 2.0), eps=0.05))
             for xi in (0.0, 1.5, 200.0)]
    before = [fourier_hat(w, xi) for w, xi in cases]
    nodes = windows._node_count
    monkeypatch.setattr(windows, "_node_count", lambda xi_max: 2 * nodes(xi_max))
    for (w, xi), value in zip(cases, before):
        assert abs(fourier_hat(w, xi) - value) <= 1e-15 * w.integral()


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


def _skewed_bump():
    # smooth and vanishing to all orders at its ends, like the named windows,
    # so midpoint rules of any node count agree; lopsided, so c_k is complex
    return custom_window(lambda x: mollifier_eval((x - 0.3) / 1.3) * (1.0 + 0.4 * x), -1.0, 1.6)


BULK_WINDOWS = {"mollifier": mollifier_window, "plateau_plus": plateau_plus,
                "plateau_minus": plateau_minus, "custom": _skewed_bump}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(BULK_WINDOWS)), K=st.floats(1.0, 1e3),
       k_max=st.integers(0, 1 << 14), share=st.floats(0.0, 1.0))
# the gridded kernel's tail was 3.4e-14 c_0 off here
@example(kind="plateau_plus", K=3.0, k_max=4096, share=1.0)
@example(kind="mollifier", K=1e6**0.55, k_max=262_144, share=1.0)
def test_bulk_coefficients_match_exact_sampler(kind, K, k_max, share):
    # the error note of fourier_coefficients_bulk, S = sum |w| / K: FFT
    # rounding, the dilation by the rounded alpha, and fourier_hat's own error
    f = BULK_WINDOWS[kind]()
    c = fourier_coefficients_bulk(f, K, k_max)
    assert c.shape == (k_max + 1,)
    weights = windows._midpoint_nodes(f, k_max / K)[2]
    S = math.fsum(np.abs(weights)) / K
    fft = math.log2(2 * (weights.size + k_max)) * 2.0**-53 * S
    for k in {0, min(1, k_max), round(share * k_max), k_max}:
        want = fourier_coefficient(f, K, k)
        dilation = 2 * math.pi * (k / K) * max(abs(f.lo), abs(f.hi)) * 2.0**-52 * abs(want)
        assert abs(c[k] - want) <= fft + dilation + 2.0**-46 * S, (k, c[k], want)


@pytest.mark.parametrize("s", [-1010, 1020])
def test_bulk_scales_exactly_by_a_power_of_two(s):
    # every weight of 3 + x, times 2^s, and every c_k stays normal, yet an
    # unscaled FFT of these weights underflows at 2^-1010 and overflows at 2^1020
    f = custom_window(lambda x: 3.0 + x, -0.7, 1.3)
    scaled = custom_window(lambda x: math.ldexp(1.0, s) * (3.0 + x), -0.7, 1.3)
    c = fourier_coefficients_bulk(f, 70**0.5, 8).view(np.float64)
    got = fourier_coefficients_bulk(scaled, 70**0.5, 8).view(np.float64)
    assert np.array_equal(np.ldexp(got, -s), c)


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
