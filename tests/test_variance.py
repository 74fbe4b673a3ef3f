"""Tests for smoothed counts, their spectra, and the two variance routes.

The direct route (uniform angular grid of the defining sum) and the
spectral route (Parseval over coefficients c_k S_k) are implemented
independently; the tests lean on that by checking one against the other
and both against explicit entry-list or hand-built oracles.
"""

import math
import time
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import constant_window, lambda_entries, traced_peak
from sectorlab import variance as variance_mod
from sectorlab.characters import _weighted_entries, character_sum, character_sum_table
from sectorlab.errors import (GRID_CAP, KMAX_CAP, MAX_NODES, MAX_PAIRS, AliasingRisk, BadInput,
                              TruncationFailure)
from sectorlab.variance import (
    PsiSpectrum,
    _midpoint_coefficient,
    _power_part_grid,
    _scatter_grid,
    mean_formula,
    psi_eval,
    psi_grid,
    psi_spectrum,
    truncation_kmax,
    variance_direct,
    variance_parseval,
    variance_sweep,
)
from sectorlab.windows import (
    HALF_PI,
    custom_window,
    fourier_coefficient,
    fourier_coefficients_bulk,
    mollifier_eval,
    mollifier_window,
    periodized_eval,
    plateau_plus,
)


def bump():
    return mollifier_window()


def plateau_1_2(eps=0.05):
    return plateau_plus(core=(1.0, 2.0), eps=eps)


def zero_window():
    return custom_window(lambda u: np.zeros_like(np.asarray(u, dtype=float)), -1.0, 1.0)


def step_window():
    # integrates to exactly zero on the midpoint grids but is not the
    # zero function: +1 on the left half of the support, -1 on the right
    return custom_window(
        lambda u: np.where(np.asarray(u, dtype=float) < 0.0, 1.0, -1.0), -1.0, 1.0
    )


# ------------------------------------------------------------ truncation

def test_truncation_certificate_shape_and_decay():
    k_max, cert = truncation_kmax(bump(), 8.0)
    assert k_max == 1024
    assert k_max & (k_max - 1) == 0
    assert cert["k_max"] == k_max
    assert cert["threshold_ratio"] == 1e-14
    assert set(cert["checked"]) == {"1024", "2048", "4096"}
    for mag in cert["checked"].values():
        assert mag <= 1e-14 * cert["c0"]
    assert cert["tail_ratio_at_kmax"] <= 1e-14
    assert cert["tail_ratio_at_kmax"] == cert["checked"][str(k_max)] / cert["c0"]


def test_truncation_kmax_monotone_in_sharpness():
    # dilation by K stretches the spectrum by K, so the certified cutoff
    # cannot shrink as K grows; the values are frozen as a regression
    cuts = {K: truncation_kmax(bump(), K)[0] for K in (1.0, 8.0, 64.0)}
    assert cuts == {1.0: 128, 8.0: 1024, 64.0: 8192}


def test_truncation_certifies_the_default_plateau_at_root_ten():
    # the plateau's shoulders are C-infinity, so its transform decays past
    # the threshold for three octaves from 2048 on at K = sqrt(10)
    k_max, cert = truncation_kmax(plateau_plus(), 10**0.5)
    assert k_max == 2048
    assert set(cert["checked"]) == {"2048", "4096", "8192"}
    for mag in cert["checked"].values():
        assert mag <= 1e-14 * cert["c0"]


def test_truncation_cap_failure(monkeypatch):
    monkeypatch.setattr(variance_mod, "KMAX_CAP", 2)
    with pytest.raises(TruncationFailure):
        truncation_kmax(bump(), 8.0)


@pytest.fixture
def no_table(monkeypatch):
    """Make any read of the prime-power table fail, so a check must come first."""
    def fail(*args):
        raise AssertionError("read the prime-power table before checking the arguments")

    for module in ("characters", "variance"):
        monkeypatch.setattr(f"sectorlab.{module}._lambda_arrays", fail)


def test_truncation_zero_window(no_table):
    # the zero bump has no relative tail decay: both samplers of c_k refuse it
    with pytest.raises(BadInput):
        truncation_kmax(zero_window(), 4.0)
    with pytest.raises(BadInput):
        fourier_coefficients_bulk(zero_window(), 4.0, 8)


def test_truncation_signed_zero_integral_rejected():
    with pytest.raises(BadInput):
        truncation_kmax(step_window(), 4.0)


def _refused(error, call, *args):
    with pytest.raises(error):
        call(*args)


@pytest.mark.parametrize("K", [16.0, 1.0])
def test_truncation_walk_stops_at_the_node_ceiling(K):
    # the indicator of [-0.7, 0.6] has a transform decaying like 1/xi, so no
    # octave certifies it; the walk stops before an octave past MAX_NODES,
    # whose last sample holds about 48 bytes per node (nodes, weights,
    # complex phases and terms), not the gigabytes of a walk to KMAX_CAP
    indicator = custom_window(lambda u: ((u > -0.7) & (u < 0.6)).astype(float), -1.0, 1.0)
    _, peak = traced_peak(_refused, TruncationFailure, truncation_kmax, indicator, K)
    assert peak <= 64 * MAX_NODES


def test_bulk_refuses_nodes_past_the_ceiling():
    # k_max = KMAX_CAP at K = 1 would take 2^26 nodes: refused before allocation
    _, peak = traced_peak(_refused, BadInput, fourier_coefficients_bulk, bump(), 1.0, KMAX_CAP)
    assert peak < 1 << 16


SHARPNESS_CALLS = {
    "truncation_kmax": lambda K: truncation_kmax(bump(), K),
    "psi_grid": lambda K: psi_grid(K, 1e3, bump(), plateau_1_2(), grid_size=64),
    "psi_spectrum": lambda K: psi_spectrum(K, 1e3, bump(), plateau_1_2()),
    "variance_direct": lambda K: variance_direct(K, 1e3, bump(), plateau_1_2()),
    "psi_eval": lambda K: psi_eval(0.3, K, 1e3, bump(), plateau_1_2()),
}


@pytest.mark.parametrize("call", sorted(SHARPNESS_CALLS))
@pytest.mark.parametrize("K", [0.0, math.nan, math.inf, -2.0, 0.5])
def test_sharpness_must_be_finite_and_at_least_one(no_table, K, call):
    # the check comes before any work: the prime-power table is never read
    with pytest.raises(BadInput):
        SHARPNESS_CALLS[call](K)


BUMP_CALLS = {
    "truncation_kmax": lambda f: truncation_kmax(f, 4.0),
    "psi_spectrum": lambda f: psi_spectrum(4.0, 1e3, f, plateau_1_2()),
    "variance_direct": lambda f: variance_direct(4.0, 1e3, f, plateau_1_2()),
    "fourier_coefficients_bulk": lambda f: fourier_coefficients_bulk(f, 4.0, 8),
}


@pytest.mark.parametrize("call", sorted(BUMP_CALLS))
@pytest.mark.parametrize("value", [math.nan, math.inf, 1e308])
def test_bump_needs_a_finite_integral(no_table, value, call):
    # a constant 1e308 on [-1, 1] integrates to 2e308, past the largest
    # double; each call samples the bump through the midpoint rule, which
    # refuses it at once and before any enumeration
    window = constant_window(value, -1.0, 1.0)
    start = time.perf_counter()
    with np.errstate(over="ignore"), pytest.raises(BadInput):
        BUMP_CALLS[call](window)
    assert time.perf_counter() - start < 0.1


CUTOFF_CALLS = {
    "character_sum": lambda phi: character_sum(1, 1e3, phi),
    "character_sum_table": lambda phi: character_sum_table(1e3, 8, phi),
    "psi_eval": lambda phi: psi_eval(0.3, 4.0, 1e3, bump(), phi),
    "psi_grid": lambda phi: psi_grid(4.0, 1e3, bump(), phi, grid_size=64),
    "psi_spectrum": lambda phi: psi_spectrum(4.0, 1e3, bump(), phi),
    "variance_direct": lambda phi: variance_direct(4.0, 1e3, bump(), phi),
}


@pytest.mark.parametrize("call", sorted(CUTOFF_CALLS))
@pytest.mark.parametrize("value", [math.nan, math.inf, 1e308])
def test_cutoff_weights_must_be_finite(value, call):
    # at X = 1e3 the norms on [1, 2] exceed 999, so log N > 6.9 and a
    # constant 1e308 gives Phi(N/X) log N = inf
    with np.errstate(over="ignore"), pytest.raises(BadInput):
        CUTOFF_CALLS[call](constant_window(value, 1.0, 2.0))


GRID_CALLS = {
    "periodized_eval": lambda f: periodized_eval(f, 4.0, np.linspace(0.0, HALF_PI, 16)),
    "psi_eval": lambda f: psi_eval(0.3, 4.0, 1e3, f, plateau_1_2()),
    "psi_grid": lambda f: psi_grid(4.0, 1e3, f, plateau_1_2(), grid_size=64),
}
NON_FINITE_BUMPS = {
    "nan": lambda: constant_window(math.nan, -1.0, 1.0),
    "inf": lambda: constant_window(math.inf, -1.0, 1.0),
    "+-inf": lambda: custom_window(lambda u: np.where(u < 0.0, math.inf, -math.inf), -1.0, 1.0),
}


@pytest.mark.parametrize("call", sorted(GRID_CALLS))
@pytest.mark.parametrize("bump_values", sorted(NON_FINITE_BUMPS))
def test_non_finite_bump_values_are_refused(bump_values, call):
    # these never sample the bump through the midpoint rule; each checks its
    # output once, so a NaN or inf bump is BadInput, not NaN, inf or an
    # untyped error from the exact sum
    with np.errstate(invalid="ignore"), pytest.raises(BadInput, match="bump custom"):
        GRID_CALLS[call](NON_FINITE_BUMPS[bump_values]())


def test_zero_bump_gives_zero_values():
    # the zero bump's psi is identically zero, which is the right answer
    assert not psi_grid(4.0, 1e3, zero_window(), plateau_1_2(), grid_size=64).any()
    assert psi_eval(0.3, 4.0, 1e3, zero_window(), plateau_1_2()) == 0.0


# ------------------------------------------------------------ psi_eval

def oracle_psi(theta, K, X, phi):
    """Entry-list oracle: explicit periodised translates, fsum order."""
    lo = max(0, math.ceil(X * phi.lo) - 1)
    hi = math.floor(X * phi.hi)
    terms = []
    for e in lambda_entries(lo, hi):
        fk = math.fsum(
            mollifier_eval((K / HALF_PI) * (e.theta - theta + j * HALF_PI))
            for j in range(-6, 7)
        )
        terms.append(phi(e.norm / X) * e.weight * fk)
    return math.fsum(terms)


def test_psi_eval_matches_entrywise_oracle():
    phi = plateau_1_2()
    for theta in (0.0, 0.4, 1.3):
        got = psi_eval(theta, 5.0, 50.0, bump(), phi)
        assert got == pytest.approx(oracle_psi(theta, 5.0, 50.0, phi), abs=1e-10)


def test_psi_eval_zero_window_vanishes():
    phi = plateau_1_2()
    for theta in (0.0, 0.3, 1.1):
        assert psi_eval(theta, 4.0, 100.0, zero_window(), phi) == 0.0


def test_psi_powers_dominates_primes():
    # the r >= 2 part of psi is a sum of nonnegative terms, and the prime
    # part it leaves behind is too
    phi = plateau_1_2()
    powers = _power_part_grid(4.0, 300.0, bump(), phi, 64)
    whole = psi_grid(4.0, 300.0, bump(), phi, grid_size=64)
    assert np.all(powers >= 0.0)
    assert np.all(whole - powers >= -1e-12 * np.maximum(1.0, whole))
    # the window (285, 615] contains prime powers (17^2, 7^3, 19^2, ...)
    assert powers.max() > 0.0


# ------------------------------------------------------------ mean

def test_mean_formula_halves_when_K_doubles():
    phi = plateau_1_2()
    assert mean_formula(16.0, 100.0, bump(), phi) == 0.5 * mean_formula(8.0, 100.0, bump(), phi)


def test_mean_formula_tracks_grid_mean():
    spectrum = psi_spectrum(10.0, 1e5, bump(), plateau_1_2())
    predicted = mean_formula(10.0, 1e5, bump(), plateau_1_2())
    assert abs(spectrum.mean - predicted) <= 0.05 * predicted


# ------------------------------------------------------------ spectrum

def test_spectrum_zero_mode_is_grid_mean():
    sp = psi_spectrum(8.0, 1e4, bump(), plateau_1_2())
    assert sp.coeffs[0].imag == 0.0
    values = psi_grid(8.0, 1e4, bump(), plateau_1_2(), grid_size=4 * sp.k_max)
    grid_mean = math.fsum(values) / values.size
    assert abs(sp.mean - grid_mean) <= 1e-10 * grid_mean


def test_spectrum_coefficients_bounded_by_zero_mode():
    sp = psi_spectrum(8.0, 1e4, bump(), plateau_1_2())
    s0 = character_sum(0, 1e4, plateau_1_2()).real
    c0 = fourier_coefficient(bump(), 8.0, 0).real
    assert sp.coeffs[0].real == pytest.approx(c0 * s0, rel=1e-10)
    for k in (1, 2, 3, 5, 8, 13, 64):
        # the adaptive-quadrature route to c_k is independent of the
        # midpoint route used inside the spectrum
        ck = abs(fourier_coefficient(bump(), 8.0, k))
        assert abs(sp.coeffs[k]) <= (ck + 1e-9 * c0) * s0


def test_spectrum_certificate_certified():
    sp = psi_spectrum(8.0, 1e4, bump(), plateau_1_2())
    assert sp.certificate["certified"] is True
    assert sp.certificate["tail_term_over_mean"] < 1e-12


def test_spectrum_synthesis_matches_direct_eval():
    sp = psi_spectrum(8.0, 1e4, bump(), plateau_1_2())
    rng = np.random.default_rng(20260814)
    for theta in rng.uniform(0.0, HALF_PI, 16):
        direct = psi_eval(theta, 8.0, 1e4, bump(), plateau_1_2())
        assert abs(direct - sp.synthesize(theta)) <= 1e-8 * sp.mean


def test_synthesized_series_is_real():
    sp = psi_spectrum(8.0, 1e4, bump(), plateau_1_2())
    k = np.arange(1, sp.k_max + 1)
    for theta in (0.0, 0.37, 1.42):
        full = (
            sp.coeffs[0]
            + np.sum(sp.coeffs[1:] * np.exp(-4j * k * theta))
            + np.sum(np.conj(sp.coeffs[1:]) * np.exp(4j * k * theta))
        )
        assert abs(full.imag) <= 1e-10 * sp.mean
        assert abs(full.real - sp.synthesize(theta)) <= 1e-10 * sp.mean


def test_spectrum_zero_window_path(no_table):
    with pytest.raises(BadInput):
        psi_spectrum(4.0, 200.0, zero_window(), plateau_1_2())


def loop_synthesis(sp, theta):
    """The per-angle loop synthesize once ran, kept as an oracle."""
    k = np.arange(1, sp.k_max + 1)
    tail = sp.coeffs[1:]
    return sp.coeffs[0].real + 2.0 * float(
        np.sum(tail.real * np.cos(4.0 * k * theta) + tail.imag * np.sin(4.0 * k * theta))
    )


@pytest.fixture(scope="module")
def spectrum_8_1e4():
    sp = psi_spectrum(8.0, 1e4, bump(), plateau_1_2())
    assert sp.k_max == 1024
    return sp


def test_synthesis_matches_per_angle_loop(spectrum_8_1e4):
    sp = spectrum_8_1e4
    # 300 angles span several blocks of _PAIR_BUDGET // k_max = 64 angles
    thetas = np.random.default_rng(20261018).uniform(-HALF_PI, 2.0 * HALF_PI, 300)
    got = sp.synthesize(thetas)
    for theta, value in zip(thetas, got):
        assert abs(value - loop_synthesis(sp, theta)) <= 1e-13 * sp.mean


@pytest.mark.parametrize("theta", [0.3, np.float64(0.3), np.array(0.3)])
def test_synthesis_of_a_scalar_is_a_float(spectrum_8_1e4, theta):
    sp = spectrum_8_1e4
    value = sp.synthesize(theta)
    assert type(value) is float
    assert abs(value - loop_synthesis(sp, 0.3)) <= 1e-13 * sp.mean


@pytest.mark.parametrize("shape", [(), (7,), (0,), (2, 3), (3, 1024)],
                         ids=lambda shape: "x".join(map(str, shape)) or "0d")
def test_synthesis_keeps_input_shape(spectrum_8_1e4, shape):
    sp = spectrum_8_1e4
    thetas = np.random.default_rng(7).uniform(0.0, HALF_PI, shape)
    got = sp.synthesize(thetas)
    assert np.shape(got) == shape
    flat = np.ravel(got)
    for j in (0, flat.size // 2, flat.size - 1)[:flat.size]:
        assert abs(flat[j] - loop_synthesis(sp, thetas.flat[j])) <= 1e-13 * sp.mean


def test_memory_gate_synthesis(spectrum_8_1e4):
    # beyond its output a call holds two blocks of _PAIR_BUDGET (angle, mode)
    # pairs at 8 B each (1 MiB together); 4k over the k_max modes with the
    # int64 arange it is made from (16 B per mode, 16 KiB); and numpy's
    # iterator buffers, np.getbufsize() float64 values for each broadcast
    # operand of a ufunc, two at most (the angle column and the 4k row of
    # the outer product), 128 KiB.  64 KiB covers the per-block sums, views
    # and scalars.  An outer product over all 2^14 angles would hold
    # 2^14 x 1024 x 8 B = 128 MiB per array
    sp = spectrum_8_1e4
    thetas = np.linspace(0.0, HALF_PI, 1 << 14)
    out, peak = traced_peak(sp.synthesize, thetas)
    allowance = (2 * 8 * variance_mod._PAIR_BUDGET + 16 * sp.k_max
                 + 2 * 8 * np.getbufsize() + (1 << 16))
    assert peak <= out.nbytes + allowance, (peak, out.nbytes)


# ------------------------------------------------------------ variance

def test_variance_direct_zero_window(no_table):
    with pytest.raises(BadInput):
        variance_direct(4.0, 200.0, zero_window(), plateau_1_2())


def test_parseval_zero_and_single_mode():
    const = PsiSpectrum(coeffs=np.array([2.5 + 0.0j]), certificate={})
    assert const.k_max == 0
    assert variance_parseval(const) == 0.0
    z = 0.3 - 0.4j
    mode = PsiSpectrum(coeffs=np.array([2.5 + 0.0j, z]), certificate={})
    assert mode.k_max == 1
    assert variance_parseval(mode) == pytest.approx(2.0 * abs(z) ** 2, rel=1e-14)
    # the synthesised single mode has the same variance on any fine grid
    grid = np.arange(64) * (HALF_PI / 64)
    vals = mode.synthesize(grid)
    var = np.mean((vals - np.mean(vals)) ** 2)
    assert var == pytest.approx(2.0 * abs(z) ** 2, rel=1e-12)


def test_direct_matches_parseval():
    sp = psi_spectrum(8.0, 1e4, bump(), plateau_1_2())
    vd = variance_direct(8.0, 1e4, bump(), plateau_1_2())
    vp = variance_parseval(sp)
    assert abs(vd - vp) <= 1e-6 * vd


@pytest.mark.parametrize("tau", [0.4, 0.55])
def test_direct_matches_parseval_tightly(tau):
    # the routes share only the entry table; both agree to ~1e-15 when the
    # kernel keeps each phase's cell offset at full precision
    K = 1e4**tau
    sp = psi_spectrum(K, 1e4, bump(), plateau_1_2())
    vd = variance_direct(K, 1e4, bump(), plateau_1_2())
    assert abs(vd - variance_parseval(sp)) <= 1e-13 * vd


def test_bulk_tail_coefficient_matches_single_sum():
    # c_{k_max} sits near 1e-14 c_0 at K = 1e6^0.55, so any drift or phase
    # rounding in the bulk transform shows at this end of the table
    f = bump()
    K = 1e6**0.55
    k_max = 262_144
    c = fourier_coefficients_bulk(f, K, k_max)
    assert abs(c[k_max] - _midpoint_coefficient(f, K, k_max)) <= 1e-14 * abs(c[0])


def test_variance_grid_refinement_invariant():
    k_max, _ = truncation_kmax(bump(), 8.0)
    v1 = variance_direct(8.0, 1e4, bump(), plateau_1_2(), grid_size=4 * k_max)
    v2 = variance_direct(8.0, 1e4, bump(), plateau_1_2(), grid_size=8 * k_max)
    assert abs(v1 - v2) <= 1e-9 * v1


def test_aliasing_warning_on_coarse_grid():
    k_max, _ = truncation_kmax(bump(), 8.0)
    with pytest.warns(AliasingRisk):
        variance_direct(8.0, 1e4, bump(), plateau_1_2(), grid_size=2 * k_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        variance_direct(8.0, 1e4, bump(), plateau_1_2(), grid_size=4 * k_max)


def test_psi_grid_matches_pointwise_eval():
    values = psi_grid(4.0, 500.0, bump(), plateau_1_2(), grid_size=64)
    scale = float(np.max(np.abs(values)))
    step = HALF_PI / 64
    for j in range(0, 64, 7):
        direct = psi_eval(j * step, 4.0, 500.0, bump(), plateau_1_2())
        assert abs(values[j] - direct) <= 1e-10 * (1.0 + scale)


def leaky_window():
    # the mollifier inside [-1, 1], but 5 clearly outside it: any
    # evaluation past an entry's support shows up in the scatter
    def evaluate(u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) <= 1.0 + 1e-9, mollifier_eval(u), 5.0)

    return custom_window(evaluate, -1.0, 1.0)


WINDOWS = {"mollifier": bump, "plateau": lambda: plateau_plus(core=(0.3, 1.1), eps=0.2),
           "leaky": leaky_window}


def brute_scatter(thetas, weights, K, f, grid_size):
    """Per-angle oracle: F_K(theta_a - theta_i) summed over entries at each grid angle."""
    grid = np.arange(grid_size) * (HALF_PI / grid_size)
    return np.array([math.fsum(weights * periodized_eval(f, K, thetas - t)) for t in grid])


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.floats(0.0, HALF_PI, exclude_max=True), st.floats(-3.0, 3.0)),
        max_size=8,
    ),
    K=st.floats(1.0, 40.0),
    grid_size=st.integers(1, 96),
    kind=st.sampled_from(sorted(WINDOWS)),
)
# supports wrapping past 0 and past pi/2
@example(entries=[(0.0, 1.0), (0.01, 2.0), (HALF_PI - 0.01, -1.5)], K=8.0, grid_size=64,
         kind="mollifier")
# K = 1: one support covers two periods, more cells than the grid has
@example(entries=[(0.3, 1.0)], K=1.0, grid_size=8, kind="mollifier")
@example(entries=[(0.3, 1.0), (1.2, 0.5)], K=1.0, grid_size=8, kind="leaky")
# counts differ between entries: 24 or 25 cells (plateau), 40 or 41 (leaky)
@example(entries=[(0.2, 1.0), (0.215, -2.0), (0.9, 0.5)], K=3.0, grid_size=61, kind="plateau")
@example(entries=[(0.2, 1.0), (0.215, -2.0), (0.9, 0.5)], K=3.0, grid_size=61, kind="leaky")
# empty input: zeros
@example(entries=[], K=4.0, grid_size=16, kind="mollifier")
def test_scatter_grid_matches_per_angle_oracle(entries, K, grid_size, kind):
    f = WINDOWS[kind]()
    thetas = np.array([t for t, _ in entries], dtype=float)
    weights = np.array([w for _, w in entries], dtype=float)
    got = _scatter_grid(thetas, weights, K, f, grid_size)
    want = brute_scatter(thetas, weights, K, f, grid_size)
    assert got.shape == (grid_size,) and got.dtype == np.float64
    # each entry adds at most 2 + 2/K overlapping translates, each <= 1
    bound = float(np.sum(np.abs(weights))) * (2.0 + 2.0 / K)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * (1.0 + bound)


def _read_only_eval(u):
    out = mollifier_eval(u)
    out.setflags(write=False)
    return out


def _float32_eval(u):
    return mollifier_eval(u).astype(np.float32)


def _in_place_eval(u):
    u[...] = mollifier_eval(u)
    return u


@pytest.mark.parametrize("evaluator", [_read_only_eval, _float32_eval, _in_place_eval],
                         ids=["read_only", "float32", "in_place"])
def test_scatter_survives_awkward_evaluators(evaluator):
    # the scatter may only read what the evaluator returns: writing the
    # weights into it fails on a read-only array and rounds to float32
    rng = np.random.default_rng(11)
    thetas = np.concatenate([[0.0, 0.01, HALF_PI - 0.01], rng.uniform(0.0, HALF_PI, 37)])
    weights = rng.uniform(-3.0, 3.0, thetas.size)
    f = custom_window(evaluator, -1.0, 1.0)
    for K, grid_size in ((3.0, 61), (8.0, 64), (1.0, 8)):
        got = _scatter_grid(thetas, weights, K, f, grid_size)
        want = brute_scatter(thetas, weights, K, f, grid_size)
        assert got.dtype == np.float64
        bound = float(np.sum(np.abs(weights))) * (2.0 + 2.0 / K)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + bound)


def test_scatter_stays_inside_support_on_real_cell():
    # a tripwire window records every argument the scatter hands it; on a
    # real cell all of them must lie in the support, and the grid must be
    # bitwise the one the plain mollifier gives
    seen = []

    def recording(u):
        seen.append((float(np.min(u)), float(np.max(u))))
        return mollifier_eval(u)

    X = 1e4
    K = X**0.4
    k_max, _ = truncation_kmax(bump(), K)
    tripwire = custom_window(recording, -1.0, 1.0)
    got = psi_grid(K, X, tripwire, plateau_1_2(), grid_size=4 * k_max)
    assert seen
    assert min(lo for lo, _ in seen) >= -1.0 - 1e-12
    assert max(hi for _, hi in seen) <= 1.0 + 1e-12
    assert np.array_equal(got, psi_grid(K, X, bump(), plateau_1_2(), grid_size=4 * k_max))


def plain_scatter(thetas, weights, K, f, grid_size):
    """The direct scatter with one step per support offset: the byte oracle
    for the blocked loop, which must add the same terms in the same order."""
    G = int(grid_size)
    step = HALF_PI / G
    scale = K / HALF_PI
    i_lo = np.ceil((thetas - f.hi / scale) / step).astype(np.int64)
    i_hi = np.floor((thetas - f.lo / scale) / step).astype(np.int64)
    counts = np.maximum(i_hi - i_lo + 1, 0)
    order = np.argsort(-counts, kind="stable")
    thetas, weights, i_lo, counts = thetas[order], weights[order], i_lo[order], counts[order]
    span = int(counts.max(initial=0))
    first_cell = np.mod(i_lo, G)
    x0 = (thetas - i_lo * step) * scale
    dx = step * scale
    xbuf = np.empty(thetas.size, dtype=np.float64)
    vbuf = np.empty(thetas.size, dtype=np.float64)
    spill = np.zeros(G + span, dtype=np.float64)
    live = np.searchsorted(-counts, -np.arange(span))
    for j, n in enumerate(live):
        x = np.subtract(x0[:n], j * dx, out=xbuf[:n])
        vals = np.multiply(f._eval(x), weights[:n], out=vbuf[:n])
        np.add.at(spill[j:], first_cell[:n], vals)
    return np.bincount(np.arange(spill.size) % G, weights=spill, minlength=G)


# a budget-1 case takes one Python step per (entry, offset) pair, up to
# about 60 us each for the plateau: X = 3000, K = 1, G = 2^12 would take
# about 3 M of them, so budget-1 draws are kept to this many pairs (at most
# about 0.6 s a case)
BUDGET_ONE_PAIRS = 10_000


def _blocked_scatter_cases():
    """(X, K, grid_size, kind, budget) cases of the blocked scatter byte test.

    Four seeded draws for each window kind and pair budget, over X in
    [2, 3000], K in [1, 40] and G in [1, 2^12], so every run draws the same
    cases whatever else is loaded; a budget-1 draw over BUDGET_ONE_PAIRS
    pairs is drawn again.  Then the corner X = 2, K = 1, G = 1 and two
    hand-picked shapes.
    """
    rng = np.random.default_rng(1903_04005)
    cases = []
    for kind in sorted(WINDOWS):
        for budget in (1, 64, variance_mod._PAIR_BUDGET):
            for _ in range(4):
                while True:
                    X, K = int(rng.integers(2, 3001)), float(rng.uniform(1.0, 40.0))
                    G, f = int(rng.integers(1, (1 << 12) + 1)), WINDOWS[kind]()
                    if budget > 1 or _support_counts(_weighted_entries(float(X), plateau_1_2())[0],
                                                     K, G, f.lo, f.hi).sum() <= BUDGET_ONE_PAIRS:
                        break
                cases.append((X, K, G, kind, budget))
    return cases + [
        (2, 1.0, 1, "mollifier", 1),
        # few entries over thousands of offsets: a handful of blocked steps
        (100, 2.5, 1 << 12, "mollifier", variance_mod._PAIR_BUDGET),
        # a budget below the live count: one offset per step, over slices
        (3000, 3.0, 1 << 10, "leaky", 64),
    ]


def test_blocked_scatter_matches_plain_loop_bytes():
    cases = _blocked_scatter_cases()
    assert {(kind, budget) for _, _, _, kind, budget in cases} == {
        (kind, budget) for kind in WINDOWS for budget in (1, 64, variance_mod._PAIR_BUDGET)}
    for X, K, grid_size, kind, budget in cases:
        f = WINDOWS[kind]()
        thetas, weights = _weighted_entries(float(X), plateau_1_2())
        with mock.patch.object(variance_mod, "_PAIR_BUDGET", budget):
            got = _scatter_grid(thetas, weights, K, f, grid_size)
        want = plain_scatter(thetas, weights, K, f, grid_size)
        assert got.tobytes() == want.tobytes(), (X, K, grid_size, kind, budget)


def _shared_first_cells():
    """Entries of which several share a first cell, with equal and unequal counts.

    At K = 3 and G = 64 a mollifier support spans 2G/K = 42.67 cells, so an
    entry at (i + d) step + P/K has first cell i + 1 and 42 cells for d <
    1/3, 43 for d >= 1/3.  The entries of one cell are spread through the
    input between those of other cells, and their weights differ in
    magnitude, so a cell that took its additions in another order would
    round differently.
    """
    G, K = 64, 3.0
    step = HALF_PI / G
    d = [0.1, 0.5, 0.1, 0.9, 0.2, 0.1, 0.5, 0.7, 0.1]
    cells = [5, 5, 40, 5, 40, 5, 5, 40, 5]
    weights = [1.0, 3.0, -2.0, 1e-16, 0.25, -1.0, -3.0, 7.0, 1e-16]
    thetas = np.array([(i + x) * step + HALF_PI / K for i, x in zip(cells, d)])
    return thetas, np.array(weights), K, G


@pytest.mark.parametrize("budget", [1, 3, 1 << 16])
def test_scatter_cell_order_matches_plain_loop_bytes(budget):
    thetas, weights, K, G = _shared_first_cells()
    step, scale = HALF_PI / G, K / HALF_PI
    first = np.mod(np.ceil((thetas - 1.0 / scale) / step).astype(np.int64), G)
    counts = _support_counts(thetas, K, G)
    shared = first[:, None] == first[None, :]
    np.fill_diagonal(shared, False)
    same_count = counts[:, None] == counts[None, :]
    assert np.any(shared & same_count) and np.any(shared & ~same_count)
    with mock.patch.object(variance_mod, "_PAIR_BUDGET", budget):
        got = _scatter_grid(thetas, weights, K, bump(), G)
    assert got.tobytes() == plain_scatter(thetas, weights, K, bump(), G).tobytes()


def test_cell_order_costs_at_most_one_entry_array(monkeypatch):
    # against the same scatter sorted on the counts alone, the first-cell
    # key adds at most one entry-length int64 array to the peak, where the
    # entry-length arrays dominate it
    monkeypatch.setattr(variance_mod, "_PAIR_BUDGET", 1 << 10)
    thetas, weights = _weighted_entries(1e5, plateau_1_2())
    grid, peak = traced_peak(_scatter_grid, thetas, weights, 10.0, bump(), 256)
    with monkeypatch.context() as patch:
        patch.setattr(np, "lexsort", lambda keys: np.argsort(keys[-1], kind="stable"))
        by_count, count_peak = traced_peak(_scatter_grid, thetas, weights, 10.0, bump(), 256)
    assert grid.tobytes() == by_count.tobytes()
    assert count_peak > 4 * 8 * thetas.size  # the entry arrays dominate
    assert peak <= count_peak + 8 * thetas.size, (peak, count_peak)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.floats(0.0, HALF_PI, exclude_max=True), st.floats(-3.0, 3.0)),
        min_size=1, max_size=40,
    ),
    K=st.floats(1.0, 4.0),
    grid_size=st.integers(1, 256),
)
# K < 2: a mollifier support is longer than the grid, so the spill holds
# more than two grid lengths and a cell takes three folded values
@example(entries=[(0.3, 1.0), (0.31, -1.0), (1.2, 0.7), (1.5, 2.5)], K=1.0, grid_size=8)
def test_scatter_fold_matches_bincount_bytes(entries, K, grid_size):
    thetas = np.array([t for t, _ in entries], dtype=float)
    weights = np.array([w for _, w in entries], dtype=float)
    got = _scatter_grid(thetas, weights, K, bump(), grid_size)
    assert got.tobytes() == plain_scatter(thetas, weights, K, bump(), grid_size).tobytes()


def test_blocked_scatter_steps_on_few_entries():
    # K = 2.5, X = 100: a few dozen entries over about 8e5 offsets each, the
    # shape one step per offset took minutes over at G = 2^23
    K, X, G = 2.5, 100.0, 1 << 20
    calls = []

    def counting(u):
        calls.append((u.size, float(np.min(u)), float(np.max(u))))
        return mollifier_eval(u)

    got = psi_grid(K, X, custom_window(counting, -1.0, 1.0), plateau_1_2(), grid_size=G)
    assert got.tobytes() == psi_grid(K, X, bump(), plateau_1_2(), grid_size=G).tobytes()
    # never outside an entry's support
    assert min(lo for _, lo, _ in calls) >= -1.0 - 1e-12
    assert max(hi for _, _, hi in calls) <= 1.0 + 1e-12

    thetas, _ = _weighted_entries(X, plateau_1_2())
    step, scale = HALF_PI / G, K / HALF_PI
    i_lo = np.ceil((thetas - 1.0 / scale) / step).astype(np.int64)
    i_hi = np.floor((thetas + 1.0 / scale) / step).astype(np.int64)
    counts = np.sort(np.maximum(i_hi - i_lo + 1, 0))
    live = counts.size - np.searchsorted(counts, np.arange(counts[-1]), side="right")
    pairs = int(counts.sum())
    assert sum(size for size, _, _ in calls) == pairs  # each pair evaluated once
    new_live = 1 + int(np.count_nonzero(np.diff(live)))
    assert len(calls) <= -(-pairs // variance_mod._PAIR_BUDGET) + new_live, (len(calls), pairs)


def test_psi_grid_validation():
    with pytest.raises(BadInput):
        psi_grid(4.0, 500.0, bump(), plateau_1_2(), grid_size=0)


def _support_counts(thetas, K, G, lo=-1.0, hi=1.0):
    """counts_a, the grid points inside each support (the mollifier's by
    default), as the scatter finds them."""
    step, scale = HALF_PI / G, K / HALF_PI
    i_lo = np.ceil((thetas - hi / scale) / step).astype(np.int64)
    i_hi = np.floor((thetas - lo / scale) / step).astype(np.int64)
    return np.maximum(i_hi - i_lo + 1, 0)


def test_scatter_refuses_work_past_the_pair_ceiling_at_once():
    # K = 1 at G = GRID_CAP on X = 1e6: 77,613 entries, each over 2G grid
    # points, 5e12 pairs, about 15 hours; it must raise before the spill
    # (G + 2G cells, 805 MB) or any pair buffer exists
    thetas, weights = _weighted_entries(1e6, plateau_1_2())
    tracemalloc.start()
    try:
        with pytest.raises(BadInput, match="scattered pairs"):
            _scatter_grid(thetas, weights, 1.0, bump(), GRID_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * thetas.size, peak
    with pytest.raises(BadInput, match="scattered pairs"):
        psi_grid(1.0, 1e6, bump(), plateau_1_2(), grid_size=GRID_CAP)


def test_pair_ceiling_counts_every_pair():
    # the check compares Sigma counts_a itself: a ceiling one below it refuses
    thetas, weights = _weighted_entries(3000.0, plateau_1_2())
    K, G = 5.0, 1 << 10
    pairs = int(_support_counts(thetas, K, G).sum())
    assert 0 < pairs <= MAX_PAIRS
    with mock.patch.object(variance_mod, "MAX_PAIRS", pairs):
        want = _scatter_grid(thetas, weights, K, bump(), G)
    assert want.tobytes() == _scatter_grid(thetas, weights, K, bump(), G).tobytes()
    with mock.patch.object(variance_mod, "MAX_PAIRS", pairs - 1):
        with pytest.raises(BadInput, match="scattered pairs"):
            _scatter_grid(thetas, weights, K, bump(), G)


def _scatter_arguments(theta, K, G):
    """The arguments the scatter hands the window for one entry, in offset order."""
    seen = []

    def recording(u):
        seen.append(np.array(u))
        return mollifier_eval(u)

    _scatter_grid(np.array([theta]), np.array([1.0]), K, custom_window(recording, -1.0, 1.0), G)
    return np.concatenate(seen) if seen else np.empty(0)



@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(0.0, HALF_PI, exclude_max=True),
    K=st.one_of(st.just(1.0), st.floats(1.0, 1e4)),
    G=st.integers(1, 1 << 20),
    seed=st.integers(0, 2**32 - 1),
)
# i_lo < 0: the support wraps past 0, and at K = 1 covers two periods
@example(theta=0.0, K=1.0, G=1 << 20, seed=0)
@example(theta=1e-3, K=1.0, G=(1 << 20) - 1, seed=1)
@example(theta=HALF_PI - 1e-9, K=1.0, G=999_983, seed=2)
# the direct workload's K and grid
@example(theta=1.5, K=10**(6 * 0.2), G=1 << 14, seed=3)
# a subnormal theta: x0_a = fl(theta scale) underflows
@example(theta=5e-324, K=2.0, G=1, seed=0)
def test_scatter_arguments_within_derived_bound(theta, K, G, seed):
    # x~ = x0_a - fl(j dx) against the exact (theta - m P/G) K/P, m = i_lo + j,
    # within the bound derived in _scatter_grid's docstring
    got = _scatter_arguments(theta, K, G)
    step, scale = HALF_PI / G, K / HALF_PI
    i_lo = int(math.ceil((theta - 1.0 / scale) / step))
    assert got.size == int(_support_counts(np.array([theta]), K, G)[0])
    if not got.size:
        return
    rng = np.random.default_rng(seed)
    js = {*range(min(got.size, 20)), *range(max(0, got.size - 20), got.size),
          *rng.integers(0, got.size, 60).tolist()}
    u, P, KF = Fraction(1, 2**53), Fraction(HALF_PI), Fraction(K)
    x0 = abs(Fraction(float(got[0])))
    for j in sorted(js):
        m = i_lo + j
        x = (Fraction(theta) - m * P / G) * KF / P
        bound = u * (2 * abs(x) + 2 * x0 + (abs(m) + abs(i_lo) + 2 * j) * KF / G) * (1 + 8 * u)
        bound += Fraction(1, 2**1074)
        err = abs(Fraction(float(got[j])) - x)
        assert err <= bound, (j, float(err / u), float(bound / u))


@pytest.mark.parametrize("X, K, G, budget", [
    (1e5, 10.0, 256, 1 << 10),  # entries dominate: 9,274 of them over 52 offsets
    (1e4, 3.0, 4096, variance_mod._PAIR_BUDGET),  # the spill dominates: 2,731 offsets
])
def test_memory_gate_scatter(monkeypatch, X, K, G, budget):
    # beyond its inputs the scatter holds seven entry-length 8-byte arrays
    # (support ends, counts, sort order, sorted copies and their temporaries),
    # six pair buffers of _PAIR_BUDGET values (arguments, values, the
    # evaluator's output and temporaries, cells, shifts), the spill of G +
    # span cells and the grid of G; no pair buffer grows with the entries
    monkeypatch.setattr(variance_mod, "_PAIR_BUDGET", budget)
    thetas, weights = _weighted_entries(X, plateau_1_2())
    span = int(_support_counts(thetas, K, G).max())
    _, peak = traced_peak(_scatter_grid, thetas, weights, K, bump(), G)
    allowance = 8 * (7 * thetas.size + 6 * budget + 2 * G + span)
    assert peak <= allowance, (peak, allowance)


# ------------------------------------------------------------ sweep

def test_sweep_report_fields_and_invariants():
    reports = variance_sweep(x_list=(1000.0,), tau_list=(0.0, 0.3, 0.55))
    assert [r.tau for r in reports] == [0.0, 0.3, 0.55]
    for r in reports:
        assert r.X == 1000.0
        assert r.K == pytest.approx(1000.0**r.tau, rel=1e-15)
        assert r.grid_size == 4 * r.k_max
        assert r.var_direct >= 0.0 and r.var_parseval >= 0.0
        assert abs(r.var_direct - r.var_parseval) <= 1e-6 * max(
            r.var_direct, r.mean_empirical**2 * 1e-12
        )
        assert r.ratio == r.var_direct / r.mean_empirical**2
        assert r.prime_power_gap > 0.0
        assert abs(r.mean_empirical - r.mean_formula) <= 0.05 * r.mean_formula
        assert r.certificate["certified"] is True
        assert r.f["kind"] == "mollifier"
        assert r.phi["kind"] == "plateau_plus"
    # K = 1 smooths psi to nearly its mean; sharper windows fluctuate more
    assert reports[0].ratio < 1e-4
    assert reports[0].ratio < reports[1].ratio < reports[2].ratio


def test_sweep_validation():
    with pytest.raises(BadInput):
        variance_sweep(x_list=(2.0,), tau_list=(0.3,))
    with pytest.raises(BadInput):
        variance_sweep(x_list=(100.0,), tau_list=(1.0,))
    with pytest.raises(BadInput):
        variance_sweep(x_list=(100.0,), tau_list=(-0.1,))
