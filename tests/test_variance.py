"""Tests for smoothed counts, their spectra, and the two variance routes.

The direct route (uniform angular grid of the defining sum) and the
spectral route (Parseval over coefficients c_k S_k) are implemented
independently; the tests lean on that by checking one against the other
and both against explicit entry-list or hand-built oracles.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import traced_peak
from sectorlab import variance as variance_mod
from sectorlab.characters import _weighted_entries, character_sum
from sectorlab.errors import AliasingRisk, BadInput, TruncationFailure
from sectorlab.ideals import lambda_entries
from sectorlab.variance import (
    PsiSpectrum,
    _midpoint_coefficient,
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
    PeriodizedWindow,
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


def test_truncation_cap_failure(monkeypatch):
    monkeypatch.setattr(variance_mod, "KMAX_CAP", 2)
    with pytest.raises(TruncationFailure):
        truncation_kmax(bump(), 8.0)


def test_truncation_zero_window():
    k_max, cert = truncation_kmax(zero_window(), 4.0)
    assert k_max == 1
    assert cert["zero_window"] is True
    assert cert["c0"] == 0.0
    assert cert["tail_ratio_at_kmax"] == 0.0
    assert cert["checked"] == {}


def test_truncation_signed_zero_integral_rejected():
    with pytest.raises(BadInput):
        truncation_kmax(step_window(), 4.0)


SHARPNESS_CALLS = {
    "truncation_kmax": lambda K: truncation_kmax(bump(), K),
    "psi_grid": lambda K: psi_grid(K, 1e3, bump(), plateau_1_2(), grid_size=64),
    "psi_spectrum": lambda K: psi_spectrum(K, 1e3, bump(), plateau_1_2()),
    "variance_direct": lambda K: variance_direct(K, 1e3, bump(), plateau_1_2()),
    "psi_eval": lambda K: psi_eval(0.3, K, 1e3, bump(), plateau_1_2()),
}


@pytest.mark.parametrize("call", sorted(SHARPNESS_CALLS))
@pytest.mark.parametrize("K", [0.0, math.nan, math.inf, -2.0, 0.5])
def test_sharpness_must_be_finite_and_at_least_one(K, call):
    with pytest.raises(BadInput):
        SHARPNESS_CALLS[call](K)


def test_custom_window_identity_distinguishes_evaluators():
    # reports and certificates name a window by window_id, so two custom
    # windows with the same support must not share one
    assert zero_window().window_id != step_window().window_id
    assert zero_window().window_id == zero_window().window_id


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
    phi = plateau_1_2()
    diffs = []
    for theta in np.linspace(0.0, HALF_PI, 9, endpoint=False):
        p_all = psi_eval(theta, 4.0, 300.0, bump(), phi, variant="powers")
        p_prime = psi_eval(theta, 4.0, 300.0, bump(), phi, variant="primes")
        assert p_all >= 0.0 and p_prime >= 0.0
        assert p_all - p_prime >= -1e-12 * max(1.0, p_all)
        diffs.append(p_all - p_prime)
    # the window (285, 615] contains prime powers (17^2, 7^3, 19^2, ...)
    assert max(diffs) > 0.0


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


def test_spectrum_zero_window_path():
    sp = psi_spectrum(4.0, 200.0, zero_window(), plateau_1_2())
    assert sp.k_max == 1
    assert np.all(sp.coeffs == 0.0)
    assert sp.mean == 0.0
    assert sp.certificate["certified"] is True
    assert sp.certificate["tail_term_over_mean"] == 0.0
    assert variance_parseval(sp) == 0.0
    assert sp.synthesize(0.3) == 0.0


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

def test_variance_direct_zero_window():
    assert variance_direct(4.0, 200.0, zero_window(), plateau_1_2()) == 0.0


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
    pw = PeriodizedWindow(base=f, K=K)
    grid = np.arange(grid_size) * (HALF_PI / grid_size)
    return np.array([math.fsum(weights * periodized_eval(pw, thetas - t)) for t in grid])


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
    lo_f = i_lo.astype(np.float64)
    xbuf = np.empty(thetas.size, dtype=np.float64)
    vbuf = np.empty(thetas.size, dtype=np.float64)
    spill = np.zeros(G + span, dtype=np.float64)
    live = np.searchsorted(-counts, -np.arange(span))
    for j, n in enumerate(live):
        x = xbuf[:n]
        np.add(lo_f[:n], j, out=x)
        x *= step
        np.subtract(thetas[:n], x, out=x)
        x *= scale
        vals = np.multiply(f._eval(x), weights[:n], out=vbuf[:n])
        np.add.at(spill[j:], first_cell[:n], vals)
    return np.bincount(np.arange(spill.size) % G, weights=spill, minlength=G)


@settings(max_examples=40, deadline=None)
@given(
    X=st.integers(2, 3000),
    K=st.floats(1.0, 40.0),
    grid_size=st.integers(1, 1 << 12),
    kind=st.sampled_from(sorted(WINDOWS)),
    budget=st.sampled_from([1, 64, variance_mod._PAIR_BUDGET]),
)
# few entries over thousands of offsets: a handful of blocked steps
@example(X=100, K=2.5, grid_size=1 << 12, kind="mollifier", budget=variance_mod._PAIR_BUDGET)
# a budget below the live count: one offset per step, over slices
@example(X=3000, K=3.0, grid_size=1 << 10, kind="leaky", budget=64)
def test_blocked_scatter_matches_plain_loop_bytes(X, K, grid_size, kind, budget):
    f = WINDOWS[kind]()
    thetas, weights, _ = _weighted_entries(float(X), plateau_1_2(), "powers", True)
    with mock.patch.object(variance_mod, "_PAIR_BUDGET", budget):
        got = _scatter_grid(thetas, weights, K, f, grid_size)
    assert got.tobytes() == plain_scatter(thetas, weights, K, f, grid_size).tobytes()


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

    thetas, _, _ = _weighted_entries(X, plateau_1_2(), "powers", True)
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


# ------------------------------------------------------------ sweep

def test_sweep_report_fields_and_invariants():
    reports = variance_sweep(x_list=(1000.0,), tau_list=(0.0, 0.3, 0.55))
    assert [r.tau for r in reports] == [0.0, 0.3, 0.55]
    for r in reports:
        assert r.X == 1000.0 and r.variant == "powers"
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
        assert r.f_descriptor["kind"] == "mollifier"
        assert r.phi_descriptor["kind"] == "plateau_plus"
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
    with pytest.raises(BadInput):
        variance_sweep(x_list=(100.0,), tau_list=(0.3,), grid_factor=0)
