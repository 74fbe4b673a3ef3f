"""Sharp sector counts, scans, forbidden regions and discrepancy."""

import functools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import ideal_rows
from sectorlab import sectors as sectors_mod
from sectorlab.cli import main
from sectorlab.errors import MAX_PIT_NORM, BadInput, BadSector, EmptyRange, InvariantViolation
from sectorlab.ideals import _BLOCK, _ideal_arrays
from sectorlab.sectors import (
    HALF_PI,
    discrepancy,
    expected_count,
    forbidden_region_check,
    sector_count,
    sector_scan,
)
from sectorlab.variance import psi_eval
from sectorlab.windows import plateau_minus, plateau_plus


# ------------------------------------------------------------ sector_count

def test_full_sector_counts_everything():
    assert sector_count(0.0, HALF_PI, 1, 10) == 4
    n = _ideal_arrays(1, 5000, True)[0].size
    assert sector_count(0.0, HALF_PI, 1, 5000) == n
    # the full circle from any offset
    for beta in (0.3, 1.0, 1.5):
        assert sector_count(beta, HALF_PI, 1, 5000) == n


def test_narrow_sector_example():
    assert sector_count(1.0, 0.2, 1, 10) == 1  # only theta = atan(2)


def test_sector_count_is_integer_unweighted():
    got = sector_count(0.25, 0.5, 1, 1000)
    assert isinstance(got, int)


def test_halves_sum_to_full():
    n = sector_count(0.0, HALF_PI, 1, 3000)
    first = sector_count(0.0, HALF_PI / 2, 1, 3000)
    second = sector_count(HALF_PI / 2, HALF_PI / 2, 1, 3000)
    assert first + second == n


def test_partition_additivity_exact():
    # last piece is sized to reach pi/2 exactly so it wraps and collects
    # the theta = 0 inert ideals
    n = sector_count(0.0, HALF_PI, 1, 20000)
    for m in (3, 7, 16):
        parts = [sector_count(j * HALF_PI / m, HALF_PI / m, 1, 20000)
                 for j in range(m - 1)]
        last = (m - 1) * HALF_PI / m
        parts.append(sector_count(last, HALF_PI - last, 1, 20000))
        assert sum(parts) == n


def test_wrapping_consistency():
    # (beta, beta+gamma] past pi/2 equals the unwrapped pieces; the piece
    # through zero is measured as complement to keep half-open semantics
    n = sector_count(0.0, HALF_PI, 1, 20000)
    for beta, gamma in ((1.2, 0.9), (1.5, 0.3), (0.8, 0.79)):
        assert beta + gamma > HALF_PI
        tail = beta + gamma - HALF_PI
        direct = sector_count(beta, gamma, 1, 20000)
        upper = sector_count(beta, HALF_PI - beta, 1, 20000)
        through_zero = n - sector_count(tail, HALF_PI - tail, 1, 20000)
        assert direct == upper + through_zero


def test_weighted_sector_count():
    rows = ideal_rows(1, 1000)
    norms = [row[3] for row in rows]
    beta, gamma = 0.2, 0.6
    want = math.fsum(math.log(norm) for _, _, _, norm, _, theta in rows
                     if beta < theta <= beta + gamma)
    got = sector_count(beta, gamma, 1, 1000, weighted=True)
    assert got == pytest.approx(want, rel=1e-12)
    full = sector_count(0.0, HALF_PI, 1, 1000, weighted=True)
    assert full == pytest.approx(
        math.fsum(math.log(norm) for norm in norms), rel=1e-12)


_LOG_WINDOW = 10**5


@functools.cache
def _angles_and_logs():
    # the log norms come from np.log, as the library's do, so the oracle
    # checks the arc and the rounding of the sum, not one log against another
    rows = ideal_rows(1, _LOG_WINDOW)
    norms = np.array([row[3] for row in rows], dtype=np.float64)
    return [row[5] for row in rows], np.log(norms).tolist()


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.0, HALF_PI, exclude_max=True),
       gamma=st.floats(0.0, HALF_PI, exclude_min=True))
@example(beta=0.0, gamma=HALF_PI)
@example(beta=1.2, gamma=HALF_PI)  # the full circle from an offset
@example(beta=1.5, gamma=0.3)  # wraps through the inert angles at 0
@example(beta=0.2, gamma=0.6)
def test_weighted_count_is_exactly_rounded(beta, gamma):
    thetas, logs = _angles_and_logs()
    end = beta + gamma
    if end < HALF_PI:
        inside = [beta < t <= end for t in thetas]
    else:
        tail = beta + (gamma - HALF_PI)
        inside = [t > beta or t <= tail for t in thetas]
    want = math.fsum(w for w, keep in zip(logs, inside) if keep)
    assert sector_count(beta, gamma, 1, _LOG_WINDOW, weighted=True) == want


# arcs on this dyadic grid add, and wrap past pi/2, without rounding: each
# sum is a multiple of 2^-30 under 4 and each wrap a multiple of 2^-52 under
# 2, so every endpoint sector_count forms is exact and adjacent arcs share it
_TICK = 2.0**-30
_LAST_TICK = int(HALF_PI / _TICK)  # the last tick below pi/2


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, _LAST_TICK), first=st.integers(1, _LAST_TICK - 1),
       second=st.integers(1, _LAST_TICK - 1))
@example(start=_LAST_TICK, first=2**29, second=2**28)  # the first arc wraps
@example(start=2**30, first=2**28, second=2**29)  # the second arc wraps
@example(start=0, first=1, second=_LAST_TICK - 1)  # the widest union
def test_adjacent_arcs_sum_to_their_union(start, first, second):
    assume(first + second <= _LAST_TICK)
    beta, gamma1, gamma2 = start * _TICK, first * _TICK, second * _TICK
    mid = beta + gamma1
    if mid >= HALF_PI:
        mid -= HALF_PI
    arcs = ((beta, gamma1), (mid, gamma2), (beta, gamma1 + gamma2))
    a, b, union = (sector_count(*arc, 1, 5000) for arc in arcs)
    assert a + b == union
    a, b, union = (sector_count(*arc, 1, 5000, weighted=True) for arc in arcs)
    assert a + b == pytest.approx(union, rel=1e-12, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(beta=st.floats(0.0, HALF_PI, exclude_max=True))
def test_quarter_turn_counts_every_ideal(beta):
    logs = [math.log(row[3]) for row in ideal_rows(1, 5000)]
    assert sector_count(beta, HALF_PI, 1, 5000) == len(logs)
    assert sector_count(beta, HALF_PI, 1, 5000, weighted=True) == pytest.approx(
        math.fsum(logs), rel=1e-12)


def test_sector_count_validation():
    with pytest.raises(BadSector):
        sector_count(-0.1, 0.5, 1, 100)
    with pytest.raises(BadSector):
        sector_count(1.6, 0.5, 1, 100)
    with pytest.raises(BadSector):
        sector_count(0.0, 0.0, 1, 100)
    with pytest.raises(BadSector):
        sector_count(0.0, 2.0, 1, 100)


# ---------------------------------------------------------- expected_count

def test_expected_full_circle_is_total():
    n = _ideal_arrays(1, 10000, True)[0].size
    assert expected_count(HALF_PI, 1, 10000) == pytest.approx(n, rel=1e-15)


def test_expected_linear_in_gamma():
    one = expected_count(0.2, 1, 10000)
    two = expected_count(0.4, 1, 10000)
    assert two == pytest.approx(2 * one, rel=1e-12)
    one_pit = expected_count(0.2, 10000, 20000, mode="pit")
    two_pit = expected_count(0.4, 10000, 20000, mode="pit")
    assert two_pit == pytest.approx(2 * one_pit, rel=1e-9)


def test_expected_pit_against_scipy():
    gamma = 0.3
    want, err = scipy.integrate.quad(lambda t: 1.0 / math.log(t), 10**6, 2 * 10**6)
    got = expected_count(gamma, 10**6, 2 * 10**6, mode="pit")
    assert got == pytest.approx((gamma / HALF_PI) * want, abs=max(1e-6, 10 * err))


def test_expected_pit_large_norms():
    # li(1e10) is about 4.5e8: an absolute tolerance near 1e-8 is below
    # the rounding of the sum itself
    lo, hi = 2, 10**10
    want = scipy.special.expi(math.log(hi)) - scipy.special.expi(math.log(lo))
    got = expected_count(HALF_PI, 0, hi, mode="pit")
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("hi", [10**12, 10**18, 10**100, 10**300])
def test_expected_pit_against_expi(hi):
    # expi's argument log(hi) rounds by half an ulp, which moves Ei by as
    # much relative, and expi itself was measured within 1.4e-14 here
    want = scipy.special.expi(math.log(hi)) - scipy.special.expi(math.log(2))
    got = expected_count(HALF_PI, 0, hi, mode="pit")
    assert got == pytest.approx(want, rel=2e-14 + math.ulp(math.log(hi)), abs=0.0)


@pytest.mark.parametrize("lo, hi", [(10**6, 10**6 + 1), (10**12, 10**12 + 7), (2, 3)])
def test_expected_pit_narrow_windows_against_quad(lo, hi):
    # the expi difference cancels about 6 digits at (1e6, 1e6 + 1], and a
    # quadrature over [log lo, log hi] inherits the rounding of both logs;
    # the integrand 1/log t over the exact window has neither
    want, _ = scipy.integrate.quad(lambda t: 1.0 / math.log(t), lo, hi,
                                   epsabs=0.0, epsrel=1e-13)
    got = expected_count(HALF_PI, lo, hi, mode="pit")
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_expected_pit_holds_the_float_range():
    # at MAX_PIT_NORM = 1e308 the count is Ei(log 1e308), about 1.41e305,
    # and no term of the quadrature overflows on the way
    top = expected_count(HALF_PI, 0, MAX_PIT_NORM, mode="pit")
    assert top == pytest.approx(1.412e305, rel=1e-3)


def test_expected_rejects_unknown_mode():
    with pytest.raises(BadInput):
        expected_count(0.2, 1, 100, mode="guess")


# ------------------------------------------------------------- sector_scan

def test_scan_rho_zero_every_deviation_zero():
    report = sector_scan(10**4, 0.0, 64)
    assert report.gamma == HALF_PI
    assert np.all(report.deviations == 0.0)
    assert report.exceptional_fraction[0.5] == 0.0
    n = _ideal_arrays(1, 10**4, True)[0].size
    assert np.all(report.counts == n)


def test_scan_counts_match_sector_count():
    report = sector_scan(2000, 0.25, 37)
    for j, beta in enumerate(report.betas):
        assert report.counts[j] == sector_count(float(beta), report.gamma, 1, 2000)


def test_scan_counts_block_by_block(monkeypatch):
    # a block of 16 is raised to 4 grid = 148 angles, so the angles are
    # counted in three blocks, each sorted on its own, and arcs past pi/2 wrap
    monkeypatch.setattr(sectors_mod, "_SCAN_BLOCK", 16)
    X, grid = 2000, 37
    assert _ideal_arrays(1, X, True)[0].size > 2 * 4 * grid
    report = sector_scan(X, 0.25, grid)
    for j, beta in enumerate(report.betas):
        assert report.counts[j] == sector_count(float(beta), report.gamma, 1, X)


@settings(max_examples=60, deadline=None)
@given(X=st.integers(2, 5000), rho=st.floats(0.0, 1.0, exclude_max=True),
       grid=st.integers(1, 64))
@example(X=4096, rho=1 / 12, grid=2)  # gamma = pi/4: the second arc ends exactly at pi/2
@example(X=5000, rho=0.0, grid=64)  # gamma = pi/2: every arc is the full circle
def test_scan_agrees_with_sector_count(X, rho, grid):
    # the scan's blocked binary searches and sector_count's mask are the two
    # routes to a sharp count; a block of 16 (raised to 4 grid) splits the
    # angles into several blocks, each sorted on its own
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sectors_mod, "_SCAN_BLOCK", 16)
        report = sector_scan(X, rho, grid)
    assert report.gamma == HALF_PI * X ** (-rho)
    for j, beta in enumerate(report.betas):
        assert report.counts[j] == sector_count(float(beta), report.gamma, 1, X), (j, beta)


def test_scan_partition_totals():
    # aligned grid: sectors of width (pi/2)/M partition the circle
    X = 5000
    n = _ideal_arrays(1, X, True)[0].size
    M = 128
    rho = math.log(M) / math.log(X)  # makes gamma exactly (pi/2)/M up to fp
    report = sector_scan(X, rho, M)
    assert report.gamma == pytest.approx(HALF_PI / M, rel=1e-12)
    # sum the counts through sector_count on the exactly aligned grid
    parts = [sector_count(j * HALF_PI / M, HALF_PI / M, 1, X) for j in range(M)]
    assert sum(parts) == n


def test_scan_exceptional_fraction_monotone_in_delta():
    report = sector_scan(10**4, 0.4, 256, deltas=(0.1, 0.25, 0.5, 1.0))
    fr = report.exceptional_fraction
    assert fr[0.1] >= fr[0.25] >= fr[0.5] >= fr[1.0]
    for v in fr.values():
        assert 0.0 <= v <= 1.0


def test_scan_deviation_definition():
    report = sector_scan(3000, 0.35, 50)
    np.testing.assert_allclose(
        report.deviations, report.counts / report.expected - 1.0, atol=0, rtol=0)


def test_scan_validation():
    with pytest.raises(BadInput):
        sector_scan(1, 0.3, 16)
    with pytest.raises(BadInput):
        sector_scan(1000, -0.1, 16)
    with pytest.raises(BadInput):
        sector_scan(1000, 1.0, 16)
    with pytest.raises(BadInput):
        sector_scan(1000, 0.3, 0)


# -------------------------------------------------------- forbidden region

def test_forbidden_region_small_example():
    got = forbidden_region_check(10)
    assert got == pytest.approx(math.atan2(1, 2), rel=1e-15)
    assert got > 1.0 / (2.0 * math.sqrt(10))


def test_forbidden_region_ladder():
    for norm_max in (10**3, 10**4, 10**5):
        got = forbidden_region_check(norm_max)
        assert got > 1.0 / (2.0 * math.sqrt(norm_max))


def test_forbidden_region_empty():
    # norm 1 has no ideal at all
    with pytest.raises(EmptyRange):
        forbidden_region_check(1)
    # below norm 5 only the ramified ideal has a positive angle, pi/4 > bound
    for norm_max in (2, 4):
        assert forbidden_region_check(norm_max) == pytest.approx(math.pi / 4, rel=1e-15)


def test_forbidden_region_gate_fails_typed(monkeypatch, tmp_path, capsys):
    # an angle far inside the exclusion zone must be reported, not returned
    angles = np.array([0.0, 1e-9, 0.5])
    monkeypatch.setattr(sectors_mod, "_ideal_arrays", lambda *args: (None, None, angles))
    with pytest.raises(InvariantViolation):
        forbidden_region_check(10**6)
    assert main(["forbidden", "--max", "1e6", "--out", str(tmp_path)]) == 3
    assert "numerical guarantee failed" in capsys.readouterr().err
    assert not (tmp_path / "forbidden.json").exists()


# ------------------------------------------------------------- discrepancy

def test_discrepancy_single_point():
    # only the ramified ideal: normalized angle 1/2, discrepancy 1/2
    assert discrepancy(1, 2) == pytest.approx(0.5, rel=1e-15)


def test_discrepancy_window_1_10_by_hand():
    # sorted normalized angles: 0, atan(1/2)/(pi/2), 1/2, atan(2)/(pi/2)
    u = sorted([0.0, math.atan2(1, 2) / HALF_PI, 0.5, math.atan2(2, 1) / HALF_PI])
    n = 4
    want = max(
        max((i + 1) / n - u[i], u[i] - i / n) for i in range(n))
    assert discrepancy(1, 10) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(1.0 - math.atan2(2, 1) / HALF_PI, rel=1e-12)


def test_discrepancy_decreasing_along_dyadic_windows():
    values = [discrepancy(X, 2 * X) for X in (10**3, 10**4, 10**5, 10**6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_discrepancy_matches_one_pass_over_several_blocks():
    # the blocked maximum is bitwise the maximum over all terms at once
    for lo, hi, include_nonsplit in ((1, 10**6, True), (0, 10**6, False)):
        u = np.sort(_ideal_arrays(lo, hi, include_nonsplit)[2]) / HALF_PI
        assert u.size > 2 * _BLOCK
        i = np.arange(1, u.size + 1)
        want = float(np.maximum(i / u.size - u, u - (i - 1) / u.size).max())
        assert discrepancy(lo, hi, include_nonsplit) == want


def test_discrepancy_empty_range():
    with pytest.raises(EmptyRange):
        discrepancy(5, 5)


# -------------------------------------------------------------- bracketing

def test_unsmoothing_bracket_small_scale():
    # smoothed counts with plateau windows bracket the sharp sector count
    X, K, eps = 2000, 20.0, 0.05
    f_plus = plateau_plus(core=(0.0, 1.0), eps=eps)
    f_minus = plateau_minus(core=(0.0, 1.0), eps=eps)
    phi_plus = plateau_plus(core=(1.0, 2.0), eps=eps)
    phi_minus = plateau_minus(core=(1.0, 2.0), eps=eps)
    gamma = HALF_PI / K
    for j in range(32):
        beta = j * HALF_PI / 32
        sharp = sector_count(beta, gamma, X, 2 * X)
        # f_plus is 1 on the closed sector [beta, beta+gamma] and f_minus
        # vanishes at both edges, so beta itself is the right offset
        upper = psi_eval(beta, K, X, f_plus, phi_plus) / math.log(X * (1.0 - eps))
        lower = psi_eval(beta, K, X, f_minus, phi_minus) / math.log(2 * X * (1.0 + eps))
        assert lower <= sharp <= upper


@pytest.mark.parametrize("delta", [math.nan, -1.0, 0.0, math.inf])
def test_scan_rejects_bad_delta_before_enumeration(monkeypatch, delta):
    def no_work(*args):
        raise AssertionError("enumerated before validating deltas")

    monkeypatch.setattr(sectors_mod, "_ideal_arrays", no_work)
    with pytest.raises(BadInput):
        sector_scan(10**4, 0.3, 64, deltas=(0.5, delta))
