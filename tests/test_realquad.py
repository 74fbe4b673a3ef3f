"""Tests for prime ideals of Z[sqrt 2] and their logarithmic angles."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MEMORY_GATE_SIZE,
    brute_primes,
    brute_realquad_solution,
    power_sum_allowance,
    running_power_sums,
    scan_allowance,
    small_blocks,
    traced_peak,
    ulps_apart,
    writer_allowance,
)
from sectorlab import ideals as ideals_mod
from sectorlab import realquad as realquad_mod
from sectorlab.cli import main
from sectorlab.errors import MAX_SIZE, BadInput, InvariantViolation, NotSplit
from sectorlab.ideals import _BLOCK, sieve_rational_primes
from sectorlab.realquad import (
    LOG_EPS,
    PERIOD,
    SQRT2,
    RealQuadPrimeIdeal,
    angle_t,
    conjugate_pair,
    conjugate_t,
    equidistribution_report_real,
    solve_norm_equation,
)
from sectorlab.reports import write_realquad_csv, write_realquad_json


# ------------------------------------------------------------ norm equation

def test_norm_equation_examples():
    assert solve_norm_equation(7) == (3, 1, 1)
    assert solve_norm_equation(17) == (5, 2, 1)
    assert solve_norm_equation(23) == (5, 1, 1)


def test_norm_equation_rejects_nonsplit_and_composite():
    for p in (3, 5, 11, 13, 19, 29):
        with pytest.raises(NotSplit):
            solve_norm_equation(p)
    with pytest.raises(NotSplit):
        solve_norm_equation(2)
    for n in (0, 1, 15, 21, 49):
        with pytest.raises(BadInput):
            solve_norm_equation(n)


def test_norm_equation_sign_gate_fails_typed(monkeypatch):
    # if neither conjugate had a generator of norm +p, the gate must say so
    monkeypatch.setattr(realquad_mod, "_canonicalize", lambda a, b, p: (a, b, -1, 0.0))
    with pytest.raises(InvariantViolation):
        solve_norm_equation(7)


def _strong_probable_prime(n, base):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 2**j, n) == n - 1 for j in range(1, s))


def test_is_prime_matches_sieve_and_each_base_bound_is_tight():
    # past psi_2, so the one- and two-base ranges are checked exhaustively
    limit = 1_400_000
    primes = set(sieve_rational_primes(limit).tolist())
    assert [n for n in range(limit + 1) if ideals_mod._is_prime(n) != (n in primes)] == []
    # each psi_k fools the first k bases, so _is_prime must go past them there
    for k, psi in enumerate(ideals_mod._PSI, 1):
        assert all(_strong_probable_prime(psi, q) for q in ideals_mod._BASES[:k])
        assert not ideals_mod._is_prime(psi)


def test_splitting_matches_euler_criterion():
    # 2 is a square mod an odd prime p exactly when 2^((p-1)/2) = 1 mod p
    for p in brute_primes(10**4):
        if p == 2:
            continue
        if pow(2, (p - 1) // 2, p) == 1:
            a, b, sign = solve_norm_equation(p)
            assert a * a - 2 * b * b == sign * p
            assert sign == 1 and a > 0 and b > 0
        else:
            with pytest.raises(NotSplit):
                solve_norm_equation(p)


def test_any_solution_lands_on_a_conjugate_ideal():
    # every integer solution of a^2 - 2 b^2 = +-p generates one of the
    # two prime ideals above p, so its angle matches one of the pair; the
    # pair must lie in the canonical regions, which hold one generator per
    # ideal, so the solver's output is determined by the ideals found here
    for p in brute_primes(2 * 10**4):
        if p % 8 not in (1, 7):
            continue
        a, b = brute_realquad_solution(p)
        assert abs(a * a - 2 * b * b) == p
        first, second = conjugate_pair(p)
        t = angle_t(a, b)
        assert min(abs(t - first.t), abs(t - second.t)) <= 1e-9
        assert first.a > 2 * first.b >= 0
        assert 0 < second.a < second.b


def test_unit_companion_has_opposite_norm():
    # eps = 1 + sqrt 2 has norm -1, so (a + 2b) + (a + b) sqrt 2 solves
    # the opposite sign exactly
    for p in brute_primes(10**3):
        if p % 8 in (1, 7):
            a, b, sign = solve_norm_equation(p)
            ua, ub = a + 2 * b, a + b
            assert ua * ua - 2 * ub * ub == -sign * p


# ------------------------------------------------------------ angles

def test_angle_example_values():
    assert PERIOD == pytest.approx(1.7627471740390859, rel=1e-15)
    assert LOG_EPS == pytest.approx(math.log(1.0 + SQRT2), rel=1e-15)
    assert angle_t(3, 1) == pytest.approx(1.0237492301873474, abs=1e-12)
    assert angle_t(3, 1) == pytest.approx(math.log((3 + SQRT2) / (3 - SQRT2)), abs=1e-14)
    assert angle_t(1, 0) == 0.0
    assert angle_t(5, 0) == 0.0


def test_angle_unit_action():
    assert angle_t(5, 4) == pytest.approx(angle_t(3, 1), abs=1e-12)
    rng = np.random.default_rng(20260814)
    for _ in range(64):
        a = int(rng.integers(-50, 51))
        b = int(rng.integers(-50, 51))
        if a * a == 2 * b * b:
            continue
        up = angle_t(a + 2 * b, a + b)
        assert min(abs(up - angle_t(a, b)), abs(abs(up - angle_t(a, b)) - PERIOD)) <= 1e-12
        assert angle_t(-a, -b) == angle_t(a, b)


def test_angle_rejects_degenerate():
    with pytest.raises(BadInput):
        angle_t(0, 0)


def test_conjugate_t_values_and_involution():
    assert conjugate_t(0.0) == 0.0
    assert conjugate_t(angle_t(3, 1)) == pytest.approx(0.7389979438517385, abs=1e-12)
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.0, PERIOD, 128):
        back = conjugate_t(conjugate_t(float(t)))
        assert abs(back - t) <= math.ulp(PERIOD)
    for bad in (-0.1, PERIOD, PERIOD + 1.0):
        with pytest.raises(BadInput):
            conjugate_t(bad)


# ------------------------------------------------------------ conjugate pairs

def test_conjugate_pair_example():
    first, second = conjugate_pair(7)
    assert (first.a, first.b, first.sign) == (3, 1, 1)
    assert (second.a, second.b, second.sign) == (1, 2, -1)
    assert first.t + second.t == pytest.approx(PERIOD, abs=1e-12)


def test_conjugate_pair_reflection_across_primes():
    for p in brute_primes(500):
        if p % 8 in (1, 7):
            first, second = conjugate_pair(p)
            assert first.p == second.p == p
            assert first.sign == 1 and second.sign == -1
            assert first.a * first.a - 2 * first.b * first.b == p
            assert second.a * second.a - 2 * second.b * second.b == -p
            assert 0.0 < first.t < PERIOD and 0.0 < second.t < PERIOD
            # t = 0 would need |alpha| = |conj alpha|, impossible for norm +-p
            assert first.t + second.t == pytest.approx(PERIOD, abs=1e-9)
            assert conjugate_t(first.t) == pytest.approx(second.t, abs=1e-9)


def test_ideal_dataclass_validates_norm():
    with pytest.raises(BadInput):
        RealQuadPrimeIdeal(p=7, a=3, b=2, sign=1, t=0.5)
    RealQuadPrimeIdeal(p=7, a=3, b=1, sign=1, t=angle_t(3, 1))


# ------------------------------------------------------------ equidistribution

def test_report_small_limit():
    rep = equidistribution_report_real(100, 4)
    assert rep.weyl[0] == 1.0
    assert rep.ideal_count == 22
    assert rep.limit == 100 and rep.k_max == 4
    assert len(rep.ideals) == rep.ideal_count
    assert set(rep.weyl) == {0, 1, 2, 3, 4}
    for k, value in rep.weyl.items():
        assert isinstance(value, float)
        assert abs(value) <= 1.0 + 1e-12
    for i in range(0, rep.ideal_count, 2):
        first, second = rep.ideals[i], rep.ideals[i + 1]
        assert first.p == second.p
        assert first.sign == 1 and second.sign == -1


def test_weyl_sums_equidistribute():
    mags = {}
    for limit in (10**3, 10**4, 10**5):
        rep = equidistribution_report_real(limit, 3)
        mags[limit] = [abs(rep.weyl[k]) for k in (1, 2, 3)]
    # per-mode noise keeps single decades from being monotone, so assert
    # the endpoint drop per mode and the strict decay of the worst mode
    for k in range(3):
        assert mags[10**5][k] < mags[10**3][k]
    assert max(mags[10**5]) < max(mags[10**4]) < max(mags[10**3])


def test_report_conjugate_cancellation_gate_fails_typed(monkeypatch):
    # t values that no longer reflect t -> 2 log eps - t across a conjugate
    # pair leave the imaginary parts uncancelled, though the columns are right
    monkeypatch.setattr(realquad_mod, "SQRT2", SQRT2 + 1e-6)
    for k_max in (3, 2000):
        with pytest.raises(InvariantViolation):
            equidistribution_report_real(100, k_max)


@pytest.mark.parametrize("limit, k_max", [(100, 2000), (10**4, 20000)])
def test_cancellation_gate_holds_at_high_modes(limit, k_max):
    # phase rounding grows with k: a fixed threshold of 1e-12 failed here at
    # W_1975 and W_5214, while the derived bound k u (...) holds
    rep = equidistribution_report_real(limit, k_max)
    assert len(rep.weyl) == k_max + 1


def test_scan_cancellation_gate_fails_typed(monkeypatch):
    # a scan whose norm -p rows repeat the norm +p rows passes no conjugate
    scan = realquad_mod._split_generators

    def repeated_leg(limit):
        return tuple(np.repeat(col[::2], 2) for col in scan(limit))

    monkeypatch.setattr(realquad_mod, "_split_generators", repeated_leg)
    with pytest.raises(InvariantViolation):
        equidistribution_report_real(100, 3)


def test_scan_count_gate_fails_typed(monkeypatch, tmp_path, capsys):
    # 15 = 7 mod 8, but a^2 = 2 b^2 has no nonzero solution mod 3 or mod 5,
    # so a sieve that called 15 prime leaves it without generators
    sieve = ideals_mod._primes_in_range
    monkeypatch.setattr(ideals_mod, "_primes_in_range", lambda lo, hi: np.sort(
        np.append(sieve(lo, hi), 15)) if lo < 15 <= hi else sieve(lo, hi))
    with pytest.raises(InvariantViolation):
        equidistribution_report_real(100, 3)
    assert main(["realquad", "--limit", "100", "--out", str(tmp_path)]) == 3
    assert "numerical guarantee failed" in capsys.readouterr().err
    assert not (tmp_path / "realquad.csv").exists()


class _ScanReached(Exception):
    pass


def test_report_size_ceiling_before_the_scan(monkeypatch):
    # the limit is checked against MAX_SIZE before the scan runs; eps^2 *
    # MAX_SIZE is far below 2^63, where the scan's norms would leave int64
    def reached(limit):
        raise _ScanReached(limit)

    monkeypatch.setattr(realquad_mod, "_split_generators", reached)
    room = 2**63 - 3 * MAX_SIZE  # (3 + 2 sqrt 2) MAX_SIZE < 2^63, exactly in integers
    assert room > 0 and room * room > 8 * MAX_SIZE * MAX_SIZE
    with pytest.raises(_ScanReached):
        equidistribution_report_real(MAX_SIZE, 0)
    with pytest.raises(BadInput):
        equidistribution_report_real(MAX_SIZE + 1, 0)


def test_report_validation():
    with pytest.raises(BadInput):
        equidistribution_report_real(5, 3)
    with pytest.raises(BadInput):
        equidistribution_report_real(100, -1)
    rep = equidistribution_report_real(7, 2)
    assert rep.ideal_count == 2


def test_report_columns_are_read_only_and_back_the_ideals():
    rep = equidistribution_report_real(1000, 2)
    cols = (rep.p, rep.a, rep.b, rep.sign, rep.t)
    for col in cols:
        assert not col.flags.writeable
        assert col.size == rep.ideal_count
    assert [(i.p, i.a, i.b, i.sign, i.t) for i in rep.ideals] == list(
        zip(*(col.tolist() for col in cols)))
    assert rep.ideals is rep.ideals


# ------------------------------------------------- lattice scan vs per-prime routes

_ORACLE_LIMIT = 10**5


def _split_primes():
    return [p for p in sieve_rational_primes(_ORACLE_LIMIT).tolist() if p % 8 in (1, 7)]


def _columns(rows):
    p, a, b, sign, t = zip(*rows)
    return (np.array(p, dtype=np.int64), np.array(a, dtype=np.int64),
            np.array(b, dtype=np.int64), np.array(sign, dtype=np.int8),
            np.array(t, dtype=np.float64))


@functools.lru_cache(maxsize=1)
def _solver_oracle():
    """Columns (p, a, b, sign, t) up to 1e5, one conjugate_pair(p) per split p."""
    return _columns([(i.p, i.a, i.b, i.sign, i.t)
                     for p in _split_primes() for i in conjugate_pair(p)])


def _search_canonical(p):
    """(a, b, sign) of every point of the canonical regions with norm sign * p, by search.

    Both regions, a > 2b >= 0 (norm +p) and 0 < a < b (norm -p), need
    b^2 < p, so b <= isqrt(p) covers them.
    """
    found = []
    for b in range(math.isqrt(p) + 1):
        for sign in (1, -1):
            target = 2 * b * b + sign * p
            a = math.isqrt(target) if target > 0 else 0
            if a * a == target and (a > 2 * b if sign > 0 else 0 < a < b):
                found.append((a, b, sign))
    return sorted(found, key=lambda point: -point[2])


@functools.lru_cache(maxsize=1)
def _search_oracle():
    """Columns (p, a, b, sign, t) up to 1e5 from an exhaustive search per split p."""
    rows = []
    for p in _split_primes():
        points = _search_canonical(p)
        assert [sign for _, _, sign in points] == [1, -1], (p, points)
        rows.extend((p, a, b, sign, angle_t(a, b)) for a, b, sign in points)
    return _columns(rows)


# fast: the half-Euclid solver prime by prime; brute: exhaustive search
_ORACLES = {"fast": _solver_oracle, "brute": _search_oracle}


def _assert_scan_matches(limit, oracle="fast"):
    columns = _ORACLES[oracle]()
    want = tuple(col[: np.searchsorted(columns[0], limit, side="right")] for col in columns)
    rep = equidistribution_report_real(limit, 2)
    got = (rep.p, rep.a, rep.b, rep.sign, rep.t)
    assert [g.dtype for g in got] == [w.dtype for w in want]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("oracle", ["fast", "brute"])
@pytest.mark.parametrize("limit", [7, 8, 23, 100, 10**4, 10**5])
def test_scan_matches_brute_route(limit, oracle):
    _assert_scan_matches(limit, oracle)


@pytest.mark.parametrize("segment, points", [(64, 3), (1000, 50)])
def test_scan_across_many_segment_and_chunk_edges(monkeypatch, segment, points):
    # 3-point chunks split single rows of b; 64-wide segments put hundreds of
    # segment edges below the limit
    monkeypatch.setattr(ideals_mod, "_SEGMENT", segment)
    monkeypatch.setattr(ideals_mod, "_SCAN_POINTS", points)
    for limit in (7, 64, 65, 129, 4097, 20000):
        _assert_scan_matches(limit)


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(7, _ORACLE_LIMIT))
def test_scan_matches_brute_route_random(limit):
    _assert_scan_matches(limit)


# ------------------------------------------------------------ report files

def test_realquad_reports_are_byte_stable(tmp_path):
    rep = equidistribution_report_real(300, 3)
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for path in paths:
        write_realquad_csv(str(path), rep)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    text = paths[0].read_text()
    assert text.startswith("# sectorlab-realquad-v1")
    assert "p,a,b,sign,t" in text
    jsons = [tmp_path / name for name in ("a.json", "b.json")]
    for path in jsons:
        write_realquad_json(str(path), rep)
    assert jsons[0].read_bytes() == jsons[1].read_bytes()
    assert '"format_version": "sectorlab-realquad-v1"' in jsons[0].read_text()


def test_report_weyl_pinned_to_fsum_over_python_floats():
    # each W_k is the exactly rounded mean of the running powers chi_1(t)^k:
    # recompute it from the report's own t column with math.fsum over Python
    # floats
    rep = equidistribution_report_real(10**5, 8)
    sums = running_power_sums((math.pi / LOG_EPS) * rep.t, 8)
    assert rep.weyl[0] == 1.0
    for k in range(1, 9):
        want = sums[k - 1].real / rep.ideal_count
        assert rep.weyl[k].hex() == want.hex(), k
        # the per-mode angle route cos(pi k t / log eps): both phases are
        # within 3 u of relative error of (pi / log eps) k t < 2 pi k, the
        # power adds 6 k u, cos one ulp and each rounded sum one more
        phase = (math.pi * k / LOG_EPS) * rep.t
        angle_route = math.fsum(np.cos(phase).tolist()) / rep.ideal_count
        assert abs(rep.weyl[k] - angle_route) <= (k * (12 * math.pi + 6) + 5) * 2.0**-53, k


# ------------------------------------------------------------ memory gate

@pytest.mark.parametrize("blocks", ["module", "small"])
def test_memory_gate_split_generators(monkeypatch, blocks):
    # the columns keep at most half their size beyond themselves, plus what
    # one sieve segment and one scan chunk hold
    if blocks == "small":
        small_blocks(monkeypatch)
    out, peak = traced_peak(realquad_mod._split_generators, MEMORY_GATE_SIZE)
    nbytes = sum(col.nbytes for col in out)
    assert peak <= 1.5 * nbytes + scan_allowance(MEMORY_GATE_SIZE), (peak, nbytes)


@pytest.mark.parametrize("blocks", ["module", "small"])
def test_memory_gate_report_weyl(monkeypatch, blocks):
    # the Weyl part holds a few summation blocks beyond the t column, however
    # many ideals there are
    rep = equidistribution_report_real(MEMORY_GATE_SIZE, 1)
    if blocks == "small":
        small_blocks(monkeypatch)
    weyl, peak = traced_peak(realquad_mod._weyl_means, rep.t, rep.limit, 8)
    assert len(weyl) == 9 and {k: weyl[k] for k in rep.weyl} == rep.weyl
    assert peak <= power_sum_allowance(8), (peak, rep.t.nbytes)
    if blocks == "small":
        # one array the length of t would not fit
        assert power_sum_allowance(8) < rep.t.nbytes


def test_memory_gate_realquad_csv(tmp_path):
    rep = equidistribution_report_real(MEMORY_GATE_SIZE, 1)
    assert rep.ideal_count >= 4 * _BLOCK  # several blocks, so a whole-file buffer shows
    _, peak = traced_peak(write_realquad_csv, str(tmp_path / "realquad.csv"), rep)
    assert peak <= writer_allowance(), peak
