"""Enumeration of Gaussian prime ideals against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MEMORY_GATE_SIZE,
    brute_cornacchia,
    brute_gaussian_ideals,
    brute_is_prime,
    brute_primes,
    brute_sqrt_mod,
    scan_allowance,
    small_blocks,
    traced_peak,
    ulps_apart,
    writer_allowance,
)
from sectorlab import ideals as ideals_mod
from sectorlab import sectors as sectors_mod
from sectorlab.cli import main
from sectorlab.errors import BadInput, InvariantViolation, NonResidue
from sectorlab.ideals import (
    _BLOCK,
    GaussianPrimeIdeal,
    Splitting,
    _ideal_arrays,
    _lambda_arrays,
    cornacchia,
    enumerate_prime_ideals,
    lambda_entries,
    sieve_rational_primes,
    sqrt_mod,
)
from sectorlab.reports import write_ideal_csv

HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------- sieve

def test_sieve_small_examples():
    assert sieve_rational_primes(10).tolist() == [2, 3, 5, 7]
    assert sieve_rational_primes(1).tolist() == []
    assert sieve_rational_primes(0).tolist() == []
    assert sieve_rational_primes(2).tolist() == [2]


def test_sieve_matches_trial_division():
    assert sieve_rational_primes(10**4).tolist() == brute_primes(10**4)


def test_enumerate_across_segment_edge():
    # norm window straddling the segmented sieve's block size
    lo, hi = (1 << 23) - 60, (1 << 23) + 60
    got = {(i.norm, i.a, i.b) for i in enumerate_prime_ideals(lo, hi)}
    want = set()
    for n in range(lo + 1, hi + 1):
        if brute_is_prime(n) and n % 4 == 1:
            a, b = brute_cornacchia(n)
            want.add((n, a, b))
            want.add((n, b, a))
    r = math.isqrt(hi)
    for q in range(math.isqrt(lo), r + 1):
        if lo < q * q <= hi and q % 4 == 3 and brute_is_prime(q):
            want.add((q * q, q, 0))
    assert got == want


_SMALL_PRIMES = brute_primes(3000)


@settings(max_examples=200, deadline=None)
@given(segment=st.sampled_from([1, 2, 3, 64]),
       ends=st.one_of(
           st.lists(st.integers(0, 3000), min_size=2, max_size=2),
           st.sampled_from([[0, 1], [1, 2], [2, 3], [0, 0], [2, 2], [7, 7]])))
def test_odd_sieve_matches_brute_force(segment, ends):
    # odd and even window ends, windows that hold only 2 or 3 or nothing,
    # and segments of one, two and three norms, where a segment may hold no
    # odd number at all
    lo, hi = sorted(ends)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals_mod, "_SEGMENT", segment)
        got = ideals_mod._primes_in_range(lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == [q for q in _SMALL_PRIMES if lo < q <= hi]


@pytest.mark.parametrize("lo", [0, 10**7 - (1 << 20)])
def test_memory_gate_sieve_mask(monkeypatch, lo):
    # one window of one segment: beyond its output the sieve holds only the
    # odd-only mask, half a byte per norm, and the few base primes
    monkeypatch.setattr(ideals_mod, "_SEGMENT", 1 << 20)
    out, peak = traced_peak(ideals_mod._primes_in_range, lo, lo + (1 << 20))
    assert out.size > 0
    assert peak <= out.nbytes + (1 << 19) + (1 << 16), (peak, out.nbytes)


def test_sieve_and_enumeration_across_many_segments(monkeypatch):
    # 64-wide segments put dozens of segment boundaries inside each range,
    # for the sieve itself and for the base primes it sieves with
    monkeypatch.setattr(ideals_mod, "_SEGMENT", 64)
    ideals_mod._ideal_arrays.cache_clear()  # force a fresh enumeration
    assert sieve_rational_primes(10**4).tolist() == brute_primes(10**4)
    got = {(i.norm, i.a, i.b) for i in enumerate_prime_ideals(1000, 3000)}
    assert got == brute_gaussian_ideals(1000, 3000)


# ------------------------------------------------------------- sqrt_mod

def test_sqrt_mod_examples():
    assert sqrt_mod(-1, 5) == 2
    assert sqrt_mod(2, 7) == 3
    with pytest.raises(NonResidue):
        sqrt_mod(2, 5)


def test_sqrt_mod_exhaustive_small_primes():
    for p in [p for p in brute_primes(600) if p % 2 == 1]:
        for n in range(1, p):
            want = brute_sqrt_mod(n, p)
            if want is None:
                with pytest.raises(NonResidue):
                    sqrt_mod(n, p)
            else:
                r = sqrt_mod(n, p)
                assert r * r % p == n % p
                assert 1 <= r <= p - r  # canonical smaller root


def test_sqrt_mod_rejects_bad_modulus_and_zero():
    with pytest.raises(BadInput):
        sqrt_mod(3, 4)
    with pytest.raises(BadInput):
        sqrt_mod(10, 5)


# ------------------------------------------------------------ cornacchia

def test_cornacchia_examples():
    assert cornacchia(5) == (1, 2)
    assert cornacchia(13) == (3, 2)
    assert cornacchia(17) == (1, 4)


def test_cornacchia_matches_brute_force():
    for p in brute_primes(2000):
        if p % 4 != 1:
            continue
        a, b = cornacchia(p)
        assert (a, b) == brute_cornacchia(p)
        assert a * a + b * b == p and a % 2 == 1 and b % 2 == 0


def test_cornacchia_rejects_non_split():
    for bad in (2, 3, 7, 15):
        with pytest.raises(BadInput):
            cornacchia(bad)


# ------------------------------------------------- lattice scan vs Cornacchia

def _cornacchia_route(lo, hi, include_nonsplit):
    """The six enumeration arrays rebuilt with one cornacchia(p) per split prime."""
    primes = sieve_rational_primes(hi)
    rows = []  # (p, a, b, norm, code)
    for p in primes[(primes > lo) & (primes % 4 == 1)].tolist():
        a, b = cornacchia(p)
        rows += [(p, a, b, p, ideals_mod._SPLIT), (p, b, a, p, ideals_mod._SPLIT)]
    if include_nonsplit:
        if lo < 2 <= hi:
            rows.append((2, 1, 1, 2, ideals_mod._RAMIFIED))
        rows += [(q, q, 0, q * q, ideals_mod._INERT) for q in primes.tolist()
                 if q % 4 == 3 and lo < q * q <= hi]
    cols = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    p, a, b, norm = cols[:4]
    theta = np.arctan2(b.astype(np.float64), a.astype(np.float64))
    order = np.lexsort((theta, norm))
    return (p[order], a[order], b[order], norm[order],
            cols[4].astype(np.int8)[order], theta[order])


def _assert_same_arrays(got, want):
    assert [x.dtype for x in got] == [x.dtype for x in want]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.fixture
def cold_ideal_cache():
    ideals_mod._ideal_arrays.cache_clear()
    yield
    ideals_mod._ideal_arrays.cache_clear()


_SEG = 1 << 23
# (25, 29] and (65, 73] start on a sum of two squares and end on a split
# prime, so a scan whose lower edge admits norm_min itself gains points
_ORACLE_WINDOWS = [
    (0, 0), (0, 1), (1, 2), (2, 3), (4, 5), (24, 25), (25, 29), (65, 73), (0, 5),
    (1, 10), (10, 20), (137, 400), (0, 5000), (_SEG - 60, _SEG + 60),
    (_SEG - 5000, _SEG + 3000), (1, 10**6), (949999, 2049999),
]


@pytest.mark.parametrize("include_nonsplit", [True, False])
@pytest.mark.parametrize("lo, hi", _ORACLE_WINDOWS)
def test_lattice_scan_matches_cornacchia_route(lo, hi, include_nonsplit, cold_ideal_cache):
    _assert_same_arrays(_ideal_arrays(lo, hi, include_nonsplit),
                        _cornacchia_route(lo, hi, include_nonsplit))


@pytest.mark.parametrize("segment, points", [(64, 3), (1000, 50)])
def test_lattice_scan_across_many_segment_and_chunk_edges(
        monkeypatch, cold_ideal_cache, segment, points):
    # 3-point chunks split single rows of a; 64-wide segments put dozens of
    # segment edges inside each window
    monkeypatch.setattr(ideals_mod, "_SEGMENT", segment)
    monkeypatch.setattr(ideals_mod, "_SCAN_POINTS", points)
    for lo, hi in ((0, 6000), (63, 129), (1000, 4097), (4999, 20000)):
        for include_nonsplit in (True, False):
            _assert_same_arrays(_ideal_arrays(lo, hi, include_nonsplit),
                                _cornacchia_route(lo, hi, include_nonsplit))


@settings(max_examples=40, deadline=None)
@given(ends=st.lists(st.integers(0, 10**5), min_size=2, max_size=2),
       include_nonsplit=st.booleans())
def test_lattice_scan_matches_cornacchia_route_random(ends, include_nonsplit):
    lo, hi = sorted(ends)
    ideals_mod._ideal_arrays.cache_clear()
    _assert_same_arrays(_ideal_arrays(lo, hi, include_nonsplit),
                        _cornacchia_route(lo, hi, include_nonsplit))


def test_lattice_scan_gate_fails_typed(monkeypatch, cold_ideal_cache, tmp_path, capsys):
    # 21 = 1 mod 4 is no sum of two squares, so a sieve that called it prime
    # leaves the scan one point short of one per split prime
    sieve = ideals_mod._primes_in_range
    monkeypatch.setattr(ideals_mod, "_primes_in_range", lambda lo, hi: np.sort(
        np.append(sieve(lo, hi), 21)) if lo < 21 <= hi else sieve(lo, hi))
    with pytest.raises(InvariantViolation):
        _ideal_arrays(0, 30, True)
    assert main(["sieve", "--max", "30", "--out", str(tmp_path)]) == 3
    assert "numerical guarantee failed" in capsys.readouterr().err
    assert not (tmp_path / "ideals.csv").exists()


def test_lattice_scan_gate_fails_on_extra_points():
    # the full domain b >= 1 holds both conjugates of every split prime,
    # two points where the half domain b > a holds one
    def full_rows(start, stop):
        a = np.arange(1, math.isqrt(stop - 1) + 1, dtype=np.int64)
        b_lo = ideals_mod._isqrt(np.maximum(start - 1 - a * a, 0)) + 1
        b_lo += (a + b_lo) % 2 == 0
        return a, b_lo, ideals_mod._isqrt(stop - a * a)

    with pytest.raises(InvariantViolation):
        ideals_mod._lattice_scan(0, 100, lambda p: p % 4 == 1, full_rows,
                                 lambda a, b: a * a + b * b, 1)


# ------------------------------------------------------------ enumerate

def test_enumerate_window_1_to_10():
    ideals = enumerate_prime_ideals(1, 10)
    got = [(i.norm, i.a, i.b, i.splitting) for i in ideals]
    assert got == [
        (2, 1, 1, Splitting.RAMIFIED),
        (5, 2, 1, Splitting.SPLIT),
        (5, 1, 2, Splitting.SPLIT),
        (9, 3, 0, Splitting.INERT),
    ]
    assert ideals[0].theta == pytest.approx(math.pi / 4.0, abs=0)
    assert ideals[1].theta == pytest.approx(math.atan2(1, 2), abs=0)
    assert ideals[2].theta == pytest.approx(math.atan2(2, 1), abs=0)
    assert ideals[3].theta == 0.0


def test_enumerate_window_10_to_20():
    assert [i.norm for i in enumerate_prime_ideals(10, 20)] == [13, 13, 17, 17]


def test_enumerate_empty_window():
    assert enumerate_prime_ideals(5, 5) == []


def test_enumerate_matches_2d_scan():
    got = {(i.norm, i.a, i.b) for i in enumerate_prime_ideals(1, 3000)}
    assert got == brute_gaussian_ideals(1, 3000)


def test_enumerate_sorted_and_integer_exact():
    ideals = enumerate_prime_ideals(1, 5000)
    keys = [(i.norm, i.theta) for i in ideals]
    assert keys == sorted(keys)
    for i in ideals:
        assert i.a * i.a + i.b * i.b == i.norm
        assert i.a > 0 and i.b >= 0
        assert 0.0 <= i.theta < HALF_PI
        if i.splitting is Splitting.INERT:
            assert i.b == 0 and i.theta == 0.0 and i.norm == i.p * i.p
        else:
            assert i.norm == i.p


def test_partition_invariance():
    whole = enumerate_prime_ideals(1, 400)
    parts = enumerate_prime_ideals(1, 137) + enumerate_prime_ideals(137, 400)
    assert whole == parts


def test_conjugate_pairs_sum_to_half_pi():
    by_p = {}
    for i in enumerate_prime_ideals(1, 10**5):
        if i.splitting is Splitting.SPLIT:
            by_p.setdefault(i.p, []).append(i.theta)
    for p, pair in by_p.items():
        assert len(pair) == 2
        assert ulps_apart(pair[0] + pair[1], HALF_PI) <= 4.0


def test_unit_rotation_angle_invariance():
    # recomputing theta from each associate i^j (a + ib) and reducing
    # mod pi/2 must land on the stored angle; the reduction itself costs
    # about one ulp of pi/2, so ulps are measured at the circle scale
    budget = 4.0 * math.ulp(HALF_PI)
    for ideal in enumerate_prime_ideals(1, 2000):
        a, b = ideal.a, ideal.b
        for _ in range(4):
            theta = math.atan2(b, a) % HALF_PI
            d = abs(theta - ideal.theta)
            assert min(d, abs(d - HALF_PI)) <= budget
            a, b = -b, a  # multiply the generator by i


def test_split_only_flag_drops_ramified_and_inert():
    kept = enumerate_prime_ideals(1, 100, include_nonsplit=False)
    assert all(i.splitting is Splitting.SPLIT for i in kept)
    full = enumerate_prime_ideals(1, 100)
    assert len(full) - len(kept) == sum(
        1 for i in full if i.splitting is not Splitting.SPLIT
    )


def test_ideal_dataclass_validates():
    with pytest.raises(BadInput):
        GaussianPrimeIdeal(p=5, a=1, b=1, norm=5, splitting=Splitting.SPLIT, theta=0.5)
    with pytest.raises(BadInput):
        GaussianPrimeIdeal(p=5, a=-2, b=1, norm=5, splitting=Splitting.SPLIT, theta=0.5)


def test_enumerate_rejects_bad_window():
    with pytest.raises(BadInput):
        enumerate_prime_ideals(10, 5)
    with pytest.raises(BadInput):
        enumerate_prime_ideals(-3, 5)


# --------------------------------------------------------- lambda_entries

def test_lambda_entries_window_1_to_10():
    entries = lambda_entries(1, 10)
    got = [(e.norm, e.weight, e.theta) for e in entries]
    want = [
        (2, math.log(2), math.pi / 4.0),
        (4, math.log(2), 0.0),
        (5, math.log(5), math.atan2(1, 2)),
        (5, math.log(5), math.atan2(2, 1)),
        (8, math.log(2), math.pi / 4.0),
        (9, 2 * math.log(3), 0.0),
    ]
    assert len(got) == len(want)
    for (n, w, t), (n2, w2, t2) in zip(got, want):
        assert n == n2
        assert w == pytest.approx(w2, rel=1e-15)
        assert t == pytest.approx(t2, abs=1e-12)


def test_lambda_entry_of_one_plus_two_i_squared():
    entries = [e for e in lambda_entries(20, 30) if e.norm == 25]
    assert len(entries) == 2
    thetas = sorted(e.theta for e in entries)
    assert thetas[0] == pytest.approx(2 * math.atan2(2, 1) - HALF_PI, abs=1e-12)
    assert thetas[1] == pytest.approx(2 * math.atan2(1, 2), abs=1e-12)


def test_lambda_entries_empty_window():
    assert lambda_entries(5, 5) == []


def test_lambda_entries_match_enumerate_and_power_oracle():
    # build the oracle directly: every base ideal up to the window top,
    # raised while the power stays inside the window
    hi = 2000
    want = []
    for base in enumerate_prime_ideals(1, hi):
        r, norm = 1, base.norm
        while norm <= hi:
            if norm > 1:
                want.append((norm, base.norm, r))
            r += 1
            norm *= base.norm
    want.sort()
    got = sorted((e.norm, e.base.norm, e.r) for e in lambda_entries(1, hi))
    assert got == want
    for e in lambda_entries(1, hi):
        assert e.weight == pytest.approx(math.log(e.base.norm), rel=1e-15)
        assert e.norm == e.base.norm**e.r
        assert 0.0 <= e.theta < HALF_PI
        assert ulps_apart(e.theta, (e.r * e.base.theta) % HALF_PI) <= 8.0 or \
            e.theta == pytest.approx((e.r * e.base.theta) % HALF_PI, abs=1e-12)


# lower ends on and just below the prime-power norms 5^2, 5^3, 2^10, 49^2 and
# 9^4, and upper ends on and just below 9^4 and 2^13: a base bound
# (_iroot(lo, r), _iroot(hi, r)] that is off by one at either end moves a row
_POWER_EDGES = (24, 25, 124, 125, 1023, 1024, 2400, 2401, 6560, 6561)
_LAMBDA_WINDOWS = [(lo, hi) for lo in _POWER_EDGES for hi in (6560, 6561, 8191, 8192)
                   if lo <= hi] + [(0, 1), (5, 5)]


@pytest.mark.parametrize("lo, hi", [
    pytest.param(lo, hi, id=f"{lo}-{hi}") for lo, hi in _LAMBDA_WINDOWS])
def test_lambda_arrays_match_lambda_entries(lo, hi):
    norm, theta, weight, r = _lambda_arrays(lo, hi)
    entries = lambda_entries(lo, hi)
    assert (norm.dtype, theta.dtype, weight.dtype, r.dtype) == (
        np.int64, np.float64, np.float64, np.int32)
    assert norm.tolist() == [e.norm for e in entries]
    assert r.tolist() == [e.r for e in entries]
    assert theta.tolist() == [e.theta for e in entries]
    assert weight.tolist() == pytest.approx([e.weight for e in entries], rel=1e-15)


def test_lambda_arrays_read_two_enumerations():
    # the table reads the window's primes and one enumeration up to
    # sqrt(norm_max) for the bases of every higher power; the window is the
    # variance sweep's at X = 1e6
    ideals_mod._ideal_arrays.cache_clear()
    table = _lambda_arrays(949999, 2050000)
    assert ideals_mod._ideal_arrays.cache_info().currsize <= 2
    assert (table[3] >= 2).any()


def test_ideal_arrays_has_one_spelling():
    # lru_cache keys on the spelling, so a default or a keyword would cache
    # one table under several keys
    with pytest.raises(TypeError):
        _ideal_arrays(0, 100)
    with pytest.raises(TypeError):
        _ideal_arrays(0, 100, include_nonsplit=True)


# ------------------------------------------------------------ memory gate

def _nbytes(arrays):
    return sum(arr.nbytes for arr in arrays)


@pytest.mark.parametrize("blocks", ["module", "small"])
def test_memory_gate_ideal_arrays(monkeypatch, blocks):
    # the enumeration keeps at most half its output beyond the output, plus
    # what one sieve segment and one scan chunk hold
    if blocks == "small":
        small_blocks(monkeypatch)
    out, peak = traced_peak(ideals_mod._ideal_arrays.__wrapped__, 0, MEMORY_GATE_SIZE, True)
    assert peak <= 1.5 * _nbytes(out) + scan_allowance(MEMORY_GATE_SIZE), (peak, _nbytes(out))


@pytest.mark.parametrize("lo", [0, 10**7 - (1 << 20)])
def test_memory_gate_lattice_scan(monkeypatch, lo):
    # one window of one segment.  The peak comes while the split marks are
    # set.  Besides the output (the columns, and the split primes, held in a
    # list until they are joined) the scan then holds the marks at half a
    # byte per norm, and the marks' index, split - start and its shift: two
    # int64 per split prime, one above 256 KiB, where numpy reuses the
    # first.  The segment's primes from the sieve are gone by then.  The
    # rows and one chunk come after the index is freed and take less here
    # (5 int64 per row, 6 per point of the chunk); 64 KiB covers numpy's
    # indexing buffers
    monkeypatch.setattr(ideals_mod, "_SEGMENT", 1 << 20)
    monkeypatch.setattr(ideals_mod, "_SCAN_POINTS", 1 << 10)
    hi = lo + (1 << 20)
    out, peak = traced_peak(ideals_mod._lattice_scan, lo, hi, lambda p: p % 4 == 1,
                            ideals_mod._two_square_rows, lambda a, b: a * a + b * b, 1)
    allowance = 2 * out[2].nbytes + (1 << 19) + (1 << 16)
    assert peak <= _nbytes(out) + allowance, (peak, _nbytes(out))


def test_memory_gate_sector_scan():
    # on a cached enumeration the scan holds one sorted copy of the angles
    # and, besides it, only arrays over the offsets (16 float64 per offset)
    angles = _ideal_arrays(1, MEMORY_GATE_SIZE, True)[5]
    grid = 1024
    _, peak = traced_peak(sectors_mod.sector_scan, MEMORY_GATE_SIZE, 0.3, grid)
    assert peak <= angles.nbytes + 16 * 8 * grid, (peak, angles.nbytes)


def test_memory_gate_lambda_arrays():
    # on a cached enumeration the table's outputs are its norm, theta and
    # weight columns (8 B per row each) and r (4 B).  The weights are built
    # first, while no other output exists: the log column with its cast (16 B
    # per prime row), the inserted copy (8 B) and np.insert's bool mask (1 B)
    # stay below the 28 B of the finished output.  Each later insert holds
    # the outputs so far, its own copy and a mask, and the r column adds its
    # int32 ones: output + 5 B per row at most.  One float64 column over the
    # output bounds that; 64 KiB covers the block of powers, about 80 rows
    lo, hi = MEMORY_GATE_SIZE, 2 * MEMORY_GATE_SIZE
    _ideal_arrays(lo, hi, True)
    _ideal_arrays(0, math.isqrt(hi), True)
    out, peak = traced_peak(_lambda_arrays, lo, hi)
    assert peak <= _nbytes(out) + 8 * out[0].size + (1 << 16), (peak, _nbytes(out))


def test_memory_gate_discrepancy():
    # on a cached enumeration the discrepancy holds one sorted copy of the
    # angles, normalised in place, and the terms of one _BLOCK at a time:
    # the int64 index and at most three float64 arrays over it, six allowed
    angles = _ideal_arrays(1, MEMORY_GATE_SIZE, True)[5]
    assert angles.size >= 4 * _BLOCK  # several blocks, so whole-input terms show
    _, peak = traced_peak(sectors_mod.discrepancy, 1, MEMORY_GATE_SIZE)
    assert peak <= angles.nbytes + 6 * 8 * _BLOCK, (peak, angles.nbytes)


def test_memory_gate_ideal_csv(tmp_path):
    rows = _ideal_arrays(0, MEMORY_GATE_SIZE, True)[0].size
    assert rows >= 4 * _BLOCK  # several blocks, so a whole-file buffer shows
    _, peak = traced_peak(write_ideal_csv, str(tmp_path / "ideals.csv"), 0, MEMORY_GATE_SIZE)
    assert peak <= writer_allowance(), peak
