"""The byte-matrix CSV writers against "%d" / "%.17g" formatted one value at a time."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    oracle_ideal_csv,
    oracle_realquad_csv,
    oracle_sector_csv,
    oracle_variance_csv,
    small_blocks,
)
from sectorlab import reports
from sectorlab.realquad import equidistribution_report_real
from sectorlab.sectors import SectorScanReport, sector_scan
from sectorlab.variance import variance_sweep


def _g17(values) -> list[str]:
    v = np.asarray(values, dtype=np.float64)
    out = np.zeros((v.size, reports._G17_WIDTH), np.uint8)
    reports._put_g17(out, v)
    return [bytes(row[row != 0]).decode() for row in out]


def _d(values) -> list[str]:
    x = np.asarray(values)
    out = np.zeros((x.size, reports._field_width(x)), np.uint8)
    reports._put_int(out, x)
    return [bytes(row[row != 0]).decode() for row in out]


def _assert_g17(values):
    values = [float(v) for v in values]
    got = _g17(values)
    want = ["%.17g" % v for v in values]
    bad = [(v.hex(), g, w) for v, g, w in zip(values, got, want) if g != w]
    assert not bad, bad[:5]


# ------------------------------------------------------------ %.17g kernel

@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_g17_matches_percent_operator(values):
    # every float: nan, +-inf, +-0 and subnormals take the per-value path
    _assert_g17(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=40),
       st.booleans())
def test_g17_matches_percent_operator_in_kernel_range(values, negate):
    _assert_g17([-v if negate else v for v in values])


def _neighbours(x: float, steps: int = 3) -> list[float]:
    out, down, up = [x], x, x
    for _ in range(steps):
        down, up = math.nextafter(down, 0.0), math.nextafter(up, math.inf)
        out += [down, up]
    return out


def test_g17_hard_cases():
    cases = []
    # every decade of the kernel's range and past both ends, as the literal
    # and as 10.0 ** k, which can differ by an ulp, with their neighbours
    for k in range(-6, 19):
        for x in (float(f"1e{k}"), 10.0**k):
            cases += _neighbours(x)
    # log10 rounds up to the next decade just below a power of ten
    cases += [math.nextafter(0.1, 0.0), math.nextafter(0.001, 0.0), math.nextafter(1e15, 0.0),
              math.nextafter(1e-4, 0.0), math.nextafter(1e16, 0.0), 9999999999999998.0,
              0.99999999999999989, 9.9999999999999982, 99999.999999999985]
    # exact 17-digit ties, rounded half to even: 16 integer digits and a
    # fraction .25 or .75 are 18 significant digits ending in 5
    for m in (10**15, 10**15 + 1, 1234567890123456, 2**51 - 2):
        cases += [m + 0.25, m + 0.75]
    cases += [0.5, 1.5, 2.5, 1e-4 + 0.5e-20, 123.456, 1.0 / 3.0, 2.0 / 3.0, math.pi, 1e-5,
              5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, math.inf, math.nan]
    _assert_g17(cases + [-x for x in cases])


def test_g17_ties_round_half_to_even():
    assert _g17([1e15 + 0.25, 1e15 + 0.75, -(1e15 + 0.25)]) == [
        "1000000000000000.2", "1000000000000000.8", "-1000000000000000.2"]


def test_g17_decade_table_holds_the_least_double_at_each_power():
    for e, d in zip(range(-4, 17), reports._DECADES.tolist(), strict=True):
        assert Fraction(d) >= Fraction(10) ** e > Fraction(math.nextafter(d, 0.0))


def test_g17_decade_edges():
    # three doubles either side of 10^E, and of 10^(E+1) (1 - 5e-18), where
    # 17-digit rounding carries into the next decade
    cases = []
    for e in range(-5, 18):
        for edge in (Fraction(10) ** e, Fraction(10) ** (e + 1) * (1 - Fraction(5, 10**18))):
            cases += _neighbours(float(edge))
    _assert_g17(cases + [-x for x in cases])


# ------------------------------------------------------------ %d kernel

@pytest.mark.parametrize("values", [
    [0], [1], [-1], [0, -1, 1],
    np.arange(-128, 128, dtype=np.int8),
    [2**31 - 1, 2**31, -2**31, -2**31 - 1, 2**32 - 1, 2**32, 10**9 - 1, 10**9, -10**8],
    [2**63 - 1, -2**63, 0, 7],
    [10**18, -(10**18), 999_999_999_999_999_999],
])
def test_int_formatter_matches_percent_operator(values):
    x = np.asarray(values, dtype=getattr(values, "dtype", np.int64))
    assert _d(x) == ["%d" % n for n in x.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40))
def test_int_formatter_matches_percent_operator_random(values):
    assert _d(np.array(values, dtype=np.int64)) == ["%d" % n for n in values]


# ------------------------------------------------------------ byte oracle

def _same_bytes(tmp_path, write, oracle, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(str(got), *args)
    oracle(str(want), *args)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("window", [(0, 10**4, True), (999_000_000, 10**9, True), (0, 10**5, False)])
def test_ideal_csv_matches_oracle(tmp_path, window):
    _same_bytes(tmp_path, reports.write_ideal_csv, oracle_ideal_csv, *window)


@pytest.mark.parametrize("limit", [7, 10**4, 10**6])
def test_realquad_csv_matches_oracle(tmp_path, limit):
    rep = equidistribution_report_real(limit, 3)
    _same_bytes(tmp_path, reports.write_realquad_csv, oracle_realquad_csv, rep)


def _synthetic_sectors(counts, expected: float) -> SectorScanReport:
    counts = np.asarray(counts, dtype=np.int64)
    return SectorScanReport(
        X=1000, rho=0.3, gamma=0.125, grid_size=counts.size, counts=counts,
        expected=expected, deviations=counts / expected - 1.0, exceptional_fraction={})


def test_sector_csv_matches_oracle(tmp_path):
    # deviations -1 (empty sector), 0 (count equal to expected), negative,
    # positive and tiny (printed in exponent form)
    rep = _synthetic_sectors([0, 4, 3, 5, 4, 1, 4, 8, 2, 4], 4.0)
    assert {-1.0, 0.0} <= set(rep.deviations.tolist())
    _same_bytes(tmp_path, reports.write_sector_csv, oracle_sector_csv, rep)
    rep = _synthetic_sectors([10**6, 10**6 + 1, 10**6 - 1], 1e6)
    _same_bytes(tmp_path, reports.write_sector_csv, oracle_sector_csv, rep)
    rep = sector_scan(10**4, 0.3, 512)
    assert (rep.deviations < 0).any() and (rep.deviations > 0).any()
    _same_bytes(tmp_path, reports.write_sector_csv, oracle_sector_csv, rep)


def test_variance_csv_matches_oracle(tmp_path):
    # copies of one real cell: ratios inside the %.17g kernel's range and in
    # exponent form (below 1e-4, as every real ratio near 1e-5 is), and a
    # repeated (X, tau) whose last ratio is the one written
    cell, = variance_sweep([10**4], [0.2])
    cells = [dataclasses.replace(cell, X=X, tau=tau, ratio=ratio) for X, tau, ratio in (
        (1e4, 0.2, 0.25), (1e5, 0.2, 9.2237113655615743e-06),
        (1e4, 0.4, 0.0071150197734190295), (1e5, 0.4, 5.3586377622078713e-05),
        (1e4, 0.2, cell.ratio))]
    assert cell.X == 1e4 and 1e-4 < cell.ratio < 1e-3
    _same_bytes(tmp_path, reports.write_variance_csv, oracle_variance_csv, cells)
    lines = (tmp_path / "got.csv").read_text().splitlines()
    assert lines[2:] == ["10000,%.17g,0.0071150197734190295" % cell.ratio,
                         "100000,9.2237113655615743e-06,5.3586377622078713e-05"], lines


@pytest.mark.parametrize("blocks", ["module", "small"])
def test_csv_block_edges_match_oracle(tmp_path, monkeypatch, blocks):
    # k blocks +- 1 row, so a last block of one row and a full last block
    # both occur; the small case also shrinks the enumeration's blocks
    if blocks == "small":
        small_blocks(monkeypatch)
        monkeypatch.setattr(reports, "_BLOCK", 61)
    block = reports._BLOCK
    full = equidistribution_report_real(10**6, 1)
    assert full.ideal_count > 2 * block + 1
    for rows in (1, block - 1, block, block + 1, 2 * block - 1, 2 * block + 1):
        cols = {name: getattr(full, name)[:rows] for name in ("p", "a", "b", "sign", "t")}
        rep = dataclasses.replace(full, ideal_count=rows, **cols)
        _same_bytes(tmp_path, reports.write_realquad_csv, oracle_realquad_csv, rep)
        sectors = _synthetic_sectors(np.arange(rows) % 7, 3.0)
        _same_bytes(tmp_path, reports.write_sector_csv, oracle_sector_csv, sectors)
