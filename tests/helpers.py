"""Brute-force oracles shared by the test modules.

Everything here is deliberately slow and obvious: trial division, full
2D lattice scans, exhaustive residue tables, CSV lines formatted one row
at a time with the % operator.  The point is independence from the code
under test, so each oracle recomputes its answer from the definition
alone.  The memory gate's peak measurement and block allowances are at
the bottom.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from sectorlab import _kernels, ideals, reports
from sectorlab._version import __version__
from sectorlab.windows import custom_window


def brute_primes(limit: int) -> list[int]:
    """All rational primes <= limit by trial division."""
    primes = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            primes.append(n)
    return primes


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_gaussian_ideals(norm_min: int, norm_max: int) -> set[tuple[int, int, int]]:
    """(norm, a, b) for every prime ideal with norm in (norm_min, norm_max].

    Scans the closed first quadrant of Z[i].  A nonzero a + bi generates
    a prime ideal exactly when a^2 + b^2 is a rational prime, or when
    b = 0 and a is a rational prime congruent to 3 mod 4 (norm a^2).
    Conjugate ideals appear as the two distinct lattice points (a, b)
    and (b, a); the ramified ideal (1, 1) and the inert ones (q, 0) are
    single points, so a plain set over the scan is already the dedup.
    """
    out = set()
    r = math.isqrt(norm_max)
    for a in range(1, r + 1):
        if a * a > norm_min and a % 4 == 3 and brute_is_prime(a):
            out.add((a * a, a, 0))
        for b in range(1, r + 1):
            norm = a * a + b * b
            if norm_min < norm <= norm_max and brute_is_prime(norm):
                out.add((norm, a, b))
    return out


def brute_cornacchia(p: int) -> tuple[int, int]:
    """The decomposition p = a^2 + b^2 with a odd, b even, both positive."""
    for b in range(0, math.isqrt(p) + 1):
        rem = p - b * b
        a = math.isqrt(rem)
        if a * a == rem and a > 0 and b > 0 and a % 2 == 1 and b % 2 == 0:
            return a, b
    raise AssertionError(f"no two-square decomposition of {p}")


def brute_sqrt_mod(n: int, p: int) -> int | None:
    """Any square root of n mod p, or None, by exhaustive search."""
    n %= p
    for x in range(p):
        if x * x % p == n:
            return x
    return None


def brute_realquad_solution(p: int) -> tuple[int, int]:
    """Positive (a, b) with |a^2 - 2 b^2| = p and smallest a, by scan."""
    a = 1
    while True:
        rem = a * a - p
        for target in (a * a + p, rem if rem > 0 else None):
            if target is None or target % 2 == 1:
                continue
            half = target // 2
            b = math.isqrt(half)
            if b > 0 and b * b == half:
                return a, b
        a += 1


def running_power_sums(phases, k_max: int) -> list[complex]:
    """sum_n z_n^k for k = 1..k_max by math.fsum over Python floats, where
    z_n = cos(phases_n) + i sin(phases_n) and z_n^k = z_n^(k-1) z_n is the
    textbook product: the terms of _kernels.unit_power_sums one at a time."""
    c, s = np.cos(phases).tolist(), np.sin(phases).tolist()
    re, im = c, s
    sums = [complex(math.fsum(re), math.fsum(im))]
    for _ in range(2, k_max + 1):
        re, im = ([a * cn - b * sn for a, b, cn, sn in zip(re, im, c, s)],
                  [a * sn + b * cn for a, b, cn, sn in zip(re, im, c, s)])
        sums.append(complex(math.fsum(re), math.fsum(im)))
    return sums


def ulps_apart(x: float, y: float) -> float:
    """Distance between two floats in units of the larger one's ulp."""
    if x == y:
        return 0.0
    scale = math.ulp(max(abs(x), abs(y)))
    return abs(x - y) / scale


# ------------------------------------------------------------ CSV oracles

def _oracle_lines(path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def oracle_ideal_csv(path, norm_min, norm_max, include_nonsplit=True):
    """reports.write_ideal_csv one row at a time: "%d" and "%.17g" per value."""
    cols = [col.tolist() for col in ideals._ideal_arrays(norm_min, norm_max, include_nonsplit)]
    kinds = {c: s.value for c, s in ideals._CODE_TO_SPLITTING.items()}
    header = [
        f"# {reports.IDEAL_FORMAT} sectorlab={__version__}",
        f"# norm_min={int(norm_min)} norm_max={norm_max} include_nonsplit={int(include_nonsplit)}",
        "p,a,b,norm,splitting,theta",
    ]
    rows = ["%d,%d,%d,%d,%s,%.17g" % (p, a, b, norm, kinds[code], theta)
            for p, a, b, norm, code, theta in zip(*cols)]
    _oracle_lines(path, header + rows)


def oracle_sector_csv(path, report):
    """reports.write_sector_csv one row at a time."""
    header = [
        f"# {reports.SECTOR_FORMAT} sectorlab={__version__}",
        f"# X={report.X} rho={'%.17g' % report.rho} gamma={'%.17g' % report.gamma} "
        f"grid={report.grid_size}",
        "beta,count,expected,deviation",
    ]
    expected = "%.17g" % report.expected
    cols = (report.betas.tolist(), report.counts.tolist(), report.deviations.tolist())
    rows = ["%.17g,%d,%s,%.17g" % (beta, count, expected, deviation)
            for beta, count, deviation in zip(*cols)]
    _oracle_lines(path, header + rows)


def oracle_realquad_csv(path, report):
    """reports.write_realquad_csv one row at a time."""
    header = [
        f"# {reports.REALQUAD_FORMAT} sectorlab={__version__}",
        f"# limit={report.limit} ideal_count={report.ideal_count}",
        "p,a,b,sign,t",
    ]
    cols = (report.p, report.a, report.b, report.sign, report.t)
    rows = ["%d,%d,%d,%d,%.17g" % row for row in zip(*(col.tolist() for col in cols))]
    _oracle_lines(path, header + rows)


# ------------------------------------------------------------ memory gate

MEMORY_GATE_SIZE = 10**6
# one CSV row of a block of the byte-matrix writers.  At MEMORY_GATE_SIZE
# the widest row is at most 64 bytes of the matrix (ideals: p and norm below
# 10^7, a and b below 10^4, the splitting word 8 and the float field 24, so
# 7 + 4 + 4 + 7 + 8 + 24 plus six separators, 60).  The matrix, its nonzero
# mask and the compressed copy of its nonzero bytes take at most 3 x 64; the
# float kernel's named float64 temporaries (|v|, the product hi + lo, the
# Veltkamp halves of |v| and of the power of ten, one partial product) at
# most 8 x 8 more
CSV_ROW_BYTES = 3 * 64 + 8 * 8


def constant_window(value: float, lo: float, hi: float):
    """The custom window with one value on its whole support [lo, hi]."""
    return custom_window(lambda u: np.full(np.shape(u), value), lo, hi)


def traced_peak(fn, *args):
    """fn(*args), and the peak of the memory traced while it ran.

    numpy reports its data buffers to tracemalloc, so the peak counts every
    array the call holds at once.
    """
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scan_allowance(window: int) -> int:
    """Bytes the lattice scan may hold besides its output and split primes.

    Half a byte per norm of a segment for the odd-only sieve mask, and
    again for the split marks, plus six int64 arrays over one expansion
    chunk.
    """
    return min(ideals._SEGMENT, window) + 6 * 8 * ideals._SCAN_POINTS


def writer_allowance() -> int:
    """Bytes a CSV writer may hold: one block of rows.  Its output is the
    file, so no share of it stays in memory."""
    return CSV_ROW_BYTES * ideals._BLOCK


def power_sum_allowance(k_max: int) -> int:
    """Bytes unit_power_sums may hold besides its input: six float64 arrays
    of one block, per mode its output and a few carried partials, and 64 kB
    of Python objects."""
    return 6 * 8 * _kernels._SUM_BLOCK + 1024 * (k_max + 1) + (1 << 16)


def small_blocks(monkeypatch):
    """Shrink the segment, the scan chunk and the summation block so that
    the part of the peak that grows with the output dominates the block
    allowance."""
    monkeypatch.setattr(ideals, "_SEGMENT", 1 << 16)
    monkeypatch.setattr(ideals, "_SCAN_POINTS", 1 << 12)
    monkeypatch.setattr(_kernels, "_SUM_BLOCK", 1 << 10)
