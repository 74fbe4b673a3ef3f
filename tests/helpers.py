"""Brute-force oracles shared by the test modules.

Everything here is deliberately slow and obvious: trial division, full
2D lattice scans, exhaustive residue tables.  The point is independence
from the code under test, so each oracle recomputes its answer from the
definition alone.  The memory gate's peak measurement and block
allowances are at the bottom.
"""

from __future__ import annotations

import math
import tracemalloc

from sectorlab import ideals


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


def ulps_apart(x: float, y: float) -> float:
    """Distance between two floats in units of the larger one's ulp."""
    if x == y:
        return 0.0
    scale = math.ulp(max(abs(x), abs(y)))
    return abs(x - y) / scale


# ------------------------------------------------------------ memory gate

MEMORY_GATE_SIZE = 10**6
# one CSV row of a block: its Python scalars with their list slots (about
# 6 x 40 B), the formatted line with its slot (about 110 B) and its share of
# the joined block text (about 60 B), rounded up
CSV_ROW_BYTES = 512


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

    One byte per norm of a segment for the sieve mask, and again for the
    split marks, plus six int64 arrays over one expansion chunk.
    """
    return 2 * min(ideals._SEGMENT, window) + 6 * 8 * ideals._SCAN_POINTS


def writer_allowance() -> int:
    """Bytes a CSV writer may hold: one block of rows.  Its output is the
    file, so no share of it stays in memory."""
    return CSV_ROW_BYTES * ideals._BLOCK


def small_blocks(monkeypatch):
    """Shrink the segment and the scan chunk so that the part of the peak
    that grows with the output dominates the block allowance."""
    monkeypatch.setattr(ideals, "_SEGMENT", 1 << 16)
    monkeypatch.setattr(ideals, "_SCAN_POINTS", 1 << 12)
