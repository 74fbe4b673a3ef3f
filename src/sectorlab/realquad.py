"""Prime ideals of Z[sqrt(2)] and their logarithmic angles.

An odd rational prime p splits in Z[sqrt(2)] exactly when 2 is a square
mod p, i.e. p = +-1 mod 8, and then p = |a^2 - 2 b^2| for integers a, b.
Generators of the ideal (a + b sqrt(2)) differ by powers of the
fundamental unit eps = 1 + sqrt(2) (norm -1), so the analogue of an
angle is

    t = log |alpha / conj(alpha)|  mod  2 log eps,

a point on a circle of circumference 2 log eps ~ 1.7628.  Each split p
gives a conjugate pair of ideals whose t values reflect through the
origin.  The canonical generator chosen here is the unique one (up to
sign of alpha) with raw t in [0, 2 log eps) and a > 0; of the two
conjugate ideals, exactly one has a canonical generator of norm +p, and
solve_norm_equation returns that one.

The canonical domain.  Write alpha = a + b sqrt 2 with a > 0 and
N = a^2 - 2 b^2 = alpha conj(alpha).  Raw t >= 0 means |alpha| >=
|conj(alpha)|, which for a > 0 is b >= 0; and |alpha| |conj(alpha)| = |N|
turns t in [0, 2 log eps) into

    sqrt|N| <= a + b sqrt 2 < eps sqrt|N|.

The upper edge is |alpha / conj(alpha)| < eps^2.  For N > 0 that reads
a + b sqrt 2 < eps^2 (a - b sqrt 2), i.e. a > b sqrt 2 (eps^2 + 1) /
(eps^2 - 1), and (eps^2 + 1)/(eps^2 - 1) = sqrt 2, so a > 2b.  For N < 0
it reads a + b sqrt 2 < eps^2 (b sqrt 2 - a), i.e. a < b.  So the domain
splits in two:

    norm +p:  a > 2b >= 0,      norm -p:  0 < a < b,

and each split prime has exactly one point in each region.  An odd norm
forces a odd.  equidistribution_report_real walks rows b of both regions
one sieve segment of norms at a time and keeps the odd a whose |N| is a
prime = +-1 mod 8.  solve_norm_equation, a half-Euclid descent on a square
root of 2 mod p, resolves a single prime independently and serves as the
oracle for the scan.

Equidistribution of the t values is probed by the real Weyl sums over
the characters

    chi_k(t) = exp(i pi k t / log eps) = chi_1(t)^k,

summed over both members of every conjugate pair, which forces the
imaginary parts to cancel.  The terms are the running powers of chi_1
(_kernels.unit_power_sums), exactly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import unit_power_sums
from .errors import (MAX_KMAX, MAX_SIZE, BadInput, InvariantViolation, NotSplit, check_int,
                     check_real)
from .ideals import _BLOCK, _isqrt, _lattice_scan, _scalars, sqrt_mod

SQRT2 = math.sqrt(2.0)
LOG_EPS = math.log(1.0 + SQRT2)
PERIOD = 2.0 * LOG_EPS


def _raw_t(a: int, b: int) -> float:
    """log |alpha / conj(alpha)| for alpha = a + b sqrt(2), any nonzero alpha.

    Computed as +-(2 log(|a| + |b| sqrt 2) - log |a^2 - 2 b^2|): the larger
    of |alpha|, |conj(alpha)| is always the sign-agreeing combination
    |a| + |b| sqrt 2, so no cancellation occurs, and the smaller factor is
    recovered from the exact integer norm.
    """
    norm = a * a - 2 * b * b
    if norm == 0:
        raise BadInput("a^2 - 2 b^2 = 0 is not invertible")
    if a == 0 or b == 0:
        return 0.0
    big = 2.0 * math.log(abs(a) + abs(b) * SQRT2) - math.log(abs(norm))
    return big if (a > 0) == (b > 0) else -big


def angle_t(a: int, b: int) -> float:
    """The class of log |alpha / conj(alpha)| in [0, 2 log eps)."""
    a, b = check_int("a", a), check_int("b", b)
    t = math.fmod(_raw_t(a, b), PERIOD)
    return t + PERIOD if t < 0.0 else t


def conjugate_t(t: float) -> float:
    """Reflection t -> -t on the circle of circumference 2 log eps."""
    t = check_real("t", t, 0.0, PERIOD, "[)")
    return 0.0 if t == 0.0 else PERIOD - t


def _unit_up(a: int, b: int) -> tuple[int, int]:
    """Multiply a + b sqrt 2 by eps = 1 + sqrt 2; raises raw t by 2 log eps."""
    return a + 2 * b, a + b


def _unit_down(a: int, b: int) -> tuple[int, int]:
    """Multiply by eps^(-1) = -1 + sqrt 2; lowers raw t by 2 log eps."""
    return 2 * b - a, a - b


def _canonicalize(a: int, b: int, p: int) -> tuple[int, int, int, float]:
    """Reduce a solution of a^2 - 2 b^2 = +-p to the canonical generator.

    Unit multiplications shift raw t by the full period while flipping the
    sign of the norm twice per period, so there is a unique generator with
    raw t in [0, period); its a is then made positive (negation leaves t
    alone).  Returns (a, b, sign, t) with sign = (a^2 - 2 b^2)/p.
    """
    t = _raw_t(a, b)
    while t >= PERIOD:
        a, b = _unit_down(a, b)
        t = _raw_t(a, b)
    while t < 0.0:
        a, b = _unit_up(a, b)
        t = _raw_t(a, b)
    if a < 0:
        a, b = -a, -b
    norm = a * a - 2 * b * b
    if norm % p:
        raise BadInput(f"({a}, {b}) does not solve a^2 - 2 b^2 = +-{p}")
    return a, b, norm // p, t


def solve_norm_equation(p: int) -> tuple[int, int, int]:
    """Canonical (a, b, sign) with a^2 - 2 b^2 = sign * p, sign = +1 always.

    Of the conjugate pair of ideals above a split p, the one whose
    canonical generator has norm +p is returned.  The half-Euclid descent
    on (p, sqrt of 2 mod p) finds a solution: its first remainder below
    sqrt(2p) already solves the equation up to sign.  NotSplit for p = 2
    or p = +-3 mod 8; sqrt_mod rejects any other p that is not a prime
    below 2^64.
    """
    p = check_int("p", p, 2)
    if p == 2 or p % 8 not in (1, 7):
        raise NotSplit(f"2 is not a square mod {p}")
    # half Euclid: remainders r_i of gcd(p, r) with cofactors t_i satisfying
    # r_i = t_i * r mod p, hence r_i^2 - 2 t_i^2 = 0 mod p; the first
    # remainder below sqrt(2p) gives |r_i^2 - 2 t_i^2| < 2p, so it is +-p
    cap = math.isqrt(2 * p)
    r0, r1 = p, sqrt_mod(2, p)
    t0, t1 = 0, 1
    while r1 > cap:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    a, b, sign, _ = _canonicalize(r1, abs(t1), p)
    if sign < 0:
        a, b, sign, _ = _canonicalize(a, -b, p)
    if sign != 1:
        raise InvariantViolation(f"no canonical generator of norm +{p} in the pair above {p}")
    return a, b, sign


@dataclass(frozen=True, slots=True)
class RealQuadPrimeIdeal:
    """One prime ideal of Z[sqrt 2] above a split p, in canonical form."""

    p: int
    a: int
    b: int
    sign: int
    t: float

    def __post_init__(self):
        if self.a * self.a - 2 * self.b * self.b != self.sign * self.p:
            raise BadInput(f"norm of {self.a} + {self.b} sqrt 2 is not {self.sign} * {self.p}")


def conjugate_pair(p: int) -> tuple[RealQuadPrimeIdeal, RealQuadPrimeIdeal]:
    """Both prime ideals above p, the sign +1 one first."""
    a, b, sign = solve_norm_equation(p)
    t = angle_t(a, b)
    first = RealQuadPrimeIdeal(p=p, a=a, b=b, sign=sign, t=t)
    a2, b2, sign2, t2 = _canonicalize(a, -b, p)
    second = RealQuadPrimeIdeal(p=p, a=a2, b=b2, sign=sign2, t=t2)
    return first, second


@dataclass(frozen=True, eq=False)
class RealQuadReport:
    """Weyl sums of the t angles over all split primes up to a limit.

    weyl[k] is the average of exp(i pi k t / log eps) over both conjugates
    of every split p <= limit; pairing makes it real, and decay in k with
    growing limit is equidistribution on the 2 log eps circle.  The ideals
    are held as read-only columns p, a, b, sign, t, ordered by p with the
    sign +1 ideal first.
    """

    limit: int
    k_max: int
    ideal_count: int
    weyl: dict
    p: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sign: np.ndarray
    t: np.ndarray

    @cached_property
    def ideals(self) -> tuple:
        """The ideals as RealQuadPrimeIdeal objects, built on first access."""
        cols = (self.p, self.a, self.b, self.sign, self.t)
        return tuple(RealQuadPrimeIdeal(p, a, b, sign, t)
                     for p, a, b, sign, t in zip(*map(_scalars, cols)))


def _canonical_rows(start: int, stop: int):
    """Rows b of canonical generators with start <= |a^2 - 2 b^2| <= stop, a odd.

    Each b = 1, ..., isqrt(stop) gets two rows, a > 2b (norm +p) and
    0 < a < b (norm -p); rows that miss the segment come out empty.
    """
    b = np.arange(1, math.isqrt(stop) + 1, dtype=np.int64)
    twice = 2 * b * b
    plus_lo = np.maximum(_isqrt(twice + (start - 1)) + 1, 2 * b + 1)
    plus_hi = _isqrt(twice + stop)
    minus_lo = _isqrt(np.maximum(twice - stop - 1, 0)) + 1
    minus_hi = np.minimum(_isqrt(np.maximum(twice - start, 0)), b - 1)
    a_lo = np.concatenate((plus_lo, minus_lo))
    a_lo += a_lo % 2 == 0
    return np.concatenate((b, b)), a_lo, np.concatenate((plus_hi, minus_hi))


def _signed_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^2 - 2 b^2 elementwise, with one temporary."""
    norm = a * a
    twice = b * b
    twice <<= 1
    norm -= twice
    return norm


def _split_generators(limit: int):
    """Columns (p, a, b, sign) of both canonical generators of every split p <= limit.

    One lattice scan over the canonical domain (module docstring), ordered
    by p with the norm +p generator first.  InvariantViolation unless every
    split prime has exactly one point of each sign.  The sort key
    2|N| + (N < 0) is dropped before the columns are gathered, each gathered
    column replaces its source, and p and sign are formed after the sort, so
    besides a, b and the split primes at most two int64 columns are alive.
    """
    b, a, split = _lattice_scan(0, limit, lambda q: (q % 8 == 1) | (q % 8 == 7),
                                _canonical_rows, lambda b, a: np.abs(_signed_norm(a, b)))
    key = _signed_norm(a, b)
    negative = key < 0
    np.abs(key, out=key)
    key <<= 1
    key += negative
    del negative
    order = np.argsort(key)
    del key
    a = a[order]
    b = b[order]
    del order
    p = _signed_norm(a, b)
    sign = np.sign(p, out=np.empty(p.size, dtype=np.int8))
    np.abs(p, out=p)
    if not (np.array_equal(p[0::2], split) and np.array_equal(p[1::2], split)
            and np.all(sign[0::2] == 1) and np.all(sign[1::2] == -1)):
        raise InvariantViolation(
            f"lattice scan found {np.count_nonzero(sign > 0)} norm + and "
            f"{np.count_nonzero(sign < 0)} norm - generators for {split.size} split primes "
            f"up to {limit}, not one of each per prime")
    return p, a, b, sign


def _weyl_means(t: np.ndarray, limit: int, k_max: int) -> dict:
    """{k: mean of chi_k(t)} for k = 0..k_max over the t column of a report.

    The imaginary parts must cancel over the conjugate pairs up to rounding,
    bounded per mode before any measurement.  With u = 2^-53 and p <= limit:
    - t = 2 log(a + b sqrt 2) - log p is within u (12 + 4 log limit) of its
      exact value (3 u in a + b sqrt 2, one ulp of each log, one rounding
      of the difference, and log(a + b sqrt 2) < log eps + log(p) / 2);
    - the exact t of a pair add up to 2 log eps, so their phases
      fl(s t) with s = fl(pi / log eps) add up to 2 pi within
      2 s u (12 + 4 log limit) + 44 u (s and the two products add at most
      7 u of relative error to the sum 2 pi);
    - the imaginary parts of exp(i k phi) over the pair then cancel to k
      times that gap, and each computed term is within 6 k u of its exact
      value (the error note of _kernels.unit_power_sums).
    So |Im W_k| <= k u (s (12 + 4 log limit) + 28); InvariantViolation beyond.
    """
    scale = math.pi / LOG_EPS
    sums = unit_power_sums(t, scale, k_max)
    slack = 2.0**-53 * (scale * (12.0 + 4.0 * math.log(limit)) + 28.0)
    weyl = {}
    for k, value in enumerate(sums.tolist()):
        im = value.imag / t.size
        if not abs(im) <= k * slack:
            raise InvariantViolation(f"conjugate pairs leave Im W_{k} = {im!r} uncancelled")
        weyl[k] = value.real / t.size
    return weyl


def equidistribution_report_real(limit: int, k_max: int) -> RealQuadReport:
    """Both canonical generators of every split p <= limit, and the averages of chi_k.

    The generators come from one lattice scan of the canonical domain.  The
    limit runs from 7, the smallest split prime, to MAX_SIZE, far below the
    2^63 / eps^2 where the scan's norms would leave int64.
    """
    limit = check_int("limit", limit, 7, MAX_SIZE)
    k_max = check_int("k_max", k_max, 0, MAX_KMAX)
    p, a, b, sign = _split_generators(limit)
    # _raw_t's arithmetic for a, b > 0 and |N| = p, a block at a time;
    # math.log, not np.log, keeps t bitwise equal to it
    t = np.empty(p.size)
    for start in range(0, p.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        log_alpha = np.fromiter(map(math.log, (a[rows] + b[rows] * SQRT2).tolist()), np.float64)
        log_p = np.fromiter(map(math.log, p[rows].tolist()), np.float64)
        np.subtract(2.0 * log_alpha, log_p, out=t[rows])
    weyl = _weyl_means(t, limit, k_max)
    for col in (p, a, b, sign, t):
        col.setflags(write=False)
    return RealQuadReport(
        limit=limit, k_max=k_max, ideal_count=t.size, weyl=weyl,
        p=p, a=a, b=b, sign=sign, t=t,
    )
