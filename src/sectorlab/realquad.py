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
solve_norm_equation returns that one.  Equidistribution of the t values
is probed by the real Weyl sums over the characters

    chi_k(t) = exp(i pi k t / log eps),

summed over both members of every conjugate pair, which forces the
imaginary parts to cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, InvariantViolation, NotSplit
from .ideals import sieve_rational_primes, sqrt_mod

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
    t = math.fmod(_raw_t(a, b), PERIOD)
    return t + PERIOD if t < 0.0 else t


def conjugate_t(t: float) -> float:
    """Reflection t -> -t on the circle of circumference 2 log eps."""
    if not 0.0 <= t < PERIOD:
        raise BadInput(f"t = {t} outside [0, {PERIOD})")
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


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k (OEIS A014233): the least odd composite that is a strong probable
# prime to each of the first k prime bases, so below psi_k those k decide
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit inputs, with as few bases as n allows."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for k, psi in enumerate(_PSI, 1) if n < psi), len(_BASES))
    for base in _BASES[:k]:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def solve_norm_equation(p: int, method: str = "brute") -> tuple[int, int, int]:
    """Canonical (a, b, sign) with a^2 - 2 b^2 = sign * p, sign = +1 always.

    Of the conjugate pair of ideals above a split p, the one whose
    canonical generator has norm +p is returned.  method="brute" scans
    b upward; method="fast" runs the half-Euclid descent on (p, sqrt of 2
    mod p), whose first remainder below sqrt(2p) already solves the
    equation.  NotSplit for p = 2 or p = +-3 mod 8.
    """
    p = int(p)
    if not _is_prime(p):
        raise BadInput(f"{p} is not prime")
    if p == 2 or p % 8 not in (1, 7):
        raise NotSplit(f"2 is not a square mod {p}")
    if method == "brute":
        a, b = _solve_brute(p)
    elif method == "fast":
        a, b = _solve_fast(p)
    else:
        raise BadInput(f"unknown method {method!r}")
    a, b, sign, _ = _canonicalize(a, b, p)
    if sign < 0:
        a, b, sign, _ = _canonicalize(a, -b, p)
    if sign != 1:
        raise InvariantViolation(f"no canonical generator of norm +{p} in the pair above {p}")
    return a, b, sign


def _solve_brute(p: int) -> tuple[int, int]:
    # every ideal class contains a generator with |b| <= ~1.21 sqrt(p)
    bound = math.isqrt(p) + math.isqrt(p) // 3 + 2
    for b in range(bound + 1):
        twice = 2 * b * b
        for target in (twice + p, twice - p):
            if target >= 0:
                a = math.isqrt(target)
                if a * a == target:
                    return a, b
    raise ArithmeticError(f"norm equation search exhausted at {p}")  # unreachable for split p


def _solve_fast(p: int) -> tuple[int, int]:
    r = sqrt_mod(2, p)
    # half Euclid: remainders r_i of gcd(p, r) with cofactors t_i satisfying
    # r_i = t_i * r mod p, hence r_i^2 - 2 t_i^2 = 0 mod p; the first
    # remainder below sqrt(2p) gives |r_i^2 - 2 t_i^2| < 2p, so it is +-p
    cap = math.isqrt(2 * p)
    r0, r1 = p, r
    t0, t1 = 0, 1
    while r1 > cap:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return r1, abs(t1)


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


def conjugate_pair(p: int, method: str = "brute") -> tuple[RealQuadPrimeIdeal, RealQuadPrimeIdeal]:
    """Both prime ideals above p, the sign +1 one first."""
    a, b, sign = solve_norm_equation(p, method)
    t = angle_t(a, b)
    first = RealQuadPrimeIdeal(p=p, a=a, b=b, sign=sign, t=t)
    a2, b2, sign2, t2 = _canonicalize(a, -b, p)
    second = RealQuadPrimeIdeal(p=p, a=a2, b=b2, sign=sign2, t=t2)
    return first, second


@dataclass(frozen=True)
class RealQuadReport:
    """Weyl sums of the t angles over all split primes up to a limit.

    weyl[k] is the average of exp(i pi k t / log eps) over both conjugates
    of every split p <= limit; pairing makes it real, and decay in k with
    growing limit is equidistribution on the 2 log eps circle.
    """

    limit: int
    k_max: int
    ideal_count: int
    weyl: dict
    ideals: tuple


def equidistribution_report_real(limit: int, k_max: int, method: str = "fast") -> RealQuadReport:
    """Solve the norm equation for every split p <= limit and average chi_k."""
    limit = int(limit)
    if limit < 7:
        raise BadInput(f"limit {limit} below the smallest split prime 7")
    if k_max < 0:
        raise BadInput(f"k_max = {k_max} must be >= 0")
    primes = sieve_rational_primes(limit)
    split = primes[(primes % 8 == 1) | (primes % 8 == 7)]
    ideals = []
    for p in split.tolist():
        ideals.extend(conjugate_pair(p, method))
    ts = np.array([ideal.t for ideal in ideals], dtype=np.float64)
    count = ts.size
    weyl = {}
    for k in range(k_max + 1):
        phase = (math.pi * k / LOG_EPS) * ts
        re = math.fsum(np.cos(phase)) / count
        im = math.fsum(np.sin(phase)) / count
        if not abs(im) <= 1e-12:
            raise InvariantViolation(f"conjugate pairs leave Im W_{k} = {im!r} uncancelled")
        weyl[k] = re
    return RealQuadReport(
        limit=limit, k_max=int(k_max), ideal_count=int(count),
        weyl=weyl, ideals=tuple(ideals),
    )
