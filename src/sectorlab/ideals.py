"""Prime ideals of Z[i] with their angular coordinates.

Every nonzero prime ideal of the Gaussian integers sits above a rational
prime p and falls into one of three classes: p = 2 ramifies as (1+i)^2,
p = 1 mod 4 splits into a conjugate pair of degree-one ideals of norm p,
and p = 3 mod 4 stays inert with norm p^2.  A degree-one ideal has a
generator a + bi, unique up to units, and we normalise the generator to
the first quadrant (a > 0, b >= 0) so that the angle

    theta = atan2(b, a)  in  [0, pi/2)

is a well-defined invariant of the ideal.  Enumeration is driven by a
segmented sieve of rational primes.  The split ideals come from a lattice
scan: the points (a, b) with a, b >= 1 whose norm a^2 + b^2 the sieve
marks as a prime = 1 mod 4 are exactly the generators (a, b) and (b, a)
of the two conjugate ideals above that prime.  Cornacchia's algorithm,
with Tonelli-Shanks for the square root of -1 mod p, resolves a single
prime independently and serves as the oracle for the scan.

All enumerations are over half-open norm windows (norm_min, norm_max]
so that disjoint windows partition exactly; results are sorted by
(norm, theta).  The array-level helpers at the bottom return read-only
arrays; the enumeration _ideal_arrays is the package's only cache.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadInput, InvariantViolation, NonResidue

HALF_PI = math.pi / 2.0  # period of the ideal angle; other modules import it from here

_SEGMENT = 1 << 23  # sieve block length, keeps masks comfortably in cache
_SCAN_POINTS = 1 << 16  # lattice points the split scan expands at once (512 kB per int64 array)
_BLOCK = 1 << 14  # array elements converted to Python scalars at once


def sieve_rational_primes(limit: int) -> np.ndarray:
    """Return all rational primes <= limit as an ascending int64 array."""
    return _primes_in_range(0, limit)


def _primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes in the half-open window (lo, hi], sieved segment by segment.

    The base primes up to sqrt(hi) come from this same routine, so no mask
    longer than one segment is ever allocated.
    """
    lo, hi = int(lo), int(hi)
    if hi < 2 or hi <= lo:
        return np.empty(0, dtype=np.int64)
    lo = max(lo, 1)
    base = _primes_in_range(1, math.isqrt(hi))
    chunks = []
    start = lo + 1
    while start <= hi:
        stop = min(start + _SEGMENT - 1, hi)
        mask = np.ones(stop - start + 1, dtype=bool)
        for p in base.tolist():
            if p * p > stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            mask[first - start :: p] = False
        found = np.flatnonzero(mask).astype(np.int64, copy=False)
        found += start
        chunks.append(found)
        start = stop + 1
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def sqrt_mod(n: int, p: int) -> int:
    """Solve r^2 = n (mod p) for odd prime p with gcd(n, p) = 1.

    Returns the canonical smaller root r with 1 <= r <= p - r.  Raises
    NonResidue when n is not a quadratic residue mod p.  The p = 3 mod 4
    and p = 5 mod 8 cases use direct exponentiation; the rest run the
    Tonelli-Shanks loop.
    """
    p = int(p)
    if p < 3 or p % 2 == 0:
        raise BadInput(f"modulus {p} is not an odd prime")
    n = int(n) % p
    if n == 0:
        raise BadInput("sqrt_mod requires gcd(n, p) = 1")
    if pow(n, (p - 1) // 2, p) != 1:
        raise NonResidue(f"{n} is not a square modulo {p}")
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
    elif p % 8 == 5:
        r = pow(n, (p + 3) // 8, p)
        if r * r % p != n:
            r = r * pow(2, (p - 1) // 4, p) % p
    else:
        # Tonelli-Shanks: write p - 1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        r = pow(n, (q + 1) // 2, p)
        t = pow(n, q, p)
        m = s
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m = i
            c = b * b % p
            r = r * b % p
            t = t * c % p
    return min(r, p - r)


def cornacchia(p: int) -> tuple[int, int]:
    """Decompose a prime p = 1 mod 4 as a^2 + b^2 with a odd, b even.

    Euclidean descent from a square root of -1 mod p; the first remainder
    at most sqrt(p) is one leg of the unique decomposition, and exactness
    of the other leg is asserted rather than trusted.
    """
    p = int(p)
    if p % 4 != 1 or p < 5:
        raise BadInput(f"{p} is not a prime congruent to 1 mod 4")
    x = sqrt_mod(p - 1, p)
    x = max(x, p - x)
    a, b = p, x
    s = math.isqrt(p)
    while b > s:
        a, b = b, a % b
    c = p - b * b
    r = math.isqrt(c)
    if r * r != c:
        raise ArithmeticError(f"descent failed for p = {p}")  # unreachable for prime p
    return (b, r) if b % 2 == 1 else (r, b)


class Splitting(str, enum.Enum):
    """How a rational prime decomposes in Z[i]."""

    SPLIT = "split"
    RAMIFIED = "ramified"
    INERT = "inert"


_SPLIT, _RAMIFIED, _INERT = 0, 1, 2
_CODE_TO_SPLITTING = {0: Splitting.SPLIT, 1: Splitting.RAMIFIED, 2: Splitting.INERT}


@dataclass(frozen=True, slots=True)
class GaussianPrimeIdeal:
    """A prime ideal of Z[i] with its normalised generator and angle."""

    p: int
    a: int
    b: int
    norm: int
    splitting: Splitting
    theta: float

    def __post_init__(self):
        if self.a * self.a + self.b * self.b != self.norm:
            raise BadInput(f"generator ({self.a}, {self.b}) does not have norm {self.norm}")
        if self.a <= 0 or self.b < 0:
            raise BadInput("generator must lie in the first quadrant: a > 0, b >= 0")


@dataclass(frozen=True, slots=True)
class LambdaEntry:
    """A prime-power ideal with the von Mangoldt weight of its base.

    The ideal is base^r; its norm is base.norm ** r, its angle is
    r * base.theta reduced mod pi/2, and the weight log(base.norm) does
    not depend on r.
    """

    base: GaussianPrimeIdeal
    r: int
    norm: int
    theta: float
    weight: float


def _validate_window(norm_min: int, norm_max: int) -> tuple[int, int]:
    try:
        norm_min, norm_max = int(norm_min), int(norm_max)
    except (TypeError, ValueError) as exc:
        raise BadInput("norm bounds must be integers") from exc
    if norm_min < 0 or norm_max < norm_min:
        raise BadInput(f"bad norm window ({norm_min}, {norm_max}]")
    return norm_min, norm_max


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(x)) of a nonnegative int64 array, exact."""
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _scalars(arr: np.ndarray):
    """Iterator over the elements of arr as Python scalars, a block at a time."""
    return itertools.chain.from_iterable(
        arr[i:i + _BLOCK].tolist() for i in range(0, arr.size, _BLOCK))


def _lattice_scan(norm_min: int, norm_max: int, is_split, rows, norm):
    """Lattice points (r, c) whose norm is a split prime in (norm_min, norm_max].

    Sieves the window one segment [start, stop] of norms at a time, and
    is_split(primes) picks the split primes of a segment.  rows(start, stop)
    returns arrays (r, c_lo, c_hi): row r holds the points c = c_lo, c_lo + 2,
    ..., <= c_hi, each with norm(r, c) in [start, stop].  Rows are expanded
    in chunks of whole rows of about _SCAN_POINTS points, and the kept points
    go straight into columns sized for exactly two points per split prime,
    which both callers' domains hold.  So besides the output and the split
    primes, only one segment's masks and one chunk are alive.  Returns the
    rows and columns in scan order, and the split primes; InvariantViolation
    unless there are two points per split prime.
    """
    segments = [(start, min(start + _SEGMENT - 1, norm_max))
                for start in range(norm_min + 1, norm_max + 1, _SEGMENT)]
    splits = [np.empty(0, dtype=np.int64)]
    for start, stop in segments:
        primes = _primes_in_range(start - 1, stop)
        splits.append(primes[is_split(primes)])
    split_count = sum(split.size for split in splits)
    out_r = np.empty(2 * split_count, dtype=np.int64)
    out_c = np.empty_like(out_r)
    found = 0
    for (start, stop), split in zip(segments, splits[1:]):
        marked = np.zeros(stop - start + 1, dtype=bool)
        marked[split - start] = True
        r, c_lo, c_hi = rows(start, stop)
        counts = np.maximum((c_hi - c_lo) // 2 + 1, 0)
        ends = np.cumsum(counts)
        row = 0
        while row < r.size:
            first = int(ends[row] - counts[row])
            last = max(row + 1, int(np.searchsorted(ends, first + _SCAN_POINTS, side="right")))
            block = slice(row, last)
            chunk_r = np.repeat(r[block], counts[block])
            chunk_c = np.repeat(c_lo[block] - 2 * (ends[block] - counts[block]), counts[block])
            chunk_c += 2 * np.arange(first, int(ends[last - 1]), dtype=np.int64)
            keep = marked[norm(chunk_r, chunk_c) - start]
            kept = int(np.count_nonzero(keep))
            if found + kept <= out_r.size:
                np.compress(keep, chunk_r, out=out_r[found:found + kept])
                np.compress(keep, chunk_c, out=out_c[found:found + kept])
            found += kept
            row = last
    if found != out_r.size:
        raise InvariantViolation(
            f"lattice scan found {found} points for {split_count} split primes "
            f"in ({norm_min}, {norm_max}], not two each")
    return out_r, out_c, np.concatenate(splits)


def _two_square_rows(start: int, stop: int):
    """Rows a >= 1 of the points (a, b), b >= 1, with start <= a^2 + b^2 <= stop.

    A norm = 1 mod 4 needs a and b of opposite parity, so each row starts
    at the first b of the parity opposite to a.
    """
    a = np.arange(1, math.isqrt(stop - 1) + 1, dtype=np.int64)
    b_lo = _isqrt(np.maximum(start - 1 - a * a, 0)) + 1
    b_lo += (a + b_lo) % 2 == 0
    return a, b_lo, _isqrt(stop - a * a)


def _split_legs(norm_min: int, norm_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Generators (a, b) of the split ideals with norm in (norm_min, norm_max].

    The lattice points with a, b >= 1 whose norm a^2 + b^2 is a prime = 1
    mod 4.  By Fermat's two-square theorem each split prime has exactly two
    such points, its conjugates (a, b) and (b, a); any other count raises
    InvariantViolation.
    """
    split_a, split_b, _ = _lattice_scan(
        norm_min, norm_max, lambda p: p % 4 == 1, _two_square_rows, lambda a, b: a * a + b * b)
    return split_a, split_b


@lru_cache(maxsize=64)
def _ideal_arrays(norm_min: int, norm_max: int, include_nonsplit: bool = True):
    """Arrays (p, a, b, norm, code, theta) for ideals with norm in (norm_min, norm_max].

    Sorted by (norm, theta); all arrays are read-only so they can be shared
    freely between callers and threads.
    """
    norm_min, norm_max = _validate_window(norm_min, norm_max)
    # generators of the split legs, then the ramified 1 + i and the inert p
    a, b = _split_legs(norm_min, norm_max)
    if include_nonsplit:
        ramified = np.ones(int(norm_min < 2 <= norm_max), dtype=np.int64)
        inert_p = _primes_in_range(math.isqrt(norm_min), math.isqrt(norm_max))
        inert_p = inert_p[inert_p % 4 == 3]
        a = np.concatenate((a, ramified, inert_p))
        b = np.concatenate((b, ramified, np.zeros_like(inert_p)))

    # each sorted column replaces its source at once, and code and p come
    # after the sort: the peak is the four sort columns, the order and the
    # sort key or one sorted copy, 48 bytes per ideal for an output of 41
    theta = a.astype(np.float64)
    b_float = b.astype(np.float64)
    np.arctan2(b_float, theta, out=theta)
    del b_float
    norm = a * a
    norm += b * b
    # 2 norm + [b > a] is unique and sorts like (norm, theta): the two
    # conjugate legs of a split p differ in b > a, that is in theta > pi/4;
    # inert norms are squares, so never a split prime; and 1 + i is the only
    # ideal of norm 2
    order = np.argsort(2 * norm + (b > a))
    theta = theta[order]
    norm = norm[order]
    a = a[order]
    b = b[order]
    del order
    # no two ideals tie on (norm, theta), so the class and the prime above
    # each ideal follow from the sorted columns
    inert = b == 0
    code = np.full(a.size, _SPLIT, dtype=np.int8)
    code[norm == 2] = _RAMIFIED
    code[inert] = _INERT
    p = np.where(inert, a, norm)
    out = (p, a, b, norm, code, theta)
    for arr in out:
        arr.setflags(write=False)
    return out


def _iroot(n: int, r: int) -> int:
    """Largest integer m with m**r <= n."""
    if n < 0 or r < 1:
        raise BadInput("bad arguments to integer root")
    if r == 1 or n < 2:
        return n
    m = int(round(n ** (1.0 / r)))
    while m > 0 and m**r > n:
        m -= 1
    while (m + 1) ** r <= n:
        m += 1
    return m


def _lambda_arrays(norm_min: int, norm_max: int, include_nonsplit: bool = True):
    """Arrays (norm, theta, weight, r) for prime-power ideals in (norm_min, norm_max].

    Sorted by (norm, theta).  weight is log of the base norm; the r array
    lets callers separate genuine primes (r = 1) from higher powers.  Built
    on each call from the cached enumeration: the primes of the window, and
    one enumeration up to sqrt(norm_max) whose bases each power r >= 2
    keeps when their r-th power lands in the window, sorted and merged in.
    """
    norm_min, norm_max = _validate_window(norm_min, norm_max)
    _, _, _, norm, _, theta = _ideal_arrays(norm_min, norm_max, include_nonsplit)
    _, _, _, bases, _, angles = _ideal_arrays(0, _iroot(norm_max, 2), include_nonsplit)
    powers = []
    # every r >= 2 with 2**r <= norm_max; r = 2 always runs, so the block is
    # typed even when empty
    for r in range(2, max(3, norm_max.bit_length())):
        lo, hi = np.searchsorted(bases, (_iroot(norm_min, r), _iroot(norm_max, r)), side="right")
        powers.append((bases[lo:hi]**r, np.fmod(r * angles[lo:hi], HALF_PI),
                       np.log(bases[lo:hi].astype(np.float64)), np.full(hi - lo, r, np.int32)))
    pow_n, pow_t, pow_w, pow_r = map(np.concatenate, zip(*powers))
    order = np.lexsort((pow_t, pow_n))
    # a power's norm is never a prime ideal's norm (2, p = 1 mod 4, or p^2
    # for p = 3 mod 4), so the two parts never tie, and the stable lexsort
    # keeps tied powers in r order: the merge is the (norm, theta) order of
    # one stable sort over the primes followed by the powers r = 2, 3, ...
    at = np.searchsorted(norm, pow_n[order])
    # weights first, so the log column is gone before the other outputs exist
    weight = np.insert(np.log(norm.astype(np.float64)), at, pow_w[order])
    out = (np.insert(norm, at, pow_n[order]), np.insert(theta, at, pow_t[order]), weight,
           np.insert(np.ones(norm.size, dtype=np.int32), at, pow_r[order]))
    for arr in out:
        arr.setflags(write=False)
    return out


def enumerate_prime_ideals(
    norm_min: int, norm_max: int, include_nonsplit: bool = True
) -> list[GaussianPrimeIdeal]:
    """All prime ideals with norm in (norm_min, norm_max], sorted by (norm, theta)."""
    cols = map(_scalars, _ideal_arrays(norm_min, norm_max, include_nonsplit))
    return [
        GaussianPrimeIdeal(p=p, a=a, b=b, norm=n, splitting=_CODE_TO_SPLITTING[c], theta=t)
        for p, a, b, n, c, t in zip(*cols)
    ]


def lambda_entries(
    norm_min: int, norm_max: int, include_nonsplit: bool = True
) -> list[LambdaEntry]:
    """Prime-power ideals base^r with norm in (norm_min, norm_max], sorted by (norm, theta).

    The weight attached to base^r is log(base.norm), so summing weights over
    entries recovers the von Mangoldt count for the window.
    """
    norm_min, norm_max = _validate_window(norm_min, norm_max)
    entries: list[LambdaEntry] = []
    r = 1
    while norm_max >= 2**r:
        cap = _iroot(norm_max, r)
        for ideal in enumerate_prime_ideals(0, cap, include_nonsplit):
            norm_r = ideal.norm**r
            if norm_r <= norm_min or norm_r > norm_max:
                continue
            theta = math.fmod(r * ideal.theta, HALF_PI) if r > 1 else ideal.theta
            entries.append(
                LambdaEntry(
                    base=ideal, r=r, norm=norm_r, theta=theta,
                    weight=math.log(ideal.norm),
                )
            )
        r += 1
    entries.sort(key=lambda e: (e.norm, e.theta))
    return entries
