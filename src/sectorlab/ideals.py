"""Prime ideals of Z[i] with their angular coordinates.

Every nonzero prime ideal of the Gaussian integers sits above a rational
prime p: p = 2 ramifies as (1+i)^2, p = 1 mod 4 splits into a conjugate
pair of degree-one ideals of norm p, and p = 3 mod 4 stays inert with norm
p^2.  A degree-one ideal's generator a + bi, unique up to units, is taken
in the first quadrant (a > 0, b >= 0), so that its angle

    theta = atan2(b, a)  in  [0, pi/2)

is an invariant of the ideal.  A segmented sieve over odd numbers finds
the rational primes.  _lattice_scan, which the Z[sqrt 2] analogue shares,
returns the lattice points above the split primes in prime order; here it
scans the half domain 1 <= a < b, where by Fermat's two-square theorem
each prime = 1 mod 4 is the norm a^2 + b^2 of exactly one point (a, b),
and the mirror (b, a) generates the conjugate.  Cornacchia's algorithm,
with Tonelli-Shanks for the square root of -1 mod p, resolves one prime
on its own and is the scan's oracle.

Enumerations run over half-open norm windows (norm_min, norm_max], so
that disjoint windows partition exactly, and return read-only columns,
one row per ideal, sorted by (norm, theta).  _ideal_arrays, the package's
only cache, keeps what cannot be derived: the int32 legs a, b and the
float64 theta, 16 bytes per ideal.  p, the norm and the splitting code are
functions of the legs, derived where they are read: _ideal_columns gives
all three to the CSV writer a block of rows at a time, and _ideal_norms
the norm alone to a weighted sector count and to the prime-power table.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import MAX_NORM, MAX_SIZE, BadInput, InvariantViolation, NonResidue, check_int

HALF_PI = math.pi / 2.0  # period of the ideal angle; other modules import it from here

_SEGMENT = 1 << 23  # norms per sieve segment; its odd-only mask is half as many bytes
_SCAN_POINTS = 1 << 16  # lattice points the split scan expands at once (512 kB per int64 array)
_BLOCK = 1 << 14  # array elements a blocked loop takes at once


def sieve_rational_primes(limit: int) -> np.ndarray:
    """Return all rational primes <= limit as an ascending int64 array."""
    return _primes_in_range(0, check_int("limit", limit, 0, MAX_SIZE))


def _primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes in the half-open window (lo, hi], sieved segment by segment.

    Each segment of _SEGMENT norms [start, stop] is one mask over its odd
    numbers only, entry i standing for odd0 + 2 i, half a byte per norm.
    An odd prime p strikes from its first odd multiple >= max(p^2, start),
    every p-th entry.  The window's 2 rides in the slot of 1, which no
    odd prime strikes.  The base primes up to sqrt(hi) come from this same
    routine, so no mask longer than half a segment is ever allocated.
    """
    lo, hi = int(lo), int(hi)
    if hi < 2 or hi <= lo:
        return np.empty(0, dtype=np.int64)
    lo = max(lo, 1)
    base = _primes_in_range(2, math.isqrt(hi))
    chunks = []
    start = lo + 1
    while start <= hi:
        stop = min(start + _SEGMENT - 1, hi)
        odd0 = 1 if start == 2 else start | 1
        mask = np.ones((stop - odd0) // 2 + 1, dtype=bool)
        for p in base.tolist():
            if p * p > stop:
                break
            first = max(p * p, (start + p - 1) // p * p)
            first += p * (first % 2 == 0)
            mask[(first - odd0) // 2 :: p] = False
        found = np.flatnonzero(mask)
        found <<= 1
        found += odd0
        if start == 2:
            found[0] = 2
        chunks.append(found)
        start = stop + 1
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k (OEIS A014233): the least odd composite that is a strong probable
# prime to each of the first k prime bases, so below psi_k those k decide
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64, with as few bases as n allows."""
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


def sqrt_mod(n: int, p: int) -> int:
    """Solve r^2 = n (mod p) for odd prime p < 2^64 with gcd(n, p) = 1.

    Returns the canonical smaller root r with 1 <= r <= p - r.  Raises
    BadInput for any other modulus, where the non-residue search below need
    not end, and NonResidue when n is not a quadratic residue mod p.  One
    Tonelli-Shanks loop serves every odd prime; at p = 3 mod 4 its loop
    never runs and r = n^((p + 1)/4).
    """
    p = check_int("modulus p", p, 3, 2**64 - 1)  # the range _is_prime decides
    if not _is_prime(p):
        raise BadInput(f"modulus {p} is not an odd prime")
    n = check_int("n", n) % p
    if n == 0:
        raise BadInput("sqrt_mod requires gcd(n, p) = 1")
    if pow(n, (p - 1) // 2, p) != 1:
        raise NonResidue(f"{n} is not a square modulo {p}")
    # write p - 1 = q * 2^s with q odd
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

    Euclidean descent from a square root of -1 mod p (sqrt_mod rejects a
    composite p, p past 2^64 - 1 is refused first); the first remainder at
    most sqrt(p) is one leg of the unique decomposition, and exactness of
    the other leg is asserted rather than trusted.
    """
    p = check_int("p", p, hi=2**64 - 1)  # the range sqrt_mod decides
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
        raise InvariantViolation(f"descent failed for p = {p}")  # unreachable for prime p
    return (b, r) if b % 2 == 1 else (r, b)


# how a rational prime decomposes in Z[i]: the codes of the enumeration's
# code column, and the name of each code, indexed by it
_SPLIT, _RAMIFIED, _INERT = 0, 1, 2
_SPLITTING = ("split", "ramified", "inert")


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(x)) of a nonnegative int64 array, exact."""
    r = np.sqrt(x, dtype=np.float64).astype(np.int64)
    r -= r * r > x
    square = r + 1
    square *= square
    r += square <= x
    return r


def _lattice_scan(norm_min: int, norm_max: int, is_split, rows, norm, leg, per_prime: int):
    """Lattice points (r, c) whose norm is a split prime in (norm_min, norm_max], in prime order.

    Sieves the window one segment [start, stop] of norms at a time, and
    is_split(primes) picks a segment's split primes.  rows(start, stop)
    returns per_prime row groups (r, c_lo, c_hi): row r holds the points
    c = c_lo, c_lo + 2, ..., <= c_hi with norm(r, c) odd and in [start, stop],
    and each split prime has one point in each group.  A kept point becomes
    one int64 key (per_prime norm + group) << shift | r: 49 bits at MAX_NORM
    for Z[i], 47 at MAX_SIZE for Z[sqrt 2].  One in-place sort of the keys is
    the package's only ordering of lattice points; they are unpacked _BLOCK at
    a time into int32 legs, r from the low bits and c = leg(norm, r, group)
    with int64 arguments.  Returns (r, c, split primes), by prime and then by
    group; InvariantViolation unless there are per_prime points per split prime.
    """
    segments = [(start, min(start + _SEGMENT - 1, norm_max))
                for start in range(norm_min + 1, norm_max + 1, _SEGMENT)]
    # the comprehension's scope ends before any marks are set, and with it
    # the last segment's primes
    splits = [np.empty(0, dtype=np.int64)]
    splits += [primes[is_split(primes)]
               for primes in (_primes_in_range(start - 1, stop) for start, stop in segments)]
    split_count = sum(split.size for split in splits)
    shift = math.isqrt(norm_max).bit_length() + 1
    keys = np.empty(per_prime * split_count, dtype=np.int64)
    found = 0
    for (start, stop), split in zip(segments, splits[1:]):
        found = _scan_segment(keys, found, start, stop, split, rows, norm, per_prime, shift)
    if found != keys.size:
        raise InvariantViolation(
            f"lattice scan found {found} points for {split_count} split primes "
            f"in ({norm_min}, {norm_max}], not {per_prime} each")
    keys.sort()
    r = np.empty(keys.size, dtype=np.int32)
    c = np.empty_like(r)
    for i in range(0, keys.size, _BLOCK):
        block = keys[i:i + _BLOCK]
        low = block & ((1 << shift) - 1)
        r[i:i + _BLOCK] = low
        block >>= shift
        group = block % per_prime
        block //= per_prime
        c[i:i + _BLOCK] = leg(block, low, group)
    del keys
    return r, c, np.concatenate(splits)


def _scan_segment(keys, found, start, stop, split, rows, norm, per_prime, shift):
    """Write one segment's keys from keys[found] on, and return the new found.

    The split marks, like the sieve mask, take one byte per odd norm, and rows
    are expanded in chunks of whole rows of about _SCAN_POINTS points; both
    are gone when this returns, before the keys are sorted.
    """
    marked = np.zeros((stop - start) // 2 + 1, dtype=bool)
    index = split - start
    index >>= 1
    marked[index] = True
    del index
    for group, (r, c_lo, c_hi) in enumerate(rows(start, stop)):
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
            at = norm(chunk_r, chunk_c)
            keep = marked[(at - start) >> 1]
            kept = int(np.count_nonzero(keep))
            if found + kept <= keys.size:
                out = keys[found:found + kept]
                np.compress(keep, at, out=out)
                out *= per_prime
                out += group
                out <<= shift
                out |= chunk_r[keep]
            found += kept
            row = last
    return found


def _two_square_rows(start: int, stop: int):
    """One row group: rows a >= 1 of the points (a, b), b > a, with start <= a^2 + b^2 <= stop.

    The half domain b > a: 2 a^2 < a^2 + b^2 <= stop bounds a, and each row
    starts at b = a + 1 at the least.  A norm = 1 mod 4 needs a and b of
    opposite parity, so each row then starts at the first b of the parity
    opposite to a.
    """
    a = np.arange(1, math.isqrt((stop - 1) // 2) + 1, dtype=np.int64)
    b_lo = np.maximum(_isqrt(np.maximum(start - 1 - a * a, 0)) + 1, a + 1)
    b_lo += (a + b_lo) % 2 == 0
    return [(a, b_lo, _isqrt(stop - a * a))]


@lru_cache(maxsize=64)
def _ideal_arrays(norm_min: int, norm_max: int, include_nonsplit: bool, /):
    """Arrays (a, b, theta) for ideals with norm in (norm_min, norm_max].

    The int32 legs a, b of each ideal's first-quadrant generator and its
    float64 angle theta, sorted by (norm, theta) and read-only, so callers
    and threads share them.  Every argument is positional and required, so
    each window has one cache key.  norm_max is at most MAX_NORM, the reach
    of the variance statistics at X <= MAX_SIZE, so a leg is at most 50,000.
    The lattice scan returns the half domain b > a in prime order, one point
    (a, b) per split prime; its conjugate, the mirror (b, a) with theta <
    pi/4, takes the even slot and the point the odd one.  The nonsplit
    ideals go in at their norms' places, by one searchsorted on the split
    primes.
    """
    norm_min = check_int("norm_min", norm_min, 0)
    norm_max = check_int("norm_max", norm_max, norm_min, MAX_NORM)
    half_a, half_b, split = _lattice_scan(
        norm_min, norm_max, lambda p: p % 4 == 1, _two_square_rows,
        lambda a, b: a * a + b * b, lambda norm, a, _: _isqrt(norm - a * a), 1)
    a = np.column_stack((half_b, half_a)).ravel()
    b = np.column_stack((half_a, half_b)).ravel()
    del half_a, half_b
    if include_nonsplit:
        # 1 + i and the inert p join as (1, 1) and (p, 0), each before the
        # two slots of every split prime above its norm 2 or p^2
        ramified = np.ones(int(norm_min < 2 <= norm_max), dtype=np.int64)
        inert_p = _primes_in_range(math.isqrt(norm_min), math.isqrt(norm_max))
        inert_p = inert_p[inert_p % 4 == 3]
        at = 2 * np.searchsorted(split, np.concatenate((2 * ramified, inert_p * inert_p)))
        a = np.insert(a, at, np.concatenate((ramified, inert_p)))
        b = np.insert(b, at, np.concatenate((ramified, np.zeros_like(inert_p))))
    del split
    # theta a block at a time, so no float copy of a whole column is alive
    theta = np.empty(a.size)
    for i in range(0, a.size, _BLOCK):
        block = slice(i, i + _BLOCK)
        np.arctan2(b[block].astype(np.float64), a[block].astype(np.float64), out=theta[block])
    out = (a, b, theta)
    for arr in out:
        arr.setflags(write=False)
    return out


def _ideal_norms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The int64 norms a^2 + b^2 of the enumeration rows with legs a, b.

    Formed in int64: at MAX_NORM a leg reaches 50,000, and its square
    leaves int32.
    """
    norm = np.multiply(a, a, dtype=np.int64)
    norm += np.multiply(b, b, dtype=np.int64)
    return norm


def _ideal_columns(a: np.ndarray, b: np.ndarray):
    """Arrays (p, norm, code) of the enumeration rows with legs a, b.

    int64, int64 and int8; the norm is _ideal_norms'.  p is the norm,
    except a for an inert row (b = 0, norm a^2); code is ramified at norm 2,
    inert at b = 0 and split otherwise.
    """
    norm = _ideal_norms(a, b)
    inert = b == 0
    p = np.where(inert, a, norm)
    code = np.full(a.size, _SPLIT, dtype=np.int8)
    code[norm == 2] = _RAMIFIED
    code[inert] = _INERT
    return p, norm, code


def _iroot(n: int, r: int) -> int:
    """Largest integer m with m**r <= n, for n >= 0 and r >= 1."""
    if r == 1 or n < 2:
        return n
    m = int(round(n ** (1.0 / r)))
    while m > 0 and m**r > n:
        m -= 1
    while (m + 1) ** r <= n:
        m += 1
    return m


def _lambda_arrays(norm_min: int, norm_max: int):
    """(norm, theta, weight, primes) for the prime-power ideals in (norm_min, norm_max].

    The first primes rows are the window's prime ideals, in enumeration
    order; the powers r = 2, 3, ... follow, each over its bases in
    enumeration order.  Every prime ideal is a base, ramified and inert
    included, as in the paper's psi.  weight is log of the base norm.
    Built on each call from the cached enumeration: the primes of the
    window, and one enumeration up to sqrt(norm_max) whose bases each power
    r >= 2 keeps when their r-th power lands in the window.  The norms of
    both windows are derived from their legs, with no p or code column
    beside them.
    """
    a, b, theta = _ideal_arrays(norm_min, norm_max, True)
    primes = theta.size
    roots_a, roots_b, angles = _ideal_arrays(0, _iroot(norm_max, 2), True)
    bases = _ideal_norms(roots_a, roots_b)
    # every r >= 2 with 2**r <= norm_max, with the run of sorted bases whose
    # r-th power lands in the window
    runs = []
    for r in range(2, norm_max.bit_length()):
        lo, hi = np.searchsorted(bases, (_iroot(norm_min, r), _iroot(norm_max, r)), side="right")
        runs.append((r, slice(lo, hi)))
    # one column at a time, so the derived prime norms are gone before the
    # next output exists
    norm = np.concatenate([_ideal_norms(a, b)] + [bases[run]**r for r, run in runs])
    theta = np.concatenate([theta] + [np.fmod(r * angles[run], HALF_PI) for r, run in runs])
    weight = np.concatenate([norm[:primes]] + [bases[run] for _, run in runs], dtype=np.float64)
    np.log(weight, out=weight)
    for arr in (norm, theta, weight):
        arr.setflags(write=False)
    return norm, theta, weight, primes
