"""Prime ideals of Z[i] with their angular coordinates.

Every nonzero prime ideal of the Gaussian integers sits above a rational
prime p and falls into one of three classes: p = 2 ramifies as (1+i)^2,
p = 1 mod 4 splits into a conjugate pair of degree-one ideals of norm p,
and p = 3 mod 4 stays inert with norm p^2.  A degree-one ideal has a
generator a + bi, unique up to units, and we normalise the generator to
the first quadrant (a > 0, b >= 0) so that the angle

    theta = atan2(b, a)  in  [0, pi/2)

is a well-defined invariant of the ideal.  Enumeration is driven by a
segmented sieve of rational primes over odd numbers only.  The split
ideals come from a lattice scan of the half domain 1 <= a < b: by Fermat's
two-square theorem, each prime = 1 mod 4 that the sieve marks is the norm
a^2 + b^2 of exactly one point there, the generator (a, b) of one of its
two conjugate ideals, and the mirror (b, a) generates the other.
Cornacchia's algorithm, with Tonelli-Shanks for the square root of -1
mod p, resolves a single prime independently and serves as the oracle
for the scan.

All enumerations are over half-open norm windows (norm_min, norm_max]
so that disjoint windows partition exactly, and return read-only
columns, one row per ideal, sorted by (norm, theta).  The enumeration
_ideal_arrays is the package's only cache, and it keeps only what cannot
be derived: the legs a, b as int32 and theta as float64, 16 bytes per
ideal.  The rational prime p, the norm a^2 + b^2 and the splitting code
are pure functions of the legs, derived where a caller reads them:
_ideal_columns gives all three to the CSV writer one block of rows at a
time, and _ideal_norms gives the norm alone to a weighted sector count for
its masked rows and to the prime-power table for its windows.
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
    composite p); the first remainder at most sqrt(p) is one leg of the
    unique decomposition, and exactness of the other leg is asserted rather
    than trusted.
    """
    p = check_int("p", p)
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
    r = np.sqrt(x.astype(np.float64)).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _lattice_scan(norm_min: int, norm_max: int, is_split, rows, norm, per_prime: int):
    """Lattice points (r, c) whose norm is a split prime in (norm_min, norm_max].

    Sieves the window one segment [start, stop] of norms at a time, and
    is_split(primes) picks the split primes of a segment.  rows(start, stop)
    returns arrays (r, c_lo, c_hi): row r holds the points c = c_lo, c_lo + 2,
    ..., <= c_hi, each with norm(r, c) odd and in [start, stop], so the split
    marks of a segment, like its sieve mask, take one byte per odd norm.  The
    caller's domain holds exactly per_prime points above each split prime.
    Rows are expanded in chunks of whole rows of about _SCAN_POINTS points,
    and the kept points go straight into columns sized for per_prime points
    per split prime.  So besides the output and the split primes, only one
    segment's masks and one chunk are alive.  Returns the rows and columns in
    scan order, and the split primes; InvariantViolation unless there are
    per_prime points per split prime.
    """
    segments = [(start, min(start + _SEGMENT - 1, norm_max))
                for start in range(norm_min + 1, norm_max + 1, _SEGMENT)]
    # the comprehension's scope ends before any marks are set, and with it
    # the last segment's primes
    splits = [np.empty(0, dtype=np.int64)]
    splits += [primes[is_split(primes)]
               for primes in (_primes_in_range(start - 1, stop) for start, stop in segments)]
    split_count = sum(split.size for split in splits)
    out_r = np.empty(per_prime * split_count, dtype=np.int64)
    out_c = np.empty_like(out_r)
    found = 0
    for (start, stop), split in zip(segments, splits[1:]):
        marked = np.zeros((stop - start) // 2 + 1, dtype=bool)
        marked[(split - start) >> 1] = True
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
            at = norm(chunk_r, chunk_c)
            at -= start
            at >>= 1
            keep = marked[at]
            kept = int(np.count_nonzero(keep))
            if found + kept <= out_r.size:
                np.compress(keep, chunk_r, out=out_r[found:found + kept])
                np.compress(keep, chunk_c, out=out_c[found:found + kept])
            found += kept
            row = last
    if found != out_r.size:
        raise InvariantViolation(
            f"lattice scan found {found} points for {split_count} split primes "
            f"in ({norm_min}, {norm_max}], not {per_prime} each")
    return out_r, out_c, np.concatenate(splits)


def _two_square_rows(start: int, stop: int):
    """Rows a >= 1 of the points (a, b), b > a, with start <= a^2 + b^2 <= stop.

    The half domain b > a: 2 a^2 < a^2 + b^2 <= stop bounds a, and each row
    starts at b = a + 1 at the least.  A norm = 1 mod 4 needs a and b of
    opposite parity, so each row then starts at the first b of the parity
    opposite to a.
    """
    a = np.arange(1, math.isqrt((stop - 1) // 2) + 1, dtype=np.int64)
    b_lo = np.maximum(_isqrt(np.maximum(start - 1 - a * a, 0)) + 1, a + 1)
    b_lo += (a + b_lo) % 2 == 0
    return a, b_lo, _isqrt(stop - a * a)


@lru_cache(maxsize=64)
def _ideal_arrays(norm_min: int, norm_max: int, include_nonsplit: bool, /):
    """Arrays (a, b, theta) for ideals with norm in (norm_min, norm_max].

    The legs a, b of each ideal's first-quadrant generator as int32 and its
    angle theta as float64, 16 bytes per ideal, sorted by (norm, theta); all
    arrays are read-only so they can be shared freely between callers and
    threads.  _ideal_columns derives p, the norm and the splitting code from
    the legs.  Every argument is positional and required, so each window has
    one cache key.  norm_max is checked against MAX_NORM, the reach of the
    variance statistics at scale X <= MAX_SIZE, where a leg is at most
    sqrt(MAX_NORM) = 50,000 and the packed sort key below fits.
    The split ideals come from one lattice scan of the half domain b > a:
    by Fermat's two-square theorem each split prime p has exactly one point
    (a, b) there, a != b since p is odd, and its conjugate is the mirror
    (b, a) with theta < pi/4, so the mirror leg goes first.  Only the half
    domain is sorted; each split point then fills two slots.
    """
    norm_min = check_int("norm_min", norm_min, 0)
    norm_max = check_int("norm_max", norm_max, norm_min, MAX_NORM)
    half_a, half_b = _lattice_scan(
        norm_min, norm_max, lambda p: p % 4 == 1, _two_square_rows,
        lambda a, b: a * a + b * b, 1)[:2]
    if include_nonsplit:
        # 1 + i and the inert p join as (1, 1) and (0, p)
        ramified = np.ones(int(norm_min < 2 <= norm_max), dtype=np.int64)
        inert_p = _primes_in_range(math.isqrt(norm_min), math.isqrt(norm_max))
        inert_p = inert_p[inert_p % 4 == 3]
        half_a = np.concatenate((half_a, ramified, np.zeros_like(inert_p)))
        half_b = np.concatenate((half_b, ramified, inert_p))
    # sort (norm, a) packed in one int64, in place: the norms 2, p = 1 mod 4
    # and p^2 never tie, and a < 2^shift since 2 a^2 <= norm_max, so the
    # key fits for norm_max < 2^41
    shift = norm_max.bit_length() // 2 + 1
    key = half_a * half_a
    key += half_b * half_b
    key <<= shift
    key |= half_a
    del half_a, half_b
    key.sort()
    # unpack a block at a time into int32 legs: a from the low bits, and the
    # key itself turns into b = isqrt(norm - a^2)
    half_a = np.empty(key.size, dtype=np.int32)
    for i in range(0, key.size, _BLOCK):
        block = key[i:i + _BLOCK]
        leg = block & ((1 << shift) - 1)
        half_a[i:i + _BLOCK] = leg
        block >>= shift
        block -= leg * leg
        block[:] = _isqrt(block)
    half_b = key.astype(np.int32)
    del key
    # a split point (a, b), a < b, takes two slots: its mirror (b, a), of
    # angle below pi/4, then itself.  1 + i and the inert p take one each
    slots = ((0 < half_a) & (half_a < half_b)).astype(np.int8)
    slots += 1
    a = np.repeat(half_b, slots)
    b = np.repeat(half_a, slots)
    del half_a, half_b, slots
    # both slots of a split prime now hold the mirror, and no two ideals
    # share legs; the second slot takes the point's legs back
    second = a[1:] == a[:-1]
    second &= b[1:] == b[:-1]
    np.copyto(a[1:], b[1:], where=second)
    np.copyto(b[1:], a[:-1], where=second)
    del second
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
    norm = a.astype(np.int64)
    norm *= norm
    square = b.astype(np.int64)
    square *= square
    norm += square
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
    """Arrays (norm, theta, weight, r) for prime-power ideals in (norm_min, norm_max].

    Sorted by (norm, theta).  Every prime ideal is a base, ramified and
    inert included, as in the paper's psi.  weight is log of the base norm;
    the r array lets callers separate genuine primes (r = 1) from higher
    powers.  Built on each call from the cached enumeration: the primes of
    the window, and one enumeration up to sqrt(norm_max) whose bases each
    power r >= 2 keeps when their r-th power lands in the window, sorted and
    merged in.  The norms of both windows are derived from their legs, with
    no p or code column beside them.
    """
    a, b, theta = _ideal_arrays(norm_min, norm_max, True)
    norm = _ideal_norms(a, b)
    a, b, angles = _ideal_arrays(0, _iroot(norm_max, 2), True)
    bases = _ideal_norms(a, b)
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
    # weights first, so the log column is gone before the other outputs
    # exist, and the derived norms go once their column is built
    weight = np.insert(np.log(norm.astype(np.float64)), at, pow_w[order])
    norms = np.insert(norm, at, pow_n[order])
    del norm
    out = (norms, np.insert(theta, at, pow_t[order]), weight,
           np.insert(np.ones(theta.size, dtype=np.int32), at, pow_r[order]))
    for arr in out:
        arr.setflags(write=False)
    return out
