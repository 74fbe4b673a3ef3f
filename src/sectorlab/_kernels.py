"""Exactly rounded sums, and bulk weighted exponential sums by Gaussian gridding.

exact_sum returns math.fsum(values) bit for bit in a few vectorised passes
(Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008, ExtractVector).  It
walks the values in blocks of _SUM_BLOCK.  For a block of n values with
max |p| < 2^e, take sigma = 2^(e + L) with 2^L > n + 1.  Then
q = (p + sigma) - sigma is p rounded to a multiple of ulp(sigma) / 2,
|q| <= 2^e, and p - q is exact (Fast2Sum).  Every partial sum of the q's is
such a multiple below n 2^e < sigma in magnitude, so it fits in 53 bits:
np.sum(q) is exact in any order.  The residues are at most ulp(sigma) / 2,
at least 52 - L bits below max |p|, and each level repeats on them until
they vanish.  The levels' sums add up exactly to the block's sum, and
math.fsum rounds their total once, correctly, as it would the values'.
Each level's sum goes straight into a short list of nonoverlapping
partials (Shewchuk, Discrete Comput. Geom. 18, 1997, grow-expansion), so
the carry between blocks stays a few floats however many blocks there are.

unit_power_sums streams the same extraction over the powers z_n^k of unit
characters z_n = cos(phi_n) + i sin(phi_n), k = 0..k_max, one block of
entries at a time: each mode after the first costs one complex product per
entry and no transcendental.

The S_k table is the type-1 transform sum_n w_n exp(i k phi_n),
k = 0..k_max, of nonuniform phases.  Gaussian gridding
(Greengard & Lee, SIAM Review 46, 2004) spreads each point onto a periodic
grid of G >= 6 (k_max + 1) cells with a Gaussian cut at _SPREAD cells,
takes one real FFT and divides out the Gaussian's transform, in
O(N _SPREAD + G log G) work.  tau balances the cut-off tail against the
aliased copy at G - k, both near exp(-32).

Error note: |out[k] - sum_n w_n exp(i k phi_n)| <= ERROR_BOUND sum_n |w_n|
+ k 2^-52 sum_n |w_n phi_n| + 2^-1074.  One point measured at most 2.3e-14
for k_max <= 262,144; the second term is one rounding of each phase.  Phases
are not reduced mod 2 pi and each cell offset is formed once, so tiny
phases keep full relative precision.  Weights all below 2^-500 are lifted
by 2^1000 first, exactly, so the spread keeps them; dividing the lift out
rounds a subnormal part of out[k] once more, by up to 2^-1075: the last
term.  Points are spread in input order, so the output bytes depend on
the order of the input rows, not only on the rows as a set.  Beyond its
input and the grid, the spread holds each point's cell offset and first
cell, 16 bytes per point, and works one _SUM_BLOCK of points at a time.
"""

from __future__ import annotations

import math

import numpy as np

_SPREAD = 12
ERROR_BOUND = 1e-13
_SUM_BLOCK = 1 << 15
# below this, n <= _SUM_BLOCK values stay finite through sigma = 2^(e + 16)
_SUM_LIMIT = 2.0**960
_SPLITTER = 2.0**27 + 1.0  # Veltkamp's constant for a 53-bit significand


def split(a):
    """(hi, lo) with hi + lo = a exactly and hi of at most 26 bits; |a| < 2^996 (Veltkamp)."""
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


def two_product(a, b):
    """(p, e): p = fl(a b) and p + e = a b exactly, barring overflow and underflow.

    a and b are floats or float64 arrays that broadcast.  Each step that gathers
    the products of their split halves into e is exact (Dekker, Numer. Math. 18, 1971).
    """
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    e = a_hi * b_hi - p
    e += a_hi * b_lo
    e += a_lo * b_hi
    e += a_lo * b_lo
    return p, e


def _grow(partials: list, x: float):
    """Add x to the nonoverlapping expansion partials exactly (Fast2Sum on each)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _add_levels(partials: list, p: np.ndarray, q: np.ndarray, residues: np.ndarray) -> bool:
    """Add the exact sum of the block p to partials, one extracted level at a time.

    q and residues are scratch arrays of p's length; p itself is not written.
    False, with partials untouched, when p holds a non-finite value or one of
    magnitude _SUM_LIMIT or more: such a block needs math.fsum itself.
    """
    shift = (p.size + 1).bit_length()
    while True:
        m = max(p.max(), -p.min())
        if not m < _SUM_LIMIT:
            return False
        if m == 0.0:
            return True
        sigma = math.ldexp(1.0, math.frexp(m)[1] + shift)
        np.add(p, sigma, out=q)
        q -= sigma
        p = np.subtract(p, q, out=residues)
        _grow(partials, float(q.sum()))


def exact_sum(values) -> float:
    """math.fsum(values), bit for bit, by error-free level extraction.

    Non-finite values and magnitudes from _SUM_LIMIT up go to math.fsum
    itself, which keeps its exceptions and its NaN, inf and signed results.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    q, residues = np.empty((2, min(values.size, _SUM_BLOCK)))
    partials = []
    for start in range(0, values.size, _SUM_BLOCK):
        p = values[start:start + _SUM_BLOCK]
        if not _add_levels(partials, p, q[:p.size], residues[:p.size]):
            return math.fsum(values.tolist())
    return math.fsum(partials)


def unit_power_sums(angles, scale: float, k_max: int) -> np.ndarray:
    """out[k] = sum_n z_n^k for k = 0..k_max, z_n = cos(scale angles_n) + i sin(scale angles_n).

    z_n^k is formed as z_n^(k-1) z_n by the textbook product
    (a c - b s) + i (a s + b c), each real operation rounded once, so every
    term is reproducible bit for bit from Python floats and does not depend
    on whether the platform fuses a multiply and an add.  The real and the
    imaginary part of each out[k] are the exactly rounded sums of the
    terms' parts; out[0] is the count and out[1] sums cos and sin of
    scale angles_n themselves.  Entries are walked one _SUM_BLOCK at a time,
    so memory beyond the input is a few blocks plus a few floats per mode.

    Error note: cos and sin are each within one ulp, so |z_n - e^{i phi_n}|
    <= 2^1.5 u with phi_n = fl(scale angles_n) and u = 2^-53, and each
    product adds at most sqrt(5) u (Brent, Percival & Zimmermann, Math.
    Comp. 76, 2007).  Hence |z_n^k - e^{i k phi_n}| <= 6 k u while k u is
    small: linear in k, the same class as rounding the phase k phi_n once.
    ValueError for an angle that is not finite or an array that is not 1-d.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 1:
        raise ValueError("angles must be a 1-d array")
    partials = [([], []) for _ in range(k_max)]
    buffers = np.empty((6, min(angles.size, _SUM_BLOCK)))
    for start in range(0, angles.size, _SUM_BLOCK):
        block = angles[start:start + _SUM_BLOCK]
        # t1 and t2 serve the product and then the extraction's scratch
        c, s, re, im, t1, t2 = buffers[:, :block.size]
        np.multiply(block, scale, out=c)
        np.sin(c, out=s)
        np.cos(c, out=c)
        re[:] = c
        im[:] = s
        for k, (re_parts, im_parts) in enumerate(partials, start=1):
            if k > 1:
                np.multiply(re, s, out=t1)
                np.multiply(im, s, out=t2)
                re *= c
                re -= t2
                im *= c
                im += t1
            if not (_add_levels(re_parts, re, t1, t2)
                    and _add_levels(im_parts, im, t1, t2)):
                raise ValueError("angles must be finite")
    out = np.empty(k_max + 1, dtype=np.complex128)
    out[0] = angles.size
    out[1:] = [complex(math.fsum(a), math.fsum(b)) for a, b in partials]
    return out


def geometric_weighted_sums(phases: np.ndarray, weights: np.ndarray, k_max: int) -> np.ndarray:
    """out[k] = sum_n weights[n] * exp(i * k * phases[n]) for k = 0..k_max.

    out[0] is the exactly rounded, exactly real sum of the weights; out[1:]
    are within the module's error note, whose 2^-1074 is the last rounding of
    a subnormal part once a lift is divided out; their bytes follow row order.
    """
    phases = np.asarray(phases, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if phases.shape != weights.shape or phases.ndim != 1:
        raise ValueError("phases and weights must be 1-d arrays of equal length")
    out = np.empty(k_max + 1, dtype=np.complex128)
    out[0] = exact_sum(weights)
    # the sums are linear in the weights: a power-of-two scale is exact, and
    # lifting tiny weights keeps the spread out of the subnormal range
    tiny = 2.0**-500
    lift = -tiny < np.min(weights, initial=0.0) and np.max(weights, initial=0.0) < tiny
    scale = 2.0**1000 if lift else 1.0
    M = 2 * (k_max + 1)
    G = max(64, 1 << (3 * M - 1).bit_length())
    tau = math.pi * (_SPREAD + 0.5) / math.sqrt(G**3 * (G - M))
    h = 2.0 * math.pi / G
    beta = h * h / (4.0 * tau)
    # each point's offset s from its nearest cell, and that cell, one block at a time
    n = phases.size
    s, first = np.empty(n), np.empty(n, dtype=np.int64)
    t, lifted = np.empty((2, min(n, _SUM_BLOCK)))
    cells = np.empty(t.size, dtype=np.int64)
    for a in range(0, n, _SUM_BLOCK):
        offset = np.divide(phases[a:a + _SUM_BLOCK], h, out=s[a:a + _SUM_BLOCK])
        m0 = np.rint(offset, out=t[:offset.size])
        offset -= m0
        first[a:a + offset.size] = m0
    # d outermost, the blocks in order within it: every cell takes its
    # additions in the order one whole-column step per d would give them
    grid = np.zeros(G, dtype=np.float64)
    for d in range(-_SPREAD, _SPREAD + 1):
        for a in range(0, n, _SUM_BLOCK):
            w = weights[a:a + _SUM_BLOCK]
            x = np.subtract(s[a:a + _SUM_BLOCK], d, out=t[:w.size])
            np.square(x, out=x)
            x *= -beta
            np.exp(x, out=x)
            x *= w if scale == 1.0 else np.multiply(w, scale, out=lifted[:w.size])
            idx = np.add(first[a:a + _SUM_BLOCK], d, out=cells[:w.size])
            np.add.at(grid, np.remainder(idx, G, out=idx), x)
    del s, first
    k = np.arange(1, k_max + 1, dtype=np.float64)
    deconvolve = math.sqrt(math.pi / tau) / G * np.exp(k * k * tau)
    out[1:] = deconvolve * np.conj(np.fft.rfft(grid)[1 : k_max + 1]) / scale
    return out
