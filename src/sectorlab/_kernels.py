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

The S_k table and the window coefficients c_k are both the type-1
transform sum_n w_n exp(i k phi_n), k = 0..k_max.  Gaussian gridding
(Greengard & Lee, SIAM Review 46, 2004) spreads each point onto a periodic
grid of G >= 6 (k_max + 1) cells with a Gaussian cut at _SPREAD cells,
takes one real FFT and divides out the Gaussian's transform, in
O(N _SPREAD + G log G) work.  tau balances the cut-off tail against the
aliased copy at G - k, both near exp(-32).

Error note: |out[k] - sum_n w_n exp(i k phi_n)| <= ERROR_BOUND sum_n |w_n|
+ k 2^-52 sum_n |w_n phi_n|.  One point measured at most 2.3e-14 for
k_max <= 262,144; the second term is one rounding of each phase.  Phases
are not reduced mod 2 pi and each cell offset is formed once, so tiny
phases keep full relative precision, which the c_k tail (~1e-14 c_0)
needs.  Weights all below 2^-500 are lifted by 2^1000 first, an exact
scaling, so the spread does not lose them to underflow.  Points are spread
in input order: outputs are bit-deterministic.
"""

from __future__ import annotations

import math

import numpy as np

_SPREAD = 12
ERROR_BOUND = 1e-13
_SUM_BLOCK = 1 << 15
# below this, n <= _SUM_BLOCK values stay finite through sigma = 2^(e + 16)
_SUM_LIMIT = 2.0**960


def exact_sum(values) -> float:
    """math.fsum(values), bit for bit, by error-free level extraction.

    Non-finite values and magnitudes from _SUM_LIMIT up go to math.fsum
    itself, which keeps its exceptions and its NaN, inf and signed results.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    residues = np.empty(min(values.size, _SUM_BLOCK))
    levels = np.empty_like(residues)
    parts = []
    for start in range(0, values.size, _SUM_BLOCK):
        p = values[start:start + _SUM_BLOCK]
        q = levels[:p.size]
        shift = (p.size + 1).bit_length()
        while True:
            m = max(p.max(), -p.min())
            if not m < _SUM_LIMIT:
                return math.fsum(values.tolist())
            if m == 0.0:
                break
            sigma = math.ldexp(1.0, math.frexp(m)[1] + shift)
            np.add(p, sigma, out=q)
            q -= sigma
            p = np.subtract(p, q, out=residues[:p.size])
            parts.append(float(q.sum()))
    return math.fsum(parts)


def geometric_weighted_sums(phases: np.ndarray, weights: np.ndarray, k_max: int) -> np.ndarray:
    """out[k] = sum_n weights[n] * exp(i * k * phases[n]) for k = 0..k_max.

    out[0] is the exactly rounded, exactly real sum of the weights;
    out[1:] are within the bound of the module's error note.
    """
    phases = np.asarray(phases, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if phases.shape != weights.shape or phases.ndim != 1:
        raise ValueError("phases and weights must be 1-d arrays of equal length")
    out = np.empty(k_max + 1, dtype=np.complex128)
    out[0] = exact_sum(weights)
    # the sums are linear in the weights: a power-of-two scale is exact, and
    # lifting tiny weights keeps the spread out of the subnormal range
    scale = 2.0**1000 if np.max(np.abs(weights), initial=0.0) < 2.0**-500 else 1.0
    weights = weights * scale
    M = 2 * (k_max + 1)
    G = max(64, 1 << (3 * M - 1).bit_length())
    tau = math.pi * (_SPREAD + 0.5) / math.sqrt(G**3 * (G - M))
    h = 2.0 * math.pi / G
    cells = phases / h
    m0 = np.rint(cells)
    s = cells - m0
    first = m0.astype(np.int64)
    beta = h * h / (4.0 * tau)
    grid = np.zeros(G, dtype=np.float64)
    for d in range(-_SPREAD, _SPREAD + 1):
        np.add.at(grid, (first + d) % G, weights * np.exp(-beta * (s - d) ** 2))
    k = np.arange(1, k_max + 1, dtype=np.float64)
    deconvolve = math.sqrt(math.pi / tau) / G * np.exp(k * k * tau)
    out[1:] = deconvolve * np.conj(np.fft.rfft(grid)[1 : k_max + 1]) / scale
    return out
