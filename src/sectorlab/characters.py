"""Angular characters on Gaussian ideals and their weighted sums.

A nonzero ideal of Z[i] has a generator a + bi that is unique up to the
four unit rotations, so the angle theta = atan2(b, a) is well defined
modulo pi/2 and

    xi_k(a, b) = exp(4 i k theta)

depends only on the ideal.  Summing xi_k against a smooth cutoff in the
norm, with von Mangoldt weights, gives the character sums

    S_k(X) = sum_a Phi(N(a)/X) Lambda(a) xi_k(a)

over every prime-power ideal a, inert and ramified ones included: the
Fourier data behind every smoothed sector statistic here.  Cancella-
tion in S_k for k != 0 (against the trivial bound S_0) is exactly angular
equidistribution of the prime ideals.

Single sums are exactly rounded (_kernels.exact_sum), so they do not
depend on the order of the entry tables and repeated runs are
bit-identical; the bulk table comes from one Gaussian-gridded FFT (see
_kernels) and is cross-checked against the single sums in the tests.  The
unweighted Weyl sums have two routes too: weyl_sum rounds each phase 4 k
theta and takes its cos and sin, weyl_sums forms the running powers of
xi_1 (_kernels.unit_power_sums); both are exactly rounded sums of their
terms, and the tests hold them within the two routes' error notes.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import exact_sum, geometric_weighted_sums, unit_power_sums
from .errors import (KMAX_CAP, MAX_KMAX, MAX_LEG, MAX_NORM, MAX_SIZE, BadInput, check_int,
                     check_real)
from .ideals import _BLOCK, _ideal_arrays, _lambda_arrays
from .windows import SmoothWindow


def xi(a: int, b: int, k: int) -> complex:
    """The character exp(4 i k theta) of the ideal generated by a + bi; |a|, |b| <= MAX_LEG."""
    a, b = check_int("a", a, -MAX_LEG, MAX_LEG), check_int("b", b, -MAX_LEG, MAX_LEG)
    k = check_int("k", k, -KMAX_CAP, KMAX_CAP)
    if a == 0 and b == 0:
        raise BadInput("xi is undefined at 0")
    theta = math.atan2(b, a)
    return complex(math.cos(4.0 * k * theta), math.sin(4.0 * k * theta))


def _norm_window(X: float, phi: SmoothWindow) -> tuple[int, int]:
    """Half-open integer norm range (lo, hi] on which Phi(n/X) can be nonzero."""
    reach = check_real("norm reach X phi.hi", X * phi.hi, 0.0, MAX_NORM)
    return max(0, math.ceil(X * phi.lo) - 1), math.floor(reach)


def _weighted_rows(norms, thetas, logs, X, phi):
    """(thetas, weights) of the given rows sorted by (theta, norm), weights Phi(N/X) Lambda.

    The smoothed layer's one row pass: every S_k and psi rounds in this
    order, so its bytes depend on the rows as a set, not on their layout.
    No two rows tie: only an ideal power and its conjugate share a norm, at
    angles theta and pi/2 - theta.  A weight is a function of the norm, so
    tied rows would be equal pairs anyway.  Phi is evaluated one _BLOCK of
    sorted rows at a time into the weights column, so beyond its two output
    columns the call holds the int64 order and one block of scratch.  It
    admits the cutoff: BadInput unless the weights, and so their sum, are
    finite.
    """
    order = np.lexsort((norms, thetas))
    weights = np.empty(norms.size)
    for start in range(0, norms.size, _BLOCK):
        rows = order[start:start + _BLOCK]
        np.multiply(phi(norms[rows] / X), logs[rows], out=weights[start:start + _BLOCK])
    check_real("sum of the cutoff weights Phi(N/X) log N", np.sum(weights))
    return thetas[order], weights


def _weighted_entries(X, phi):
    """_weighted_rows of the whole prime-power table, once X and the cutoff's support pass."""
    X = check_real("scale X", X, 2.0, MAX_SIZE)
    if phi.lo < 0.0:
        raise BadInput(f"cutoff support [{phi.lo}, {phi.hi}] must sit in (0, inf)")
    return _weighted_rows(*_lambda_arrays(*_norm_window(X, phi))[:3], X, phi)


def character_sum(k: int, X: float, phi: SmoothWindow) -> complex:
    """S_k(X) with cutoff Phi; real and imaginary parts exactly rounded."""
    k = check_int("k", k, -KMAX_CAP, KMAX_CAP)
    thetas, weights = _weighted_entries(X, phi)
    angles = (4.0 * k) * thetas
    re = exact_sum(weights * np.cos(angles))
    im = exact_sum(weights * np.sin(angles)) if k != 0 else 0.0
    return complex(re, im)


def weyl_sum(k: int, norm_min: int, norm_max: int, include_nonsplit: bool = True) -> complex:
    """Unweighted sum of xi_k over prime ideals with norm in (norm_min, norm_max].

    k = 0 is rejected: the unnormalised count is not a cancellation probe.
    Each term is cos and sin of the phase 4 k theta, rounded once, so its
    error is at most 2 pi |k| 2^-53 plus one ulp of each part.
    """
    if check_int("k", k, -MAX_KMAX, MAX_KMAX) == 0:
        raise BadInput("weyl_sum needs k != 0")
    norm_max = check_int("norm_max", norm_max, 0, MAX_SIZE)
    thetas = _ideal_arrays(check_int("norm_min", norm_min, 0), norm_max, include_nonsplit)[2]
    angles = (4.0 * k) * thetas
    return complex(exact_sum(np.cos(angles)), exact_sum(np.sin(angles)))


def weyl_sums(k_max: int, norm_min: int, norm_max: int,
              include_nonsplit: bool = True) -> np.ndarray:
    """W_k = sum of xi_k over prime ideals with norm in (norm_min, norm_max], k = 0..k_max.

    W_0 is the ideal count.  The terms are the running powers xi_1^k, one
    complex product per ideal and mode, within 6 k 2^-53 of exp(4 i k theta)
    (the error note of _kernels.unit_power_sums); W_1 equals weyl_sum(1, ...)
    bit for bit.
    """
    k_max = check_int("k_max", k_max, 0, MAX_KMAX)
    norm_max = check_int("norm_max", norm_max, 0, MAX_SIZE)
    thetas = _ideal_arrays(check_int("norm_min", norm_min, 0), norm_max, include_nonsplit)[2]
    return unit_power_sums(thetas, 4.0, k_max)


def character_sum_table(X: float, k_max: int, phi: SmoothWindow) -> np.ndarray:
    """S_0..S_{k_max} as a read-only complex array, in one pass over the weighted entries.

    S_0 is exactly real.  One spread of the entries onto a grid of fewer
    than 12 (k_max + 1) cells and one real FFT give each value within the
    kernel's error bound (1e-13 S_0 plus phase rounding for a nonnegative
    cutoff) of the direct sum.
    """
    k_max = check_int("k_max", k_max, 0, KMAX_CAP)
    thetas, weights = _weighted_entries(X, phi)
    sums = geometric_weighted_sums(4.0 * thetas, weights, k_max)
    sums.setflags(write=False)
    return sums
