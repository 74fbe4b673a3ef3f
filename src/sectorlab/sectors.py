"""Sharp-cutoff sector statistics for Gaussian prime ideals.

The angles of prime ideals live on the quarter circle [0, pi/2).  A
sector is the half-open arc (beta, beta + gamma], taken modulo pi/2, and
the basic empirical question is how the ideal count in a sector compares
with its fair share gamma / (pi/2) of the total as the sector narrows.
This module provides the raw counts, the two natural normalisations of
the expected count, grid scans that measure how often narrow sectors
deviate from their share, the star discrepancy of the angle sample, and
the elementary exclusion zone around the axis: a split prime a^2 + b^2
with b >= 1 has angle > 1/(2 sqrt(norm)), so a neighbourhood of 0 shrinks
no faster than norm^(-1/2).

Every statistic reads the angle column of the cached enumeration
(ideals._ideal_arrays) and caches nothing of its own.  A sector count is
one pass of the arc mask over that column; a weighted one derives the norms
of its masked rows alone.  The grid scan and the discrepancy each hold one
sorted float64 copy of the angles, 8 bytes per ideal, besides the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import exact_sum
from .errors import (MAX_GRID, MAX_SIZE, BadInput, BadSector, EmptyRange, InvariantViolation,
                     check_int, check_real)
from .ideals import _BLOCK, HALF_PI, _ideal_arrays, _ideal_norms
from .windows import adaptive_simpson


def sector_count(
    beta: float, gamma: float, norm_min: int, norm_max: int, weighted: bool = False,
) -> float:
    """Prime ideals with angle in the half-open arc (beta, beta + gamma] mod pi/2.

    Every prime ideal counts, ramified and inert included.  Unweighted
    counts are exact ints; with weighted=True each ideal contributes
    log(norm) instead of 1 and the result is the exactly rounded float sum
    of those logarithms.
    """
    beta = check_real("sector start beta", beta, 0.0, HALF_PI, "[)", BadSector)
    gamma = check_real("sector width gamma", gamma, 0.0, HALF_PI, "(]", BadSector)
    norm_max = check_int("norm_max", norm_max, 0, MAX_SIZE)
    a, b, thetas = _ideal_arrays(norm_min, norm_max, True)
    mask = _in_arc(thetas, beta, gamma)
    if weighted:
        norms = _ideal_norms(a[mask], b[mask])
        return exact_sum(np.log(norms.astype(np.float64)))
    return int(np.count_nonzero(mask))


def _in_arc(thetas: np.ndarray, beta: float, gamma: float) -> np.ndarray:
    """Mask of the angles in the half-open arc (beta, beta + gamma] mod pi/2."""
    end = beta + gamma
    if end < HALF_PI:
        return (thetas > beta) & (thetas <= end)
    # arc reaching or passing pi/2 wraps through 0, where the inert angles
    # live: (beta, pi/2) plus [0, beta + (gamma - pi/2)]; that form of the
    # second endpoint makes gamma = pi/2 an exact full circle
    return (thetas > beta) | (thetas <= beta + (gamma - HALF_PI))


def expected_count(gamma: float, norm_min: int, norm_max: int, mode: str = "empirical") -> float:
    """Fair share of a width-gamma sector.

    empirical mode: gamma/(pi/2) times the actual number of prime ideals,
    ramified and inert included, in the norm range.  pit mode: gamma/(pi/2)
    times the integral-logarithm count int dt/log t over the norm range, the
    smooth prediction that needs no enumeration, so its norm_max has no
    ceiling.
    """
    gamma = check_real("sector width gamma", gamma, 0.0, HALF_PI, "(]", BadSector)
    norm_min = check_int("norm_min", norm_min, 0)
    norm_max = check_int("norm_max", norm_max, norm_min, MAX_SIZE if mode == "empirical" else None)
    if mode == "empirical":
        thetas = _ideal_arrays(norm_min, norm_max, True)[2]
        return (gamma / HALF_PI) * thetas.size
    if mode == "pit":
        lo = max(2.0, float(norm_min))
        hi = float(norm_max)
        if hi <= lo:
            return 0.0
        # relative budget: the integral grows like (hi - lo)/log hi, its
        # lower bound, and a fixed absolute tolerance falls below double
        # precision rounding once that reaches ~1e8
        tol = 1e-12 * (hi - lo) / math.log(hi)
        li = adaptive_simpson(lambda t: 1.0 / np.log(t), lo, hi, tol=tol)
        return (gamma / HALF_PI) * float(li)
    raise BadInput(f"unknown expected-count mode {mode!r}")


@dataclass(frozen=True)
class SectorScanReport:
    """Counts of a fixed-width sector slid through a uniform grid of offsets.

    Sector j starts at beta_j = j (pi/2) / grid_size and has width gamma =
    (pi/2) X^(-rho).  deviations[j] = counts[j]/expected - 1, and
    exceptional_fraction[delta] is the fraction of offsets with
    |deviation| > delta.
    """

    X: int
    rho: float
    gamma: float
    grid_size: int
    counts: np.ndarray
    expected: float
    deviations: np.ndarray
    exceptional_fraction: dict

    @property
    def betas(self) -> np.ndarray:
        return np.arange(self.grid_size) * (HALF_PI / self.grid_size)


def sector_scan(
    X: int, rho: float, grid_size: int,
    deltas: tuple = (0.1, 0.25, 0.5), include_nonsplit: bool = True,
) -> SectorScanReport:
    """Slide a width (pi/2) X^(-rho) sector around the quarter circle.

    rho = 0 is the full circle (every deviation is exactly zero); larger
    rho narrows the sector, and past the equidistribution range the
    deviations blow up for a growing fraction of offsets.  Each threshold
    in deltas must be finite and > 0.
    """
    X = check_int("norm bound X", X, 2, MAX_SIZE)
    rho = check_real("narrowing exponent rho", rho, 0.0, 1.0, "[)")
    grid_size = check_int("grid size", grid_size, 1, MAX_GRID)
    deltas = tuple(check_real("deviation threshold delta", d, 0.0, ends="(]") for d in deltas)
    th = np.sort(_ideal_arrays(1, X, include_nonsplit)[2])
    n = th.size
    if n == 0:
        raise EmptyRange(f"no prime ideals with norm in (1, {X}]")
    gamma = HALF_PI * X ** (-rho)
    betas = np.arange(grid_size) * (HALF_PI / grid_size)
    starts = np.searchsorted(th, betas, side="right")
    ends = betas + gamma
    wrapped = ends >= HALF_PI
    tail_pts = betas + (gamma - HALF_PI)
    counts = np.where(
        wrapped,
        n - starts + np.searchsorted(th, tail_pts, side="right"),
        np.searchsorted(th, ends, side="right") - starts,
    ).astype(np.int64)
    expected = (gamma / HALF_PI) * n
    deviations = counts / expected - 1.0
    fractions = {d: float(np.mean(np.abs(deviations) > d)) for d in deltas}
    counts.setflags(write=False)
    deviations.setflags(write=False)
    return SectorScanReport(
        X=X, rho=rho, gamma=float(gamma), grid_size=grid_size,
        counts=counts, expected=float(expected), deviations=deviations,
        exceptional_fraction=fractions,
    )


def forbidden_region_check(norm_max: int) -> float:
    """Smallest positive angle among ideals with norm <= norm_max.

    Checks the exclusion bound min_angle > 1/(2 sqrt(norm_max)), raising
    InvariantViolation if it fails, and returns the minimum.  Angle-zero
    ideals (the inert ones) are ignored; the ramified ideal's pi/4 is the
    minimum only below norm 5, where the split (2 + i) comes in.
    """
    norm_max = check_int("norm_max", norm_max, 1, MAX_SIZE)
    thetas = _ideal_arrays(1, norm_max, True)[2]
    min_angle = float(np.min(thetas, where=thetas > 0.0, initial=math.inf))
    if min_angle == math.inf:
        raise EmptyRange(f"no ideals with positive angle and norm <= {norm_max}")
    bound = _exclusion_bound(norm_max)
    if not min_angle > bound:
        raise InvariantViolation(
            f"smallest angle {min_angle!r} at norm <= {norm_max} is within the bound {bound!r}")
    return min_angle


def _exclusion_bound(norm_max: int) -> float:
    """The angle 1/(2 sqrt(norm_max)) that every positive ideal angle exceeds."""
    return 1.0 / (2.0 * math.sqrt(norm_max))


def discrepancy(norm_min: int, norm_max: int, include_nonsplit: bool = True) -> float:
    """Star discrepancy of the normalised angles theta/(pi/2) in [0, 1)."""
    norm_max = check_int("norm_max", norm_max, 0, MAX_SIZE)
    u = np.sort(_ideal_arrays(norm_min, norm_max, include_nonsplit)[2])
    if u.size == 0:
        raise EmptyRange(f"no prime ideals with norm in ({norm_min}, {norm_max}]")
    u /= HALF_PI  # one sorted copy, normalised in place, then one _BLOCK of terms at a time
    n, worst = u.size, 0.0
    for start in range(0, n, _BLOCK):
        block = u[start:start + _BLOCK]
        i = np.arange(start + 1, start + block.size + 1)
        worst = max(worst, float(np.maximum(i / n - block, block - (i - 1) / n).max()))
    return worst
