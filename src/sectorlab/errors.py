"""Exception and warning types, the size ceilings, and the argument checks.

Every public entry point checks its arguments with check_int, check_real (one number),
check_reals (an array) and real_list, so a bad or oversized one raises BadInput before any
work (but see MAX_PAIRS).
"""

import math
import numbers
import operator

import numpy as np

MAX_SIZE = 10**9
"""Largest norm bound or scale X a statistic accepts.

Every size that drives enumeration (a norm window's upper end, a scale X,
the Z[sqrt 2] limit) is checked against it before any work starts.  At 1e9
the ideal arrays already hold about 5e7 entries, 0.8 GB; far beyond it
the segmented sieve would run without end in practice while its output grew.
"""

MAX_NORM = 5 * MAX_SIZE // 2
"""Largest norm a smoothed statistic may enumerate to: its scale X times the
support end phi.hi of its cutoff.  The sweep's cutoff, the plateau majorant
of [1, 2] with shoulder 0.05, ends at 2.05, so every scale up to MAX_SIZE
passes; 2.5 leaves room for a library cutoff with a wider shoulder (any
plateau over [1, 2] ends below 2.5), and one that reaches further is refused
before the enumeration, which at 2.5e9 already holds about 1.2e8 ideals, 1.9 GB.
The enumeration refuses a window past it: its int32 legs rely on this bound,
and so does the int64 key that ideals._lattice_scan packs each point into.
"""

MAX_SUPPORT = 512.0
"""Largest |lo| and |hi| a window's support may have; the named windows reach 2.5.

The direct-route scatter turns support ends into int64 grid cells.  Entry a
starts at cell i_lo = ceil((theta_a - hi P/K) / (P/G)), theta_a in [0, P),
P = pi/2, so with K >= 1 and G <= GRID_CAP = 2^25 its magnitude is at most
G (1 + MAX_SUPPORT) + 1 < 2^35, exact in a double (< 2^53).  An entry covers
at most (hi - lo) G/K + 1 <= 2^10 2^25 + 1 cells, and fewer than 2^27 entries
lie below MAX_NORM (about 1.2e8 prime ideals at 2.5e9, a few thousand
powers), so the int64 pair count stays below 2^62 + 2^27 and cannot wrap.
"""

MAX_GRID = 1 << 22
"""Largest sector_scan grid.  A scan peaks at about 280 bytes per offset
(arrays of grid length, one CSV row and two JSON entries per offset; 327 MB
at 2^20), so 2^22 offsets take about 1.2 GB and 400 MB of output files."""

MAX_KMAX = 10**6
"""Largest Weyl mode: weyl_sum's |k|, the weyl_sums k_max and the realquad k_max.
Each mode is one more complex product per ideal (a running power of the unit
character, no cos or sin), about 400 bytes of carried partial sums while the
sums run (measured at 2e4 modes), then about 130 bytes of weyl.json and 500
bytes of Python objects while it is written (measured at 1e4 modes): 130 MB on
disk and 500 MB in memory at 1e6."""

KMAX_CAP = 10**7
"""Largest c_k sample and spectral degree: every sample truncation_kmax takes is
at most this, so its cutoff, three octaves below its last sample, is at most 2^21,
and an S_k table, a c_k vector or a single character has degree at most this.  At a
power-of-two k_max a c_k vector peaks at 112 bytes per mode and an S_k table at
178-186 (tracemalloc at 2^19 and 2^21 modes), so psi_spectrum, which keeps the
vector while it makes the table, peaks at about 200: 1.7 GB at k_max = 2^23."""

GRID_CAP = 1 << 25
"""Largest psi grid; variance_sweep's 4 k_max is at most 2^23, since the walk's
cutoff is at most 2^21 (KMAX_CAP).  A cell peaks at about 33 bytes per grid
point (measured at 2^20), so 2^25 points take 1.1 GB."""

MAX_NODES = 1 << 20
"""Most midpoint-rule nodes a c_k sample or c_k vector may take.  A sample peaks
at 56 (mollifier) to 72 (plateau) bytes per node, 75 MB at 2^20; a vector at
139 MB for 2^20 nodes and k_max = 261,888 (K = 1), see KMAX_CAP.  For K
from 1 to 1e3 the truncation_kmax walk needs 2^13 for the mollifier and 2^15
for the default plateau."""

MAX_PAIRS = 3 * 10**10
"""Most (entry, grid point) pairs one direct-route scatter may evaluate.

The scatter's memory does not grow with its pairs, only its time: 7-9 ns
per pair over many entries (X = 1e6, tau = 0.2, G = 2^14: 160.5 M pairs in
1.05-1.19 s on a 2 vCPU host; the default sweep's 373.5 M pairs, many of
them over small cells, take 8.0-8.7 ns each), so the ceiling is a budget
of at most 300 s.  On the sweep's 4 k_max grid an entry has 1,036-2,107
grid points in its support at any K, so every cell up to X = 1e8 passes
(5.8 M entries, at most 1.2e10 pairs, about 2 min) and every cell at X = 1e9
is refused (about 5e7 entries, 5e10 pairs or more).  A psi_grid at K = 1
and G = GRID_CAP on X = 1e6 would hold 5e12 pairs, about 15 hours.
variance._scatter_grid counts after the enumeration and a cell's S_k table:
a refused `variance --x-list 1e9 --tau 0.2` has spent 33 s and 2.8 GB.
"""

MAX_LEG = 10**307
"""Largest |a|, |b| that xi and angle_t take.  Their float arithmetic,
math.atan2(b, a) and realquad._raw_t's |a| + |b| sqrt 2 < 2.5e307, then stays
below the largest double, 1.8e308."""

MAX_PIT_NORM = 10**308
"""Largest norm_max of expected_count's pit mode, which enumerates nothing:
the float range holds it, every quadrature term hi e^-r and their sum."""


class SectorLabError(Exception):
    """Base class for all sectorlab errors."""


class BadInput(SectorLabError, ValueError):
    """An argument violates a documented precondition."""


class BadSector(BadInput):
    """Sector length is nonpositive or exceeds a quarter turn."""


class BadEps(BadInput):
    """Plateau shoulder width outside the open interval (0, 1/2)."""


class NonResidue(SectorLabError, ArithmeticError):
    """Modular square root requested for a quadratic non-residue."""


class NotSplit(BadInput):
    """Rational prime does not split in the quadratic field at hand."""


class EmptyRange(BadInput):
    """A statistic was requested over a range containing no prime ideals."""


class TruncationFailure(SectorLabError, ArithmeticError):
    """Fourier tail cannot be certified below threshold at any feasible cutoff."""


class InvariantViolation(SectorLabError, ArithmeticError):
    """A computed result breaks a proven mathematical identity or bound."""


class AliasingRisk(UserWarning):
    """Evaluation grid is too coarse for the spectral content it must resolve."""


def check_int(name: str, value, lo=None, hi=None) -> int:
    """value as an int; it may be an int, a numpy integer or an integral float like 1e6.

    BadInput unless lo <= value <= hi; a bound of None is not checked.
    """
    try:
        n = operator.index(value)
    except TypeError:
        x = float(value) if isinstance(value, (float, np.floating)) else math.nan
        if not x.is_integer():
            raise BadInput(f"{name} = {value!r} is not an integer") from None
        n = int(x)
    if lo is not None and n < lo:
        raise BadInput(f"{name} = {_shown(n)} must be >= {_shown(lo)}")
    if hi is not None and n > hi:
        raise BadInput(f"{name} = {_shown(n)} exceeds the size ceiling {_shown(hi)}")
    return n


def _shown(n: int) -> str:
    """n for an error message, or past 1,000 bits, where str(n) may fail, its bit length."""
    return str(n) if n.bit_length() <= 1000 else f"{'-' * (n < 0)}<{n.bit_length()}-bit int>"


def real_array(name: str, value, error=BadInput) -> np.ndarray:
    """value as a float64 array, 0-d for a scalar, NaN and inf kept; error for a complex value,
    whose conversion would keep its real part alone, for text such as "0.5", which numpy would
    parse as a number, for an object array holding a non-number such as None, which numpy
    would read as NaN, and for what numpy cannot make a float."""
    try:
        x = np.asarray(value)
        if x.dtype.kind in "cSU" or (x.dtype.kind == "O"
                                   and not all(isinstance(v, numbers.Number) for v in x.flat)):
            raise TypeError
        return x.astype(np.float64, copy=False)
    except (TypeError, ValueError):
        raise error(f"{name} = {value!r} is not a real number") from None
    except OverflowError:
        raise error(f"{name} is an int past the float range and any size ceiling") from None


def real_list(name: str, value) -> list:
    """value, a flat sequence that real_array takes whole, as a list of floats, or BadInput."""
    x = real_array(name, value)
    if x.ndim != 1:
        raise BadInput(f"{name} = {value!r} is not a flat sequence of real numbers")
    return x.tolist()


def check_reals(name: str, value, lo=-math.inf, hi=math.inf, ends="[]",
                error=BadInput) -> np.ndarray:
    """value as a float array if real (real_array), finite and in the interval, else error.

    lo and hi bound the interval and ends gives its brackets: "[)" is lo <= x < hi.
    The array is checked by its minimum and maximum alone.
    """
    x = real_array(name, value, error)
    least, most = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    if x.size and not (math.isfinite(least) and math.isfinite(most)
                       and (least > lo if ends[0] == "(" else least >= lo)
                       and (most < hi if ends[1] == ")" else most <= hi)):
        where = "exceeds the size ceiling of" if most > hi else "must be finite and in"
        raise error(f"{name} = {float(x) if x.ndim == 0 else x!r} {where} "
                    f"{ends[0]}{lo:g}, {hi:g}{ends[1]}")
    return x


def check_real(name: str, value, lo=-math.inf, hi=math.inf, ends="[]", error=BadInput) -> float:
    """value as a float if a single real number, finite and in the interval (check_reals)."""
    x = check_reals(name, value, lo, hi, ends, error)
    if x.ndim != 0:
        raise error(f"{name} = {value!r} is not a single real number")
    return float(x)
