"""Brute-force oracles shared by the test modules.

Everything here is deliberately slow and obvious: trial division, full
2D lattice scans, exhaustive residue tables, CSV lines formatted one row
at a time with the % operator.  The point is independence from the code
under test, so each oracle recomputes its answer from the definition
alone.  The per-ideal oracles build the prime-power table and the
Z[sqrt 2] conjugate pairs one ideal at a time, from the enumeration's rows
and from the per-prime solver.  The whole-array references are the
smoothed layer's blocked loops written as one step over every entry, the
byte oracles for those loops.  The memory gate's peak measurement and
block allowances are at the bottom.
"""

from __future__ import annotations

import math
import os
import tracemalloc
from collections import namedtuple

import numpy as np

import sectorlab
from sectorlab import _kernels, characters, ideals, realquad, reports, windows
from sectorlab._version import __version__
from sectorlab.errors import check_real
from sectorlab.windows import custom_window


def brute_primes(limit: int) -> list[int]:
    """All rational primes <= limit by trial division."""
    primes = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            primes.append(n)
    return primes


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_gaussian_ideals(norm_min: int, norm_max: int) -> set[tuple[int, int, int]]:
    """(norm, a, b) for every prime ideal with norm in (norm_min, norm_max].

    Scans the closed first quadrant of Z[i].  A nonzero a + bi generates
    a prime ideal exactly when a^2 + b^2 is a rational prime, or when
    b = 0 and a is a rational prime congruent to 3 mod 4 (norm a^2).
    Conjugate ideals appear as the two distinct lattice points (a, b)
    and (b, a); the ramified ideal (1, 1) and the inert ones (q, 0) are
    single points, so a plain set over the scan is already the dedup.
    """
    out = set()
    r = math.isqrt(norm_max)
    for a in range(1, r + 1):
        if a * a > norm_min and a % 4 == 3 and brute_is_prime(a):
            out.add((a * a, a, 0))
        for b in range(1, r + 1):
            norm = a * a + b * b
            if norm_min < norm <= norm_max and brute_is_prime(norm):
                out.add((norm, a, b))
    return out


def brute_cornacchia(p: int) -> tuple[int, int]:
    """The decomposition p = a^2 + b^2 with a odd, b even, both positive."""
    for b in range(0, math.isqrt(p) + 1):
        rem = p - b * b
        a = math.isqrt(rem)
        if a * a == rem and a > 0 and b > 0 and a % 2 == 1 and b % 2 == 0:
            return a, b
    raise AssertionError(f"no two-square decomposition of {p}")


def brute_sqrt_mod(n: int, p: int) -> int | None:
    """Any square root of n mod p, or None, by exhaustive search."""
    n %= p
    for x in range(p):
        if x * x % p == n:
            return x
    return None


def brute_realquad_solution(p: int) -> tuple[int, int]:
    """Positive (a, b) with |a^2 - 2 b^2| = p and smallest a, by scan."""
    a = 1
    while True:
        rem = a * a - p
        for target in (a * a + p, rem if rem > 0 else None):
            if target is None or target % 2 == 1:
                continue
            half = target // 2
            b = math.isqrt(half)
            if b > 0 and b * b == half:
                return a, b
        a += 1


# ------------------------------------------------------- per-ideal oracles

def ideal_rows(norm_min: int, norm_max: int, include_nonsplit: bool = True) -> list[tuple]:
    """The enumeration of (norm_min, norm_max] as rows (p, a, b, norm, code,
    theta) of Python scalars.

    Only the legs a, b and theta are read from the cached columns.  p, the
    norm and the splitting code are derived here in Python ints from their
    definitions, not through ideals._ideal_columns, so every test that reads
    rows checks the package's derivation against this one.
    """
    rows = []
    for a, b, theta in zip(*(col.tolist() for col in
                             ideals._ideal_arrays(norm_min, norm_max, include_nonsplit))):
        norm = a * a + b * b
        if b == 0:
            p, code = a, ideals._INERT
        else:
            p, code = norm, ideals._RAMIFIED if norm == 2 else ideals._SPLIT
        rows.append((p, a, b, norm, code, theta))
    return rows


LambdaEntry = namedtuple("LambdaEntry", "base r norm theta weight")


def lambda_entries(norm_min: int, norm_max: int) -> list[LambdaEntry]:
    """Prime-power ideals base^r with norm in (norm_min, norm_max], r-major.

    The table ideals._lambda_arrays builds, rebuilt one ideal at a time in
    Python: for r = 1, 2, ... while 2^r <= norm_max, every row (p, a, b,
    norm, code, theta) of the enumeration up to the r-th root of norm_max is
    a base, in enumeration order, kept when its r-th power lands in the
    window.  Every prime ideal is a base, ramified and inert included, and
    the weight of base^r is log of the base norm, so summing weights
    recovers the von Mangoldt count for the window.
    """
    entries = []
    r = 1
    while norm_max >= 2**r:
        cap = ideals._iroot(norm_max, r)
        for base in ideal_rows(0, cap):
            base_norm, base_theta = base[3], base[5]
            norm_r = base_norm**r
            if norm_r <= norm_min or norm_r > norm_max:
                continue
            theta = math.fmod(r * base_theta, ideals.HALF_PI) if r > 1 else base_theta
            entries.append(LambdaEntry(base=base, r=r, norm=norm_r, theta=theta,
                                       weight=math.log(base_norm)))
        r += 1
    return entries


def conjugate_pair(p: int):
    """Both prime ideals of Z[sqrt 2] above a split p as rows (p, a, b, sign, t),
    the sign +1 one first: realquad.solve_norm_equation's generator, then the
    canonical form of its conjugate."""
    a, b, sign = realquad.solve_norm_equation(p)
    first = (p, a, b, sign, realquad.angle_t(a, b))
    a2, b2, sign2, t2 = realquad._canonicalize(a, -b, p)
    return first, (p, a2, b2, sign2, t2)


def conjugate_t(t: float) -> float:
    """Reflection t -> -t on the circle of circumference 2 log eps."""
    t = check_real("t", t, 0.0, realquad.PERIOD, "[)")
    return 0.0 if t == 0.0 else realquad.PERIOD - t


def running_power_sums(phases, k_max: int) -> list[complex]:
    """sum_n z_n^k for k = 1..k_max by math.fsum over Python floats, where
    z_n = cos(phases_n) + i sin(phases_n) and z_n^k = z_n^(k-1) z_n is the
    textbook product: the terms of _kernels.unit_power_sums one at a time."""
    c, s = np.cos(phases).tolist(), np.sin(phases).tolist()
    re, im = c, s
    sums = [complex(math.fsum(re), math.fsum(im))]
    for _ in range(2, k_max + 1):
        re, im = ([a * cn - b * sn for a, b, cn, sn in zip(re, im, c, s)],
                  [a * sn + b * cn for a, b, cn, sn in zip(re, im, c, s)])
        sums.append(complex(math.fsum(re), math.fsum(im)))
    return sums


def ulps_apart(x: float, y: float) -> float:
    """Distance between two floats in units of the larger one's ulp."""
    if x == y:
        return 0.0
    scale = math.ulp(max(abs(x), abs(y)))
    return abs(x - y) / scale


def child_env(env=os.environ) -> dict:
    """A copy of env whose PYTHONPATH starts with the src directory of the
    sectorlab under test, so a child python imports the same package."""
    src = os.path.dirname(os.path.dirname(sectorlab.__file__))
    rest = env.get("PYTHONPATH")
    return {**env, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


# ------------------------------------------------- whole-array references

def whole_column_weights(X, phi):
    """The weights column of characters._weighted_entries as one expression
    over every row, taken in (theta, norm) order: the byte oracle for its
    blocked fill."""
    norms, thetas, logs, _ = ideals._lambda_arrays(*characters._norm_window(X, phi))
    order = np.lexsort((norms, thetas))
    return phi(norms[order] / X) * logs[order]


def whole_column_spread(phases, weights, k_max):
    """_kernels.geometric_weighted_sums with one step over every point per
    offset d: the byte oracle for its blocked spread, which must add the
    same terms to each cell in the same order."""
    phases = np.asarray(phases, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    out = np.empty(k_max + 1, dtype=np.complex128)
    out[0] = _kernels.exact_sum(weights)
    scale = 2.0**1000 if np.max(np.abs(weights), initial=0.0) < 2.0**-500 else 1.0
    weights = weights * scale
    M = 2 * (k_max + 1)
    G = max(64, 1 << (3 * M - 1).bit_length())
    tau = math.pi * (_kernels._SPREAD + 0.5) / math.sqrt(G**3 * (G - M))
    h = 2.0 * math.pi / G
    cells = phases / h
    m0 = np.rint(cells)
    s = cells - m0
    first = m0.astype(np.int64)
    beta = h * h / (4.0 * tau)
    grid = np.zeros(G, dtype=np.float64)
    for d in range(-_kernels._SPREAD, _kernels._SPREAD + 1):
        np.add.at(grid, (first + d) % G, weights * np.exp(-beta * (s - d) ** 2))
    k = np.arange(1, k_max + 1, dtype=np.float64)
    deconvolve = math.sqrt(math.pi / tau) / G * np.exp(k * k * tau)
    out[1:] = deconvolve * np.conj(np.fft.rfft(grid)[1 : k_max + 1]) / scale
    return out


def plain_scatter(thetas, weights, K, f, grid_size):
    """The direct scatter with one step per support offset over the entries
    in input order: the byte oracle for the blocked loop, which must add the
    same terms in the same order."""
    G = int(grid_size)
    step = ideals.HALF_PI / G
    scale = K / ideals.HALF_PI
    i_lo = np.ceil((thetas - f.hi / scale) / step).astype(np.int64)
    i_hi = np.floor((thetas - f.lo / scale) / step).astype(np.int64)
    counts = np.maximum(i_hi - i_lo + 1, 0)
    span = int(counts.max(initial=0))
    first_cell = np.mod(i_lo, G)
    x0 = (thetas - i_lo * step) * scale
    dx = step * scale
    spill = np.zeros(G + span, dtype=np.float64)
    for j in range(span):
        live = counts > j
        vals = np.multiply(f._eval(x0[live] - j * dx), weights[live], dtype=np.float64)
        np.add.at(spill[j:], first_cell[live], vals)
    return np.bincount(np.arange(spill.size) % G, weights=spill, minlength=G)


# ------------------------------------------------------------ CSV oracles

def _oracle_lines(path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def oracle_ideal_csv(path, norm_min, norm_max, include_nonsplit=True):
    """reports.write_ideal_csv one row at a time: "%d" and "%.17g" per value."""
    kinds = {ideals._SPLIT: "split", ideals._RAMIFIED: "ramified", ideals._INERT: "inert"}
    header = [
        f"# {reports.IDEAL_FORMAT} sectorlab={__version__}",
        f"# norm_min={int(norm_min)} norm_max={norm_max} include_nonsplit={int(include_nonsplit)}",
        "p,a,b,norm,splitting,theta",
    ]
    rows = ["%d,%d,%d,%d,%s,%.17g" % (p, a, b, norm, kinds[code], theta)
            for p, a, b, norm, code, theta in ideal_rows(norm_min, norm_max, include_nonsplit)]
    _oracle_lines(path, header + rows)


def oracle_sector_csv(path, report):
    """reports.write_sector_csv one row at a time."""
    header = [
        f"# {reports.SECTOR_FORMAT} sectorlab={__version__}",
        f"# X={report.X} rho={'%.17g' % report.rho} gamma={'%.17g' % report.gamma} "
        f"grid={report.grid_size}",
        "beta,count,expected,deviation",
    ]
    expected = "%.17g" % report.expected
    cols = (report.betas.tolist(), report.counts.tolist(), report.deviations.tolist())
    rows = ["%.17g,%d,%s,%.17g" % (beta, count, expected, deviation)
            for beta, count, deviation in zip(*cols)]
    _oracle_lines(path, header + rows)


def oracle_realquad_csv(path, report):
    """reports.write_realquad_csv one row at a time."""
    header = [
        f"# {reports.REALQUAD_FORMAT} sectorlab={__version__}",
        f"# limit={report.limit} ideal_count={report.ideal_count}",
        "p,a,b,sign,t",
    ]
    cols = (report.p, report.a, report.b, report.sign, report.t)
    rows = ["%d,%d,%d,%d,%.17g" % row for row in zip(*(col.tolist() for col in cols))]
    _oracle_lines(path, header + rows)


def oracle_variance_csv(path, cells):
    """reports.write_variance_csv one cell at a time; a repeated (X, tau)
    keeps the ratio of its last report."""
    ratio = {(cell.X, cell.tau): cell.ratio for cell in cells}
    xs, taus = sorted({x for x, _ in ratio}), sorted({t for _, t in ratio})
    header = [
        f"# {reports.VARIANCE_FORMAT} sectorlab={__version__} ratio=var_direct/mean_empirical^2",
        "X," + ",".join("%.17g" % t for t in taus),
    ]
    rows = [",".join("%.17g" % v for v in [x] + [ratio[x, t] for t in taus]) for x in xs]
    _oracle_lines(path, header + rows)


# ------------------------------------------------------------ memory gate

MEMORY_GATE_SIZE = 10**6
# one CSV row of a block of the byte-matrix writers.  At MEMORY_GATE_SIZE
# the widest row is at most 64 bytes of the matrix (ideals: p and norm below
# 10^6, a and b below 10^3, the splitting word 8 and the float field 24, so
# 6 + 3 + 3 + 6 + 8 + 24 plus six separators, 56).  The matrix, its nonzero
# mask and the compressed copy of its nonzero bytes take at most 3 x 64, and
# the 3 x 8 bytes the ideal rows leave of that cover the p, norm and code
# the ideal writer derives for its block (17 bytes); the float kernel's
# named float64 temporaries (|v|, the product hi + lo, the Veltkamp halves
# of |v| and of the power of ten, one partial product) take at most 8 x 8
# more
CSV_ROW_BYTES = 3 * 64 + 8 * 8


def constant_window(value: float, lo: float, hi: float):
    """The custom window with one value on its whole support [lo, hi]."""
    return custom_window(lambda u: np.full(np.shape(u), value), lo, hi)


def masked_plateau(window, x):
    """A plateau window at x by its masked formula, the byte oracle of its
    one-pass evaluator: 0.0 wherever x > lo and x < hi fail (NaN included),
    min(ramp((x - lo)/eps), ramp((hi - x)/eps)) where they hold."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    inside = (x > window.lo) & (x < window.hi)
    u = x[inside]
    out[inside] = np.minimum(windows._ramp((u - window.lo) / window.eps),
                             windows._ramp((window.hi - u) / window.eps))
    return out


def traced_peak(fn, *args):
    """fn(*args), and the peak of the memory traced while it ran.

    numpy reports its data buffers to tracemalloc, so the peak counts every
    array the call holds at once.
    """
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scan_allowance(window: int) -> int:
    """Bytes the lattice scan may hold besides its output and split primes.

    Half a byte per norm of a segment for the odd-only sieve mask, and
    again for the split marks, plus six int64 arrays over one expansion
    chunk.
    """
    return min(ideals._SEGMENT, window) + 6 * 8 * ideals._SCAN_POINTS


def writer_allowance() -> int:
    """Bytes a CSV writer may hold: one block of rows.  Its output is the
    file, so no share of it stays in memory."""
    return CSV_ROW_BYTES * ideals._BLOCK


def power_sum_allowance(k_max: int) -> int:
    """Bytes unit_power_sums may hold besides its input: six float64 arrays
    of one block, per mode its output and a few carried partials, and 64 kB
    of Python objects."""
    return 6 * 8 * _kernels._SUM_BLOCK + 1024 * (k_max + 1) + (1 << 16)


def small_blocks(monkeypatch):
    """Shrink the segment, the scan chunk and the summation block so that
    the part of the peak that grows with the output dominates the block
    allowance."""
    monkeypatch.setattr(ideals, "_SEGMENT", 1 << 16)
    monkeypatch.setattr(ideals, "_SCAN_POINTS", 1 << 12)
    monkeypatch.setattr(_kernels, "_SUM_BLOCK", 1 << 10)
