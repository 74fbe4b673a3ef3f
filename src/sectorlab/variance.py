"""Smoothed sector counts, their spectra, and the number variance.

The smoothed count at angle theta, sharpness K and scale X is

    psi(theta) = sum_a Phi(N(a)/X) Lambda(a) F_K(theta_a - theta),

with F_K the K-periodisation of a smooth bump f.  Expanding F_K in the
pi/2-periodic Fourier basis turns psi into a trigonometric polynomial

    psi(theta) = sum_k c_k S_k exp(-4 i k theta),
    c_k = (1/K) f_hat(k/K),   S_k the weighted character sums,

so the angular mean is c_0 S_0 and, by Parseval, the variance over theta
is 2 sum_{k >= 1} |c_k S_k|^2.  This module computes psi both ways: the
direct route evaluates the defining sum on a uniform angular grid, the
spectral route assembles coefficients; the two agree to the truncation
error, which is certified by the decay of c_k.

Truncation rule: k_max is the first power of two at which |c_k| has
dropped below 1e-14 |c_0| and stays below it for the next two octaves.
The grid for the direct route defaults to 4 k_max points, the Nyquist
margin under which grid statistics of a degree-k_max trigonometric
polynomial are exact; coarser grids trigger an AliasingRisk warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import exact_sum
from .characters import _weighted_entries, character_sum_table
from .errors import (GRID_CAP, KMAX_CAP, MAX_SIZE, AliasingRisk, BadInput, TruncationFailure,
                     check_int, check_real)
from .ideals import HALF_PI
from .windows import (
    PeriodizedWindow,
    SmoothWindow,
    _midpoint_nodes,
    fourier_coefficients_bulk,
    mollifier_window,
    periodized_eval,
    plateau_plus,
)

_PAIR_BUDGET = 1 << 16  # pairs (entry-offset, angle-mode) one scatter or synthesis step takes
TAIL_RATIO = 1e-14
CERTIFICATE_RATIO = 1e-12


def _midpoint_coefficient(f: SmoothWindow, K: float, k: int) -> complex:
    """c_k by the midpoint rule of fourier_coefficients_bulk, summed for one k."""
    xi = k / K
    u, w = _midpoint_nodes(f, abs(xi))
    return complex(np.sum(w * np.exp(-2j * np.pi * u * xi))) / K


def truncation_kmax(f: SmoothWindow, K: float):
    """Smallest certified spectral cutoff for the K-periodisation of f.

    Scans k over powers of two until |c_k| <= 1e-14 |c_0| holds at k and
    at the two following octaves, and returns (k_max, certificate).  The
    certificate records the sampled magnitudes.  TruncationFailure if no
    power of two <= KMAX_CAP passes.
    """
    K = check_real("sharpness K", K, 1.0)
    c0 = abs(_midpoint_coefficient(f, K, 0))
    if c0 == 0.0:
        u = f.lo + (np.arange(4096) + 0.5) * ((f.hi - f.lo) / 4096)
        if float(np.max(np.abs(f(u)))) == 0.0:
            # identically zero window: the periodisation is 0, one mode
            # (also 0) represents it exactly
            return 1, {"k_max": 1, "c0": 0.0, "threshold_ratio": TAIL_RATIO,
                       "checked": {}, "tail_ratio_at_kmax": 0.0, "zero_window": True}
        raise BadInput("signed window integrates to zero; relative tail decay is undefined")
    threshold = TAIL_RATIO * c0
    magnitudes: dict[int, float] = {}

    def mag(k: int) -> float:
        # midpoint rule, not the adaptive route: certifying decay to
        # 1e-14 relative needs quadrature error far below quad_tol, and
        # for these C-infinity compactly supported windows the midpoint
        # sum is spectrally exact
        if k not in magnitudes:
            magnitudes[k] = abs(_midpoint_coefficient(f, K, k))
        return magnitudes[k]

    q = 1
    while q <= KMAX_CAP:
        if mag(q) <= threshold and mag(2 * q) <= threshold and mag(4 * q) <= threshold:
            return q, {
                "k_max": q,
                "c0": c0,
                "threshold_ratio": TAIL_RATIO,
                "checked": {str(k): magnitudes[k] for k in (q, 2 * q, 4 * q)},
                "tail_ratio_at_kmax": magnitudes[q] / c0,
            }
        q *= 2
    raise TruncationFailure(
        f"no certified spectral cutoff <= {KMAX_CAP} for window {f.kind} at K = {K}"
    )


def mean_formula(K: float, X: float, f: SmoothWindow, phi: SmoothWindow) -> float:
    """Leading-order angular mean (X/K) int f int Phi of the smoothed count."""
    X, K = check_real("scale X", X, 2.0, MAX_SIZE), check_real("sharpness K", K, 1.0)
    return (X / K) * f.integral() * phi.integral()


def psi_eval(
    theta: float, K: float, X: float, f: SmoothWindow, phi: SmoothWindow,
    variant: str = "powers", include_nonsplit: bool = True,
) -> float:
    """The smoothed count at a single angle, by a direct, exactly rounded sum."""
    theta = check_real("angle theta", theta)
    pw = PeriodizedWindow(base=f, K=float(K))
    thetas, weights, _ = _weighted_entries(X, phi, variant, include_nonsplit)
    vals = periodized_eval(pw, thetas - theta)
    return exact_sum(weights * vals)


def _scatter_grid(thetas, weights, K, f, grid_size):
    """Evaluate sum_a w_a F_K(theta_a - theta_i) on the uniform angle grid.

    Entry a touches only the counts_a grid points i_lo_a + j, 0 <= j <
    counts_a, inside its translated support.  Every support has the same
    length, about (hi - lo) G / K points, so the loop runs over the offset
    j and each step is vectorised over the entries.  Entries are sorted by
    count, so the n entries live at offset j, those with counts_a > j, are
    a prefix.  That matters: f is never evaluated outside an entry's
    support, because a custom evaluator need not vanish there.  Values land
    at (i_lo_a mod G) + j in a buffer of G + max(counts) cells, which is
    folded mod G once at the end.

    Consecutive offsets with the same live count n are taken together,
    _PAIR_BUDGET // n of them at a time, as a (j, a) grid of pairs in (j, a)
    order.  Few entries over many offsets then cost few steps, and an offset
    with at least _PAIR_BUDGET live entries is a step of its own.  The
    arguments are formed by the same operations, in the same order, as
    (theta_a - (i_lo_a + j) step) scale, so they are bitwise those of the
    plain expression, and np.add.at adds the pairs in (j, a) order: every
    cell receives the same additions in the same order as with one step per
    offset.  The evaluator gets a flat array and its result is only read,
    never written to: a custom evaluator may return a read-only array,
    float32, or its own argument.
    """
    G = int(grid_size)
    step = HALF_PI / G
    scale = K / HALF_PI
    # theta_i must satisfy (K/P)(theta_a - theta_i) in [lo, hi] mod K
    i_lo = np.ceil((thetas - f.hi / scale) / step).astype(np.int64)
    i_hi = np.floor((thetas - f.lo / scale) / step).astype(np.int64)
    minus_counts = np.minimum(i_lo - i_hi - 1, 0)  # ascending after the sort
    order = np.argsort(minus_counts, kind="stable")
    thetas, weights, i_lo = thetas[order], weights[order], i_lo[order]
    minus_counts = minus_counts[order]
    span = -int(minus_counts.min(initial=0))
    first_cell = np.mod(i_lo, G)
    lo_f = i_lo.astype(np.float64)  # exact: |i_lo| is far below 2^53
    xbuf = np.empty(max(thetas.size, _PAIR_BUDGET), dtype=np.float64)
    vbuf = np.empty_like(xbuf)
    spill = np.zeros(G + span, dtype=np.float64)
    j = 0
    while j < span:
        n = int(np.searchsorted(minus_counts, -j))  # live entries: counts > j
        # n stay live up to the offset where the n-th entry's support ends
        stop = min(-int(minus_counts[n - 1]), j + max(1, _PAIR_BUDGET // n))
        offsets = np.arange(stop - j)[:, None]
        shape = (stop - j, n)
        cells = (first_cell[:n] + offsets).ravel()
        x = xbuf[:cells.size]
        pairs = x.reshape(shape)
        np.add(lo_f[:n], offsets + float(j), out=pairs)
        pairs *= step
        np.subtract(thetas[:n], pairs, out=pairs)
        pairs *= scale
        vals = vbuf[:x.size]
        np.multiply(f._eval(x).reshape(shape), weights[:n], out=vals.reshape(shape))
        np.add.at(spill[j:], cells, vals)
        j = stop
    # fold mod G: each cell starts from +0.0 and takes its spill cells in
    # index order, the additions np.bincount(arange % G) makes, without its
    # two index arrays as long as the spill
    grid = np.zeros(G)
    for start in range(0, spill.size, G):
        part = spill[start:start + G]
        grid[:part.size] += part
    return grid


def psi_grid(
    K: float, X: float, f: SmoothWindow, phi: SmoothWindow,
    variant: str = "powers", grid_size: int = 4096, include_nonsplit: bool = True,
) -> np.ndarray:
    """The smoothed count on the grid theta_i = i (pi/2)/grid_size, i < grid_size."""
    K = check_real("sharpness K", K, 1.0)
    grid_size = check_int("grid size", grid_size, 1, GRID_CAP)
    thetas, weights, _ = _weighted_entries(X, phi, variant, include_nonsplit)
    return _scatter_grid(thetas, weights, K, f, grid_size)


@dataclass(frozen=True)
class PsiSpectrum:
    """Fourier side of the smoothed count: coeffs[k] = c_k S_k for k = 0..k_max.

    coeffs[0] is exactly real and equals the angular mean.  certificate
    carries the truncation evidence, including the guaranteed bound
    |c_{k_max}| S_0 < 1e-12 |coeffs[0]|.
    """

    coeffs: np.ndarray
    certificate: dict

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @property
    def k_max(self) -> int:
        return self.coeffs.size - 1

    @property
    def mean(self) -> float:
        return float(self.coeffs[0].real)

    def synthesize(self, theta):
        """Evaluate psi from the spectrum: c0 S0 + 2 Re sum_{k>=1} coeffs_k e^{-4ik theta}.

        The angles are taken _PAIR_BUDGET // k_max at a time: each block is
        the broadcast product of its angles with 4k, reduced along k, and
        its sums overwrite its angles in the output, a C-ordered copy of
        theta.  So beyond the output a call holds two blocks of (angle,
        mode) pairs.  The result has theta's shape; a scalar gives a float.
        """
        out = np.array(theta, dtype=np.float64, order="C")
        check_real("angle theta", out)
        flat = out.reshape(-1)
        k4 = 4.0 * np.arange(1, self.k_max + 1)
        tail = self.coeffs[1:]
        rows = max(1, _PAIR_BUDGET // max(1, self.k_max))
        phase = np.empty((min(rows, flat.size), self.k_max))
        terms = np.empty_like(phase)
        for start in range(0, flat.size, rows):
            t = flat[start:start + rows]
            angles, part = phase[:t.size], terms[:t.size]
            np.multiply(t[:, None], k4, out=angles)
            np.cos(angles, out=part)
            part *= tail.real
            np.sin(angles, out=angles)
            angles *= tail.imag
            part += angles
            np.sum(part, axis=1, out=t)
        flat *= 2.0
        flat += self.coeffs[0].real
        return float(out) if out.ndim == 0 else out


def psi_spectrum(
    K: float, X: float, f: SmoothWindow, phi: SmoothWindow,
    variant: str = "powers", include_nonsplit: bool = True,
) -> PsiSpectrum:
    """Assemble the truncated spectrum c_k S_k with its tail certificate."""
    k_max, certificate = truncation_kmax(f, K)
    c = fourier_coefficients_bulk(f, K, k_max)
    table = character_sum_table(X, k_max, phi, variant, include_nonsplit)
    coeffs = c * table.values
    s0 = float(table.values[0].real)
    tail_bound = abs(c[k_max]) * abs(s0)
    mean_abs = abs(float(coeffs[0].real))
    certificate = dict(certificate)
    if mean_abs:
        certificate["tail_term_over_mean"] = tail_bound / mean_abs
    else:
        certificate["tail_term_over_mean"] = 0.0 if tail_bound == 0.0 else math.inf
    certificate["certified"] = bool(tail_bound <= CERTIFICATE_RATIO * mean_abs)
    return PsiSpectrum(coeffs=coeffs, certificate=certificate)


def _grid_stats(values: np.ndarray) -> tuple[float, float]:
    mean = exact_sum(values) / values.size
    var = exact_sum((values - mean) ** 2) / values.size
    return mean, var


def _check_grid(grid_size: int, k_max: int):
    if grid_size < 4 * k_max:
        warnings.warn(
            f"grid of {grid_size} points undersamples a degree-{k_max} spectrum; "
            f"grid statistics may alias (want >= {4 * k_max})",
            AliasingRisk,
            stacklevel=3,
        )


def variance_direct(
    K: float, X: float, f: SmoothWindow, phi: SmoothWindow,
    variant: str = "powers", grid_size: int | None = None,
    include_nonsplit: bool = True,
) -> float:
    """Angular variance of the smoothed count from a uniform grid.

    grid_size defaults to 4 k_max, which makes the grid mean and variance
    of the underlying trigonometric polynomial exact; explicit coarser
    grids warn AliasingRisk.
    """
    k_max, _ = truncation_kmax(f, K)
    grid_size = 4 * k_max if grid_size is None else check_int("grid size", grid_size, 1, GRID_CAP)
    _check_grid(grid_size, k_max)
    values = psi_grid(K, X, f, phi, variant, grid_size, include_nonsplit)
    return _grid_stats(values)[1]


def variance_parseval(spectrum: PsiSpectrum) -> float:
    """Angular variance from the spectrum: 2 sum_{k>=1} |c_k S_k|^2."""
    tail = spectrum.coeffs[1:]
    return 2.0 * exact_sum(np.abs(tail) ** 2)


@dataclass(frozen=True)
class VarianceReport:
    """All measured quantities for one (X, tau) sweep cell.

    ratio = var_direct / mean_empirical^2 is the squared relative
    fluctuation; its decay with X at fixed tau < 3/5 is the smoothed
    form of the almost-all-sectors phenomenon.  prime_power_gap is the
    grid mean of |psi_powers - psi_primes|^2, the (negligible) cost of
    dropping higher prime powers.
    """

    X: float
    tau: float
    K: float
    variant: str
    k_max: int
    grid_size: int
    mean_empirical: float
    mean_formula: float
    var_direct: float
    var_parseval: float
    ratio: float
    prime_power_gap: float
    f_descriptor: dict
    phi_descriptor: dict
    certificate: dict


def _power_part_grid(K, X, phi, grid_size, include_nonsplit, f):
    """Grid values of the r >= 2 part of psi (prime powers only)."""
    thetas, weights, r = _weighted_entries(X, phi, "powers", include_nonsplit)
    keep = r >= 2
    return _scatter_grid(thetas[keep], weights[keep], float(K), f, int(grid_size))


def variance_sweep(
    x_list=(10**4, 10**5, 10**6), tau_list=(0.2, 0.4, 0.55),
    f: SmoothWindow | None = None, phi: SmoothWindow | None = None,
    eps: float = 0.05, grid_factor: int = 4, include_nonsplit: bool = True,
) -> list[VarianceReport]:
    """Measure mean and variance of psi over a grid of (X, tau) cells, K = X^tau.

    Defaults: f the reference mollifier, Phi a plateau majorant of [1, 2]
    with shoulder eps.  Cells are visited in (X, tau) lexicographic order
    and each yields a VarianceReport with both variance routes, the mean
    against its (X/K) int f int Phi prediction, and the prime-power gap.
    """
    if f is None:
        f = mollifier_window()
    if phi is None:
        phi = plateau_plus(core=(1.0, 2.0), eps=eps)
    grid_factor = check_int("grid factor", grid_factor, 1, GRID_CAP)
    x_list = [check_real("scale X", X, 4.0, MAX_SIZE) for X in x_list]
    tau_list = [check_real("sharpness exponent tau", tau, 0.0, 1.0, "[)") for tau in tau_list]
    reports = []
    for X in x_list:
        for tau in tau_list:
            K = X**tau
            spectrum = psi_spectrum(K, X, f, phi, "powers", include_nonsplit)
            grid_size = check_int("grid_factor * k_max", grid_factor * spectrum.k_max, 1, GRID_CAP)
            _check_grid(grid_size, spectrum.k_max)
            values = psi_grid(K, X, f, phi, "powers", grid_size, include_nonsplit)
            mean_emp, var_dir = _grid_stats(values)
            gap_values = _power_part_grid(K, X, phi, grid_size, include_nonsplit, f)
            gap = exact_sum(gap_values**2) / grid_size
            reports.append(
                VarianceReport(
                    X=X, tau=tau, K=float(K), variant="powers",
                    k_max=spectrum.k_max, grid_size=grid_size,
                    mean_empirical=mean_emp,
                    mean_formula=mean_formula(K, X, f, phi),
                    var_direct=var_dir,
                    var_parseval=variance_parseval(spectrum),
                    ratio=var_dir / mean_emp**2,
                    prime_power_gap=gap,
                    f_descriptor=f.descriptor(),
                    phi_descriptor=phi.descriptor(),
                    certificate=spectrum.certificate,
                )
            )
    return reports
