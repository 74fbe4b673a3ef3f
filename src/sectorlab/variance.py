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
dropped below 1e-14 |c_0| and stays below it for the next two octaves;
the samples and the c_k vector come from the one midpoint rule of windows.
The sweep's direct-route grid is 4 k_max points, the Nyquist margin under
which grid statistics of a degree-k_max trigonometric polynomial are
exact; an explicit variance_direct grid below that warns AliasingRisk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import exact_sum
from .characters import _norm_window, _weighted_entries, character_sum_table
from .errors import (GRID_CAP, KMAX_CAP, MAX_NODES, MAX_PAIRS, MAX_SIZE, AliasingRisk, BadInput,
                     TruncationFailure, check_int, check_real, real_list)
from .ideals import HALF_PI, _lambda_arrays
from .windows import (
    SmoothWindow,
    _node_count,
    fourier_coefficient,
    fourier_coefficients_bulk,
    mollifier_window,
    periodized_eval,
    plateau_plus,
)

_PAIR_BUDGET = 1 << 16  # pairs (entry-offset, angle-mode) one scatter or synthesis step takes
TAIL_RATIO = 1e-14
CERTIFICATE_RATIO = 1e-12


def truncation_kmax(f: SmoothWindow, K: float):
    """Smallest certified spectral cutoff for the K-periodisation of f.

    Walks k over powers of two until |c_k| <= 1e-14 |c_0| holds at some q
    and at the two following octaves, and returns (q, certificate).  The
    certificate records the sampled magnitudes.  TruncationFailure if no
    power of two q <= KMAX_CAP passes before an octave would need more than
    MAX_NODES midpoint nodes.  The magnitudes are fourier_coefficient's,
    with no rounding floor, so the default plateau as the bump certifies at
    K = 1.5, 3 and 6 (k_max 1,024, 2,048, 4,096).  Octave samples do not
    bound the coefficients between them: at K = 3.2 it gets k_max = 32 with
    |c_33| about 1.3e-2 |c_0| (ROADMAP item 2).  It also admits f: BadInput
    unless its integral is finite and nonzero.
    """
    K = check_real("sharpness K", K, 1.0)
    c0 = abs(fourier_coefficient(f, K, 0))
    if c0 == 0.0:
        raise BadInput(f"bump {f.kind} on [{f.lo}, {f.hi}] integrates to zero")
    threshold = TAIL_RATIO * c0
    mags = []  # |c_1|, |c_2|, |c_4|, ...
    q = 1  # the smallest cutoff the magnitudes so far leave open
    while q <= KMAX_CAP:
        k = 1 << len(mags)
        if _node_count(k / K) > MAX_NODES:  # refused before its nodes are allocated
            break
        mags.append(abs(fourier_coefficient(f, K, k)))
        if not mags[-1] <= threshold:  # NaN never passes
            q = 2 * k
        elif k == 4 * q:
            return q, {
                "k_max": q,
                "c0": c0,
                "threshold_ratio": TAIL_RATIO,
                "checked": {str(q << i): m for i, m in enumerate(mags[-3:])},
                "tail_ratio_at_kmax": mags[-3] / c0,
            }
    raise TruncationFailure(f"no certified spectral cutoff <= {KMAX_CAP} within {MAX_NODES} "
                            f"midpoint nodes for window {f.kind} at K = {K}")


def mean_formula(K: float, X: float, f: SmoothWindow, phi: SmoothWindow) -> float:
    """Leading-order angular mean (X/K) int f int Phi of the smoothed count."""
    X, K = check_real("scale X", X, 2.0, MAX_SIZE), check_real("sharpness K", K, 1.0)
    return (X / K) * f.integral() * phi.integral()


def psi_eval(theta: float, K: float, X: float, f: SmoothWindow, phi: SmoothWindow) -> float:
    """The smoothed count at a single angle, by a direct, exactly rounded sum."""
    theta = check_real("angle theta", theta)
    K = check_real("sharpness K", K, 1.0)
    thetas, weights = _weighted_entries(X, phi)
    return exact_sum(weights * periodized_eval(f, K, thetas - theta))


def _scatter_grid(thetas, weights, K, f, grid_size):
    """Evaluate sum_a w_a F_K(theta_a - theta_i) on the uniform angle grid.

    Entry a touches only the counts_a grid points i_lo_a + j, 0 <= j <
    counts_a, inside its translated support.  Every support has the same
    length, about (hi - lo) G / K points, so the counts lie within two of
    each other and the loop runs over the offset j, each step vectorised
    over the entries.  Below the smallest count every entry is live; past
    it, a mask keeps those with counts_a > j, so f is never evaluated
    outside an entry's support, because a custom evaluator need not vanish
    there.  Values land at (i_lo_a mod G) + j in a buffer of G + max(counts)
    cells, which is folded mod G once at the end.  Before any of that,
    Sigma counts_a, the number of (entry, offset) pairs, is checked against
    MAX_PAIRS; the folded grid is checked once to be finite, so a NaN or
    inf bump raises BadInput.

    Offsets below the smallest count are taken _PAIR_BUDGET // n at a
    time, as a (j, a) grid of pairs in (j, a) order, so few entries over
    many offsets cost few steps.  With more than _PAIR_BUDGET entries, and
    at every masked offset, a step is one offset, taken over consecutive
    slices of at most _PAIR_BUDGET entries, so every pair buffer holds at
    most _PAIR_BUDGET values whatever the number of entries.  np.add.at
    adds the pairs in (j, a) order, slice after slice: every cell receives
    the same additions in the same order as with one step per offset over
    the entries in input order.  So the grid's bytes follow input order;
    the callers pass the rows in _weighted_entries' (theta, norm) order,
    which also walks the spill forwards, with one wrap, at each offset.
    The evaluator gets a flat array, and the weighted values overwrite
    that argument buffer; the evaluator's result is only read, so a custom
    evaluator may return a read-only array, float32, or its own argument.
    A step so holds two pair buffers, the arguments and the evaluator's
    result, and no third one for the values.

    Arguments.  Pair (a, j) is grid point m = i_lo_a + j, and its argument
    is formed as one subtraction, x~ = x0_a - fl(j dx), from the argument at
    the entry's first cell, x0_a = fl(fl(theta_a - fl(i_lo_a step)) scale),
    and dx = fl(step scale), with step = fl(P/G), scale = fl(K/P) and P the
    double HALF_PI.  Against the exact x = (theta_a - m P/G) K/P of the
    float inputs, write each rounding as (1 + e), |e| <= u = 2^-53.  Only
    x0_a can underflow: step, scale and dx are normal, fl(j dx) is 0 or
    normal, and a subtraction with a subnormal result is exact.  So
    underflow adds at most 2^-1075 to x0_a, and at most 2^-1074 once the
    last subtraction rounds it.  Note (P/G)(K/P) = K/G exactly.
    Then x0_a - fl(j dx) equals (1 + e_scale) times

        x - e_step m K/G - e_t (1 + e_step) i_lo_a K/G
          + d2 (theta_a - t) K/P - d2' (1 + e_step) j K/G,

    with t = fl(i_lo_a step), |d2|, |d2'| <= gamma_2 = 2u/(1 - 2u): the
    step error enters x0_a and j dx with opposite signs and leaves
    e_step m K/G, the scale error leaves a relative e_scale.  The last
    subtraction adds one more relative rounding, and |theta_a - t| K/P <=
    |x0_a| / (1 - u)^3.  Collecting the products of (1 + e) factors, each
    below 1 + 8u,

        |x~ - x| <= u (2|x| + 2|x0_a| + (|m| + |i_lo_a| + 2j) K/G) (1 + 8u)
                    + 2^-1074.

    |m| K/G is about theta_a K/P <= K: the cancellation in theta_a - m P/G
    costs the same in any formula from these inputs.  At the direct
    workload (K = 15.8) the bound is at most about 40u = 4.4e-15.
    """
    G = int(grid_size)
    step = HALF_PI / G
    scale = K / HALF_PI
    # theta_i must satisfy (K/P)(theta_a - theta_i) in [lo, hi] mod K
    i_lo = np.ceil((thetas - f.hi / scale) / step).astype(np.int64)
    counts = np.floor((thetas - f.lo / scale) / step).astype(np.int64) - i_lo + 1
    np.maximum(counts, 0, out=counts)
    check_int("scattered pairs", int(counts.sum()), 0, MAX_PAIRS)
    x0 = (thetas - i_lo * step) * scale  # i_lo converts exactly: |i_lo| << 2^53
    first_cell = np.mod(i_lo, G, out=i_lo)
    dx = step * scale
    n, span = thetas.size, int(counts.max(initial=0))
    shortest = int(counts.min(initial=span))
    xbuf = np.empty(_PAIR_BUDGET)
    spill = np.zeros(G + span, dtype=np.float64)
    j = 0
    while j < span:
        stop = min(shortest, j + max(1, _PAIR_BUDGET // n)) if j < shortest else j + 1
        offsets = np.arange(stop - j)[:, None]
        shifts = (offsets + j) * dx
        for a in range(0, n, _PAIR_BUDGET):
            rows = slice(a, a + _PAIR_BUDGET)
            if j >= shortest:  # only the entries whose support reaches offset j
                rows = np.flatnonzero(counts[rows] > j) + a
            starts = x0[rows]
            x = xbuf[:(stop - j) * starts.size].reshape(stop - j, -1)
            if x.size:
                np.subtract(starts, shifts, out=x)
                np.multiply(f._eval(x.ravel()).reshape(x.shape), weights[rows], out=x)
                cells = first_cell[rows] if stop == j + 1 else (first_cell[rows] + offsets).ravel()
                np.add.at(spill[j:], cells, x.ravel())
        j = stop
    # fold mod G: each cell starts from +0.0 and takes its spill cells in
    # index order, the additions np.bincount(arange % G) makes, without its
    # two index arrays as long as the spill
    grid = np.zeros(G)
    for start in range(0, spill.size, G):
        part = spill[start:start + G]
        grid[:part.size] += part
    return check_real(f"psi grid of bump {f.kind} on [{f.lo}, {f.hi}]", grid)


def psi_grid(K: float, X: float, f: SmoothWindow, phi: SmoothWindow, grid_size: int) -> np.ndarray:
    """The smoothed count on the grid theta_i = i (pi/2)/grid_size, i < grid_size."""
    K = check_real("sharpness K", K, 1.0)
    grid_size = check_int("grid size", grid_size, 1, GRID_CAP)
    thetas, weights = _weighted_entries(X, phi)
    return _scatter_grid(thetas, weights, K, f, grid_size)


@dataclass(frozen=True)
class PsiSpectrum:
    """Fourier side of the smoothed count: coeffs[k] = c_k S_k for k = 0..k_max.

    coeffs[0] is exactly real and equals the angular mean.  certificate
    carries the truncation evidence of truncation_kmax.  Its
    tail_term_over_mean is that walk's tail_ratio_at_kmax, |c_{k_max}| / c_0
    sampled with exact phases, which bounds |coeffs[k_max]| / coeffs[0]
    when the cutoff is nonnegative (|S_k| <= S_0); certified says it is at
    most CERTIFICATE_RATIO = 1e-12.  No entry reads the bulk c_k vector.
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
        out = np.array(check_real("angle theta", theta), order="C")
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


def psi_spectrum(K: float, X: float, f: SmoothWindow, phi: SmoothWindow) -> PsiSpectrum:
    """Assemble the truncated spectrum c_k S_k with truncation_kmax's certificate."""
    k_max, certificate = truncation_kmax(f, K)
    coeffs = fourier_coefficients_bulk(f, K, k_max) * character_sum_table(X, k_max, phi)
    tail = certificate["tail_ratio_at_kmax"]
    certificate = dict(certificate, tail_term_over_mean=tail,
                       certified=bool(tail <= CERTIFICATE_RATIO))
    return PsiSpectrum(coeffs=coeffs, certificate=certificate)


def _grid_stats(values: np.ndarray) -> tuple[float, float]:
    mean = exact_sum(values) / values.size
    var = exact_sum((values - mean) ** 2) / values.size
    return mean, var


def variance_direct(
    K: float, X: float, f: SmoothWindow, phi: SmoothWindow, grid_size: int | None = None,
) -> float:
    """Angular variance of the smoothed count from a uniform grid.

    grid_size defaults to 4 k_max, which makes the grid mean and variance
    of the underlying trigonometric polynomial exact; explicit coarser
    grids warn AliasingRisk.
    """
    k_max, _ = truncation_kmax(f, K)
    grid_size = 4 * k_max if grid_size is None else check_int("grid size", grid_size, 1, GRID_CAP)
    if grid_size < 4 * k_max:
        warnings.warn(
            f"grid of {grid_size} points undersamples a degree-{k_max} spectrum; "
            f"grid statistics may alias (want >= {4 * k_max})",
            AliasingRisk,
            stacklevel=2,
        )
    values = psi_grid(K, X, f, phi, grid_size)
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
    form of the almost-all-sectors phenomenon.  psi carries every prime
    power; prime_power_gap is the grid mean of the square of its r >= 2
    part, the (negligible) cost of keeping only the primes.
    """

    X: float
    tau: float
    K: float
    k_max: int
    grid_size: int
    mean_empirical: float
    mean_formula: float
    var_direct: float
    var_parseval: float
    ratio: float
    prime_power_gap: float
    f: dict
    phi: dict
    certificate: dict


def _power_part_grid(K, X, f, phi, grid_size):
    """Grid values of the r >= 2 part of psi (prime powers only).

    X and phi were checked by the caller's spectrum.  The power rows, about
    80 of 77,613 at X = 1e6, follow the primes in the table; they are
    taken in _weighted_entries' (theta, norm) order before Phi is evaluated.
    """
    norms, thetas, logs, primes = _lambda_arrays(*_norm_window(X, phi))
    rows = primes + np.lexsort((norms[primes:], thetas[primes:]))
    weights = phi(norms[rows] / X) * logs[rows]
    return _scatter_grid(thetas[rows], weights, float(K), f, int(grid_size))


def variance_sweep(x_list=(10**4, 10**5, 10**6), tau_list=(0.2, 0.4, 0.55)) -> list[VarianceReport]:
    """Measure mean and variance of psi over a grid of (X, tau) cells, K = X^tau.

    f is the reference mollifier and Phi the plateau majorant of [1, 2]
    with shoulder 0.05.  Cells are visited in (X, tau) lexicographic order
    and each yields a VarianceReport with both variance routes, the mean
    against its (X/K) int f int Phi prediction, and the prime-power gap.
    The grid has 4 k_max points, so its mean and variance are exact.
    """
    f = mollifier_window()
    phi = plateau_plus(core=(1.0, 2.0), eps=0.05)
    x_list = [check_real("scale X", X, 4.0, MAX_SIZE) for X in real_list("x_list", x_list)]
    tau_list = [check_real("sharpness exponent tau", tau, 0.0, 1.0, "[)")
                for tau in real_list("tau_list", tau_list)]
    reports = []
    for X in x_list:
        for tau in tau_list:
            K = X**tau
            spectrum = psi_spectrum(K, X, f, phi)
            grid_size = 4 * spectrum.k_max
            values = psi_grid(K, X, f, phi, grid_size)
            mean_emp, var_dir = _grid_stats(values)
            gap_values = _power_part_grid(K, X, f, phi, grid_size)
            gap = exact_sum(gap_values**2) / grid_size
            reports.append(
                VarianceReport(
                    X=X, tau=tau, K=float(K),
                    k_max=spectrum.k_max, grid_size=grid_size,
                    mean_empirical=mean_emp,
                    mean_formula=mean_formula(K, X, f, phi),
                    var_direct=var_dir,
                    var_parseval=variance_parseval(spectrum),
                    ratio=var_dir / mean_emp**2,
                    prime_power_gap=gap,
                    f=f.descriptor(),
                    phi=phi.descriptor(),
                    certificate=spectrum.certificate,
                )
            )
    return reports
