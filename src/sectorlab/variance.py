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
dropped below 1e-14 |c_0| and stays below it for the next two octaves,
with no sample past KMAX_CAP; the samples and the c_k vector come from the
one midpoint rule of windows.
The sweep's direct-route grid is 4 k_max points, the Nyquist margin under
which grid statistics of a degree-k_max trigonometric polynomial are
exact; an explicit variance_direct grid below that warns AliasingRisk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._kernels import exact_sum
from .characters import _norm_window, _weighted_entries, _weighted_rows, character_sum_table
from .errors import (GRID_CAP, KMAX_CAP, MAX_NODES, MAX_PAIRS, MAX_SIZE, AliasingRisk, BadInput,
                     TruncationFailure, check_int, check_real, check_reals, real_list)
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
# A rank layer's slot costs its argument, the evaluator, its weight and one contiguous add, 1.47
# ns at the direct workload (numpy 2.4, one thread), whether an entry fills it or not; an entry
# left to np.add.at costs 2.25 ns, the add taking 0.8 of it.  So a layer pays for its empty slots
# once about 1.47 / 2.25 = 0.65 of its cells hold an entry.
_LAYER_FILL = 2 / 3
TAIL_RATIO = 1e-14


def truncation_kmax(f: SmoothWindow, K: float):
    """Smallest certified spectral cutoff for the K-periodisation of f.

    Samples |c_k| at k = 1, 2, 4, ..., every power of two k <= KMAX_CAP, and
    returns (k/4, certificate) at the first k whose last three samples, k/4,
    k/2 and k, are all <= 1e-14 |c_0|.  The certificate records those three
    magnitudes.  TruncationFailure if no run of three passes before k would
    pass KMAX_CAP or an octave would need more than MAX_NODES midpoint nodes;
    no sample is taken past either.  The magnitudes are fourier_coefficient's,
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
    for e in range(KMAX_CAP.bit_length()):  # every 2^e <= KMAX_CAP
        if _node_count(2**e / K) > MAX_NODES:  # refused before its nodes are allocated
            break
        mags.append(abs(fourier_coefficient(f, K, 1 << e)))
        if e >= 2 and all(m <= threshold for m in mags[-3:]):  # NaN never passes
            k_max = 1 << (e - 2)
            return k_max, {
                "k_max": k_max,
                "c0": c0,
                "threshold_ratio": TAIL_RATIO,
                "checked": {str(k_max << i): m for i, m in enumerate(mags[-3:])},
                "tail_ratio_at_kmax": mags[-3] / c0,
            }
    raise TruncationFailure(f"no certified spectral cutoff from samples k <= {KMAX_CAP} within "
                            f"{MAX_NODES} midpoint nodes for window {f.kind} at K = {K}")


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

    Rank layers.  Layer r holds each first cell's r-th entry in input
    order (_rank_layers).  Where the leading layers have at least
    _LAYER_FILL of their G cells filled, R of them, with R G <=
    _PAIR_BUDGET, become dense arrays of R G slots: first arguments x0_a
    and weights.  At each offset j below the smallest count one evaluator
    call takes the R G slots, and R contiguous adds spill[j:j + G] += row,
    layer by layer, take the place of np.add.at for them; the remaining
    entries, rank R and up, follow at the same offset through np.add.at in
    input order.  An empty slot carries weight 0 and the argument of entry
    0, which is live at every offset below the smallest count, so f is
    never evaluated outside a support.  Its value, +-0.0, leaves its cell
    unchanged: the spill starts at +0.0, and a round-to-nearest sum is
    -0.0 only when both terms are, so it never holds -0.0.  (Where f is
    NaN or inf there, so is entry 0's own pair, and the grid check raises
    either way.)  No layer is taken where n < _LAYER_FILL G, where G >
    _PAIR_BUDGET or where some support is empty.
    Without layers, offsets below the smallest count are taken
    _PAIR_BUDGET // n at a time, as a (j, a) grid of pairs in (j, a)
    order, so few entries over many offsets cost few steps.  At every
    masked offset a step is one offset over the live entries, the layers'
    row by row and then the remaining ones; every np.add.at step takes
    consecutive slices of at most _PAIR_BUDGET entries.

    Order.  A cell at offset j receives the pairs of the entries whose
    first cell is j below it, and the layers hold each such cell's first R
    entries in input order, the remaining entries its others in the same
    order.  So every cell receives the same additions in the same order as
    with one step per offset over the entries in input order, and the
    grid's bytes follow input order; the callers pass the rows in
    _weighted_entries' (theta, norm) order, which also walks the spill
    forwards, with one wrap, at each offset.  The evaluator gets a flat
    array, and the weighted values overwrite that argument buffer; the
    evaluator's result is only read, so a custom evaluator may return a
    read-only array, float32, or its own argument.

    Memory.  Beyond its inputs the scatter holds the entry-length first
    cells, counts and x0.  With layers, their arguments, weights and counts
    take 3 R G slots, and the remaining entries' copies (arguments, first
    cells, counts, weights) take the place of the entry-length arrays one
    at a time, so no two copies of an array are held at once.  A step
    holds two pair buffers of at most _PAIR_BUDGET values, the arguments
    and the evaluator's result, and no third one for the values; then the
    spill and the grid.

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
    layers = _rank_layers(first_cell, G) if shortest else None
    R = 0
    if layers is not None:
        slots, rest = layers
        R = len(slots)
        empty = slots == n
        slots[empty] = 0  # entry 0 is live at every offset below the shortest count
        layer_x0, layer_w, layer_counts = x0[slots], weights[slots], counts[slots]
        layer_w[empty] = 0.0
        layer_counts[empty] = 0
        del layers, slots, empty, i_lo  # i_lo is first_cell's buffer
        # the remaining entries' copies take the place of the entry-length
        # arrays one at a time, so at most one of each is held at once
        x0 = x0[rest]
        first_cell = first_cell[rest]
        counts = counts[rest]
        weights = weights[rest]
        cols = np.arange(G)
    xbuf = np.empty(_PAIR_BUDGET)
    spill = np.zeros(G + span, dtype=np.float64)
    j = 0
    while j < shortest:  # every entry is live
        if R:
            x = xbuf[:R * G].reshape(R, G)
            np.subtract(layer_x0, j * dx, out=x)
            np.multiply(f._eval(x.reshape(-1)).reshape(R, G), layer_w, out=x)
            for row in x:
                spill[j:j + G] += row
            stop = j + 1
        else:
            stop = min(shortest, j + max(1, _PAIR_BUDGET // n))
        _add_pairs(spill, xbuf, f, dx, j, stop, x0, weights, first_cell)
        j = stop
    for j in range(shortest, span):  # only the entries whose support reaches offset j
        for r in range(R):  # a cell's layer entries come before its others, rank by rank
            _add_pairs(spill, xbuf, f, dx, j, j + 1, layer_x0[r], layer_w[r], cols, layer_counts[r])
        _add_pairs(spill, xbuf, f, dx, j, j + 1, x0, weights, first_cell, counts)
    # fold mod G: each cell starts from +0.0 and takes its spill cells in
    # index order, the additions np.bincount(arange % G) makes, without its
    # two index arrays as long as the spill
    grid = np.zeros(G)
    for start in range(0, spill.size, G):
        part = spill[start:start + G]
        grid[:part.size] += part
    return check_reals(f"psi grid of bump {f.kind} on [{f.lo}, {f.hi}]", grid)


def _add_pairs(spill, xbuf, f, dx, j, stop, x0, weights, first_cell, counts=None):
    """np.add.at of the weighted pairs (a, j'), j <= j' < stop, into spill[j:], in (j', a) order.

    The entries are taken in consecutive slices of at most _PAIR_BUDGET,
    and given counts, one offset, stop = j + 1, over the entries of each
    slice whose support reaches it; the caller takes several offsets only
    when they and all the entries fit _PAIR_BUDGET pairs.  A slice's (j',
    a) block of arguments, and then its weighted values, fill xbuf.
    """
    offsets = np.arange(stop - j)[:, None]
    shifts = (offsets + j) * dx
    for a in range(0, x0.size, _PAIR_BUDGET):
        rows = slice(a, a + _PAIR_BUDGET)
        if counts is not None:
            rows = np.flatnonzero(counts[rows] > j) + a
        starts = x0[rows]
        if not starts.size:
            continue
        x = xbuf[:(stop - j) * starts.size].reshape(stop - j, -1)
        np.subtract(starts, shifts, out=x)
        np.multiply(f._eval(x.ravel()).reshape(x.shape), weights[rows], out=x)
        cells = first_cell[rows] if stop == j + 1 else (first_cell[rows] + offsets).ravel()
        np.add.at(spill[j:], cells, x.ravel())


def _rank_layers(first_cell, G):
    """(slots, rest), the leading rank layers of the entries by first cell and the rest, or None.

    Layer r holds each cell's r-th entry in input order, or n, the entry
    count, where the cell has r entries or fewer.  Layers are taken while
    at least _LAYER_FILL of their G cells are filled, R of them with R G
    <= _PAIR_BUDGET; None when that is none, decided before any G-length
    array is made where it can be.
    slots is the layers' (R, G) entry indices; rest a mask of the entries
    in no layer.  Nothing is sorted: per layer, one np.minimum.at over the
    entries' indices leaves each cell its least one not yet taken, and the
    taken ones are then marked n.
    """
    n, most = first_cell.size, _PAIR_BUDGET // G
    if not most or n < _LAYER_FILL * G:
        return None
    filled = G - np.cumsum(np.bincount(np.bincount(first_cell, minlength=G)))
    R = 0
    while R < min(most, filled.size) and filled[R] >= _LAYER_FILL * G:
        R += 1
    if not R:
        return None
    slots = np.full((R, G), n)
    candidates = np.arange(n)
    for layer in slots:
        np.minimum.at(layer, first_cell, candidates)
        candidates[layer[layer < n]] = n
    return slots, candidates < n


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
    when the cutoff is nonnegative (|S_k| <= S_0).  certified is true by
    construction, since the walk returns only once that ratio is at most
    1e-14.  No entry reads the bulk c_k vector.
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
        out = np.array(check_reals("angle theta", theta), order="C")
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
    # true by construction: the walk returns only once |c_{k_max}| <= 1e-14 c_0
    certificate = dict(certificate, tail_term_over_mean=certificate["tail_ratio_at_kmax"],
                       certified=True)
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
    80 of 77,613 at X = 1e6, follow the primes in the table; they go through
    the one row pass, characters._weighted_rows, as the whole table does in
    _weighted_entries, so they are sorted and weighted as there.
    """
    norms, thetas, logs, primes = _lambda_arrays(*_norm_window(X, phi))
    thetas, weights = _weighted_rows(norms[primes:], thetas[primes:], logs[primes:], X, phi)
    return _scatter_grid(thetas, weights, float(K), f, int(grid_size))


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
