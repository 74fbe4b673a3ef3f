"""Smooth compactly supported windows and their Fourier data.

Three window families drive every smoothed statistic in this package:

* the reference mollifier f(x) = exp(-1/(1 - x^2)) on (-1, 1),
* plateau majorants: value 1 on a core [c0, c1], supported on
  [c0 - eps, c1 + eps], with mollifier-smoothstep shoulders,
* plateau minorants: value 1 on [c0 + eps, c1 - eps], supported on the
  core itself.

A window w enters the statistics twice: directly, and through the
transform  w_hat(xi) = integral w(u) exp(-2 pi i u xi) du,  computed by
adaptive Simpson quadrature to absolute tolerance DEFAULT_QUAD_TOL.  Periodising
a window f to the quarter circle,

    F_K(theta) = sum_j f((K / (pi/2)) (theta - j pi/2)),

gives a spike of width ~ (pi/2)/K whose Fourier coefficients on the
period pi/2 are c_k = (1/K) f_hat(k/K); that identity is what the
spectral variance module exploits.

A named window is descriptor-serialisable: {kind, lo, hi, eps} determines
its shape, and the descriptor also records quad_tol, always
DEFAULT_QUAD_TOL.  A custom window's descriptor records its support alone,
so two custom windows on one support share it; no report holds one.

Every support lies in [-MAX_SUPPORT, MAX_SUPPORT].  The smoothed layer
samples a bump through _midpoint_nodes, which admits it only when its
midpoint weights have a finite, nonzero sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._kernels import geometric_weighted_sums
from .errors import (KMAX_CAP, MAX_NODES, MAX_PAIRS, MAX_QUAD_INTERVALS, MAX_SUPPORT, BadEps,
                     BadInput, QuadratureFailure, check_int, check_real)
from .ideals import HALF_PI

DEFAULT_QUAD_TOL = 1e-10

_RAMP_PANELS = 4096
_TINY = np.finfo(np.float64).tiny


def mollifier_eval(x):
    """The bump exp(-1/(1-x^2)) on (-1, 1), zero elsewhere; no overflow at |x| = 1.

    Accepts scalars or arrays; returns the same shape.  One pass with no
    mask: 1 - x^2 is clamped below at the smallest normal double, so
    |x| >= 1, +-inf and NaN give exp(-1/tiny) = 0.0 exactly with no
    division by zero.  For |x| < 1, 1 - x^2 is at least 2^-53, far above
    the clamp, so every value is bitwise the formula's.
    """
    arr = np.asarray(x, dtype=np.float64)
    # empty_like, not arr * arr: a 0-d input would give a scalar, not a buffer
    out = np.multiply(arr, arr, out=np.empty_like(arr))
    np.subtract(1.0, out, out=out)
    np.fmax(out, _TINY, out=out)
    np.divide(-1.0, out, out=out)
    np.exp(out, out=out)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _build_ramp_table():
    """Cumulative mollifier integral on a fine grid, for the smoothstep shoulders.

    Returns (values, slopes) at the 4097 nodes t_j = j/4096 of
    ramp(t) = int_{-1}^{2t-1} f / int_{-1}^{1} f.  Values come from
    panel-wise Simpson sums; slopes are analytic, so the Hermite
    interpolant below is accurate to ~1e-13, well under the 1e-10 budget.
    """
    n = _RAMP_PANELS
    t = np.linspace(0.0, 1.0, n + 1)
    ends = mollifier_eval(2.0 * t - 1.0)
    mids = mollifier_eval(t[:-1] + t[1:] - 1.0)
    h = 1.0 / n
    # dramp/dt = 2 f(2t-1) before normalisation; Simpson on that derivative
    panels = (h / 6.0) * (2.0 * ends[:-1] + 8.0 * mids + 2.0 * ends[1:])
    values = np.concatenate([[0.0], np.cumsum(panels)])
    total = values[-1]
    values /= total
    slopes = 2.0 * ends / total
    values.setflags(write=False)
    slopes.setflags(write=False)
    return values, slopes


_RAMP_VALUES, _RAMP_SLOPES = _build_ramp_table()


def _ramp(t):
    """Smoothstep: 0 at t <= 0, 1 at t >= 1, and in between the C-infinity
    ramp int f / int f read through the cubic Hermite interpolant of its
    table: C^1 only, within about 1e-13 of the ramp, so a plateau is C^1."""
    t = np.asarray(t, dtype=np.float64)
    tc = np.clip(t, 0.0, 1.0)
    pos = tc * _RAMP_PANELS
    j = np.minimum(pos.astype(np.int64), _RAMP_PANELS - 1)
    u = pos - j
    y0, y1 = _RAMP_VALUES[j], _RAMP_VALUES[j + 1]
    d0, d1 = _RAMP_SLOPES[j] / _RAMP_PANELS, _RAMP_SLOPES[j + 1] / _RAMP_PANELS
    u2 = u * u
    u3 = u2 * u
    val = (
        (2.0 * u3 - 3.0 * u2 + 1.0) * y0
        + (u3 - 2.0 * u2 + u) * d0
        + (-2.0 * u3 + 3.0 * u2) * y1
        + (u3 - u2) * d1
    )
    return np.clip(val, 0.0, 1.0)


@dataclass(frozen=True)
class SmoothWindow:
    """A smooth compactly supported weight.

    kind is one of mollifier / plateau_plus / plateau_minus / custom; the
    support is [lo, hi]; eps is the shoulder width for the plateau kinds.
    Calling the window evaluates it (scalar or array in, same shape out);
    evaluation vanishes outside the support, including at both endpoints.
    BadInput unless the evaluator is callable and -MAX_SUPPORT <= lo < hi <= MAX_SUPPORT.
    """

    kind: str
    lo: float
    hi: float
    eps: float | None
    _eval: Callable = field(repr=False, compare=False)

    def __post_init__(self):
        if not callable(self._eval):
            raise BadInput(f"window evaluator {self._eval!r} is not callable")
        check_real("support [lo, hi]", (self.lo, self.hi), -MAX_SUPPORT, MAX_SUPPORT)
        if not self.hi > self.lo:
            raise BadInput(f"empty support [{self.lo}, {self.hi}]")

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = self._eval(arr)
        if np.isscalar(x) or arr.ndim == 0:
            return float(out)
        return out

    def descriptor(self) -> dict:
        """JSON-ready shape descriptor, as the reports record it."""
        return {
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
            "eps": self.eps,
            "quad_tol": DEFAULT_QUAD_TOL,
        }

    def integral(self) -> float:
        """int w(u) du over the support, to DEFAULT_QUAD_TOL."""
        return fourier_hat(self, 0.0).real


def mollifier_window() -> SmoothWindow:
    """The reference bump exp(-1/(1-x^2)) as a window on [-1, 1]."""
    return SmoothWindow(kind="mollifier", lo=-1.0, hi=1.0, eps=None, _eval=mollifier_eval)


def _plateau_evaluator(lo: float, hi: float, eps: float) -> Callable:
    def evaluate(arr):
        arr = np.asarray(arr, dtype=np.float64)
        out = np.zeros_like(arr)
        inside = (arr > lo) & (arr < hi)
        xi = arr[inside]
        up = _ramp((xi - lo) / eps)
        down = _ramp((hi - xi) / eps)
        out[inside] = np.minimum(up, down)
        return out

    return evaluate


def _make_plateau(kind: str, core: tuple[float, float], eps: float) -> SmoothWindow:
    c0, c1 = float(core[0]), float(core[1])
    eps = check_real("shoulder width eps", eps, 0.0, 0.5, "()", BadEps)
    if not c1 > c0:
        raise BadInput(f"empty core [{c0}, {c1}]")
    if kind == "plateau_plus":
        lo, hi = c0 - eps, c1 + eps
    else:
        lo, hi = c0, c1
        if c1 - c0 <= 2.0 * eps:
            raise BadEps(f"core [{c0}, {c1}] too narrow for shoulders of width {eps}")
    return SmoothWindow(kind=kind, lo=lo, hi=hi, eps=eps, _eval=_plateau_evaluator(lo, hi, eps))


def plateau_plus(core: tuple[float, float] = (0.0, 1.0), eps: float = 0.1) -> SmoothWindow:
    """Smooth majorant of the indicator of core: 1 there, supported eps beyond it."""
    return _make_plateau("plateau_plus", core, eps)


def plateau_minus(core: tuple[float, float] = (0.0, 1.0), eps: float = 0.1) -> SmoothWindow:
    """Smooth minorant of the indicator of core: supported there, 1 off an eps margin."""
    return _make_plateau("plateau_minus", core, eps)


def custom_window(evaluator: Callable, lo: float, hi: float) -> SmoothWindow:
    """Wrap an arbitrary array-aware evaluator supported on [lo, hi]."""
    return SmoothWindow(kind="custom", lo=float(lo), hi=float(hi), eps=None, _eval=evaluator)


def adaptive_simpson(g: Callable, a: float, b: float, tol: float):
    """Adaptive Simpson integration of a vectorised callable over [a, b].

    g maps a float64 array of nodes to float or complex values.  The
    absolute error budget tol is distributed over subintervals in
    proportion to their width; each interval is accepted when the classic
    |S2 - S1|/15 estimate fits its budget, with Richardson extrapolation
    applied on acceptance.  Raises QuadratureFailure once the number of
    simultaneously active intervals would exceed MAX_QUAD_INTERVALS, and in
    the first round whose Simpson sums are not all finite: refining a NaN
    or inf integrand never meets a budget.
    """
    a, b = check_real("a", a), check_real("b", b, a, ends="(]")
    tol = check_real("tol", tol, 0.0, ends="(]")
    n0 = 8
    edges = np.linspace(a, b, n0 + 1)
    left, right = edges[:-1], edges[1:]
    mid = (left + right) / 2.0
    f_left, f_mid, f_right = g(left), g(mid), g(right)
    coarse = (right - left) / 6.0 * (f_left + 4.0 * f_mid + f_right)
    total = 0.0 + 0.0j if np.iscomplexobj(coarse) else 0.0
    width = b - a
    depth = 0
    while left.size:
        if left.size > MAX_QUAD_INTERVALS:
            raise QuadratureFailure(
                f"adaptive Simpson exceeded {MAX_QUAD_INTERVALS} intervals at tolerance {tol}"
            )
        lmid = (left + mid) / 2.0
        rmid = (mid + right) / 2.0
        f_lmid, f_rmid = g(lmid), g(rmid)
        h6 = (mid - left) / 6.0
        s_left = h6 * (f_left + 4.0 * f_lmid + f_mid)
        s_right = h6 * (f_mid + 4.0 * f_rmid + f_right)
        fine = s_left + s_right
        if not np.all(np.isfinite(fine)):
            raise QuadratureFailure(f"adaptive Simpson met a non-finite integrand on [{a}, {b}]")
        err = np.abs(fine - coarse) / 15.0
        budget = tol * (right - left) / width
        done = err <= budget
        if depth < 2:  # forbid early acceptance before the grid sees the integrand
            done &= False
        total += np.sum(fine[done] + (fine[done] - coarse[done]) / 15.0)
        keep = ~done
        left = np.concatenate([left[keep], mid[keep]])
        right = np.concatenate([mid[keep], right[keep]])
        mid = np.concatenate([lmid[keep], rmid[keep]])
        f_left = np.concatenate([f_left[keep], f_mid[keep]])
        f_right = np.concatenate([f_mid[keep], f_right[keep]])
        f_mid = np.concatenate([f_lmid[keep], f_rmid[keep]])
        coarse = np.concatenate([s_left[keep], s_right[keep]])
        depth += 1
    return total


def fourier_hat(window: SmoothWindow, xi: float) -> complex:
    """w_hat(xi) = int w(u) exp(-2 pi i u xi) du over the support, to DEFAULT_QUAD_TOL."""
    xi = check_real("frequency xi", xi)

    def integrand(u):
        return window(u) * np.exp(-2j * np.pi * u * xi)

    return complex(adaptive_simpson(integrand, window.lo, window.hi, DEFAULT_QUAD_TOL))


def fourier_coefficient(base: SmoothWindow, K: float, k: int) -> complex:
    """Fourier coefficient c_k = (1/K) w_hat(k/K) of the K-periodisation of base."""
    K = check_real("sharpness K", K, 1.0)
    return fourier_hat(base, check_int("k", k, -KMAX_CAP, KMAX_CAP) / K) / K


def _node_count(xi_max: float) -> int:
    """Nodes of the midpoint rule for w_hat up to |xi| = xi_max: a power of two >= 4 xi_max."""
    return 1 << max(11, int(math.ceil(math.log2(4.0 * xi_max + 1024.0))))


def _midpoint_nodes(base: SmoothWindow, xi_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u and weights base(u) h of the midpoint rule for w_hat up to |xi| = xi_max.

    The window vanishes to all orders at its support endpoints, so a
    uniform midpoint rule is spectrally accurate; the node count is
    chosen so that the first aliased frequency sits far beyond where the
    transform has decayed below double precision.  Every c_k of the
    smoothed layer samples its bump here, so this is where a bump is
    admitted: BadInput unless the weights have a finite, nonzero sum, K c_0,
    and, before any allocation, unless the node count is within MAX_NODES.
    """
    n = check_int("midpoint nodes", _node_count(xi_max), 1, MAX_NODES)
    h = (base.hi - base.lo) / n
    u = base.lo + (np.arange(n) + 0.5) * h
    weights = base(u) * h
    if check_real("midpoint integral of the bump", np.sum(weights)) == 0.0:
        raise BadInput(f"bump {base.kind} on [{base.lo}, {base.hi}] integrates to zero")
    return u, weights


def fourier_coefficients_bulk(base: SmoothWindow, K: float, k_max: int) -> np.ndarray:
    """c_k for k = 0..k_max in one pass; the tests check it against fourier_coefficient."""
    K = check_real("sharpness K", K, 1.0)
    k_max = check_int("k_max", k_max, 0, KMAX_CAP)
    u, weights = _midpoint_nodes(base, k_max / K)
    phases = -2.0 * np.pi * u / K
    return geometric_weighted_sums(phases, weights, k_max) / K


def periodized_eval(base: SmoothWindow, K: float, theta):
    """Evaluate F_K(theta) = sum_j base((K/P)(theta - jP)), P = pi/2, for finite K >= 1.

    theta is reduced mod P first (fmod is exact, so arguments differing by
    a representable multiple of P evaluate identically), then the finitely
    many contributing translates are summed; there are at most
    ceil(support_length / K) + 1 of them.  BadInput when angles times
    translates passes MAX_PAIRS, or when a value is not finite.
    """
    K = check_real("sharpness K", K, 1.0)
    arr = np.asarray(check_real("angle theta", theta))
    scalar = np.isscalar(theta) or arr.ndim == 0
    u = np.fmod(arr, HALF_PI)
    u = np.where(u < 0.0, u + HALF_PI, u)
    x = u * (K / HALF_PI)
    jlo = np.ceil((x - base.hi) / K).astype(np.int64)
    jhi = np.floor((x - base.lo) / K).astype(np.int64)
    out = np.zeros_like(x)
    spans = jhi - jlo
    translates = int(spans.max()) + 1 if spans.size else 0
    check_int("periodized pairs", x.size * translates, 0, MAX_PAIRS)
    for d in range(translates):
        live = d <= spans
        out[live] += base._eval(x[live] - (jlo[live] + d) * K)
    check_real(f"periodized bump {base.kind} on [{base.lo}, {base.hi}]", out)
    if scalar:
        return float(out)
    return out
