"""Smooth compactly supported windows and their Fourier data.

Three window families drive every smoothed statistic in this package:

* the reference mollifier f(x) = exp(-1/(1 - x^2)) on (-1, 1),
* plateau majorants: value 1 on a core [c0, c1], supported on
  [c0 - eps, c1 + eps], with closed-form C-infinity smoothstep shoulders
  (_ramp),
* plateau minorants: value 1 on [c0 + eps, c1 - eps], supported on the
  core itself.

A window w enters the statistics twice: directly, and through the
transform  w_hat(xi) = integral w(u) exp(-2 pi i u xi) du,  sampled, as is
every c_k and integral, by the midpoint rule of _midpoint_nodes, phases mod 1.
Periodising a window f to the quarter circle,

    F_K(theta) = sum_j f((K / (pi/2)) (theta - j pi/2)),

gives a spike of width ~ (pi/2)/K whose Fourier coefficients on the
period pi/2 are c_k = (1/K) f_hat(k/K); that identity is what the
spectral variance module exploits.

A named window is descriptor-serialisable: {kind, lo, hi, eps} determines
its shape.  A custom window's descriptor records its support alone,
so two custom windows on one support share it; no report holds one.

Every support lies in [-MAX_SUPPORT, MAX_SUPPORT].  _midpoint_nodes admits
a bump only when its midpoint weights have a finite sum; the c_k vector and
the truncation walk also refuse a zero one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._kernels import exact_sum, two_product
from .errors import (KMAX_CAP, MAX_NODES, MAX_PAIRS, MAX_SUPPORT, BadEps, BadInput, check_int,
                     check_real, check_reals, real_array)
from .ideals import HALF_PI

_TINY = np.finfo(np.float64).tiny
# numpy runs fmax and fmin against a scalar operand, stride 0, at about 0.39 ns a value, and
# against an array at about 0.1: the clamps take their constant as a row of this many copies
# (64 KB), which a block of rows of the input meets in one call, at the array speed
_CLAMP_BLOCK = 1 << 13
_TINY_ROW = np.full(_CLAMP_BLOCK, _TINY)


def _clamp(op, out, row):
    """out = op(out, c) in place, for out a C-contiguous float64 array and row _CLAMP_BLOCK copies
    of c: one call over the whole blocks of out, seen as rows, and one over the rest.  Any other
    layout is refused: its flat view would be a copy, and the clamp would miss out."""
    if not out.flags.c_contiguous:
        raise ValueError("_clamp needs a C-contiguous buffer")
    flat = out.reshape(-1)
    whole = flat.size - flat.size % row.size
    if whole:
        blocks = flat[:whole].reshape(-1, row.size)
        op(blocks, row, out=blocks)
    if whole < flat.size:
        tail = flat[whole:]
        op(tail, row[:tail.size], out=tail)


def mollifier_eval(x):
    """The bump exp(-1/(1-x^2)) on (-1, 1), zero elsewhere; no overflow at |x| = 1.

    Accepts scalars or arrays; returns the same shape.  One pass with no
    mask: 1 - x^2 is clamped below at the smallest normal double, so
    |x| >= 1, +-inf and NaN give exp(-1/tiny) = 0.0 exactly with no
    division by zero.  For |x| < 1, 1 - x^2 is at least 2^-53, far above
    the clamp, so every value is bitwise the formula's.  BadInput for an int
    past the float range, a complex x, text or None (errors.real_array).
    """
    arr = real_array("mollifier_eval: x", x)
    # a C-ordered buffer, which _clamp views flat; not arr * arr, a scalar for a 0-d input
    out = np.multiply(arr, arr, out=np.empty(arr.shape))
    np.subtract(1.0, out, out=out)
    _clamp(np.fmax, out, _TINY_ROW)
    np.divide(-1.0, out, out=out)
    np.exp(out, out=out)
    return float(out) if arr.ndim == 0 else out


def _ramp(t):
    """Smoothstep g(t) / (g(t) + g(1 - t)), g(t) = exp(-1/t) for t > 0 and 0 otherwise.

    0 at t <= 0, 1 at t >= 1, monotone and C-infinity in between, with
    ramp(t) + ramp(1 - t) = 1.  Each g clamps its argument below at the
    smallest normal double, as mollifier_eval does, so t <= 0 gives
    exp(-1/tiny) = 0.0 exactly; one of t, 1 - t is at least 1/2, so the
    denominator is at least exp(-2) and never zero.
    """
    rise = np.array(t, dtype=np.float64, order="C")
    fall = np.subtract(1.0, rise, out=np.empty_like(rise))
    for g in (rise, fall):
        _clamp(np.fmax, g, _TINY_ROW)
        np.divide(-1.0, g, out=g)
        np.exp(g, out=g)
    return rise / (rise + fall)


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
        check_reals("support [lo, hi]", (self.lo, self.hi), -MAX_SUPPORT, MAX_SUPPORT)
        if not self.hi > self.lo:
            raise BadInput(f"empty support [{self.lo}, {self.hi}]")

    def __call__(self, x):
        arr = real_array(f"{self.kind} window: x", x)
        out = self._eval(arr)
        return float(out) if arr.ndim == 0 else out

    def descriptor(self) -> dict:
        """JSON-ready shape descriptor, as the reports record it."""
        return {
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
            "eps": self.eps,
        }

    def integral(self) -> float:
        """int w(u) du over the support: fourier_hat(self, 0), the weights' exact sum rounded."""
        return fourier_hat(self, 0.0).real


def mollifier_window() -> SmoothWindow:
    """The reference bump exp(-1/(1-x^2)) as a window on [-1, 1]."""
    return SmoothWindow(kind="mollifier", lo=-1.0, hi=1.0, eps=None, _eval=mollifier_eval)


def _plateau_evaluator(lo: float, hi: float, eps: float) -> Callable:
    """min(ramp((x - lo)/eps), ramp((hi - x)/eps)) over x clamped into [lo, hi] by fmax/fmin:
    NaN and all at or past an end give _ramp(0) = +0.0 exactly, with no mask and no warning."""
    lo_row, hi_row = np.full(_CLAMP_BLOCK, lo), np.full(_CLAMP_BLOCK, hi)

    def evaluate(arr):
        arr = np.array(arr, dtype=np.float64, order="C")
        _clamp(np.fmax, arr, lo_row)
        _clamp(np.fmin, arr, hi_row)
        return np.minimum(_ramp((arr - lo) / eps), _ramp((hi - arr) / eps))

    return evaluate


def _make_plateau(kind: str, core: tuple[float, float], eps: float) -> SmoothWindow:
    core = check_reals("core", core)
    eps = check_real("shoulder width eps", eps, 0.0, 0.5, "()", BadEps)
    if np.shape(core) != (2,) or not core[1] > core[0]:
        raise BadInput(f"core = {core!r} is not a pair c0 < c1")
    c0, c1 = core.tolist()
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
    lo, hi = check_reals("support [lo, hi]", (lo, hi)).tolist()
    return SmoothWindow(kind="custom", lo=lo, hi=hi, eps=None, _eval=evaluator)


def _node_count(xi_max: float) -> int:
    """Midpoint nodes for w_hat up to |xi| = xi_max: a power of two >= 4 xi_max, 2^62 past 2^60."""
    return 1 << max(11, math.ceil(math.log2(4.0 * min(xi_max, 2.0**60) + 1024.0)))


def _midpoint_nodes(base: SmoothWindow, xi_max: float):
    """(halves, h, weights) of the midpoint rule for w_hat up to |xi| = xi_max.

    Node m, at lo + halves[m] h with halves[m] = m + 1/2, has weight
    base(node) h.  A bump vanishing to all orders at its support ends is
    integrated to spectral accuracy (Trefethen & Weideman, SIAM Review 56,
    2014), and the node count puts the first aliased frequency far beyond
    where the transform has decayed below double precision.  Every
    transform, c_k and integral samples its bump here, so this is where a
    bump is admitted: BadInput unless the weights have a finite sum and,
    before any allocation, unless the node count is within MAX_NODES.
    """
    n = check_int("midpoint nodes", _node_count(xi_max), 1, MAX_NODES)
    h = (base.hi - base.lo) / n
    halves = np.arange(n) + 0.5
    weights = base(base.lo + halves * h) * h
    check_real(f"midpoint integral of the bump {base.kind}", np.sum(weights))
    return halves, h, weights


def _turns(a, b):
    """a b mod 1, within one rounding of the exact product that two_product gives."""
    p, e = two_product(a, b)
    return p - np.rint(p) + e


def fourier_hat(window: SmoothWindow, xi: float) -> complex:
    """w_hat(xi) = int w(u) exp(-2 pi i u xi) du by the midpoint rule of _midpoint_nodes.

    Node m's phase xi lo + (m + 1/2) xi h, xi h = step + step_err exactly (two_product), is
    _turns(m + 1/2, step) + (m + 1/2) step_err + _turns(xi, lo) mod 1, as in the c_k vector's chirp:
    within 10 2^-53 turns however large xi u_m is; the sum, by exact_sum, within 2^-46 sum |w|.
    """
    xi = check_real("frequency xi", xi)
    halves, h, weights = _midpoint_nodes(window, abs(xi))
    step, step_err = two_product(xi, h)
    turns = _turns(halves, step)
    turns += halves * step_err
    turns += _turns(xi, window.lo)
    turns -= np.rint(turns)
    turns *= -2.0 * math.pi
    return complex(exact_sum(weights * np.cos(turns)), exact_sum(weights * np.sin(turns)))


def fourier_coefficient(base: SmoothWindow, K: float, k: int) -> complex:
    """Fourier coefficient c_k = (1/K) w_hat(k/K) of the K-periodisation of base."""
    K = check_real("sharpness K", K, 1.0)
    return fourier_hat(base, check_int("k", k, -KMAX_CAP, KMAX_CAP) / K) / K


def fourier_coefficients_bulk(base: SmoothWindow, K: float, k_max: int) -> np.ndarray:
    """c_k for k = 0..k_max in one pass; unlike fourier_coefficient, BadInput for a zero bump.

    fourier_hat's sums by chirp-z (Bluestein 1970; Rabiner, Schafer & Rader 1969): km = (k^2 +
    m^2 - (k - m)^2)/2 makes them one FFT convolution of power-of-two length L >= n + k_max with
    the chirp e(alpha j^2/2), alpha = h/K, each phase reduced mod 1 by _turns (j^2 < 2^53 is exact),
    the weights scaled into [1/2, 1) by a power of two.  Error note, S = sum |w|/K: log2(L) 2^-53 S
    (the FFTs) + 2 pi (k/K) max(|lo|, |hi|) 2^-52 |c_k| (rounded alpha and offset: a dilation) +
    2^-46 S (fourier_hat's own).
    """
    K = check_real("sharpness K", K, 1.0)
    k_max = check_int("k_max", k_max, 0, KMAX_CAP)
    _, h, weights = _midpoint_nodes(base, k_max / K)
    c0, n = exact_sum(weights) / K, weights.size
    if c0 == 0.0:
        raise BadInput(f"bump {base.kind} on [{base.lo}, {base.hi}] integrates to zero")
    turns = _turns(0.5 * (h / K), np.arange(max(n, k_max + 1), dtype=np.float64) ** 2)
    # the prefactor comes before the FFT buffers, so that malloc maps it and the heap stays trim
    c = turns[:k_max + 1] + _turns(np.arange(k_max + 1.0), (base.lo + 0.5 * h) / K)
    c = np.exp(-2j * math.pi * c) / K
    chirp = np.exp(2j * math.pi * turns)
    a, b = (np.zeros(1 << (n + k_max - 1).bit_length(), dtype=np.complex128) for _ in range(2))
    b[:k_max + 1], b[b.size - n + 1:] = chirp[:k_max + 1], chirp[n - 1:0:-1]
    shift = math.frexp(np.max(np.abs(weights)))[1]
    a[:n] = np.conj(chirp[:n]) * np.ldexp(weights, -shift)
    del turns, chirp
    a = np.fft.fft(a)
    a *= np.fft.fft(b)
    del b
    c *= np.fft.ifft(a)[:k_max + 1]
    np.ldexp(c.view(np.float64), shift, out=c.view(np.float64))
    c[0] = c0
    return c


def periodized_eval(base: SmoothWindow, K: float, theta):
    """Evaluate F_K(theta) = sum_j base((K/P)(theta - jP)), P = pi/2, for finite K >= 1.

    theta is reduced mod P first (fmod is exact, so arguments differing by
    a representable multiple of P evaluate identically), then the finitely
    many contributing translates are summed; there are at most
    ceil(support_length / K) + 1 of them.  BadInput when angles times
    translates passes MAX_PAIRS, or when a value is not finite.
    """
    K = check_real("sharpness K", K, 1.0)
    arr = check_reals("angle theta", theta)
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
    check_reals(f"periodized bump {base.kind} on [{base.lo}, {base.hi}]", out)
    return float(out) if arr.ndim == 0 else out
