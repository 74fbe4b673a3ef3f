"""Spans around the entry points of each sectorlab module, for the traced pass.

The program has no tracing of its own yet, so the benchmark wraps the
module-level functions that form each layer's boundary.  Several modules
import these functions by name (``from .ideals import _ideal_arrays``), so
a wrapper replaces every module attribute that holds the original
function, which is the name callers actually reach.  A target that no
longer exists leaves its metrics reported as absent (null), never as zero.

Self time is a span's duration minus the time covered by its direct child
spans.  Work counts are computed from the sizes of the arrays crossing a
boundary, not read from inside the program.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import resource
import sys
import time

MODULES = ("ideals", "windows", "characters", "variance", "sectors", "realquad", "reports", "cli")
HALF_PI = math.pi / 2.0

# (module, function, span name); a span name with several targets is absent
# only when all of them are missing
SPANS = (
    ("cli", "main", "cli"),
    ("ideals", "_ideal_arrays", "ideals.enum"),  # renamed ideals.cache on a cache hit
    ("ideals", "_lambda_arrays", "ideals.lambda"),
    ("ideals", "sieve_rational_primes", "ideals.sieve"),
    ("ideals", "_primes_in_range", "ideals.sieve"),
    ("windows", "fourier_coefficients_bulk", "windows.ck"),
    ("characters", "character_sum_table", "characters.sk"),
    ("characters", "weyl_sum", "characters.weyl"),
    ("variance", "variance_sweep", "variance.sweep"),
    ("variance", "truncation_kmax", "variance.kmax"),
    ("variance", "psi_grid", "variance.scatter"),
    ("variance", "_power_part_grid", "variance.scatter"),
    ("sectors", "sector_scan", "sectors.scan"),
    ("sectors", "forbidden_region_check", "sectors.forbidden"),
    ("realquad", "equidistribution_report_real", "realquad.report"),
)
# every reports.write_* function is a "reports.write" span

IDEAL_SPANS = ("ideals.enum", "ideals.cache", "ideals.lambda", "ideals.sieve")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "rss0", "rss1", "mark")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.mark = 0
        self.rss0 = _maxrss_mb()
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack and counters for one traced pass in one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts: dict[str, float] = {}
        self.present: set[str] = set()
        self.ideal_cache = None

    def _count(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0) + value

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, parent)
            if before is not None:
                before(tracer, span, args, kwargs)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.rss1 = _maxrss_mb()
                tracer.stack.pop()
                if parent is not None:
                    parent.child += span.duration
                tracer.spans.append(span)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(tracer, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target that exists; return the names of absent spans and counters."""
        modules = {}
        for name in MODULES + ("_kernels",):
            try:
                modules[name] = importlib.import_module(f"sectorlab.{name}")
            except ImportError:
                pass
        wanted = {span for _, _, span in SPANS} | {"reports.write"}
        targets = [(m, f, s) for m, f, s in SPANS]
        reports = modules.get("reports")
        if reports is not None:
            targets += [("reports", f, "reports.write") for f in sorted(vars(reports))
                        if f.startswith("write_") and callable(getattr(reports, f))]
        ideal_arrays = getattr(modules.get("ideals"), "_ideal_arrays", None)
        if ideal_arrays is not None and hasattr(ideal_arrays, "cache_info"):
            self.ideal_cache = ideal_arrays.cache_info
        for module, func, span in targets:
            original = getattr(modules.get(module), func, None)
            if span == "ideals.enum" and self.ideal_cache is None:
                original = None  # hit/miss split needs the lru_cache counters
            if original is None:
                continue
            hooks = _HOOKS.get(span, (None, None))
            _replace(original, self._span(span, original, *hooks))
            self.present.add(span)
        for module, func, counter, count in _COUNTERS:
            original = getattr(modules.get(module), func, None)
            if original is not None:
                _replace(original, self._counter(original, count))
                self.present.add(counter)
        return sorted((wanted - self.present) | ({c for _, _, c, _ in _COUNTERS} - self.present))

    def summary(self) -> dict:
        """Self times, counts and high-water rises, aggregated by span name."""
        self_s: dict[str, float] = {}
        for span in self.spans:
            self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - span.child
        rise = {
            "characters.sk": self._rss_rise(("characters.sk",)),
            "variance.scatter": self._rss_rise(("variance.scatter",)),
            "ideals": self._rss_rise(IDEAL_SPANS),
        }
        cache = self.ideal_cache() if self.ideal_cache is not None else None
        return {
            "self_s": self_s,
            "root_s": sum(s.duration for s in self.spans if s.parent is None),
            "counts": dict(self.counts),
            "rss_rise_mb": rise,
            "cache": None if cache is None else {"hits": cache.hits, "misses": cache.misses},
            "present": sorted(self.present),
        }

    def _rss_rise(self, names) -> float:
        """Rise of the maxrss high-water mark across the outermost spans named."""
        total = 0.0
        for span in self.spans:
            if span.name not in names:
                continue
            outer, ancestor = True, span.parent
            while ancestor is not None:
                if ancestor.name in names:
                    outer = False
                    break
                ancestor = ancestor.parent
            if outer:
                total += span.rss1 - span.rss0
        return total


def _replace(original, wrapper):
    """Point every sectorlab module attribute bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sectorlab" or name.startswith("sectorlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _misses_before(tracer, span, args, kwargs):
    span.mark = tracer.ideal_cache().misses


def _enumerated(tracer, span, args, kwargs, result):
    if tracer.ideal_cache().misses == span.mark:
        span.name = "ideals.cache"
    else:
        tracer._count("ideals.ideals", result[0].size)
    _entries(tracer, span, args, kwargs, result)


def _entries(tracer, span, args, kwargs, result):
    """An entry table fetched by a character sum sets its work: N * k_max or N."""
    parent = span.parent
    if parent is None:
        return
    size = result[0].size
    if parent.name == "characters.sk":
        tracer._count("characters.sk_terms", size * parent.mark)
    elif parent.name == "characters.weyl":
        tracer._count("characters.weyl_terms", size)


def _sk_kmax(tracer, span, args, kwargs):
    span.mark = int(_arg(args, kwargs, 1, "k_max"))


def _sectors(tracer, span, args, kwargs, result):
    tracer._count("sectors.offsets", result.grid_size)


def _realquad(tracer, span, args, kwargs, result):
    tracer._count("realquad.ideals", result.ideal_count)


def _written(tracer, span, args, kwargs, result):
    tracer._count("reports.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


# span name -> (before, after) hooks
_HOOKS = {
    "ideals.enum": (_misses_before, _enumerated),
    "ideals.lambda": (None, _entries),
    "characters.sk": (_sk_kmax, None),
    "sectors.scan": (None, _sectors),
    "realquad.report": (None, _realquad),
    "reports.write": (None, _written),
}


def _scatter_pairs(tracer, args, kwargs):
    """Entry-grid pairs inside each entry's support, from the scatter's arguments."""
    import numpy as np

    thetas = np.asarray(_arg(args, kwargs, 0, "thetas"), dtype=np.float64)
    K = float(_arg(args, kwargs, 2, "K"))
    f = _arg(args, kwargs, 3, "f")
    G = int(_arg(args, kwargs, 4, "grid_size"))
    step, scale = HALF_PI / G, K / HALF_PI
    i_lo = np.ceil((thetas - f.hi / scale) / step)
    i_hi = np.floor((thetas - f.lo / scale) / step)
    tracer._count("variance.scatter_pairs", int(np.maximum(i_hi - i_lo + 1, 0).sum()))


def _kernel_terms(tracer, args, kwargs):
    """Nodes times k_max of a c_k transform; other kernel uses are counted elsewhere."""
    if tracer.stack and tracer.stack[-1].name == "windows.ck":
        phases = _arg(args, kwargs, 0, "phases")
        tracer._count("windows.ck_terms", len(phases) * int(_arg(args, kwargs, 2, "k_max")))


_COUNTERS = (
    ("variance", "_scatter_grid", "variance.scatter_pairs", _scatter_pairs),
    ("_kernels", "geometric_weighted_sums", "windows.ck_terms", _kernel_terms),
)
