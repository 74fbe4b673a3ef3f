"""Deterministic CSV and JSON writers for every statistic.

All emitters are pure functions of their inputs: no timestamps, no
environment data, floats printed with %.17g (shortest form that round-
trips a double is used for JSON), keys sorted.  Running the same
experiment twice therefore produces byte-identical files, which the test
suite checks.  Each file opens with a format-version tag naming its
schema.  CSV rows are formatted and written _BLOCK lines at a time, so a
writer holds one block of text, never the whole file.
"""

from __future__ import annotations

import itertools
import json
import os

from ._version import __version__
from .ideals import _BLOCK, _CODE_TO_SPLITTING, _ideal_arrays, _scalars
from .realquad import RealQuadReport
from .sectors import SectorScanReport, _exclusion_bound
from .variance import VarianceReport

IDEAL_FORMAT = "sectorlab-ideals-v1"
CHARSUM_FORMAT = "sectorlab-charsums-v1"
SECTOR_FORMAT = "sectorlab-sectors-v1"
FORBIDDEN_FORMAT = "sectorlab-forbidden-v1"
VARIANCE_FORMAT = "sectorlab-variance-v1"
REALQUAD_FORMAT = "sectorlab-realquad-v1"


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _create(path: str):
    """Open path for writing, creating its directory only now that output exists."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline="\n")


def _dump_json(path: str, obj: dict):
    with _create(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _dump_lines(path: str, lines):
    """Write an iterable of lines, each ended by a newline, _BLOCK lines at a time."""
    lines = iter(lines)
    with _create(path) as fh:
        while block := list(itertools.islice(lines, _BLOCK)):
            fh.write("\n".join(block) + "\n")


def write_ideal_csv(path: str, norm_min: int, norm_max: int, include_nonsplit: bool = True):
    """Write the ideal enumeration for a norm window as CSV."""
    cols = map(_scalars, _ideal_arrays(int(norm_min), int(norm_max), include_nonsplit))
    kinds = {c: s.value for c, s in _CODE_TO_SPLITTING.items()}
    header = [
        f"# {IDEAL_FORMAT} sectorlab={__version__}",
        f"# norm_min={int(norm_min)} norm_max={int(norm_max)} include_nonsplit={int(include_nonsplit)}",
        "p,a,b,norm,splitting,theta",
    ]
    rows = ("%d,%d,%d,%d,%s,%.17g" % (p, a, b, norm, kinds[code], theta)
            for p, a, b, norm, code, theta in zip(*cols))
    _dump_lines(path, itertools.chain(header, rows))


def write_sector_csv(path: str, report: SectorScanReport):
    header = [
        f"# {SECTOR_FORMAT} sectorlab={__version__}",
        f"# X={report.X} rho={_fmt(report.rho)} gamma={_fmt(report.gamma)} grid={report.grid_size}",
        "beta,count,expected,deviation",
    ]
    expected = _fmt(report.expected)
    cols = (report.betas, report.counts, report.deviations)
    rows = ("%.17g,%d,%s,%.17g" % (beta, count, expected, deviation)
            for beta, count, deviation in zip(*map(_scalars, cols)))
    _dump_lines(path, itertools.chain(header, rows))


def write_sector_json(path: str, report: SectorScanReport):
    _dump_json(path, {
        "format_version": SECTOR_FORMAT,
        "sectorlab": __version__,
        "X": report.X,
        "rho": report.rho,
        "gamma": report.gamma,
        "grid_size": report.grid_size,
        "expected": report.expected,
        "counts": list(_scalars(report.counts)),
        "deviations": list(_scalars(report.deviations)),
        "exceptional_fraction": {_fmt(d): f for d, f in report.exceptional_fraction.items()},
    })


def write_variance_json(path: str, reports: list[VarianceReport]):
    cells = []
    for r in reports:
        cells.append({
            "X": r.X, "tau": r.tau, "K": r.K, "variant": r.variant,
            "k_max": r.k_max, "grid_size": r.grid_size,
            "mean_empirical": r.mean_empirical, "mean_formula": r.mean_formula,
            "var_direct": r.var_direct, "var_parseval": r.var_parseval,
            "ratio": r.ratio, "prime_power_gap": r.prime_power_gap,
            "f": r.f_descriptor, "phi": r.phi_descriptor,
            "certificate": r.certificate,
        })
    _dump_json(path, {
        "format_version": VARIANCE_FORMAT,
        "sectorlab": __version__,
        "cells": cells,
    })


def write_variance_csv(path: str, reports: list[VarianceReport]):
    """Ratio matrix: one row per X, one column per tau."""
    xs = sorted({r.X for r in reports})
    taus = sorted({r.tau for r in reports})
    by_cell = {(r.X, r.tau): r.ratio for r in reports}
    lines = [
        f"# {VARIANCE_FORMAT} sectorlab={__version__} ratio=var_direct/mean_empirical^2",
        "X," + ",".join(_fmt(t) for t in taus),
    ]
    for x in xs:
        cells = ",".join(_fmt(by_cell[(x, t)]) if (x, t) in by_cell else "" for t in taus)
        lines.append(f"{_fmt(x)},{cells}")
    _dump_lines(path, lines)


def write_realquad_csv(path: str, report: RealQuadReport):
    header = [
        f"# {REALQUAD_FORMAT} sectorlab={__version__}",
        f"# limit={report.limit} ideal_count={report.ideal_count}",
        "p,a,b,sign,t",
    ]
    cols = (report.p, report.a, report.b, report.sign, report.t)
    rows = map("%d,%d,%d,%d,%.17g".__mod__, zip(*map(_scalars, cols)))
    _dump_lines(path, itertools.chain(header, rows))


def write_realquad_json(path: str, report: RealQuadReport):
    _dump_json(path, {
        "format_version": REALQUAD_FORMAT,
        "sectorlab": __version__,
        "limit": report.limit,
        "k_max": report.k_max,
        "ideal_count": report.ideal_count,
        "weyl": {str(k): v for k, v in report.weyl.items()},
    })


def write_weyl_json(path: str, X: int, sums: dict, count: int):
    _dump_json(path, {
        "format_version": CHARSUM_FORMAT,
        "sectorlab": __version__,
        "X": X,
        "ideal_count": count,
        "sums": {str(k): {"re": v.real, "im": v.imag, "normalized": abs(v) / count}
                 for k, v in sums.items()},
    })


def write_forbidden_json(path: str, norm_max: int, min_angle: float):
    _dump_json(path, {
        "format_version": FORBIDDEN_FORMAT,
        "sectorlab": __version__,
        "norm_max": norm_max,
        "min_angle": min_angle,
        "exclusion_bound": _exclusion_bound(norm_max),
    })
