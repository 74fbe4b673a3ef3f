"""Deterministic CSV and JSON writers for every statistic.

All emitters are pure functions of their inputs: no timestamps, no
environment data, keys sorted, and JSON floats in the shortest form that
round-trips a double.  Running the same experiment twice therefore
produces byte-identical files, which the test suite checks.  Each file
opens with a format-version tag naming its schema.

Every file is opened as bytes; a JSON file is written as its encoder
yields it.  A CSV file (ideals, sectors, variance, realquad) is its header
lines, then _BLOCK rows at a time from one uint8 matrix: a fixed-width
field per column, padded with NUL bytes, then the literal comma or
newline.  The nonzero bytes of the matrix, in order, are the block's
lines, so a writer holds one block, never the whole file.  A field is
either a numeric column, each integer printed as %d and each float as
%.17g, byte for byte as Python's % operator does, or a uint8 matrix of
NUL-padded text, one row per line.
Integer digits come from repeated division by 10.  A float with finite |v| in
[1e-4, 1e16), where %.17g prints fixed notation, is rounded to 17 digits
exactly: its exponent E is one search of the least doubles >= 10^E, |v|
10^(16-E) is hi + lo by Dekker's two-product, and int(hi) + rint(lo) rounds
it half to even.  Any other float (+-0, subnormal, smaller or larger, nan,
+-inf) is printed by "%.17g" % v, one value at a time, into the same matrix.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from ._kernels import two_product
from ._version import __version__
from .errors import MAX_SIZE, check_int
from .ideals import _BLOCK, _SPLITTING, _ideal_arrays, _ideal_columns
from .realquad import RealQuadReport
from .sectors import SectorScanReport, _exclusion_bound
from .variance import VarianceReport

IDEAL_FORMAT = "sectorlab-ideals-v1"
CHARSUM_FORMAT = "sectorlab-charsums-v1"
SECTOR_FORMAT = "sectorlab-sectors-v1"
FORBIDDEN_FORMAT = "sectorlab-forbidden-v1"
VARIANCE_FORMAT = "sectorlab-variance-v3"
REALQUAD_FORMAT = "sectorlab-realquad-v1"

_G17_WIDTH = 24  # the longest %.17g of a double, "-2.2250738585072014e-308"
_POW10 = np.array([float(10**s) for s in range(21)])  # exact: 5^20 < 2^53
# the least double >= 10^E for E = -4..16: each literal rounds up
_DECADES = np.array([1e-4, 1e-3, 0.01, 0.1] + [float(10**e) for e in range(17)])
_MINUS, _DOT, _ZERO = np.frombuffer(b"-.0", np.uint8)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _create(path: str):
    """Open path for writing bytes, creating its directory only now that output exists."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "wb")


def _dump_json(path: str, fmt: str, fields: dict):
    """Write fields, with the format_version and sectorlab keys, as sorted indented JSON."""
    fields = {"format_version": fmt, "sectorlab": __version__, **fields}
    with _create(path) as fh:  # chunk by chunk: a Weyl file at MAX_KMAX is 130 MB of text
        for chunk in json.JSONEncoder(sort_keys=True, indent=2).iterencode(fields):
            fh.write(chunk.encode())
        fh.write(b"\n")


def _table(words) -> np.ndarray:
    """The words as the NUL-padded rows of a uint8 matrix, to look up by code."""
    width = max(map(len, words))
    return np.array([list(w.encode().ljust(width, b"\0")) for w in words], np.uint8)


def _put_g17(out: np.ndarray, v: np.ndarray):
    """Write "%.17g" % x for each x of v into the rows of out, NUL-padded.

    out has _G17_WIDTH columns: the sign, the prefix "0.000" of E < 0 cut
    to 1 - E bytes, then 17 digits with the point after digit E >= 0,
    trailing fraction zeros and a bare point left NUL.
    """
    mag = np.abs(v)
    fixed = (mag >= 1e-4) & (mag < 1e16)
    mag[~fixed] = 1.0
    # E exactly, by the table, so hi + lo = mag 10^(16 - E) lies in [1e16, 1e17)
    exp = (np.searchsorted(_DECADES, mag, side="right") - 5).astype(np.int8)
    hi, lo = two_product(mag, _POW10[16 - exp])
    del mag
    # hi >= 1e16 > 2^53 is an even integer, so adding rint(lo) rounds the
    # exact product half to even, as %.17g does; 10^17 carries a decade
    digits = hi.astype(np.int64)
    digits += np.rint(lo).astype(np.int64)
    del hi, lo
    carry = digits == 10**17
    digits[carry] = 10**16
    exp += carry
    del carry

    out[:, 0] = (v < 0) * _MINUS
    small = exp < 0
    out[:, 1] = small * _ZERO
    out[:, 2] = small * _DOT
    for col in (3, 4, 5):
        out[:, col] = (exp <= 1 - col) * _ZERO
    # body column q holds digit q up to the point, then the point, then
    # digit q - 1; digits come right to left, from two uint32 halves, so
    # column j + 1 is written once digit j is known
    body = out[:, 6:]
    point = np.where(small, np.int8(17), exp)
    del small
    head = digits // 10**9
    tail = (digits - head * 10**9).astype(np.uint32)
    head = head.astype(np.uint32)
    del digits
    right = np.zeros(v.size, np.uint8)
    seen = np.zeros(v.size, bool)  # a nonzero digit right of the current one
    for j in range(16, -1, -1):
        if j >= 8:
            rem, tail = tail, tail // 10
            rem -= tail * 10
        else:
            rem, head = head, head // 10
            rem -= head * 10
        fraction = seen
        seen = seen | (rem != 0)
        digit = (rem.astype(np.uint8) + _ZERO) * (seen | (exp >= j))
        body[:, j + 1] = (right * (point > j) + digit * (point < j)
                          + (fraction & (point == j)) * _DOT)
        right = digit
    body[:, 0] = right
    for i in np.flatnonzero(~fixed):
        text = np.frombuffer(_fmt(v[i]).encode(), np.uint8)
        out[i] = 0
        out[i, :text.size] = text


def _field_width(col: np.ndarray) -> int:
    """Bytes of the widest entry of a nonempty block of one field."""
    if col.ndim == 2:
        return col.shape[1]
    if col.dtype.kind == "f":
        return _G17_WIDTH
    return max(len(str(int(col.max()))), len(str(int(col.min()))))


def _put_int(out: np.ndarray, x: np.ndarray):
    """Write "%d" % n for each n of x into the rows of out, right-aligned.

    out is _field_width(x) wide; a minus sign goes in its first column,
    which no digit of a negative row reaches.
    """
    negative = x < 0
    mag = x.astype(np.int64).view(np.uint64)
    np.negative(mag, out=mag, where=negative)
    last = out.shape[1] - 1
    if last < 9:  # below 10^9 < 2^32
        mag = mag.astype(np.uint32)
    for col in range(last, -1, -1):
        present = (mag != 0) | (col == last)
        rem, mag = mag, mag // 10
        rem -= mag * 10
        out[:, col] = (rem.astype(np.uint8) + _ZERO) * present
    out[negative, 0] = _MINUS


def _in_blocks(fields: list):
    """The fields cut into blocks of _BLOCK rows."""
    for start in range(0, len(fields[0]), _BLOCK):
        yield [f[start:start + _BLOCK] for f in fields]


def _dump_rows(path: str, header: list[str], blocks):
    """Write the header lines, then one CSV line per row of each block of fields.

    A field is a numeric column, printed %d or %.17g by its dtype, or a
    uint8 matrix of NUL-padded text, one row per line.  Each block, at
    most _BLOCK rows, becomes one byte matrix whose nonzero bytes are
    written.
    """
    with _create(path) as fh:
        fh.write("".join(line + "\n" for line in header).encode())
        for block in blocks:
            widths = [_field_width(col) for col in block]
            mat = np.zeros((len(block[0]), sum(widths) + len(widths)), np.uint8)
            at = 0
            for col, width in zip(block, widths):
                out = mat[:, at:at + width]
                if col.ndim == 2:
                    out[:] = col
                elif col.dtype.kind == "f":
                    _put_g17(out, col)
                else:
                    _put_int(out, col)
                at += width + 1
                mat[:, at - 1] = ord(",")
            mat[:, -1] = ord("\n")
            fh.write(mat[mat != 0])


def write_ideal_csv(path: str, norm_min: int, norm_max: int, include_nonsplit: bool = True):
    """Write the ideal enumeration for a norm window as CSV.

    p, the norm and the splitting are derived from the legs one block of
    rows at a time.
    """
    norm_max = check_int("norm_max", norm_max, 0, MAX_SIZE)
    a, b, theta = _ideal_arrays(norm_min, norm_max, include_nonsplit)
    header = [
        f"# {IDEAL_FORMAT} sectorlab={__version__}",
        f"# norm_min={int(norm_min)} norm_max={norm_max} include_nonsplit={int(include_nonsplit)}",
        "p,a,b,norm,splitting,theta",
    ]
    splitting = _table(_SPLITTING)

    def blocks():
        for leg_a, leg_b, angle in _in_blocks([a, b, theta]):
            p, norm, code = _ideal_columns(leg_a, leg_b)
            yield [p, leg_a, leg_b, norm, splitting[code], angle]

    _dump_rows(path, header, blocks())


def write_sector_csv(path: str, report: SectorScanReport):
    header = [
        f"# {SECTOR_FORMAT} sectorlab={__version__}",
        f"# X={report.X} rho={_fmt(report.rho)} gamma={_fmt(report.gamma)} grid={report.grid_size}",
        "beta,count,expected,deviation",
    ]
    expected = np.broadcast_to(report.expected, (report.grid_size,))
    _dump_rows(path, header, _in_blocks([report.betas, report.counts, expected, report.deviations]))


def write_sector_json(path: str, report: SectorScanReport):
    _dump_json(path, SECTOR_FORMAT, {
        "X": report.X,
        "rho": report.rho,
        "gamma": report.gamma,
        "grid_size": report.grid_size,
        "expected": report.expected,
        "counts": report.counts.tolist(),
        "deviations": report.deviations.tolist(),
        "exceptional_fraction": {_fmt(d): f for d, f in report.exceptional_fraction.items()},
    })


def write_variance_json(path: str, reports: list[VarianceReport]):
    _dump_json(path, VARIANCE_FORMAT, {"cells": [dataclasses.asdict(r) for r in reports]})


def write_variance_csv(path: str, reports: list[VarianceReport]):
    """Ratio matrix: one row per X, one column per tau; a repeated cell keeps its last ratio."""
    ratio = {(r.X, r.tau): r.ratio for r in reports}
    xs = sorted({x for x, _ in ratio})
    taus = sorted({t for _, t in ratio})
    header = [
        f"# {VARIANCE_FORMAT} sectorlab={__version__} ratio=var_direct/mean_empirical^2",
        "X," + ",".join(_fmt(t) for t in taus),
    ]
    columns = [np.array(xs, np.float64)]
    columns += [np.array([ratio[x, t] for x in xs]) for t in taus]
    _dump_rows(path, header, _in_blocks(columns))


def write_realquad_csv(path: str, report: RealQuadReport):
    header = [
        f"# {REALQUAD_FORMAT} sectorlab={__version__}",
        f"# limit={report.limit} ideal_count={report.ideal_count}",
        "p,a,b,sign,t",
    ]
    _dump_rows(path, header, _in_blocks([report.p, report.a, report.b, report.sign, report.t]))


def write_realquad_json(path: str, report: RealQuadReport):
    _dump_json(path, REALQUAD_FORMAT, {
        "limit": report.limit,
        "k_max": report.k_max,
        "ideal_count": report.ideal_count,
        "weyl": {str(k): v for k, v in enumerate(report.weyl.tolist())},
    })


def write_weyl_json(path: str, X: int, sums: np.ndarray):
    """The Weyl sums W_1..W_kmax of weyl_sums; the ideal count is W_0."""
    w0, *modes = sums.tolist()
    count = int(w0.real)
    _dump_json(path, CHARSUM_FORMAT, {
        "X": X,
        "ideal_count": count,
        "sums": {str(k): {"re": v.real, "im": v.imag, "normalized": abs(v) / count}
                 for k, v in enumerate(modes, start=1)},
    })


def write_forbidden_json(path: str, norm_max: int, min_angle: float):
    _dump_json(path, FORBIDDEN_FORMAT, {
        "norm_max": norm_max,
        "min_angle": min_angle,
        "exclusion_bound": _exclusion_bound(norm_max),
    })
