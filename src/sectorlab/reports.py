"""Deterministic CSV and JSON writers for every statistic.

All emitters are pure functions of their inputs: no timestamps, no
environment data, keys sorted, and JSON floats in the shortest form that
round-trips a double.  Running the same experiment twice therefore
produces byte-identical files, which the test suite checks.  Each file
opens with a format-version tag naming its schema.

The one-line-per-record CSV files (ideals, sectors, realquad) print each
integer as %d and each float as %.17g, byte for byte as Python's %
operator does.  They are formatted _BLOCK rows at a time into one uint8
matrix: a fixed-width field per column, padded with NUL bytes, then the
literal comma or newline.  The nonzero bytes of the matrix, in order, are
the block's lines, so a writer holds one block, never the whole file.
Integer digits come from repeated division by 10.  A float with finite |v| in
[1e-4, 1e16), where %.17g prints fixed notation, is rounded to 17 digits
exactly: Dekker's two-product gives |v| 10^(16-E) as hi + lo, and
int(hi) + rint(lo) is its round half to even.  Any other float (+-0,
subnormal, smaller or larger, nan, +-inf) is printed by "%.17g" % v, one
value at a time, into the same matrix.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from ._version import __version__
from .errors import MAX_SIZE, InvariantViolation, check_int
from .ideals import _BLOCK, _SPLITTING, _ideal_arrays, _ideal_columns
from .realquad import RealQuadReport
from .sectors import SectorScanReport, _exclusion_bound
from .variance import VarianceReport

IDEAL_FORMAT = "sectorlab-ideals-v1"
CHARSUM_FORMAT = "sectorlab-charsums-v1"
SECTOR_FORMAT = "sectorlab-sectors-v1"
FORBIDDEN_FORMAT = "sectorlab-forbidden-v1"
VARIANCE_FORMAT = "sectorlab-variance-v2"
REALQUAD_FORMAT = "sectorlab-realquad-v1"

_G17_WIDTH = 24  # the longest %.17g of a double, "-2.2250738585072014e-308"
_POW10 = np.array([float(10**s) for s in range(23)])  # exact: 5^22 < 2^53
_VELTKAMP = 2.0**27 + 1.0
_POW10_HI = _POW10 * _VELTKAMP - (_POW10 * _VELTKAMP - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_MINUS, _DOT, _ZERO = np.frombuffer(b"-.0", np.uint8)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _create(path: str, mode: str = "w"):
    """Open path for writing, as text with \\n newlines or as bytes ("wb"),
    creating its directory only now that output exists."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, mode, newline="\n" if mode == "w" else None)


def _dump_json(path: str, fmt: str, fields: dict):
    """Write fields, with the format_version and sectorlab keys, as sorted indented JSON."""
    with _create(path) as fh:
        json.dump({"format_version": fmt, "sectorlab": __version__, **fields}, fh,
                  sort_keys=True, indent=2)
        fh.write("\n")


def _table(words) -> np.ndarray:
    """The words as the NUL-padded rows of a uint8 matrix, to look up by code."""
    width = max(map(len, words))
    return np.array([list(w.encode().ljust(width, b"\0")) for w in words], np.uint8)


def _exact_scaled(mag, exp):
    """(hi, lo) with hi + lo = mag 10^(16 - exp) exactly and hi that product rounded.

    Dekker's two-product over Veltkamp splits.  A power outside the exact
    table is clipped to its end, which the caller sees as a product that
    never reaches [1e16, 1e17).
    """
    s = 16 - exp
    hi = mag * np.take(_POW10, s, mode="clip")
    t = mag * _VELTKAMP
    mag_hi = t - (t - mag)
    del t
    mag_lo = mag - mag_hi
    ten_hi, ten_lo = np.take(_POW10_HI, s, mode="clip"), np.take(_POW10_LO, s, mode="clip")
    lo = mag_hi * ten_hi - hi
    lo += mag_hi * ten_lo
    lo += mag_lo * ten_hi
    lo += mag_lo * ten_lo
    return hi, lo


def _at_least(hi, lo, bound: float):
    """hi + lo >= bound exactly, for a double bound and hi = fl(hi + lo)."""
    return (hi > bound) | ((hi == bound) & (lo >= 0.0))


def _put_g17(out: np.ndarray, v: np.ndarray):
    """Write "%.17g" % x for each x of v into the rows of out, NUL-padded.

    out has _G17_WIDTH columns: the sign, the prefix "0.000" of E < 0 cut
    to 1 - E bytes, then 17 digits with the point after digit E >= 0,
    trailing fraction zeros and a bare point left NUL.
    """
    mag = np.abs(v)
    fixed = (mag >= 1e-4) & (mag < 1e16)
    mag[~fixed] = 1.0
    exp = np.floor(np.log10(mag)).astype(np.int8)
    hi, lo = _exact_scaled(mag, exp)
    # log10 can round across a power of ten, so move E until the exact
    # product lies in [1e16, 1e17); each step moves towards the true E
    for _ in range(4):
        step = ~_at_least(hi, lo, 1e16)
        step = _at_least(hi, lo, 1e17).astype(np.int8) - step
        off = np.flatnonzero(step)
        if off.size == 0:
            break
        exp[off] += step[off]
        hi[off], lo[off] = _exact_scaled(mag[off], exp[off])
    else:
        raise InvariantViolation(f"%.17g exponent of {v[off[0]]!r} did not settle")
    del mag, step
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


def _field_width(col: np.ndarray, table: np.ndarray | None = None) -> int:
    """Bytes of the widest entry of a nonempty block of one field."""
    if table is not None:
        return table.shape[1]
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
    """The fields, the first a column, cut into blocks of _BLOCK rows; a pair
    (table, codes) is cut by its codes."""
    for start in range(0, len(fields[0]), _BLOCK):
        cut = slice(start, start + _BLOCK)
        yield [(f[0], f[1][cut]) if isinstance(f, tuple) else f[cut] for f in fields]


def _dump_rows(path: str, header: list[str], blocks):
    """Write the header lines, then one CSV line per row of each block of fields.

    A field is a numeric column, printed %d or %.17g by its dtype, or a
    pair (table, codes) printing row codes[i] of a _table.  Each block,
    at most _BLOCK rows, becomes one byte matrix whose nonzero bytes are
    written.
    """
    with _create(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in header).encode())
        for fields in blocks:
            tables = [f[0] if isinstance(f, tuple) else None for f in fields]
            block = [f[1] if isinstance(f, tuple) else f for f in fields]
            widths = [_field_width(col, table) for table, col in zip(tables, block)]
            mat = np.zeros((block[0].size, sum(widths) + len(widths)), np.uint8)
            at = 0
            for table, col, width in zip(tables, block, widths):
                out = mat[:, at:at + width]
                if table is not None:
                    out[:] = table[col]
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
            yield [p, leg_a, leg_b, norm, (splitting, code), angle]

    _dump_rows(path, header, blocks())


def write_sector_csv(path: str, report: SectorScanReport):
    header = [
        f"# {SECTOR_FORMAT} sectorlab={__version__}",
        f"# X={report.X} rho={_fmt(report.rho)} gamma={_fmt(report.gamma)} grid={report.grid_size}",
        "beta,count,expected,deviation",
    ]
    expected = (_table([_fmt(report.expected)]), np.broadcast_to(np.intp(0), (report.grid_size,)))
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
    with _create(path) as fh:
        fh.write("\n".join(lines) + "\n")


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
