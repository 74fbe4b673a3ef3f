"""Command-line front end.

Six subcommands, one per experiment family:

  sieve      enumerate prime ideals into ideals.csv
  sectors    sharp-sector scan: sectors.csv + sectors.json
  weyl       Gaussian character sums: weyl.json
  variance   smoothed mean/variance sweep: variance.json + variance.csv
  realquad   norm-equation solutions and real Weyl sums over Z[sqrt 2]
  forbidden  smallest positive angle vs the exclusion bound

Each subcommand is one call into the library. An option left unset is not
passed, so the library function's own default applies; only --out, --min,
--grid and --kmax have defaults of their own. Every integer option accepts
scientific notation like 1e6. --split-only, which drops the ramified and
inert ideals, belongs to the enumeration subcommands sieve, sectors and
weyl; variance counts every prime-power ideal, as the paper's psi does,
and forbidden's smallest positive angle is a split ideal's from norm 5 on.

Exit codes: 0 on success, 2 on invalid parameters (including a size above
its ceiling in sectorlab.errors; the library checks every argument), 3 when
a numerical guarantee cannot be met (a spectral-truncation failure, or a
computed result that breaks a proven invariant).
Outputs are deterministic; rerunning a command reproduces its files byte
for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__
from .characters import weyl_sums
from .errors import MAX_KMAX, BadInput, EmptyRange, SectorLabError, check_int
from .realquad import equidistribution_report_real
from .reports import (write_forbidden_json, write_ideal_csv, write_realquad_csv,
                      write_realquad_json, write_sector_csv, write_sector_json,
                      write_variance_csv, write_variance_json, write_weyl_json)
from .sectors import forbidden_region_check, sector_scan
from .variance import variance_sweep


def _given(ns, *names) -> dict:
    """The named options that the command line set; the library defaults the others."""
    return {name: getattr(ns, name) for name in names if getattr(ns, name) is not None}


def _run_sieve(ns, path):
    write_ideal_csv(path("ideals.csv"), ns.norm_min, ns.norm_max, ns.include_nonsplit)


def _run_sectors(ns, path):
    report = sector_scan(ns.x, ns.rho, ns.grid, include_nonsplit=ns.include_nonsplit,
                         **_given(ns, "deltas"))
    write_sector_csv(path("sectors.csv"), report)
    write_sector_json(path("sectors.json"), report)


def _run_weyl(ns, path):
    k_max = check_int("k_max", ns.k_max, 1, MAX_KMAX)
    sums = weyl_sums(k_max, 1, ns.x, ns.include_nonsplit)
    if sums[0] == 0:
        raise EmptyRange(f"no prime ideals with norm in (1, {ns.x}]")
    write_weyl_json(path("weyl.json"), ns.x, sums)


def _run_variance(ns, path):
    reports = variance_sweep(**_given(ns, "x_list", "tau_list"))
    write_variance_json(path("variance.json"), reports)
    write_variance_csv(path("variance.csv"), reports)


def _run_realquad(ns, path):
    report = equidistribution_report_real(ns.limit, ns.k_max)
    write_realquad_csv(path("realquad.csv"), report)
    write_realquad_json(path("realquad.json"), report)


def _run_forbidden(ns, path):
    min_angle = forbidden_region_check(ns.norm_max)
    write_forbidden_json(path("forbidden.json"), ns.norm_max, min_angle)


def _int_literal(text: str) -> int:
    """Integer argument that also accepts scientific notation like 1e6."""
    try:
        return int(text)
    except ValueError:
        try:
            return check_int("value", float(text))
        except BadInput as exc:  # a fraction, inf, or a literal past the float range
            raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorlab",
        description="Angular statistics of Gaussian prime ideals",
    )
    parser.add_argument("--version", action="version", version=f"sectorlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    p = add_parser("sieve", _run_sieve, "enumerate prime ideals to CSV")
    p.add_argument("--min", dest="norm_min", type=_int_literal, default=1)
    p.add_argument("--max", dest="norm_max", type=_int_literal, required=True)

    p = add_parser("sectors", _run_sectors, "sharp-sector scan at width (pi/2) X^-rho")
    p.add_argument("--x", type=_int_literal, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--grid", type=_int_literal, default=500)
    p.add_argument("--delta", dest="deltas", type=float, action="append",
                   help="deviation thresholds (repeatable)")

    p = add_parser("weyl", _run_weyl, "Gaussian Weyl sums up to k_max")
    p.add_argument("--x", type=_int_literal, required=True)
    p.add_argument("--kmax", dest="k_max", type=_int_literal, default=8)

    p = add_parser("variance", _run_variance, "smoothed mean/variance sweep, K = X^tau")
    p.add_argument("--tau", dest="tau_list", type=float, action="append",
                   help="sharpness exponents (repeatable)")
    p.add_argument("--x-list", dest="x_list", type=_int_literal, action="append",
                   help="scales X (repeatable)")

    p = add_parser("realquad", _run_realquad, "norm equation and Weyl sums over Z[sqrt 2]")
    p.add_argument("--limit", type=_int_literal, required=True)
    p.add_argument("--kmax", dest="k_max", type=_int_literal, default=8)

    p = add_parser("forbidden", _run_forbidden, "smallest positive angle vs 1/(2 sqrt X)")
    p.add_argument("--max", dest="norm_max", type=_int_literal, required=True)

    for name, p in sub.choices.items():
        p.add_argument("--out", default=".", help="output directory")
        if name in ("sieve", "sectors", "weyl"):
            p.add_argument("--split-only", dest="include_nonsplit", action="store_false",
                           help="drop ramified and inert ideals")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    written = []

    def path(name: str) -> str:
        """Output path of file name; its writer makes the directory on opening it."""
        written.append(os.path.join(ns.out, name))
        return written[-1]

    try:
        ns.run(ns, path)
    except BadInput as exc:  # includes BadSector, BadEps, NotSplit, EmptyRange
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except SectorLabError as exc:
        print(f"numerical guarantee failed: {exc}", file=sys.stderr)
        return 3
    for target in written:
        print(f"wrote {target}")
    return 0
