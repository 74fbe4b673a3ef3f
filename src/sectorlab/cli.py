"""Command-line front end.

Six subcommands, one per experiment family:

  sieve      enumerate prime ideals into ideals.csv
  sectors    sharp-sector scan: sectors.csv + sectors.json
  weyl       Gaussian character sums: weyl.json
  variance   smoothed mean/variance sweep: variance.json + variance.csv
  realquad   norm-equation solutions and real Weyl sums over Z[sqrt 2]
  forbidden  smallest positive angle vs the exclusion bound

Exit codes: 0 on success, 2 on invalid parameters (including a size above
its ceiling in sectorlab.errors; the library checks every argument), 3 when
a numerical guarantee cannot be met (quadrature or spectral-truncation
failure, or a computed result that breaks a proven invariant).
Outputs are deterministic; rerunning a command reproduces its files byte
for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from ._version import __version__
from .errors import MAX_KMAX, BadInput, EmptyRange, SectorLabError, check_int


@dataclass
class ExperimentConfig:
    """Everything a run needs; built from argv, usable directly in tests.

    The field defaults are the CLI defaults: main drops unset options.
    """

    command: str
    out: str = "."
    norm_min: int = 1
    norm_max: int = 1000
    x: int = 10000
    rho: float = 0.3
    grid: int = 500
    deltas: tuple = (0.1, 0.25, 0.5)
    k_max: int = 8
    taus: tuple = (0.2, 0.4, 0.55)
    x_list: tuple = (10**4, 10**5, 10**6)
    eps: float = 0.05
    grid_factor: int = 4
    limit: int = 10000
    split_only: bool = False
    written: list = field(default_factory=list)

    @property
    def include_nonsplit(self) -> bool:
        return not self.split_only

    def path(self, name: str) -> str:
        """Output path of file name; its writer makes the directory on opening it."""
        target = os.path.join(self.out, name)
        self.written.append(target)
        return target


def _run_sieve(config: ExperimentConfig):
    from .reports import write_ideal_csv

    write_ideal_csv(config.path("ideals.csv"), config.norm_min, config.norm_max,
                    config.include_nonsplit)


def _run_sectors(config: ExperimentConfig):
    from .reports import write_sector_csv, write_sector_json
    from .sectors import sector_scan

    report = sector_scan(config.x, config.rho, config.grid, config.deltas,
                         config.include_nonsplit)
    write_sector_csv(config.path("sectors.csv"), report)
    write_sector_json(config.path("sectors.json"), report)


def _run_weyl(config: ExperimentConfig):
    from .characters import weyl_sums
    from .reports import write_weyl_json

    k_max = check_int("k_max", config.k_max, 1, MAX_KMAX)
    sums = weyl_sums(k_max, 1, config.x, config.include_nonsplit).tolist()
    count = int(sums[0].real)
    if count == 0:
        raise EmptyRange(f"no prime ideals with norm in (1, {config.x}]")
    write_weyl_json(config.path("weyl.json"), config.x, dict(enumerate(sums[1:], start=1)), count)


def _run_variance(config: ExperimentConfig):
    from .reports import write_variance_csv, write_variance_json
    from .variance import variance_sweep

    reports = variance_sweep(config.x_list, config.taus, eps=config.eps,
                             grid_factor=config.grid_factor,
                             include_nonsplit=config.include_nonsplit)
    write_variance_json(config.path("variance.json"), reports)
    write_variance_csv(config.path("variance.csv"), reports)


def _run_realquad(config: ExperimentConfig):
    from .realquad import equidistribution_report_real
    from .reports import write_realquad_csv, write_realquad_json

    report = equidistribution_report_real(config.limit, config.k_max)
    write_realquad_csv(config.path("realquad.csv"), report)
    write_realquad_json(config.path("realquad.json"), report)


def _run_forbidden(config: ExperimentConfig):
    from .reports import write_forbidden_json
    from .sectors import forbidden_region_check

    min_angle = forbidden_region_check(config.norm_max, config.include_nonsplit)
    write_forbidden_json(config.path("forbidden.json"), config.norm_max, min_angle)


_RUNNERS = {
    "sieve": _run_sieve,
    "sectors": _run_sectors,
    "weyl": _run_weyl,
    "variance": _run_variance,
    "realquad": _run_realquad,
    "forbidden": _run_forbidden,
}


def run(config: ExperimentConfig) -> int:
    """Execute one configured experiment; returns the process exit code."""
    try:
        runner = _RUNNERS[config.command]
    except KeyError:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        runner(config)
    except BadInput as exc:  # includes BadSector, BadEps, NotSplit, EmptyRange
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except SectorLabError as exc:
        print(f"numerical guarantee failed: {exc}", file=sys.stderr)
        return 3
    for path in config.written:
        print(f"wrote {path}")
    return 0


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

    def add_common(p):
        p.add_argument("--out", help="output directory")
        p.add_argument("--split-only", action="store_true",
                       help="drop ramified and inert ideals")

    p = sub.add_parser("sieve", help="enumerate prime ideals to CSV")
    p.add_argument("--min", dest="norm_min", type=_int_literal)
    p.add_argument("--max", dest="norm_max", type=_int_literal, required=True)
    add_common(p)

    p = sub.add_parser("sectors", help="sharp-sector scan at width (pi/2) X^-rho")
    p.add_argument("--x", type=_int_literal, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--grid", type=int)
    p.add_argument("--delta", dest="deltas", type=float, action="append",
                   help="deviation thresholds (repeatable)")
    add_common(p)

    p = sub.add_parser("weyl", help="Gaussian Weyl sums up to k_max")
    p.add_argument("--x", type=_int_literal, required=True)
    p.add_argument("--kmax", dest="k_max", type=int)
    add_common(p)

    p = sub.add_parser("variance", help="smoothed mean/variance sweep, K = X^tau")
    p.add_argument("--tau", dest="taus", type=float, action="append",
                   help="sharpness exponents (repeatable)")
    p.add_argument("--x-list", dest="x_list", type=_int_literal, action="append",
                   help="scales X (repeatable)")
    p.add_argument("--eps", type=float)
    p.add_argument("--grid-factor", dest="grid_factor", type=int)
    add_common(p)

    p = sub.add_parser("realquad", help="norm equation and Weyl sums over Z[sqrt 2]")
    p.add_argument("--limit", type=_int_literal, required=True)
    p.add_argument("--kmax", dest="k_max", type=int)
    add_common(p)

    p = sub.add_parser("forbidden", help="smallest positive angle vs 1/(2 sqrt X)")
    p.add_argument("--max", dest="norm_max", type=_int_literal, required=True)
    add_common(p)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    fields = {f for f in ExperimentConfig.__dataclass_fields__ if f != "written"}
    kwargs = {k: v for k, v in vars(ns).items() if k in fields and v is not None}
    if "deltas" in kwargs:
        kwargs["deltas"] = tuple(kwargs["deltas"])
    if "taus" in kwargs:
        kwargs["taus"] = tuple(kwargs["taus"])
    if "x_list" in kwargs:
        kwargs["x_list"] = tuple(kwargs["x_list"])
    return run(ExperimentConfig(**kwargs))
