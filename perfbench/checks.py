"""Output checks for one workload pass.

Each check belongs to the CLI call that wrote the file it reads, so a
failure marks that operation failed.  Integer outputs must equal the
references recorded at the seed commit; float outputs must stay within
the test suite's tolerances; every pass must reproduce the bytes of an
earlier pass on the same source and input.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ROUTE_GAP_TOL = 1e-6  # |var_direct - var_parseval| / var_direct, as in criterion 4
ANGLE_RTOL = 1e-12

# output file -> the subcommand that writes it
WRITERS = {
    "ideals.csv": "sieve",
    "sectors.csv": "sectors",
    "sectors.json": "sectors",
    "forbidden.json": "forbidden",
    "weyl.json": "weyl",
    "realquad.csv": "realquad",
    "realquad.json": "realquad",
    "variance.json": "variance",
    "variance.csv": "variance",
}


def ideal_rows(path: Path) -> tuple[int, str]:
    """Row count and digest of the integer columns p, a, b, norm, splitting."""
    lines = path.read_text().splitlines()[3:]
    digest = hashlib.sha256("\n".join(row.rsplit(",", 1)[0] for row in lines).encode())
    return len(lines), digest.hexdigest()


def sector_counts(path: Path) -> str:
    counts = json.loads(path.read_text())["counts"]
    return hashlib.sha256(",".join(str(int(c)) for c in counts).encode()).hexdigest()


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _variance(out: Path, ref: dict):
    cells = _load(out / "variance.json")["cells"]
    if len(cells) != 1:
        yield "work_shape", f"{len(cells)} cells, want 1"
        return
    cell = cells[0]
    shape = [cell["k_max"], cell["grid_size"]]
    if shape != [ref["k_max"], ref["grid_size"]]:
        yield "work_shape", f"k_max, grid = {shape}, want {[ref['k_max'], ref['grid_size']]}"
    gap = abs(cell["var_direct"] - cell["var_parseval"]) / abs(cell["var_direct"])
    if not gap <= ROUTE_GAP_TOL:
        yield "route_gap", f"direct vs Parseval gap {gap:.3e} > {ROUTE_GAP_TOL}"
    if cell["certificate"].get("certified") is not True:
        yield "certified", "truncation certificate is not certified"


def _sieve(out: Path, ref: dict):
    if list(ideal_rows(out / "ideals.csv")) != [ref["ideal_rows"], ref["ideal_digest"]]:
        yield "ideal_rows", "ideal rows differ from the reference"


def _sectors(out: Path, ref: dict):
    if sector_counts(out / "sectors.json") != ref["sector_digest"]:
        yield "sector_counts", "sector counts differ from the reference"


def _forbidden(out: Path, ref: dict):
    a, b = ref["forbidden_generator"]
    angle = _load(out / "forbidden.json")["min_angle"]
    if not math.isclose(angle, math.atan2(b, a), rel_tol=ANGLE_RTOL, abs_tol=0.0):
        yield "forbidden_generator", f"min angle {angle!r} is not atan2({b}, {a})"


def _weyl(out: Path, ref: dict):
    count = _load(out / "weyl.json")["ideal_count"]
    if count != ref["weyl_ideals"]:
        yield "weyl_count", f"ideal count {count}, want {ref['weyl_ideals']}"


def _realquad(out: Path, ref: dict):
    count = _load(out / "realquad.json")["ideal_count"]
    if count != ref["realquad_ideals"]:
        yield "realquad_count", f"ideal count {count}, want {ref['realquad_ideals']}"


CHECKS = {
    "variance": _variance,
    "sieve": _sieve,
    "sectors": _sectors,
    "forbidden": _forbidden,
    "weyl": _weyl,
    "realquad": _realquad,
}


def check_pass(commands: list[str], ref: dict, out: Path):
    """Failures in one pass's outputs as (subcommand, check, message) triples."""
    failures = []
    for command in commands:
        try:
            failures.extend((command, *f) for f in CHECKS[command](out, ref))
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            failures.append((command, "readable", f"{type(exc).__name__}: {exc}"))
    return failures


def digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def check_identical(earlier: dict[str, str], other: dict[str, str]):
    """Files that differ from an earlier pass, as (subcommand, check, message) triples."""
    names = sorted(set(earlier) | set(other))
    return [(WRITERS.get(n, "output"), "identical", f"{n} differs from an earlier pass")
            for n in names if earlier.get(n) != other.get(n)]
