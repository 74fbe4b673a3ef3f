"""Show that every output check of the benchmark can fail.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs one pass of ``catalogue`` and of ``direct`` at seed 0, confirms their
outputs pass, then corrupts one output of each kind in a copy and confirms
the matching check reports a failure.  It also feeds a changed work count
to the workload-changed check.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from pathlib import Path

import checks
import run
import workloads


def _edit_json(path: Path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _bump_ideal_row(path: Path):
    lines = path.read_text().splitlines()
    p, a, rest = lines[10].split(",", 2)
    lines[10] = f"{p},{int(a) + 1},{rest}"
    path.write_text("\n".join(lines) + "\n")


def _flip_byte(path: Path):
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))


def _route_gap(data):
    cell = data["cells"][0]
    cell["var_parseval"] = cell["var_direct"] * (1 + 1e-5)


CORRUPTIONS = {
    # workload -> (check expected to fail, file, corruption)
    "catalogue": (
        ("exit", None, None),
        ("identical", "realquad.csv", _flip_byte),
        ("ideal_rows", "ideals.csv", _bump_ideal_row),
        ("sector_counts", "sectors.json",
         lambda p: _edit_json(p, lambda d: d["counts"].__setitem__(0, d["counts"][0] + 1))),
        ("forbidden_generator", "forbidden.json",
         lambda p: _edit_json(p, lambda d: d.__setitem__("min_angle", math.atan2(1, 3000)))),
        ("weyl_count", "weyl.json",
         lambda p: _edit_json(p, lambda d: d.__setitem__("ideal_count", d["ideal_count"] + 1))),
        ("realquad_count", "realquad.json",
         lambda p: _edit_json(p, lambda d: d.__setitem__("ideal_count", d["ideal_count"] - 2))),
    ),
    "direct": (
        ("work_shape", "variance.json",
         lambda p: _edit_json(p, lambda d: d["cells"][0].__setitem__("k_max", 8192))),
        ("route_gap", "variance.json", lambda p: _edit_json(p, _route_gap)),
        ("certified", "variance.json",
         lambda p: _edit_json(p, lambda d: d["cells"][0]["certificate"].__setitem__(
             "certified", False))),
    ),
}


def main() -> int:
    references = json.loads((run.HERE / "references.json").read_text())
    work = run.STATE / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    missed = 0
    try:
        for workload, cases in CORRUPTIONS.items():
            key, calls = workloads.inputs(workload, 0)
            ref = references[workload][key]
            commands = [call[0] for call in calls]
            clean = run.spawn(work, workload, calls, False, time.monotonic() + 170)
            first = checks.digests(clean["out"])
            found = run.pass_failures(commands, ref, clean, first)
            print(f"{workload}: clean outputs {'pass' if not found else f'FAIL {found}'}")
            missed += bool(found)
            for check, name, corrupt in cases:
                copy = work / f"{workload}-{check}"
                shutil.copytree(clean["out"], copy)
                result = {"codes": list(clean["codes"]), "out": copy}
                if corrupt is None:
                    result["codes"][-1] = 3
                else:
                    corrupt(copy / name)
                failed = {c for _, c, _ in run.pass_failures(commands, ref, result, first)}
                caught = check in failed
                missed += not caught
                print(f"  {'caught' if caught else 'MISSED'}: {check} "
                      f"({name or 'exit code 3'} corrupted) -> failed checks {sorted(failed)}")
            changed = dict(ref["work"], **{"ideals.ideals": ref["work"]["ideals.ideals"] + 1})
            flagged = bool(run.workload_changes(changed, ref))
            missed += not flagged
            print(f"  {'caught' if flagged else 'MISSED'}: workload changed (one more ideal)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if not missed else f"FAILED ({missed} unnoticed)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
