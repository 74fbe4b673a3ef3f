"""Record the references every benchmark input is checked against.

Usage (from the repository root, at the commit whose outputs are the
reference):

    python3 perfbench/record.py

Runs one traced pass of every input a seed can select and writes
perfbench/references.json with, per input:

* the work counts that must repeat (k_max, grid, scattered pairs, S_k
  terms, enumerated ideals, realquad ideals);
* for ``spectral`` and ``direct``, the k_max and grid of the variance cell;
* for ``catalogue``, the ideal rows and sector counts (as digests), the
  number of ideals seen by ``weyl``, the realquad ideal count and the
  generator of the smallest positive angle.  The last two are computed
  here independently of sectorlab and must agree with its output.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from fractions import Fraction

import checks
import run
import workloads


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def split_prime_ideals(limit: int) -> int:
    """Two ideals of Z[sqrt 2] above each prime p <= limit with p = +-1 mod 8."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return 2 * sum(1 for p in range(limit + 1) if sieve[p] and p % 8 in (1, 7))


def smallest_angle_generator(norm_max: int) -> list[int]:
    """(a, b) with a^2 + b^2 <= norm_max prime and b/a > 0 least."""
    best = None
    b = 1
    while best is None or Fraction(b, math.isqrt(norm_max)) < best[0]:
        a = math.isqrt(norm_max - b * b)
        while a > b and not (math.gcd(a, b) == 1 and _is_prime(a * a + b * b)):
            a -= 1
        if a > b and (best is None or Fraction(b, a) < best[0]):
            best = (Fraction(b, a), [a, b])
        b += 1
    return best[1]


def record_input(workload: str, calls) -> dict:
    work = run.STATE / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = run.spawn(work, "traced", calls, True, time.monotonic() + 600)
    if "error" in result or any(code != 0 for code in result["codes"]):
        raise SystemExit(f"{workload} {calls}: {result.get('error') or result['codes']}")
    out = result["out"]
    commands = [call[0] for call in calls]
    ref: dict = {}
    cell = None
    if "variance" in commands:
        cell = json.loads((out / "variance.json").read_text())["cells"][0]
        ref.update(k_max=cell["k_max"], grid_size=cell["grid_size"])
    else:
        args = {call[0]: call for call in calls}
        rows, digest = checks.ideal_rows(out / "ideals.csv")
        limit = int(args["realquad"][args["realquad"].index("--limit") + 1])
        norm_max = int(args["forbidden"][args["forbidden"].index("--max") + 1])
        ref.update(
            ideal_rows=rows, ideal_digest=digest,
            sector_digest=checks.sector_counts(out / "sectors.json"),
            weyl_ideals=json.loads((out / "weyl.json").read_text())["ideal_count"],
            realquad_ideals=split_prime_ideals(limit),
            forbidden_generator=smallest_angle_generator(norm_max),
        )
    layers = run.layer_metrics(result["trace"], result["wall_s"], None, cell)
    ref["work"] = {name: layers[name] for name in run.WORK_COUNTS}
    failures = checks.check_pass(commands, ref, out)
    shutil.rmtree(work, ignore_errors=True)
    if failures:
        raise SystemExit(f"{workload} {calls}: program disagrees with reference: {failures}")
    return ref


def main() -> int:
    references = {"src_sha256": run.source_facts()["src_sha256"]}
    for workload in workloads.WORKLOADS:
        references[workload] = {}
        for key, calls in workloads.all_inputs(workload):
            references[workload][key] = record_input(workload, calls)
            print(workload, key, references[workload][key]["work"], flush=True)
    (run.HERE / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
