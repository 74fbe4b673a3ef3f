"""Compare two benchmark records metric by metric.

Usage: python3 perfbench/compare.py BASE_RECORD.json NEW_RECORD.json

Records are the files run.py writes to .perfbench/records/.  The
comparison is flagged as not like-for-like when the records differ in the
machine, interpreter, numpy, BLAS or thread pin, or were run on different
workload inputs or run lengths.  Commit and source digest are expected to
differ and are only shown.
"""

from __future__ import annotations

import json
import sys

ENVIRONMENT = ("nproc", "affinity", "python", "numpy", "blas", "sectorlab_threads")
RUN = ("workload", "input", "seconds")


def differences(base: dict, new: dict) -> list[str]:
    """Names of the facts that make two records not like-for-like."""
    found = [k for k in RUN if base.get(k) != new.get(k)]
    found += [k for k in ENVIRONMENT if base["env"].get(k) != new["env"].get(k)]
    return found


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path).read()) for path in argv)
    diff = differences(base, new)
    for key in ("git_commit", "src_sha256"):
        print(f"{key}: {base['env'].get(key)} -> {new['env'].get(key)}")
    if diff:
        print("NOT LIKE-FOR-LIKE: " + ", ".join(
            f"{k} {base.get(k, base['env'].get(k))!r} vs {new.get(k, new['env'].get(k))!r}"
            for k in diff))
    else:
        print("like-for-like: same machine facts, thread pin and inputs")
    for section in ("end_to_end", "per_layer"):
        if section not in base or section not in new:
            continue
        print(f"{section}:")
        for name in base[section]:
            old, cur = base[section][name], new[section].get(name)
            change = ""
            if isinstance(old, (int, float)) and isinstance(cur, (int, float)) and old:
                change = f"{100 * (cur - old) / abs(old):+.1f}%"
            print(f"  {name:<32} {old!s:>22} {cur!s:>22} {change}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
