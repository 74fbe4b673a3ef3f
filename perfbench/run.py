"""sectorlab benchmark: time CLI workloads end to end, trace them by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload direct --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, traced

Each pass runs one workload's CLI calls in a fresh Python process with
SECTORLAB_THREADS=1 exported before numpy loads, so caches start cold.
Passes repeat until ``--seconds`` have elapsed (at least one), and the
end-to-end metrics are medians over passes.  Set-up time is the median of
every spawn in the run, including extra processes that only import
sectorlab.  With ``--trace 1`` one more pass runs with spans around every
module's entry points (see tracing.py), giving per-layer self times and
work counts, and its wall time minus the untraced median is the tracing
overhead.  Every pass's outputs are checked (see checks.py), including
byte identity with every earlier pass of the same source and input, in
this run or an earlier one in the same checkout.  An operation is one CLI
call; it fails on a non-zero exit, an exception or a failed check.

Human-readable lines go first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics (end-to-end
metrics with --trace 0, per-layer metrics with --trace 1).  A full record
with the environment is written to .perfbench/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

THREADS = "1"  # single-thread baseline; also keeps the run within 2 cores
SETUP_SPAWNS = 9  # extra import-only processes for the set-up median
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
)

PER_LAYER = (
    ("characters.sk_s", "s"), ("characters.sk_terms", "1"), ("characters.sk_terms_per_s", "1/s"),
    ("windows.ck_s", "s"), ("windows.ck_terms", "1"),
    ("characters.sk_rss_rise_mb", "MB"), ("variance.scatter_rss_rise_mb", "MB"),
    ("ideals.rss_rise_mb", "MB"),
    ("variance.scatter_s", "s"), ("variance.scatter_pairs", "1"), ("variance.pairs_per_s", "1/s"),
    ("variance.kmax_s", "s"), ("variance.self_s", "s"),
    ("ideals.enum_s", "s"), ("ideals.lambda_s", "s"), ("ideals.sieve_s", "s"),
    ("ideals.ideals", "1"), ("ideals.ideals_per_s", "1/s"),
    ("ideals.cache_hits", "1"), ("ideals.cache_misses", "1"), ("ideals.cache_hit_ratio", "1"),
    ("characters.weyl_s", "s"), ("characters.weyl_terms", "1"),
    ("sectors.scan_s", "s"), ("sectors.offsets", "1"),
    ("realquad.report_s", "s"), ("realquad.ideals", "1"), ("realquad.ideals_per_s", "1/s"),
    ("reports.write_s", "s"), ("reports.bytes", "B"), ("reports.mb_per_s", "MB/s"),
    ("cli.self_s", "s"), ("trace.unattributed_s", "s"), ("trace.overhead_s", "s"),
    ("variance.k_max", "1"), ("variance.grid_points", "1"),
    ("variance.route_gap", "1"), ("variance.tail_term_over_mean", "1"),
)

# work counts that must repeat the recorded value; a difference means the
# workload itself changed, so a time difference would not be a speed-up
WORK_COUNTS = ("variance.k_max", "variance.grid_points", "variance.scatter_pairs",
               "characters.sk_terms", "ideals.ideals", "realquad.ideals")


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["SECTORLAB_THREADS"] = THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(work: Path, tag: str, calls, trace: bool, deadline: float) -> dict:
    """Run one worker process; returns its result with ``setup_s`` added."""
    out = work / tag
    spec = {"calls": calls, "out": str(out), "trace": trace, "src": str(SRC),
            "result": str(work / f"{tag}.result.json")}
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - spawned))
        error = None if proc.returncode == 0 else f"worker exited {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = "worker timed out"
    if error is None:
        result = json.loads(Path(spec["result"]).read_text())
        result["setup_s"] = result["ready"] - spawned
        result["out"] = out
        return result
    return {"error": error, "codes": [error] * len(calls), "out": out}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _rate(num, den):
    if num is None or den is None:
        return None
    return num / den if den > 0 else 0.0


def layer_metrics(trace: dict, traced_wall: float, untraced_wall, cell) -> dict:
    """Per-layer metrics of the traced pass; None marks a layer whose entry point is gone."""
    present, self_s, counts = set(trace["present"]), trace["self_s"], trace["counts"]

    def span(name):
        return self_s.get(name, 0.0) if name in present else None

    def count(name, *needs):
        return counts.get(name, 0) if all(n in present for n in needs) else None

    def rise(key, name):
        return trace["rss_rise_mb"][key] if name in present else None

    cache = trace["cache"]
    m = {
        "characters.sk_s": span("characters.sk"),
        "characters.sk_terms": count("characters.sk_terms", "characters.sk", "ideals.lambda"),
        "windows.ck_s": span("windows.ck"),
        "windows.ck_terms": count("windows.ck_terms", "windows.ck", "windows.ck_terms"),
        "characters.sk_rss_rise_mb": rise("characters.sk", "characters.sk"),
        "variance.scatter_rss_rise_mb": rise("variance.scatter", "variance.scatter"),
        "ideals.rss_rise_mb": rise("ideals", "ideals.enum"),
        "variance.scatter_s": span("variance.scatter"),
        "variance.scatter_pairs": count("variance.scatter_pairs", "variance.scatter_pairs"),
        "variance.kmax_s": span("variance.kmax"),
        "variance.self_s": span("variance.sweep"),
        "ideals.enum_s": span("ideals.enum"),
        "ideals.lambda_s": span("ideals.lambda"),
        "ideals.sieve_s": span("ideals.sieve"),
        "ideals.ideals": count("ideals.ideals", "ideals.enum"),
        "ideals.cache_hits": None if cache is None else cache["hits"],
        "ideals.cache_misses": None if cache is None else cache["misses"],
        "characters.weyl_s": span("characters.weyl"),
        "characters.weyl_terms": count("characters.weyl_terms", "characters.weyl", "ideals.enum"),
        "sectors.scan_s": span("sectors.scan"),
        "sectors.offsets": count("sectors.offsets", "sectors.scan"),
        "realquad.report_s": span("realquad.report"),
        "realquad.ideals": count("realquad.ideals", "realquad.report"),
        "reports.write_s": span("reports.write"),
        "reports.bytes": count("reports.bytes", "reports.write"),
        "cli.self_s": span("cli"),
        "trace.unattributed_s": traced_wall - trace["root_s"],
        "trace.overhead_s": None if untraced_wall is None else traced_wall - untraced_wall,
    }
    m["characters.sk_terms_per_s"] = _rate(m["characters.sk_terms"], m["characters.sk_s"])
    m["variance.pairs_per_s"] = _rate(m["variance.scatter_pairs"], m["variance.scatter_s"])
    m["ideals.ideals_per_s"] = _rate(m["ideals.ideals"], m["ideals.enum_s"])
    calls = None if cache is None else cache["hits"] + cache["misses"]
    m["ideals.cache_hit_ratio"] = _rate(m["ideals.cache_hits"], calls)
    m["realquad.ideals_per_s"] = _rate(m["realquad.ideals"], m["realquad.report_s"])
    mb = None if m["reports.bytes"] is None else m["reports.bytes"] / 1e6
    m["reports.mb_per_s"] = _rate(mb, m["reports.write_s"])
    m.update(_variance_cell(cell))
    return m


def _variance_cell(cell) -> dict:
    """Checked (never optimised) sizes and health margins of the variance cell; 0 when absent."""
    if cell is None:
        return {"variance.k_max": 0, "variance.grid_points": 0,
                "variance.route_gap": 0.0, "variance.tail_term_over_mean": 0.0}
    return {
        "variance.k_max": cell["k_max"],
        "variance.grid_points": cell["grid_size"],
        "variance.route_gap": abs(cell["var_direct"] - cell["var_parseval"]) / abs(cell["var_direct"]),
        "variance.tail_term_over_mean": cell["certificate"]["tail_term_over_mean"],
    }


def layer_shares(trace: dict, traced_wall: float) -> dict:
    """Each module's share of the traced wall time, from span self times."""
    shares: dict[str, float] = {}
    for name, seconds in trace["self_s"].items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / traced_wall
    shares["unattributed"] = (traced_wall - trace["root_s"]) / traced_wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def source_facts() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def pass_failures(commands, ref: dict, result: dict, first=None):
    """(subcommand, check, message) for every failed check of one pass.

    ``first`` holds the output digests of an earlier pass on the same source
    and input; this pass must reproduce them byte for byte.
    """
    found = [(commands[j], "exit", f"exit {code}")
             for j, code in enumerate(result["codes"]) if code != 0]
    found += checks.check_pass(commands, ref, result["out"])
    if first is not None:
        found += checks.check_identical(first, checks.digests(result["out"]))
    return found


def workload_changes(layers: dict, ref: dict) -> dict:
    """Work counts that differ from the recorded ones; absent counts are not changes."""
    return {name: {"measured": layers[name], "recorded": ref["work"][name]}
            for name in WORK_COUNTS
            if layers[name] is not None and layers[name] != ref["work"][name]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run, check and measure one workload; returns the full record."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    key, calls = workloads.inputs(workload, seed)
    ref = json.loads((HERE / "references.json").read_text())[workload][key]
    commands = [call[0] for call in calls]
    work = STATE / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    source = source_facts()
    # output digests of this source and input, shared by every run in the checkout
    stored = STATE / "digests" / f"{source['src_sha256'][:16]}-{workload}-{key}.json"
    try:
        passes = []
        while not passes or time.monotonic() - started < seconds:
            last = time.monotonic()
            passes.append(spawn(work, f"pass{len(passes)}", calls, False, deadline))
            # leave room for one more pass and the traced pass before the deadline
            if time.monotonic() + (2 + trace) * (time.monotonic() - last) > deadline:
                break
        setups = [spawn(work, f"setup{i}", [], False, deadline) for i in range(SETUP_SPAWNS)]
        traced = spawn(work, "traced", calls, True, deadline) if trace else None
        runs = passes + ([traced] if traced else [])

        failed_ops = set()
        failures = []
        first = json.loads(stored.read_text()) if stored.exists() else None
        for i, result in enumerate(runs):
            for command, check, message in pass_failures(commands, ref, result, first):
                failed_ops.add((i, command))
                failures.append({"pass": i, "command": command, "check": check, "message": message})
            if first is None:
                first = checks.digests(result["out"])
                if not failures:
                    stored.parent.mkdir(parents=True, exist_ok=True)
                    stored.write_text(json.dumps(first))
        ok_passes = [p for p in passes if "error" not in p]
        setup_values = [r["setup_s"] for r in passes + setups if "error" not in r]
        attempted = len(runs) * len(calls)
        end_to_end = {
            "wall_s": _median([p["wall_s"] for p in ok_passes]),
            "setup_s": _median(setup_values),
            "cpu_s": _median([p["cpu_s"] for p in ok_passes]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in ok_passes]),
            "ok_frac": (attempted - len(failed_ops)) / attempted,
        }
        record = {
            "workload": workload, "seed": seed, "input": key, "calls": calls,
            "seconds": seconds, "passes": len(passes), "setup_spawns": len(setup_values),
            "attempted": attempted, "failed": len(failed_ops), "failures": failures,
            "end_to_end": end_to_end,
            "pass_wall_s": [p.get("wall_s") for p in passes],
            "env": next((r["env"] for r in runs + setups if "env" in r), None),
        }
        record["env"] = dict(record["env"] or {}, **source)
        if traced is not None and "trace" in traced:
            cell = None
            if "variance" in commands:
                try:
                    cell = json.loads((traced["out"] / "variance.json").read_text())["cells"][0]
                except (OSError, ValueError, KeyError, IndexError):
                    cell = None
            layers = layer_metrics(traced["trace"], traced["wall_s"], end_to_end["wall_s"], cell)
            record["per_layer"] = layers
            record["traced_wall_s"] = traced["wall_s"]
            record["layer_shares"] = layer_shares(traced["trace"], traced["wall_s"])
            record["absent"] = traced["trace"]["absent"]
            record["workload_changed"] = workload_changes(layers, ref)
        elif trace:
            record["per_layer"] = {name: None for name, _ in PER_LAYER}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    return record


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.6g}"


def report(record: dict):
    """Print every metric of a record by name with its unit."""
    env = record["env"]
    print(f"== {record['workload']}  seed {record['seed']}  input {record['input']}  "
          f"passes {record['passes']}  set-ups {record['setup_spawns']}")
    print("   env: " + "  ".join(f"{k}={v}" for k, v in sorted(env.items())))
    print(f"   operations: {record['attempted']} attempted, {record['failed']} failed")
    for failure in record["failures"]:
        print(f"   FAILED pass {failure['pass']} {failure['command']} "
              f"[{failure['check']}]: {failure['message']}")
    print("   end-to-end (median over passes, tracing off):")
    for name, unit in END_TO_END:
        print(f"     {name:<32} {_fmt(record['end_to_end'][name]):>14} {unit}")
    if "per_layer" in record:
        print("   per-layer (traced pass; 'absent' = entry point not found):")
        for name, unit in PER_LAYER:
            print(f"     {name:<32} {_fmt(record['per_layer'][name]):>14} {unit}")
    if "layer_shares" in record:
        shares = "  ".join(f"{k} {100 * v:.1f}%" for k, v in record["layer_shares"].items())
        print(f"   share of traced wall_s {record['traced_wall_s']:.4g} s: {shares}")
        print(f"   tracing overhead: {_fmt(record['per_layer']['trace.overhead_s'])} s")
        if record["absent"]:
            print(f"   absent entry points: {', '.join(record['absent'])}")
        for name, diff in record["workload_changed"].items():
            print(f"   WORKLOAD CHANGED: {name} = {diff['measured']}, recorded {diff['recorded']}")


def _result(records, sections, prefix: bool) -> dict:
    """The result line: chosen metric sections, names prefixed by workload if asked."""
    metrics = {}
    for record in records:
        for section, chosen in sections:
            for name, unit in chosen:
                key = f"{record['workload']}.{name}" if prefix else name
                metrics[key] = {"value": record[section][name], "unit": unit}
    return {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 1 for all workloads, 0 for one")
    args = parser.parse_args(argv)
    if not (SRC / "sectorlab" / "__init__.py").is_file():
        print(f"no sectorlab sources under {SRC}", file=sys.stderr)
        return 2
    every = args.workload == "all"
    trace = bool(args.trace if args.trace is not None else every)
    names = list(workloads.WORKLOADS) if every else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, trace)
        report(record)
        records.append(record)
    sections = [("end_to_end", END_TO_END)] if every or not trace else []
    if trace:
        sections.append(("per_layer", PER_LAYER))
    result = _result(records, sections, prefix=every)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
