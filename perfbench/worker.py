"""One workload pass in a fresh process: import sectorlab, run the CLI calls.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON names the CLI calls, the output directory, whether to trace and
where to write the result.  The parent exports SECTORLAB_THREADS before
this interpreter starts, so the BLAS pool is sized before numpy loads.
With no calls the process only measures set-up: spawn to ``import
sectorlab`` returned.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _environment(sectorlab) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.25 prints instead
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "sectorlab_threads": os.environ.get("SECTORLAB_THREADS"),
        "sectorlab": sectorlab.__version__,
    }


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import sectorlab

    ready = time.monotonic()
    start = time.perf_counter()
    cpu0 = _cpu_s()
    source = os.path.realpath(sectorlab.__file__)
    if not source.startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"sectorlab imported from {source}, not from {spec['src']}", file=sys.stderr)
        return 2
    tracer = absent = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        absent = tracer.install()
    import sectorlab.cli

    codes, seconds = [], []
    for call in spec["calls"]:
        t = time.perf_counter()
        try:
            code = sectorlab.cli.main(call + ["--out", spec["out"]])
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # one failed call must not hide the others
            print(f"{' '.join(call)}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = f"{type(exc).__name__}: {exc}"
        codes.append(code)
        seconds.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
        "call_s": seconds,
        "env": _environment(sectorlab),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["absent"] = absent
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
