"""Benchmark worker: one fresh process per pass, so every memo cache of the
program starts empty.

Protocol on stdin/stdout, one JSON document per line:
  1. after its imports the worker prints {"imports": {...}, "stamp": {...}};
     the parent times spawn-to-this-line as the set-up time;
  2. it reads {"tasks": [argv, ...], "cacheable": [bool, ...],
     "warm_seconds": float, "warm_rounds": int, "trace": bool}; an empty
     line (a set-up probe) makes it exit instead;
  3. it runs the tasks through `heckechain.cli.main`, one after another,
     then replays every cacheable task, in task order, in rounds against the
     cache the tasks filled: at least `warm_rounds` rounds, and more until
     `warm_seconds` have passed; it prints one result document.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import numpy  # noqa: E402

_t1 = time.perf_counter()
import sympy  # noqa: E402

_t2 = time.perf_counter()
import heckechain.cli  # noqa: E402

_t3 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _run_task(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = heckechain.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:]}


def _run(job: dict) -> dict:
    tracer = originals = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
    results = []
    wall = cpu = 0.0
    gc.collect()
    for argv in job["tasks"]:
        c, t = time.process_time(), time.perf_counter()
        results.append(_run_task(argv))
        wall += time.perf_counter() - t
        cpu += time.process_time() - c
    # Each round replays every cacheable call once; a round's wall time is one
    # warm sample.  The rounds run for a fixed time, so that the samples span
    # the host's slow drifts in speed, not one instant.
    warm = [(argv, r) for argv, r, c in zip(job["tasks"], results, job["cacheable"]) if c]
    rounds = []
    end = time.perf_counter() + job["warm_seconds"]
    while warm and (len(rounds) < job["warm_rounds"] or time.perf_counter() < end):
        t = time.perf_counter()
        for argv, r in warm:
            again = _run_task(argv)
            r["replays"] = r.get("replays", 0) + 1
            if (again["rc"], again["out"]) != (r["rc"], r["out"]):
                r["replay_differs"] = True
        rounds.append(time.perf_counter() - t)
    doc = {
        "results": results,
        "wall_s": wall,
        "warm_rounds_s": rounds,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        doc["trace"] = tracing.metrics(tracer)
        doc["unbound"] = tracing.unbound_aliases(originals)
        doc["sieve_hits"] = tracer.sieve_hits
    return doc


def main() -> int:
    ready = {
        "imports": {
            "numpy_s": _t1 - _t0,
            "sympy_s": _t2 - _t1,
            "heckechain_s": _t3 - _t2,
        },
        "stamp": {
            "module": heckechain.cli.__file__,
            "kernel_lane": heckechain._kernels.KERNEL_PATH,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "sympy": sympy.__version__,
        },
    }
    print(json.dumps(ready), flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    print(json.dumps(_run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
