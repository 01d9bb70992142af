"""heckechain benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of `orbits-deep`, `survey`,
`planner` or `all`.  A pass runs the workload's seeded CLI calls, one after
another, through `heckechain.cli.main` in a fresh worker process (a closed
loop with one client, one process and no extra threads), against an empty
cache directory.  After the cold calls, the worker replays the cacheable
calls in rounds against the cache they filled; a round's time is one warm
sample.  Passes repeat until S seconds are used, at least one.  Every
output is checked: byte for byte against the outputs recorded in
`perfbench/expected/`, against the oracles in `oracles.py`, and cold
against warm.

With --trace 0 the last line holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 one untraced and one traced pass give the per-layer metrics.
`--record` rewrites the expected outputs from the current program.
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

import sympy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("orbits-deep", "survey", "planner")
DEFAULT_SEED = 0
# Set-up is sampled by probe workers before and after the passes and by
# every pass worker, so that its median spans the whole run.
SETUP_PROBES = 4
SETUP_SAMPLES = 8
# After its cold calls each pass replays its cacheable calls in rounds for
# this long, at least WARM_ROUNDS_MIN rounds.  A warm call takes a few
# milliseconds and the host's speed drifts over seconds, so the rounds must
# span seconds, not one instant, for a steady median.
WARM_PHASE_S = 5.0
WARM_ROUNDS_MIN = 5
RUN_LIMIT_S = 170.0

# Layers whose spans every traced run of the workload must record.
EXPECTED_LAYERS = {
    "orbits-deep": [
        "cli.self", "store.get", "store.put", "modsym.build", "modsym.hecke_matrix",
        "kernels.hecke_accum", "kernels.rref_mod", "kernels.matmul_mod",
        "matrix.prime", "matrix.ext", "polys.factor", "polys.roots",
        "eigensystems.decompose", "eigensystems.construct", "eigensystems.a",
        "images.classify",
    ],
    "survey": [
        "cli.self", "store.get", "store.put", "modsym.build", "modsym.hecke_matrix",
        "kernels.hecke_accum", "kernels.rref_mod", "kernels.matmul_mod",
        "matrix.prime", "polys.factor", "polys.roots", "eigensystems.decompose",
        "eigensystems.construct", "eigensystems.a", "lifting.lift",
        "lifting.sympy_factor", "congruence.check", "images.classify", "mlt.verdict",
        "graph.mazur_report", "graph.chain_search",
    ],
    "planner": [
        "cli.self", "store.get", "store.put", "kernels.sieve_scan",
        "mlt.find_good_dihedral", "planner.plan",
    ],
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- workers ------------------------------------------------------------------


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("HECKECHAIN_CACHE_DIR", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(job: dict | None, cwd: Path, deadline: float) -> tuple[float, dict, dict | None]:
    """Start a worker, time it until it is ready, run ``job`` in it.

    Returns (set-up seconds, ready document, result document or None)."""
    errpath = cwd / "worker.err"
    with open(errpath, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            cwd=cwd, env=_worker_env(), text=True,
        )
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            payload = "" if job is None else json.dumps(job) + "\n"
            out, _ = proc.communicate(payload, timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker exceeded the run's time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not line or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {errpath.read_text()[-1500:]}")
    ready = json.loads(line)
    module = Path(ready["stamp"]["module"]).resolve()
    if ROOT / "src" not in module.parents:
        raise BenchError(f"worker imported heckechain from {module}, not from this checkout")
    return setup, ready, (json.loads(out) if job is not None else None)


class Run:
    """Everything one invocation measured and every problem it found."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.tasks, self.files = workloads.build(workload, seed)
        self.expected = _load_expected(workload)
        self.setup: list[float] = []
        self.imports: list[dict] = []
        self.stamp: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.byte_checked = 0
        self._n = 0

    def _spawn(self, job, cwd):
        setup, ready, result = spawn(job, cwd, self.deadline)
        self.setup.append(setup)
        self.imports.append(ready["imports"])
        self.stamp = ready["stamp"]
        return result

    def probe(self) -> None:
        d = self.work / "probe"
        d.mkdir(exist_ok=True)
        self._spawn(None, d)

    def run_pass(self, trace: bool) -> dict:
        """One pass, the cold calls with their warm replays, in a fresh worker
        and a fresh cache directory."""
        self._n += 1
        d = self.work / f"pass{self._n}"
        d.mkdir()
        for name, text in self.files.items():
            (d / name).write_text(text)
        t0 = time.perf_counter()
        job = {
            "tasks": [["--cache-dir", "cache", *argv] for argv in self.tasks],
            "cacheable": [workloads.cacheable(argv) for argv in self.tasks],
            "warm_seconds": 0.0 if trace else WARM_PHASE_S,
            "warm_rounds": 1 if trace else WARM_ROUNDS_MIN,
            "trace": trace,
        }
        result = self._spawn(job, d)
        duration = time.perf_counter() - t0
        shutil.rmtree(d)
        self._check(result)
        return {"result": result, "duration": duration}

    def _fail(self, task, message):
        self.failed += 1
        self.problems.append(f"{workloads.task_id(task)}: {message}")

    def _check(self, result):
        for task, r in zip(self.tasks, result["results"]):
            self.attempted += 1 + bool(r.get("replays"))
            tid = workloads.task_id(task)
            if r.get("replay_differs"):
                self._fail(task, "warm replay differs from the cold call")
            if r["rc"] != 0:
                self._fail(task, f"exit {r['rc']}: {r['err'].strip()[-300:]}")
                continue
            problems = oracles.check(task, r["out"])
            if tid in self.expected:
                self.byte_checked += 1
                if r["out"] != self.expected[tid]:
                    problems.append("stdout differs from the recorded output")
            if problems:
                self._fail(task, "; ".join(problems))
        if result.get("unbound"):
            self.problems.append("tracing left unwrapped aliases: " + ", ".join(result["unbound"]))


def _load_expected(workload: str) -> dict[str, str]:
    path = HERE / "expected" / f"{workload}.json"
    if not path.exists():
        raise BenchError(f"missing expected outputs {path}")
    return json.loads(path.read_text())["outputs"]


# -- metrics ------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, passes: list[dict]) -> dict[str, tuple[float, int]]:
    """(median, sample count) of each end-to-end metric."""
    walls = [p["result"]["wall_s"] for p in passes]
    warms = [w for p in passes for w in p["result"]["warm_rounds_s"]]
    rss = [p["result"]["peak_rss_kb"] / 1024 for p in passes]
    return {
        "setup_s": (_median(run.setup), len(run.setup)),
        "wall_s": (_median(walls), len(walls)),
        "warm_s": (_median(warms), len(warms)),
        "peak_rss_mb": (_median(rss), len(rss)),
        "failed_frac": (run.failed / max(run.attempted, 1), run.attempted),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(run: Run, plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (cold calls plus one warm round,
    a replay of each cacheable call)."""
    result = traced["result"]
    hits = result["sieve_hits"]
    g = result["trace"].get
    wall = result["wall_s"]
    warm = sum(result["warm_rounds_s"])
    m = {
        "cli.self_s": g("cli.self_s"),
        "store.get.calls": g("store.get.calls"),
        "store.get.hit_ratio": _ratio(g("store.get.hits", 0), g("store.get.calls")),
        "store.get_s": g("store.get_s"),
        "store.put.calls": g("store.put.calls"),
        "store.put_s": g("store.put_s"),
        "store.put.bytes": g("store.put.bytes", 0),
        "modsym.spaces_built": g("modsym.build.calls"),
        "modsym.build_s": g("modsym.build_s"),
        "modsym.hecke_matrix.calls": g("modsym.hecke_matrix.calls"),
        "modsym.hecke_matrix.computed": g("modsym.hecke_matrix.computed", 0),
        "modsym.hecke_matrix_s": g("modsym.hecke_matrix_s"),
        "kernels.hecke_accum.calls": g("kernels.hecke_accum.calls"),
        "kernels.hecke_accum_s": g("kernels.hecke_accum_s"),
        "kernels.hecke_accum.terms": g("kernels.hecke_accum.terms", 0),
        "kernels.rref_mod.calls": g("kernels.rref_mod.calls"),
        "kernels.rref_mod_s": g("kernels.rref_mod_s"),
        "kernels.rref_mod.cells": g("kernels.rref_mod.cells", 0),
        "kernels.matmul_mod_s": g("kernels.matmul_mod_s"),
        "kernels.sieve_scan.calls": g("kernels.sieve_scan.calls"),
        "kernels.sieve_scan_s": g("kernels.sieve_scan_s"),
        "kernels.sieve_scan.candidates": g("kernels.sieve_scan.candidates", 0),
        "kernels.sieve_scan.hits": g("kernels.sieve_scan.hits", 0),
        "kernels.sieve_scan.saturated": g("kernels.sieve_scan.saturated", 0),
        "matrix.prime.calls": g("matrix.prime.calls"),
        "matrix.prime_s": g("matrix.prime_s"),
        "matrix.ext.calls": g("matrix.ext.calls"),
        "matrix.ext_s": g("matrix.ext_s"),
        "polys.factor.calls": g("polys.factor.calls"),
        "polys.factor_s": g("polys.factor_s"),
        "polys.roots.calls": g("polys.roots.calls"),
        "polys.roots_s": g("polys.roots_s"),
        "polys.embeddings_s": g("polys.embeddings_s"),
        "eigensystems.decompose.calls": g("eigensystems.decompose.calls"),
        "eigensystems.decompose.computed": g("eigensystems.decompose.computed", 0),
        "eigensystems.decompose.reuse_ratio": 1.0 - _ratio(
            g("eigensystems.decompose.computed", 0), g("eigensystems.decompose.calls")
        ) if g("eigensystems.decompose.calls") else 0.0,
        "eigensystems.decompose_s": g("eigensystems.decompose_s"),
        "eigensystems.orbits": g("eigensystems.construct.calls"),
        "eigensystems.construct_s": g("eigensystems.construct_s"),
        "eigensystems.a.calls": g("eigensystems.a.calls"),
        "eigensystems.a_s": g("eigensystems.a_s"),
        "eigensystems.extensions": g("eigensystems.extensions", 0),
        "eigensystems.max_field_degree": g("eigensystems.max_field_degree"),
        "lifting.lift_charpoly.calls": g("lifting.lift.calls"),
        "lifting.lift_s": g("lifting.lift_s"),
        "lifting.crt_primes_tried": g("lifting.crt_primes_tried", 0),
        "lifting.crt_primes_dropped": g("lifting.crt_primes_dropped", 0),
        "lifting.crt_useful_ratio": 1.0 - _ratio(
            g("lifting.crt_primes_dropped", 0), g("lifting.crt_primes_tried", 0)
        ) if g("lifting.crt_primes_tried", 0) else 0.0,
        "lifting.integral_classes.computed": g("lifting.integral_classes.computed", 0),
        "lifting.rational_table.calls": g("lifting.rational_table.calls", 0),
        "lifting.sympy_factor_s": g("lifting.sympy_factor_s"),
        "congruence.checks": g("congruence.check.calls"),
        "congruence.certified_ratio": _ratio(g("congruence.certified", 0), g("congruence.check.calls")),
        "congruence.check_s": g("congruence.check_s"),
        "images.classify.calls": g("images.classify.calls"),
        "images.classify_s": g("images.classify_s"),
        "mlt.find_good_dihedral.calls": g("mlt.find_good_dihedral.calls"),
        "mlt.find_good_dihedral_s": g("mlt.find_good_dihedral_s"),
        "mlt.sieve.prime_ratio": _ratio(sum(1 for h in hits if sympy.isprime(h)), len(hits)),
        "mlt.verdict_s": g("mlt.verdict_s"),
        "graph.mazur_report.calls": g("graph.mazur_report.calls"),
        "graph.mazur_report_s": g("graph.mazur_report_s"),
        "graph.chain_search_s": g("graph.chain_search_s"),
        "planner.plans": g("planner.plans", 0),
        "planner.steps": g("planner.steps", 0),
        "planner.connect.calls": g("planner.connect.calls", 0),
        "planner.plan_s": g("planner.plan_s"),
        "process.cpu_s": plain["result"]["cpu_s"],
        "setup.numpy_import_s": _median([i["numpy_s"] for i in run.imports]),
        "setup.sympy_import_s": _median([i["sympy_s"] for i in run.imports]),
        "setup.heckechain_import_s": _median([i["heckechain_s"] for i in run.imports]),
        "trace.wall_s": wall,
        "trace.warm_s": warm,
        "trace.untraced_s": wall + warm - g("root_s"),
        "trace.overhead_s": wall - plain["result"]["wall_s"],
    }
    self_sum = sum(g(f"{b}_s") for b in tracing.BUCKETS)
    if abs(self_sum - g("root_s")) > 1e-6 * max(1.0, g("root_s")):
        run.problems.append(f"layer self times add to {self_sum}, outer spans cover {g('root_s')}")
    if m["trace.untraced_s"] < 0:
        run.problems.append("outer spans cover more than the traced wall time")
    for bucket in EXPECTED_LAYERS[run.workload]:
        if not g(f"{bucket}.calls"):
            run.problems.append(f"traced run recorded no {bucket} span")
    return m


# -- reporting ----------------------------------------------------------------


def stamp(run: Run) -> dict:
    src = sorted((ROOT / "src" / "heckechain").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()[:16]
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        rev = proc.stdout.strip() or None
    return {
        "workload": run.workload,
        "seed": run.seed,
        "git_revision": rev,
        "src_sha256": digest,
        "kernel_lane": run.stamp.get("kernel_lane"),
        "python": run.stamp.get("python"),
        "numpy": run.stamp.get("numpy"),
        "sympy": run.stamp.get("sympy"),
        "nproc": os.cpu_count(),
    }


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[Run, dict]:
    start = time.perf_counter()
    work = ROOT / ".bench_build" / "perfbench" / f"{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work, start + RUN_LIMIT_S)
        for _ in range(SETUP_PROBES):
            run.probe()
        if trace:
            plain = run.run_pass(trace=False)
            traced = run.run_pass(trace=True)
            if [r["out"] for r in plain["result"]["results"]] != [
                r["out"] for r in traced["result"]["results"]
            ]:
                run.problems.append("traced stdout differs from untraced stdout")
            values = per_layer(run, plain, traced)
            names = spec["per_layer"]
        else:
            passes = []
            deadline = time.perf_counter() + seconds
            while True:
                passes.append(run.run_pass(trace=False))
                now = time.perf_counter()
                if now + passes[-1]["duration"] > min(deadline, start + RUN_LIMIT_S - 10):
                    break
            while len(run.setup) < SETUP_SAMPLES:
                run.probe()
            e2e = end_to_end(run, passes)
            values = {k: v for k, (v, _) in e2e.items()}
            names = spec["end_to_end"]
            for name, (value, n) in e2e.items():
                if name == "failed_frac":
                    print(f"{workload:12s} {name:14s} {value:12.6f} ratio of {n} task runs")
                else:
                    unit = "MB" if name == "peak_rss_mb" else "s"
                    print(f"{workload:12s} {name:14s} {value:12.6f} {unit:5s} median of {n}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for entry in names:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    if trace:
        for name, v in metrics.items():
            print(f"{workload:12s} {name:38s} {v['value']:16.6f} {v['unit']}")
    print(f"{workload:12s} checks: {run.attempted} task runs, {run.failed} failed, "
          f"{run.byte_checked} compared byte for byte with recorded output")
    for problem in run.problems[:20]:
        print(f"{workload:12s} PROBLEM {problem}", file=sys.stderr)
    print("stamp " + json.dumps(stamp(run), sort_keys=True))
    return run, metrics


def record(workload: str) -> None:
    """Rewrite perfbench/expected/<workload>.json from the current program:
    every pool task plus the default seed's tasks."""
    tasks, files = workloads.build(workload, DEFAULT_SEED)
    ids = {workloads.task_id(t) for t in tasks}
    tasks += [t for t in workloads.pool(workload) if workloads.task_id(t) not in ids]
    work = ROOT / ".bench_build" / "perfbench" / f"record-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name, text in files.items():
            (work / name).write_text(text)
        job = {"tasks": [["--cache-dir", "cache", *argv] for argv in tasks],
               "cacheable": [False] * len(tasks), "warm_seconds": 0.0, "warm_rounds": 0,
               "trace": False}
        _, _, result = spawn(job, work, time.perf_counter() + 3600)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outputs = {}
    for task, r in zip(tasks, result["results"]):
        problems = oracles.check(task, r["out"])
        if r["rc"] != 0 or problems:
            raise BenchError(f"{workloads.task_id(task)} fails: rc={r['rc']} {problems} {r['err']}")
        outputs[workloads.task_id(task)] = r["out"]
    path = HERE / "expected" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    doc = {"seed": DEFAULT_SEED, "outputs": dict(sorted(outputs.items()))}
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(outputs)} outputs in {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "heckechain" / "cli.py").exists():
            raise BenchError(f"no heckechain sources under {ROOT / 'src'}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.record:
            for name in names:
                record(name)
            return 0
        spec = _load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            run, m = measure(name, args.seed, seconds, bool(args.trace), spec)
            correct &= run.failed == 0 and not run.problems
            attempted += run.attempted
            failed += run.failed
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
