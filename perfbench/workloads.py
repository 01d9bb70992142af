"""Seeded task lists for the three benchmark workloads.

A task is the argv of one ``heckechain`` CLI call, run with the pass
directory as working directory so that every path in it is relative and the
same on every run.  Fixed anchors run first, then the seed's draws from the
pools (the planner runs each bound's plans right after its anchor); the
program sees only the argv.

The pools hold entries of similar cost, so that a seed changes which inputs
the program sees more than how much work a pass does.  Task order is fixed
per workload: the program's bounded space cache evicts by recency, so a
shuffled order would change the work done.
"""

from __future__ import annotations

import hashlib
import json
import random

import sympy

CACHEABLE = ("space", "orbits", "congruences", "graph", "plan")

PRIMES_TO_67 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]

# -- orbits-deep --------------------------------------------------------------

# One large space per task.  `classify` queries stay on the level-97 orbits:
# the first classify on 389.2.7 builds T_q for every witness prime (about
# 20 s) and would push one pass past the time a run may take.
ORBIT_ANCHORS = [("389", "2", "7"), ("97", "4", "13")]
CLASSIFY_SPACE = ("97", "4", "13")
CLASSIFY_ORBITS = 3

# -- survey -------------------------------------------------------------------

# Pools of similar cost; the graph levels cost 0.1-0.4 s each after the
# prime-level sweep.
COMPOSITE_LEVELS = [22, 26, 28, 33, 34, 35, 39]
CONGRUENCE_PAIRS = [
    ("5", "4", "7", "4"),
    ("3", "6", "2", "8"),
    ("2", "8", "1", "12"),
    ("4", "6", "5", "4"),
    ("6", "4", "8", "4"),
    ("1", "12", "2", "10"),
]
# Chains run around a seeded cycle through these classes.  `chain` lifts the
# source class to a table up to 50 and the target only to the comparison
# bound, so a cycle, in which each class is a source once, costs the same
# for every order while the argv differ.
CHAIN_CLASSES = ["5.4.0", "7.4.0", "3.6.0", "2.8.0"]
SPACE_CHARS = [5, 7, 11, 13]
WEIGHT12_CHARS = [13, 17, 19, 23, 29, 31]

# -- planner ------------------------------------------------------------------

# Distinct sieve costs (about 1, 5 and 1.5 s on the numpy lane).  Bound 101
# costs about 90 s per run on that lane and is left out until the sieve is
# fixed.
PLANNER_BOUNDS = [62, 70, 76]
PLAN_DESCRIPTORS = 12
CONNECT_PAIRS = 4


def _primes_below(n: int) -> list[int]:
    return [int(p) for p in sympy.primerange(2, n)]


def random_descriptor(rng: random.Random, bound: int) -> dict:
    """Descriptor document from the acceptance suite's planner-corpus
    generator, with conductor primes kept below ``bound``, redrawn until it
    lies in the planner's domain at ``bound``."""
    while True:
        doc = _draw_descriptor(rng, bound)
        if not doc["dihedral"] or _breaking_prime(doc, bound):
            return doc


def _breaking_prime(doc: dict, bound: int) -> int | None:
    """Prime s < bound outside the conductor with s = -1 mod m, where m is
    the least prime above 5 outside the conductor; a dihedral descriptor is
    planned only when one exists."""
    conductor = {int(q) for q in doc["conductor"]}
    primes = _primes_below(max(bound, 200))
    m = next(p for p in primes if p > 5 and p not in conductor)
    return next(
        (s for s in primes if s < bound and s % m == m - 1 and s not in conductor), None
    )


def _draw_descriptor(rng: random.Random, bound: int) -> dict:
    weight = rng.choice([2, 4, 6, 8, 10, 12])
    conductor = {}
    for q in rng.sample(_primes_below(bound), k=rng.randrange(0, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            conductor[q] = {"kind": "steinberg"}
        else:
            wild = rng.random() < 0.3
            order = rng.randrange(1, 19)
            if order == 1 and not wild:
                order = 2
            name = "principal-series" if kind == 1 else "supercuspidal"
            conductor[q] = {"kind": name, "char_order": order, "wild": wild}
    dihedral = rng.random() < 0.3 and not any(
        t["kind"] == "steinberg" for t in conductor.values()
    )
    return {
        "weight": weight,
        "conductor": {str(q): conductor[q] for q in sorted(conductor)},
        "dihedral": dihedral,
    }


def descriptor_file(doc: dict) -> tuple[str, str]:
    """(file name, contents); the name is a digest of the contents, so a task
    argv names its input exactly."""
    text = json.dumps(doc, sort_keys=True)
    return f"d-{hashlib.sha256(text.encode()).hexdigest()[:12]}.json", text


def _chain(src: str, dst: str, mlt_only: bool) -> list[str]:
    return ["chain", src, dst, "--lmax", "13", *(["--mlt-only"] if mlt_only else [])]


def _anchors(workload: str) -> list[list[str]]:
    """The tasks every seed runs, first and in this order."""
    if workload == "orbits-deep":
        return [["orbits", *space] for space in ORBIT_ANCHORS]
    if workload == "survey":
        return [["graph", str(N), "2", "--lmax", "50"] for N in PRIMES_TO_67] + [
            ["congruences", "1", "12", "11", "2", "--lmax", "13"],
            ["chain", "1.12.0", "11.2.0", "--lmax", "13", "--mlt-only"],
        ]
    if workload == "planner":
        return [["good-dihedral", "--bound", str(b)] for b in PLANNER_BOUNDS]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int) -> tuple[list[list[str]], dict[str, str]]:
    """argv of each task of one pass, and the input files they read."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = _anchors(workload)
    files: dict[str, str] = {}
    if workload == "orbits-deep":
        for index in rng.sample(range(CLASSIFY_ORBITS), 2):
            tasks.append(["classify", *CLASSIFY_SPACE, str(index)])
    elif workload == "survey":
        for N in rng.sample(COMPOSITE_LEVELS, 3):
            ell = rng.choice([e for e in SPACE_CHARS if N % e])
            tasks += [["graph", str(N), "2", "--lmax", "50"], ["space", str(N), "2", str(ell)]]
        for pair in rng.sample(CONGRUENCE_PAIRS, 2):
            tasks.append(["congruences", *pair, "--lmax", "13"])
        cycle = rng.sample(CHAIN_CLASSES, len(CHAIN_CLASSES))
        for src, dst in zip(cycle, cycle[1:] + cycle[:1]):
            tasks.append(_chain(src, dst, rng.random() < 0.5))
        ell = str(rng.choice(WEIGHT12_CHARS))
        tasks += [["orbits", "1", "12", ell], ["orbits", "5", "12", ell]]
    else:
        # Each bound's plans follow its good-dihedral call.
        plans: dict[int, list[list[str]]] = {b: [] for b in PLANNER_BOUNDS}
        for _ in range(PLAN_DESCRIPTORS):
            bound = rng.choice(PLANNER_BOUNDS)
            name, text = descriptor_file(random_descriptor(rng, bound))
            files[name] = text
            plans[bound].append(["plan", name, "--bound", str(bound)])
        tasks = [t for anchor, b in zip(tasks, PLANNER_BOUNDS) for t in [anchor, *plans[b]]]
        bound = rng.choice(PLANNER_BOUNDS)
        for _ in range(CONNECT_PAIRS):
            pair = [descriptor_file(random_descriptor(rng, bound)) for _ in range(2)]
            files.update(pair)
            tasks.append(["connect", pair[0][0], pair[1][0], "--bound", str(bound)])
    return tasks, files


def pool(workload: str) -> list[list[str]]:
    """Every task that `build` can draw with a seed-independent argv; the
    expected-output file covers all of them."""
    tasks = _anchors(workload)
    if workload == "orbits-deep":
        tasks += [["classify", *CLASSIFY_SPACE, str(i)] for i in range(CLASSIFY_ORBITS)]
    elif workload == "survey":
        for N in COMPOSITE_LEVELS:
            tasks.append(["graph", str(N), "2", "--lmax", "50"])
            tasks += [["space", str(N), "2", str(ell)] for ell in SPACE_CHARS if N % ell]
        tasks += [["congruences", *p, "--lmax", "13"] for p in CONGRUENCE_PAIRS]
        tasks += [
            _chain(src, dst, mlt_only)
            for src in CHAIN_CLASSES
            for dst in CHAIN_CLASSES
            if src != dst
            for mlt_only in (False, True)
        ]
        for ell in WEIGHT12_CHARS:
            tasks += [["orbits", "1", "12", str(ell)], ["orbits", "5", "12", str(ell)]]
    return tasks


def task_id(argv: list[str]) -> str:
    return " ".join(argv)


def cacheable(argv: list[str]) -> bool:
    return argv[0] in CACHEABLE
