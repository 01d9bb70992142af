"""Time the public mod-p kernels.

Each row is the best of N calls of one kernel on a fixed input.

Usage: python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from heckechain import _kernels
from heckechain.arith import crt_pair, legendre, primes_up_to
from heckechain.modsym import P1List, merel_matrices


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_rref(repeats):
    rng = np.random.default_rng(2)
    rows = []
    for n in (128, 256, 512):
        a = rng.integers(0, 10007, size=(n, n)).astype(np.int64)
        t = best_of(lambda: _kernels.rref_mod(a.copy(), 10007), repeats)
        rows.append((f"rref_mod {n}x{n}", t))
    return rows


def bench_hecke(repeats):
    N, k, ell, q = 97, 4, 13, 31
    p1 = P1List(N)
    mats = np.array(merel_matrices(q), dtype=np.int64)
    n = len(p1) * (k - 1)

    def accum():
        acc = np.zeros((n, n), dtype=np.int64)
        _kernels.hecke_accum(acc, mats, p1.table, p1.reps, k, N, ell)

    label = f"hecke_accum N={N} k={k} q={q} ({mats.shape[0]} mats)"
    return [(label, best_of(accum, repeats))]


def bench_sieve(repeats):
    p = 109
    ells = [l for l in primes_up_to(101) if l != 2]
    qr_off, qr_flat = [], []
    for l in ells:
        qr_off.append(len(qr_flat))
        qr_flat.extend(1 if r and legendre(r, l) == 1 else 0 for r in range(l))
    ells_a = np.array(ells, dtype=np.int64)
    flat_a = np.array(qr_flat, dtype=np.int64)
    off_a = np.array(qr_off, dtype=np.int64)
    x0, step = crt_pair(1, 8, p - 1, p)
    count = 1 << 17

    # The wheel is memoised, so best-of timing reports the scan, not the
    # one-off wheel build.
    def scan():
        _kernels.sieve_scan(x0, step, 0, count, ells_a, flat_a, off_a)

    return [(f"sieve_scan window={count} primes<=101", best_of(scan, repeats))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    rows = bench_rref(args.repeats) + bench_hecke(args.repeats) + bench_sieve(args.repeats)
    width = max(len(label) for label, _ in rows)
    for label, t in rows:
        print(f"{label:<{width}}  {t * 1e3:9.2f} ms")


if __name__ == "__main__":
    main()
