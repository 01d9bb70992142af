"""Time the public mod-p kernels and the extension-field arithmetic.

Each row is the best of N calls of one kernel on a fixed input; the
``heilbronn_matrices`` row enumerates Cremona's matrices for T_97 past the
memo, and the ``hecke_accum`` row scatters those for T_31; the
``hecke_on_quotient`` row times T_q on a built space, the per-operator work
the program does (the kernel on the source reps and the projection); the
``ModularSymbolSpace`` rows build 67.2.13 and 389.2.7 with the (N, k)
presentation memoised (the work mod ell) and with the memo cleared first; a
``FiniteField.mul`` row times a batch of 1000 multiplies of seeded random
element pairs, the ``FiniteField.inv`` row 100 inverses of seeded random
nonzero elements, and the ``pow_mod`` row raises a seeded degree-18 polynomial
to the power (7^18 - 1)/2 modulo a seeded monic degree-18 polynomial that
does not lie over F_7.  The ``one_root`` row finds a root in F_7^18 of
a seeded irreducible of degree 18 over F_7, the shape of the root on the
degree-18 orbit of 389.2.7, and the ``gcd`` row takes the gcd of two seeded
degree-18 polynomials over F_7^18.  The
``charpoly_mod`` row is one seeded random 40 x 40 matrix over F_7, the
``polys.factor`` row one seeded random monic degree-30 polynomial over F_13,
the ``P1List`` row builds P^1(Z/389), and the ``distinct_degree`` row splits
the product of two seeded monic irreducibles of degree 18 over F_7.  The
``decompose`` row splits 389.2.7 into its orbits with the space memoised
(its Hecke matrices too) and the decomposition memo cleared first: the
block restrictions, charpolys and factorings on the plus part.

Usage: python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import random
import time

import numpy as np

from heckechain import _kernels, eigensystems, matrix, polys
from heckechain.arith import crt_pair, primes_up_to
from heckechain.gf import field
from heckechain.mlt import MAX_WINDOW
from heckechain.modsym import (
    ModularSymbolSpace,
    P1List,
    _presentation,
    heilbronn_matrices,
    symbol_space,
)


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
    mats = heilbronn_matrices(q)
    n = len(p1) * (k - 1)

    def accum():
        acc = np.zeros((n, n), dtype=np.int64)
        _kernels.hecke_accum(acc, mats, p1.table, p1.reps, k, N, ell)

    label = f"hecke_accum N={N} k={k} q={q} ({mats.shape[0]} mats)"
    space = ModularSymbolSpace(N, k, ell)
    quotient = f"hecke_on_quotient {N}.{k}.{ell} q={q}"
    return [
        (label, best_of(accum, repeats)),
        (quotient, best_of(lambda: space.hecke_on_quotient(q), repeats)),
    ]


def bench_heilbronn(repeats):
    # The memo is bypassed, so each call enumerates the set.
    q = 97
    count = heilbronn_matrices(q).shape[0]
    t = best_of(lambda: heilbronn_matrices.__wrapped__(q), repeats)
    return [(f"heilbronn_matrices q={q} ({count} mats)", t)]


def bench_space(repeats):
    rows = []
    for N, k, ell in ((67, 2, 13), (389, 2, 7)):
        _presentation(N, k)

        def cold():
            _presentation.cache_clear()
            ModularSymbolSpace(N, k, ell)

        label = f"ModularSymbolSpace {N}.{k}.{ell} presentation"
        rows.append((f"{label} warm", best_of(lambda: ModularSymbolSpace(N, k, ell), repeats)))
        rows.append((f"{label} cold", best_of(cold, repeats)))
    return rows


def bench_decompose(repeats):
    N, k, ell = 389, 2, 7
    symbol_space(N, k, ell)

    def split():
        eigensystems._DECOMPOSE_CACHE.clear()
        eigensystems.decompose(N, k, ell)

    return [(f"decompose {N}.{k}.{ell} space memoised", best_of(split, repeats))]


def bench_sieve(repeats):
    p = 109
    ells = [l for l in primes_up_to(101) if l != 2]
    x0, step = crt_pair(1, 8, p - 1, p)
    count = MAX_WINDOW

    # The wheel is memoised, so best-of timing reports the scan, not the
    # one-off wheel build.
    def scan():
        _kernels.sieve_scan(x0, step, 0, count, ells)

    return [(f"sieve_scan window={count} primes<=101", best_of(scan, repeats))]


def bench_field_mul(repeats):
    rows = []
    for p, d in ((7, 18), (13, 4), (101, 4)):
        F = field(p, d)
        rng = random.Random(p * 100 + d)
        pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(1000)]

        def batch():
            for a, b in pairs:
                F.mul(a, b)

        rows.append((f"FiniteField.mul F_{p}^{d} x1000", best_of(batch, repeats)))
    return rows


def bench_field_inv(repeats):
    F = field(7, 18)
    rng = random.Random(718)
    elements = [rng.randrange(1, F.order) for _ in range(100)]

    def batch():
        for a in elements:
            F.inv(a)

    return [("FiniteField.inv F_7^18 x100", best_of(batch, repeats))]


def bench_pow_mod(repeats):
    # A Cantor-Zassenhaus power modulo a degree-18 polynomial over F_7^18 that
    # does not lie over F_7; `one_root` on an orbit's minimal polynomial takes
    # its powers through the norm instead (the `one_root` row).
    F = field(7, 18)
    rng = random.Random(718)
    m = tuple(rng.randrange(F.order) for _ in range(18)) + (1,)
    a = tuple(rng.randrange(F.order) for _ in range(18)) + (rng.randrange(1, F.order),)
    e = (F.order - 1) // 2
    return [("pow_mod F_7^18 deg 18", best_of(lambda: polys.pow_mod(F, a, e, m), repeats))]


def bench_one_root(repeats):
    F, Fp = field(7, 18), field(7)
    rng = random.Random(718)
    f: tuple[int, ...] = ()
    while not polys.is_irreducible(Fp, f):
        f = tuple(rng.randrange(7) for _ in range(18)) + (1,)
    return [("one_root F_7^18 deg 18", best_of(lambda: polys.one_root(F, f), repeats))]


def bench_gcd(repeats):
    F = field(7, 18)
    rng = random.Random(1807)
    f, g = (tuple(rng.randrange(F.order) for _ in range(18)) + (1,) for _ in range(2))
    return [("gcd F_7^18 deg 18", best_of(lambda: polys.gcd(F, f, g), repeats))]


def bench_charpoly(repeats):
    a = np.random.default_rng(40).integers(0, 7, size=(40, 40)).astype(np.int64)
    return [("charpoly_mod 40x40 F_7", best_of(lambda: matrix.charpoly_mod(a, 7), repeats))]


def bench_factor(repeats):
    F = field(13)
    rng = random.Random(1330)
    f = tuple(rng.randrange(13) for _ in range(30)) + (1,)
    return [("polys.factor deg-30 F_13", best_of(lambda: polys.factor(F, f), repeats))]


def bench_p1(repeats):
    return [("P1List 389", best_of(lambda: P1List(389), repeats))]


def bench_distinct_degree(repeats):
    # Degree 36 with both factors of degree 18: the distinct-degree loop runs
    # all 18 Frobenius steps before it splits anything off.
    F = field(7)
    rng = random.Random(718)
    f = (1,)
    while polys.degree(f) < 36:
        g = tuple(rng.randrange(7) for _ in range(18)) + (1,)
        if polys.is_irreducible(F, g) and polys.gcd(F, f, g) == (1,):
            f = polys.mul(F, f, g)
    return [("distinct_degree 2 x deg 18 F_7", best_of(lambda: polys.distinct_degree(F, f), repeats))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    rows = (
        bench_rref(args.repeats)
        + bench_heilbronn(args.repeats)
        + bench_hecke(args.repeats)
        + bench_space(args.repeats)
        + bench_decompose(args.repeats)
        + bench_sieve(args.repeats)
        + bench_field_mul(args.repeats)
        + bench_field_inv(args.repeats)
        + bench_pow_mod(args.repeats)
        + bench_one_root(args.repeats)
        + bench_gcd(args.repeats)
        + bench_charpoly(args.repeats)
        + bench_factor(args.repeats)
        + bench_p1(args.repeats)
        + bench_distinct_degree(args.repeats)
    )
    width = max(len(label) for label, _ in rows)
    for label, t in rows:
        print(f"{label:<{width}}  {t * 1e3:9.2f} ms")


if __name__ == "__main__":
    main()
