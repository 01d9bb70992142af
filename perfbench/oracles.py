"""Output checks that share no code with the program.

Each check reads a task's stdout and tests it against mathematics computed
here from first principles: the dimension formula for S_k(Gamma0(N)), the
coefficients of Delta = q prod (1 - q^n)^24, and the defining conditions of a
good-dihedral pair (Euler's criterion, with sympy's primality test).
"""

from __future__ import annotations

import re
from math import gcd, prod

import sympy

# Criterion-6 findings of the acceptance suite: level -> (classes, certified
# edges, components, dropped characteristics) of `graph N 2 --lmax 50`.
DISCONNECTED_LEVELS = {
    37: (2, 0, 2, [2, 3, 37]),
    43: (2, 0, 2, [2, 3, 43]),
    53: (2, 0, 2, [2, 3]),
    61: (2, 0, 2, [2, 3]),
    67: (3, 1, 2, [2, 3]),
}


def dim_cusp_forms(N: int, k: int) -> int:
    """dim S_k(Gamma0(N)) for even k >= 2 from the genus formula."""
    ps = [int(p) for p in sympy.primefactors(N)]
    mu = N
    for p in ps:
        mu = mu // p * (p + 1)
    nu2 = 0 if N % 4 == 0 else prod(1 + _kronecker(-4, p) for p in ps)
    nu3 = 0 if N % 9 == 0 else prod(1 + _kronecker(-3, p) for p in ps)
    cusps = sum(int(sympy.totient(gcd(d, N // d))) for d in sympy.divisors(N))
    # 12 * genus, kept integral
    g12 = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * cusps
    if k == 2:
        return g12 // 12
    return (k - 1) * (g12 - 12) // 12 + (k // 2 - 1) * cusps + nu2 * (k // 4) + nu3 * (k // 3)


def _kronecker(d: int, p: int) -> int:
    """Kronecker symbol (d/p) for a discriminant d and a prime p."""
    if d % p == 0:
        return 0
    if p == 2:
        return 1 if d % 8 in (1, 7) else -1
    return 1 if pow(d % p, (p - 1) // 2, p) == 1 else -1


def tau(n_max: int) -> list[int]:
    """tau(0..n_max) from the product expansion of Delta."""
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1  # prod (1 - q^n)^24, truncated
    for n in range(1, n_max + 1):
        for _ in range(24):
            for i in range(n_max, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
    return [0] + coeffs[: n_max]


# -- parsing ------------------------------------------------------------------

_ORBIT = re.compile(r"^orbit (\S+) degree=(\d+) multiplicity=(\d+) ")
_EIGEN = re.compile(r"^  a\[(\d+)\]=(\[.*\])$")
_PAIR = re.compile(r"pair p=(\d+) q=(\d+)")


def parse_orbits(text: str) -> list[dict]:
    orbits = []
    for line in text.splitlines():
        m = _ORBIT.match(line)
        if m:
            orbits.append(
                {"label": m[1], "degree": int(m[2]), "mult": int(m[3]), "a": {}}
            )
            continue
        m = _EIGEN.match(line)
        if m and orbits:
            orbits[-1]["a"][int(m[1])] = [int(x) for x in m[2].strip("[]").split(",")]
    return orbits


# -- checks -------------------------------------------------------------------


def check_orbits(argv: list[str], text: str) -> list[str]:
    N, k, ell = (int(x) for x in argv[1:4])
    orbits = parse_orbits(text)
    problems = []
    total = sum(o["degree"] * o["mult"] for o in orbits)
    if total != dim_cusp_forms(N, k):
        problems.append(
            f"sum of degree x multiplicity is {total}, dim S_{k}(Gamma0({N})) is "
            f"{dim_cusp_forms(N, k)}"
        )
    if k == 12 and N > 1:
        # Delta is an old form at every level; its orbit carries tau(q) mod ell.
        t = tau(max([2, *(q for o in orbits for q in o["a"])]))
        if not any(
            o["degree"] == 1
            and o["a"]
            and all(v[0] == t[q] % ell and not any(v[1:]) for q, v in o["a"].items())
            for o in orbits
        ):
            problems.append(f"no orbit reproduces tau(q) mod {ell}")
    return problems


def good_pair_problems(p: int, q: int, bound: int) -> list[str]:
    problems = []
    if not (sympy.isprime(p) and p > bound and p % 4 == 1):
        problems.append(f"p={p} is not a prime above {bound} with p = 1 mod 4")
    if not (sympy.isprime(q) and q % p == p - 1 and q % 8 == 1):
        problems.append(f"q={q} is not a prime with q = -1 mod {p} and q = 1 mod 8")
    for ell in sympy.primerange(3, bound):
        if pow(ell, (q - 1) // 2, q) != 1:
            problems.append(f"{ell} is not a square mod q={q}")
            break
    return problems


def check_pairs(argv: list[str], text: str) -> list[str]:
    bound = int(argv[argv.index("--bound") + 1])
    pairs = [(int(p), int(q)) for p, q in _PAIR.findall(text)]
    if not pairs:
        return ["no good-dihedral pair in the output"]
    problems = []
    for p, q in sorted(set(pairs)):
        problems += good_pair_problems(p, q, bound)
    return problems


def check_graph(argv: list[str], text: str) -> list[str]:
    N = int(argv[1])
    lines = text.splitlines()
    connected = "connected yes" in lines
    if N not in DISCONNECTED_LEVELS:
        if sympy.isprime(N) and argv[2] == "2" and not connected:
            return [f"prime level {N} is not connected"]
        return []
    classes, edges, components, dropped = DISCONNECTED_LEVELS[N]
    got = (
        len(next(line for line in lines if line.startswith("nodes ")).split()) - 1,
        sum(line.startswith("edge ") for line in lines),
        sum(line.startswith("component ") for line in lines),
        [int(line.split()[1].rstrip(":")) for line in lines if line.startswith("dropped ")],
    )
    if connected or got != (classes, edges, components, dropped):
        return [f"level {N} finding {got} differs from the pinned {DISCONNECTED_LEVELS[N]}"]
    return []


def check(argv: list[str], text: str) -> list[str]:
    """Problems found in one task's stdout; empty when it passes."""
    command = argv[0]
    if command == "orbits":
        return check_orbits(argv, text)
    if command in ("good-dihedral", "plan", "connect"):
        return check_pairs(argv, text)
    if command == "graph" and argv[2:] == ["2", "--lmax", "50"]:
        return check_graph(argv, text)
    return []
