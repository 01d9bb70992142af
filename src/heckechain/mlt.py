"""Lifting-theorem checklists for congruence edges and good-dihedral pairs.

Each ``check_mlt*`` function grades one theorem's hypothesis list against an
:class:`EdgeContext` and reports every condition as passed, failed, or
assumed, so a chain audit can see exactly which steps are unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import DomainError, crt_pair, is_prime, next_prime, primes_up_to
from ._kernels import sieve_scan
from .images import ImageClass, is_adequate

PASS = "pass"
FAIL = "fail"
ASSUMED = "assumed"


@dataclass(frozen=True)
class EdgeContext:
    """Hypotheses available at one congruence edge.

    ``weights`` holds the two motivic weights being linked.  ``ordinary`` is
    a pair of flags (or None when unknown), ``fontaine_laffaille`` optionally
    overrides the computed peu-ramifie range check and must agree with it.
    """

    ell: int
    image: ImageClass
    weights: tuple[int, int]
    residually_modular: bool = True
    ordinary: tuple[bool, bool] | None = None
    good_dihedral: bool = False
    fontaine_laffaille: bool | None = None

    def __post_init__(self):
        if not is_prime(self.ell):
            raise DomainError(f"edge characteristic {self.ell} is not prime")


@dataclass(frozen=True)
class MltVerdict:
    theorem: int
    conditions: tuple[tuple[str, str], ...]
    applicable: bool
    assumption_used: bool


def _verdict(theorem: int, conditions: list[tuple[str, str]]) -> MltVerdict:
    statuses = [status for _, status in conditions]
    return MltVerdict(
        theorem=theorem,
        conditions=tuple(conditions),
        applicable=FAIL not in statuses,
        assumption_used=ASSUMED in statuses,
    )


def _restriction_status(image: ImageClass, ell: int) -> str:
    # Dihedral images stay irreducible over the ell-cyclotomic line unless the
    # quadratic field is the one ramified exactly at ell.
    if image.kind == "Large":
        return PASS
    if image.kind == "Dihedral":
        if image.parameter is None:
            return ASSUMED
        return FAIL if abs(image.parameter) == ell else PASS
    return FAIL


def check_mlt1(ctx: EdgeContext) -> MltVerdict:
    """Potentially semistable lifting: needs ell >= 5 and a residual image
    that stays irreducible after cyclotomic restriction."""
    conditions = [
        ("characteristic at least five", PASS if ctx.ell >= 5 else FAIL),
        ("base field splits", PASS),
        ("potentially semistable with distinct weights", ASSUMED),
        ("irreducible cyclotomic restriction", _restriction_status(ctx.image, ctx.ell)),
        ("residual modularity", PASS if ctx.residually_modular else FAIL),
    ]
    return _verdict(1, conditions)


def check_mlt2(ctx: EdgeContext) -> MltVerdict:
    """Ordinary lifting: adequate image plus ordinarity on both sides."""
    if ctx.ell == 2:
        adequacy = FAIL
    else:
        adequate = is_adequate(ctx.image, ctx.ell, good_dihedral=ctx.good_dihedral)
        adequacy = PASS if adequate else FAIL
    ordinary = ctx.ordinary is not None and tuple(ctx.ordinary) == (True, True)
    conditions = [
        ("adequate image", adequacy),
        ("ordinary pair", PASS if ordinary else FAIL),
        ("residual modularity", PASS if ctx.residually_modular else FAIL),
    ]
    return _verdict(2, conditions)


def check_mlt3(ctx: EdgeContext) -> MltVerdict:
    """Crystalline lifting in the Fontaine-Laffaille range max(k) <= ell - 1."""
    in_range = max(ctx.weights) <= ctx.ell - 1
    if ctx.fontaine_laffaille is not None and ctx.fontaine_laffaille != in_range:
        raise DomainError(
            f"fontaine-laffaille flag {ctx.fontaine_laffaille} contradicts "
            f"weights {ctx.weights[0]},{ctx.weights[1]} at {ctx.ell}"
        )
    if ctx.image.kind == "Reducible" or ctx.ell == 2:
        adequacy = FAIL
    elif ctx.ell >= 7:
        adequacy = PASS
    elif ctx.good_dihedral:
        adequacy = ASSUMED
    else:
        adequacy = FAIL
    conditions = [
        ("fontaine-laffaille range", PASS if in_range else FAIL),
        ("adequate image", adequacy),
        ("residual modularity", PASS if ctx.residually_modular else FAIL),
    ]
    return _verdict(3, conditions)


def check_mlt4(ctx: EdgeContext) -> MltVerdict | None:
    """Parallel weight two lifting; unconditional at odd ell, needs the
    good-dihedral crutch at ell = 2.  Not stated for reducible images."""
    if ctx.image.kind == "Reducible":
        return None
    conditions = [
        ("residual modularity", PASS if ctx.residually_modular else FAIL),
        ("parallel weight two", PASS if tuple(ctx.weights) == (2, 2) else ASSUMED),
    ]
    if ctx.ell == 2:
        conditions.append(
            ("adequate image at two", ASSUMED if ctx.good_dihedral else FAIL)
        )
    return _verdict(4, conditions)


def all_verdicts(ctx: EdgeContext) -> tuple[MltVerdict | None, ...]:
    return (check_mlt1(ctx), check_mlt2(ctx), check_mlt3(ctx), check_mlt4(ctx))


def best_verdict(ctx: EdgeContext) -> MltVerdict | None:
    """Applicable verdict with the fewest caveats; assumption-free wins over
    lower theorem number."""
    candidates = [v for v in all_verdicts(ctx) if v is not None and v.applicable]
    if not candidates:
        return None
    return min(candidates, key=lambda v: (v.assumption_used, v.theorem))


# -- good-dihedral pairs ------------------------------------------------------


@dataclass(frozen=True)
class GoodDihedralPair:
    p: int
    q: int


# Largest supported protection bound: the search for q grows steeply with it
# (cold on a 2-vCPU machine bound 113 takes about 3 s, 127 about 6 s and 139
# about 60 s).
MAX_BOUND = 127

# The sieve scans t in windows of FIRST_WINDOW values, doubling the window
# after each one that holds no prime, up to MAX_WINDOW.
FIRST_WINDOW = 1 << 12
MAX_WINDOW = 1 << 22

# Scan state per (bound, p): the primes q found so far, in order, and the t
# at which the scan resumes.  An entry is replaced whole, never mutated, so an
# interrupted scan leaves the last consistent state behind.
_PAIR_CACHE: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}


def find_good_dihedral(bound: int, forbidden: tuple[int, ...] = ()) -> GoodDihedralPair:
    """Smallest pair (p, q) protecting every characteristic below ``bound``.

    p is the least prime above the bound with p = 1 mod 4; q is the least
    prime with q = -1 mod p, q = 1 mod 8 and every odd prime below the bound
    a square mod q.  Primes listed in ``forbidden`` are skipped; a bound above
    ``MAX_BOUND`` is refused.
    """
    if bound < 2:
        raise DomainError("good-dihedral bound must be at least 2")
    if bound > MAX_BOUND:
        raise DomainError(f"good-dihedral bound above supported ceiling {MAX_BOUND}")
    p = next_prime(bound)
    while p % 4 != 1 or p in forbidden:
        p = next_prime(p)

    key = (bound, p)
    qs, t = _PAIR_CACHE.get(key, ((), 0))
    for q in qs:
        if q not in forbidden:
            return GoodDihedralPair(p, q)

    # q = 1 mod 8 makes every (l/q) equal to (q/l), so each splitting
    # condition asks q to be a nonzero square mod l.
    ells = [l for l in primes_up_to(bound - 1) if l % 2 == 1]
    x0, step = crt_pair(1, 8, p - 1, p)
    window = FIRST_WINDOW
    while True:
        known = len(qs)
        for q in sieve_scan(x0, step, t, window, ells):
            if is_prime(q):
                qs += (q,)
                _PAIR_CACHE[key] = (qs, (q - x0) // step + 1)
                if q not in forbidden:
                    return GoodDihedralPair(p, q)
        t += window
        _PAIR_CACHE[key] = (qs, t)
        if len(qs) == known:
            window = min(2 * window, MAX_WINDOW)
