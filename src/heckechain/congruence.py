"""Certification of eigenvalue congruences between two orbits mod ell.

Two systems are congruent when some embedding of each into a common extension
field matches them at every comparison prime up to the cross-level bound.
The left embedding is pinned to the canonical one and the right one runs over
its Frobenius twists, so certification is deterministic; a refutation records
the first mismatch of the twist that survives longest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import lcm

from . import polys
from .arith import DomainError, primes_up_to
from .eigensystems import decompose, sturm_bound
from .gf import field
from .lifting import integral_classes, reduce_class_mod
from .modsym import validate_space


def cross_bound(N1: int, k1: int, N2: int, k2: int) -> int:
    """Comparison bound for systems at two different levels and weights."""
    return sturm_bound(lcm(N1, N2), max(k1, k2))


def weight_compatible(k1: int, k2: int, ell: int) -> bool:
    return k1 == k2 or (k1 - k2) % (ell - 1) == 0


@dataclass(frozen=True)
class CongruenceEdge:
    left: str
    right: str
    ell: int
    certified: bool
    bound: int
    witnesses: tuple[int, ...]
    first_mismatch: int | None


def comparison_primes(N1: int, N2: int, ell: int, bound: int) -> list[int]:
    """Primes up to bound that divide neither level and differ from ell."""
    return [q for q in primes_up_to(bound) if (N1 * N2) % q and q != ell]


def check_congruence(sys_a, sys_b, bound: int | None = None) -> CongruenceEdge:
    """Certify or refute a congruence between two systems at one
    characteristic. Systems expose N, k, ell, field, label, and a(q)."""
    if sys_a.ell != sys_b.ell:
        raise DomainError("congruence comparison requires a shared characteristic")
    ell = sys_a.ell
    if not weight_compatible(sys_a.k, sys_b.k, ell):
        raise DomainError(
            f"weights {sys_a.k} and {sys_b.k} are incompatible at {ell}: "
            f"their difference must vanish modulo {ell - 1}"
        )
    b = cross_bound(sys_a.N, sys_a.k, sys_b.N, sys_b.k) if bound is None else bound
    qs = comparison_primes(sys_a.N, sys_b.N, ell, b)
    if not qs:
        raise DomainError("no usable comparison primes below the bound")
    # Each system's values lie in its field, F_{ell^degree}.
    ta = {q: sys_a.a(q) for q in qs}
    tb = {q: sys_b.a(q) for q in qs}
    Ka, Kb = sys_a.field, sys_b.field
    K = field(ell, lcm(Ka.degree, Kb.degree))
    phi_a = polys.embeddings(Ka, K)[0]
    va = {q: polys.apply_embedding(Ka, K, phi_a, ta[q]) for q in qs}
    best_pos = -1
    best_q: int | None = None
    for images in polys.embeddings(Kb, K):
        mismatch = None
        pos = len(qs)
        for idx, q in enumerate(qs):
            if va[q] != polys.apply_embedding(Kb, K, images, tb[q]):
                mismatch = q
                pos = idx
                break
        if mismatch is None:
            return CongruenceEdge(
                left=sys_a.label, right=sys_b.label, ell=ell,
                certified=True, bound=b, witnesses=tuple(qs), first_mismatch=None,
            )
        if pos > best_pos:
            best_pos = pos
            best_q = mismatch
    return CongruenceEdge(
        left=sys_a.label, right=sys_b.label, ell=ell,
        certified=False, bound=b, witnesses=(), first_mismatch=best_q,
    )


def scan_congruences(systems_a, systems_b, ell: int) -> list[CongruenceEdge]:
    """Certified congruences between two orbit lists at one characteristic.

    Weight-incompatible inputs yield no edges rather than an error; a scan is
    a survey, not an assertion that a comparison must exist.
    """
    edges = []
    for sa, sb in product(systems_a, systems_b):
        if not weight_compatible(sa.k, sb.k, ell):
            continue
        edge = check_congruence(sa, sb)
        if edge.certified:
            edges.append(edge)
    return edges


def reduced_congruence(ca, cb, ell: int, left_bound: int):
    """Check two integral classes for a congruence mod ell through their
    reductions, up to the pair's cross bound; this works at any prime,
    including one dividing a level.  The left reduction also covers the
    primes up to ``left_bound`` and is returned with the edge.  None when a
    class has no reduction: it is not rational, or its table cannot be
    assigned."""
    bound = cross_bound(ca.N, ca.k, cb.N, cb.k)
    try:
        ra = reduce_class_mod(ca, ell, max(bound, left_bound))
        rb = reduce_class_mod(cb, ell, bound)
    except DomainError:
        return None
    return ra, check_congruence(ra, rb)


def space_congruences(N1: int, k1: int, N2: int, k2: int, ell: int):
    """Certified congruences mod ell between the systems of two spaces, with
    the route that found them.

    The "direct" route compares the mod-ell orbits of two spaces.  The
    "reduced" route compares the reductions of the rational integral classes
    instead: for a space out of domain at ell (ell dividing a level, ...) and
    for a space compared with itself, whose orbits the split has already
    told apart.  At 2 and 3 the direct route's error stands.
    """
    if (N1, k1) != (N2, k2):
        try:
            return "direct", scan_congruences(decompose(N1, k1, ell), decompose(N2, k2, ell), ell)
        except DomainError:
            if ell in (2, 3):
                raise
    elif ell in (2, 3):
        validate_space(N1, k1, ell)
    left = integral_classes(N1, k1).classes
    right = integral_classes(N2, k2).classes
    pairs = combinations(left, 2) if (N1, k1) == (N2, k2) else product(left, right)
    found = (reduced_congruence(ca, cb, ell, 0) for ca, cb in pairs)
    return "reduced", [f[1] for f in found if f is not None and f[1].certified]
