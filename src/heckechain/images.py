"""Residual image classification from eigenvalue data.

The classifier sorts a mod-ell system into one of four shapes: Reducible
(eigenvalues match a sum of two character powers), Dihedral (traces vanish at
every witness inert for some quadratic discriminant ramified inside N*ell),
Exceptional (normalized trace squares confined to the finite projective list),
or Large. Tests are ordered and first match wins, so the outcome is
deterministic for a fixed witness bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from . import polys
from .arith import DomainError, divisors, factorize, kronecker, primes_up_to
from .eigensystems import sturm_bound
from .gf import field

_MIN_WITNESSES = 5


@dataclass(frozen=True)
class ImageClass:
    kind: str  # "Reducible" | "Dihedral" | "Exceptional" | "Large"
    parameter: int | None = None

    def __str__(self) -> str:
        if self.parameter is None:
            return self.kind
        return f"{self.kind}({self.parameter})"


def witness_bound(N: int, k: int) -> int:
    return max(50, 2 * sturm_bound(N, k))


def witness_primes(N: int, k: int, ell: int) -> list[int]:
    return [q for q in primes_up_to(witness_bound(N, k)) if (N * ell) % q]


def candidate_discriminants(N: int, ell: int) -> list[int]:
    """Fundamental discriminants of quadratic fields unramified outside
    N * ell, ordered by absolute value (positive first on ties)."""
    ps = factorize(N * ell)
    has2 = 2 in ps
    ms = divisors(prod(p for p in ps if p != 2))
    if has2:
        ms += [2 * m for m in ms]
    out = []
    for m in ms:
        for d in (m, -m):
            if d == 1:
                continue
            D = d if d % 4 == 1 else 4 * d
            if D % 2 == 0 and not has2:
                continue
            out.append(D)
    return sorted(set(out), key=lambda D: (abs(D), D < 0))


def classify_image(system) -> ImageClass:
    """Classify the residual image of a system (anything exposing N, k, ell,
    field, a(q))."""
    N, k, ell = system.N, system.k, system.ell
    qs = witness_primes(N, k, ell)
    if len(qs) < _MIN_WITNESSES:
        raise DomainError("not enough witness primes to classify the image")
    table = {q: system.a(q) for q in qs}
    K = system.field

    # Reducible: a(q) = q^i + q^(k-1-i) for one exponent pair, all witnesses.
    for i in range(0, (k - 1) // 2 + 1):
        if all(
            table[q] == (pow(q, i, ell) + pow(q, k - 1 - i, ell)) % ell for q in qs
        ):
            return ImageClass("Reducible", i)

    # Dihedral: traces vanish at the primes inert for some admissible
    # discriminant, witnessed by at least one inert prime.
    for D in candidate_discriminants(N, ell):
        inert = [q for q in qs if kronecker(D, q) == -1]
        if inert and all(table[q] == 0 for q in inert):
            return ImageClass("Dihedral", D)

    # Exceptional: u = a(q)^2 / q^(k-1) stays within the projective list.
    allowed = {0, 1, 2, 4}
    golden = polys.roots(K, (1, K.neg(K.from_int(3)), 1))
    allowed.update(golden)
    seen = set()
    exceptional = True
    for q in qs:
        aq = table[q]
        u = K.div(K.mul(aq, aq), K.from_int(pow(q, k - 1, ell)))
        if u not in allowed:
            exceptional = False
            break
        if u:
            seen.add(u)
    if exceptional and len(seen) <= 3:
        return ImageClass("Exceptional")

    return ImageClass("Large")


def is_adequate(image: ImageClass, ell: int, good_dihedral: bool = False) -> bool:
    """Whether the image is big enough for the lifting machinery at ell.

    At 3 and 5 adequacy additionally needs the good-dihedral context; at 2 it
    is undetermined here and must be handled by explicit assumption."""
    if ell == 2:
        raise DomainError("adequacy is undetermined at characteristic 2")
    if image.kind == "Reducible":
        return False
    if ell >= 7:
        return True
    return good_dihedral
