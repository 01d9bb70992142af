"""Characteristic-zero orbit classes recovered from mod-ell eigensystems.

The characteristic polynomial of each operator on the plus part has integer
coefficients bounded by the classical estimate on eigenvalue size, so its
coefficients are recovered by CRT over enough valid characteristics, with one
spare characteristic as a stability check. Factoring the lifted polynomials
over the integers, then grouping the orbits of one anchor characteristic by
which integer factor each of their minimal polynomials divides, yields
characteristic-free orbit classes with degrees and multiplicities.

Classes with rational coefficients can be reduced at characteristics where
the symbol space itself is unavailable (for instance a characteristic
dividing the level); higher-degree classes cannot, since the charpoly data
does not single out one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, isqrt

from . import polys
from .arith import DomainError, crt_pair, is_prime, next_prime, primes_up_to, symmetric_lift
from .dims import dim_cusp_forms
from .eigensystems import Eigensystem, base_primes, charpoly_halved, decompose
from .gf import field

_MAX_ANCHOR_TRIES = 25
_MAX_LIFT_PRIMES = 60


def valid_characteristics(N: int, k: int):
    """Ascending primes usable for lifting at (N, k): coprime to 6N and
    strictly above the weight."""
    ell = max(k, 3)
    while True:
        ell = next_prime(ell)
        if (6 * N) % ell:
            yield ell


def _coefficient_bound(D: int, k: int, q: int) -> int:
    # Each root has absolute value at most 2 q^((k-1)/2); coefficients are
    # elementary symmetric functions of D of them.
    s = isqrt(q ** (k - 1))
    if s * s < q ** (k - 1):
        s += 1
    per_root = 2 * s
    return max(comb(D, j) * per_root**j for j in range(D + 1))


def lift_charpoly(N: int, k: int, q: int) -> tuple[int, ...]:
    """Monic integer polynomial whose reduction mod each valid ell equals the
    plus-part charpoly of the operator at q; little-endian coefficients."""
    if N % q == 0:
        raise DomainError("lifting is defined away from the level")
    D = dim_cusp_forms(N, k)
    if D == 0:
        return (1,)
    need_product = 2 * _coefficient_bound(D, k, q)
    # Running CRT: the coefficients modulo mod, the product of the ells used.
    acc = [0] * (D + 1)
    mod = 1
    stable_seen = None
    for ell in islice(valid_characteristics(N, k), _MAX_LIFT_PRIMES):
        if ell == q:
            continue
        try:
            cp = charpoly_halved(N, k, ell, q)
        except DomainError:
            continue
        if polys.degree(cp) != D:
            continue
        acc = [crt_pair(a, mod, c, ell)[0] for a, c in zip(acc, cp)]
        mod *= ell
        if mod <= need_product:
            continue
        lifted = tuple(symmetric_lift(a, mod) for a in acc)
        if lifted == stable_seen:
            return lifted
        stable_seen = lifted
    raise DomainError("could not stabilize an integer charpoly lift")


def _z_factors(coeffs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Distinct monic irreducible integer factors (little-endian), sorted by
    (degree, coefficients)."""
    import sympy  # here, so that commands that lift nothing never load it

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, domain="ZZ")
    _, fac = poly.factor_list()
    out = [tuple(int(c) for c in reversed(f.all_coeffs())) for f, _ in fac]
    return sorted(out, key=lambda f: (len(f), f))


def _divides_mod(f: polys.Poly, F: tuple[int, ...], ell: int) -> bool:
    Fl = field(ell)
    red = polys.trim(c % ell for c in F)
    if polys.degree(red) < polys.degree(f):
        return False
    return not polys.mod(Fl, red, f)


@dataclass
class IntegralOrbitClass:
    """A characteristic-free orbit of eigenvalue systems at one (N, k)."""

    N: int
    k: int
    index: int
    degree: int
    multiplicity: int
    anchor: int
    _parent: "IntegralClasses"

    @property
    def label(self) -> tuple[int, int, int]:
        return (self.N, self.k, self.index)

    def factor_at(self, q: int) -> tuple[int, ...]:
        return self._parent.factor_for(self.index, q)

    def rational_table(self, bound: int) -> dict[int, int]:
        """Integer a(q) for q <= bound away from N, for degree-1 classes."""
        if self.degree != 1:
            raise DomainError(
                "only a rational orbit class has a well-defined integer table"
            )
        out = {}
        for q in primes_up_to(bound):
            if self.N % q == 0:
                continue
            f = self.factor_at(q)
            out[q] = -f[0]
        return out

    def __repr__(self) -> str:
        return (
            f"IntegralOrbitClass({self.N}.{self.k}.{self.index}, "
            f"degree={self.degree}, mult={self.multiplicity})"
        )


class IntegralClasses:
    """Container assembling the integral orbit classes at one (N, k)."""

    def __init__(self, N: int, k: int):
        self.N = N
        self.k = k
        self.base_primes = base_primes(N, k)
        # Integer factors of the lifted charpoly at each operator prime.
        self._factors: dict[int, list[tuple[int, ...]]] = {}
        self._class_factor: dict[tuple[int, int], tuple[int, ...]] = {}
        self.classes: list[IntegralOrbitClass] = []
        self.anchor = 0
        # Per reference characteristic, one orbit representing each class.
        self._reps: dict[int, dict[int, Eigensystem]] = {}
        self._build()

    # -- assembly ---------------------------------------------------------

    def _z_factors_at(self, q: int) -> list[tuple[int, ...]]:
        if q not in self._factors:
            self._factors[q] = _z_factors(lift_charpoly(self.N, self.k, q))
        return self._factors[q]

    def _matching_factors(self, s: Eigensystem, q: int) -> list[tuple[int, ...]]:
        """Integer factors at q whose reduction mod s.ell the minimal
        polynomial of the mod-ell system s divides."""
        return [F for F in self._z_factors_at(q) if _divides_mod(s.min_poly(q), F, s.ell)]

    def _anchor_ok(self, ell: int) -> dict[tuple, list[Eigensystem]] | None:
        """The orbits mod ell grouped by their integer factors at the base
        primes, or None when ell cannot anchor the classes."""
        if ell in self.base_primes:
            return None
        try:
            systems = decompose(self.N, self.k, ell)
        except DomainError:
            return None
        if sum(s.block_dim for s in systems) != dim_cusp_forms(self.N, self.k):
            return None
        if any(not s.semisimple for s in systems):
            return None
        groups: dict[tuple, list[Eigensystem]] = {}
        for s in systems:
            key = []
            for q in self.base_primes:
                hits = self._matching_factors(s, q)
                if len(hits) != 1:
                    return None
                key.append(hits[0])
            groups.setdefault(tuple(key), []).append(s)
        for members in groups.values():
            mults = {m.multiplicity for m in members}
            if len(mults) != 1:
                return None
        return groups

    def _build(self) -> None:
        if dim_cusp_forms(self.N, self.k) == 0:
            return
        for q in self.base_primes:
            self._z_factors_at(q)
        for ell in islice(valid_characteristics(self.N, self.k), _MAX_ANCHOR_TRIES):
            groups = self._anchor_ok(ell)
            if groups is not None:
                break
        else:
            raise DomainError("no anchor characteristic produced a clean grouping")
        self.anchor = ell

        # Classes ordered by degree, then by their factors at the base primes.
        ordered = sorted(groups.items(), key=lambda g: (sum(m.degree for m in g[1]), g[0]))
        self._reps[ell] = {i: members[0] for i, (_, members) in enumerate(ordered)}
        for i, (key, members) in enumerate(ordered):
            cls = IntegralOrbitClass(
                N=self.N, k=self.k, index=i, degree=sum(m.degree for m in members),
                multiplicity=members[0].multiplicity, anchor=ell, _parent=self,
            )
            self.classes.append(cls)
            for q, F in zip(self.base_primes, key):
                self._class_factor[(i, q)] = F

    # -- queries ------------------------------------------------------------

    def _references(self, q: int):
        """Reference characteristics other than q, the anchor first, each with
        representatives: the orbits that map to exactly one class."""
        yield from [ell for ell in self._reps if ell != q]
        candidates = (
            ell for ell in valid_characteristics(self.N, self.k)
            if ell not in self._reps and ell != q and ell not in self.base_primes
        )
        for ell in islice(candidates, _MAX_ANCHOR_TRIES):
            try:
                mapping = orbit_class_map(self.N, self.k, ell, self.classes)
            except DomainError:
                continue
            reps = self._reps[ell] = {}
            for s in decompose(self.N, self.k, ell):
                if len(mapping[s.index]) == 1:
                    reps.setdefault(mapping[s.index][0], s)
            yield ell

    def factor_for(self, index: int, q: int) -> tuple[int, ...]:
        """The integer factor at q that each reference orbit's minimal
        polynomial divides mod its characteristic, narrowed until one is left."""
        if (index, q) in self._class_factor:
            return self._class_factor[(index, q)]
        if self.N % q == 0:
            raise DomainError("no operator factor at a prime dividing the level")
        if not is_prime(q):
            raise DomainError("operator factors are indexed by primes")
        hits = None
        for ell in self._references(q):
            if index in self._reps[ell]:
                found = self._matching_factors(self._reps[ell][index], q)
                hits = found if hits is None else [F for F in hits if F in found]
                if len(hits) == 1:
                    self._class_factor[(index, q)] = hits[0]
                    return hits[0]
        raise DomainError(f"ambiguous integer factor assignment at {q}")


_CLASSES_CACHE: dict[tuple[int, int], IntegralClasses] = {}


def integral_classes(N: int, k: int) -> IntegralClasses:
    key = (N, k)
    if key not in _CLASSES_CACHE:
        _CLASSES_CACHE[key] = IntegralClasses(N, k)
    return _CLASSES_CACHE[key]


@dataclass
class ReducedIntegralSystem:
    """Rational orbit class reduced at a characteristic where no symbol space
    exists; quacks like an eigensystem with prime-field values."""

    N: int
    k: int
    ell: int
    source: tuple[int, int, int]
    table: dict[int, int]

    def __post_init__(self):
        self.degree = 1
        self.field = field(self.ell)

    def a(self, q: int) -> int:
        if q not in self.table:
            raise DomainError(f"reduced table has no entry at {q}")
        return self.table[q]

    @property
    def label(self) -> str:
        return f"{self.source[0]}.{self.source[1]}.{self.source[2]}"


def reduce_class_mod(cls: IntegralOrbitClass, ell: int, bound: int) -> ReducedIntegralSystem:
    """Reduce a rational class mod ell (any prime, including ones excluded
    from direct space construction)."""
    if not is_prime(ell):
        raise DomainError("reduction characteristic must be prime")
    table = {q: a % ell for q, a in cls.rational_table(bound).items()}
    return ReducedIntegralSystem(
        N=cls.N, k=cls.k, ell=ell, source=cls.label, table=table
    )


def orbit_class_map(N: int, k: int, ell: int, classes) -> dict[int, list[int]]:
    """Map each mod-ell orbit index at level N to the positions in ``classes``
    (integral classes at N or at divisors of N) of the classes compatible
    with it; several hits mean the classes collide (are congruent) mod ell."""
    systems = decompose(N, k, ell)
    if sum(s.block_dim for s in systems) != dim_cusp_forms(N, k):
        raise DomainError("dimension anomaly at this characteristic")
    qs = base_primes(N, k)
    out: dict[int, list[int]] = {}
    for s in systems:
        hits = [
            i
            for i, cls in enumerate(classes)
            if all(
                _divides_mod(s.min_poly(q), cls.factor_at(q), ell)
                for q in qs
                if q not in (ell, cls.anchor)
            )
        ]
        if not hits:
            raise DomainError("orbit matches no integral class at this characteristic")
        out[s.index] = hits
    return out
