"""Symbolic chain planning over local-type descriptors.

A :class:`SystemDescriptor` records the shape of a rational eigensystem:
weight, the local type at each ramified prime, and whether the form could be
dihedral.  ``plan_to_safe_form`` rewrites a descriptor into the common safe
form (parallel weight two, one good-dihedral place, one auxiliary Steinberg
place above the protection bound) through a deterministic sequence of moves,
each tagged with the congruence characteristic it uses and a lifting-theorem
verdict.  ``connect`` runs two descriptors to the same safe form so their
move lists concatenate into a single chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from .arith import DomainError, factorize, is_prime, next_prime
from .images import ImageClass
from .mlt import (
    EdgeContext,
    GoodDihedralPair,
    MltVerdict,
    best_verdict,
    check_mlt1,
    find_good_dihedral,
)


@dataclass(frozen=True)
class Steinberg:
    pass


@dataclass(frozen=True)
class PrincipalSeries:
    char_order: int = 1
    wild: bool = False


@dataclass(frozen=True)
class Supercuspidal:
    char_order: int = 1
    wild: bool = False


@dataclass(frozen=True)
class GoodDihedral:
    """Place whose supercuspidal character has odd prime order ``p``,
    protecting every congruence in characteristic up to ``bound``."""

    p: int
    bound: int


LocalType = Union[Steinberg, PrincipalSeries, Supercuspidal, GoodDihedral]


@dataclass(frozen=True, eq=True)
class SystemDescriptor:
    weight: int
    conductor: dict[int, LocalType] = field(default_factory=dict)
    dihedral: bool = False
    field_degree: int = 1
    coeff_degree: int = field(default=1, compare=False)
    twist_conductor: tuple[int, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class PlanStep:
    name: str
    ell: int
    audit: str
    verdict: MltVerdict | None
    after: SystemDescriptor


@dataclass(frozen=True)
class Plan:
    start: SystemDescriptor
    bound: int
    pair: GoodDihedralPair
    aux: int
    steps: tuple[PlanStep, ...]
    final: SystemDescriptor


@dataclass(frozen=True)
class ConnectResult:
    left: Plan
    right: Plan
    pair: GoodDihedralPair
    aux: int
    final: SystemDescriptor


def validate_descriptor(desc: SystemDescriptor) -> None:
    if desc.weight < 2 or desc.weight % 2 != 0:
        raise DomainError(f"weight {desc.weight} must be even and at least 2")
    if desc.field_degree != 1:
        raise DomainError("planner supports field degree 1 only")
    dihedral_places = []
    for q, t in desc.conductor.items():
        if not is_prime(q):
            raise DomainError(f"conductor place {q} is not prime")
        if isinstance(t, (PrincipalSeries, Supercuspidal)):
            if t.char_order < 1:
                raise DomainError(f"character order at {q} must be at least 1")
            if t.char_order == 1 and not t.wild:
                raise DomainError(f"tame place {q} with trivial character must be omitted")
        elif isinstance(t, GoodDihedral):
            dihedral_places.append(q)
            if not is_prime(t.p) or t.p % 2 == 0:
                raise DomainError(f"good-dihedral order at {q} must be an odd prime")
            if t.bound < 2:
                raise DomainError(f"good-dihedral bound at {q} must be at least 2")
            if q % t.p != t.p - 1:
                raise DomainError(f"good-dihedral place {q} is not -1 mod {t.p}")
        if desc.dihedral and isinstance(t, Steinberg):
            raise DomainError("dihedral descriptor carries a steinberg place")
    if len(dihedral_places) > 1:
        raise DomainError("descriptor lists two good-dihedral places")


def _good_dihedral_entry(desc: SystemDescriptor) -> tuple[int, GoodDihedral] | None:
    for q, t in desc.conductor.items():
        if isinstance(t, GoodDihedral):
            return q, t
    return None


def measure(desc: SystemDescriptor, bound: int) -> tuple[int, ...]:
    """Lexicographic progress measure; every move strictly lowers it and the
    safe form sits at all zeros."""
    wild = 0
    tame_excess = 0
    st_small = 0
    st_split = 0
    st_above = 0
    for q, t in desc.conductor.items():
        if isinstance(t, (PrincipalSeries, Supercuspidal)):
            if t.wild:
                wild += 1
            else:
                tame_excess += t.char_order - 1
        elif isinstance(t, Steinberg):
            if q in (2, 3):
                st_small += 1
            elif q <= bound:
                st_split += 1
            else:
                st_above += 1
    return (
        1 if desc.dihedral else 0,
        1 if desc.weight != 2 else 0,
        0 if _good_dihedral_entry(desc) else 1,
        wild,
        tame_excess,
        st_small,
        st_split,
        0 if st_above else 1,
    )


def _image_model(desc: SystemDescriptor) -> tuple[ImageClass, bool]:
    # Good-dihedral protection pins a large image for every characteristic in
    # range; otherwise only the dihedral flag is known.
    if _good_dihedral_entry(desc):
        return ImageClass("Large"), True
    if desc.dihedral:
        return ImageClass("Dihedral", None), False
    return ImageClass("Large"), False


def _context(desc: SystemDescriptor, ell: int, weights: tuple[int, int]) -> EdgeContext:
    image, protected = _image_model(desc)
    return EdgeContext(
        ell=ell, image=image, weights=weights, good_dihedral=protected
    )


def _next_prime_where(start: int, ok) -> int:
    p = next_prime(start)
    while not ok(p):
        p = next_prime(p)
    return p


def _step(desc, name, ell, audit, weights, conductor=None, verdict=None, **changes):
    ctx = _context(desc, ell, weights)
    if verdict is None:
        verdict = best_verdict(ctx)
    if conductor is not None:
        changes["conductor"] = conductor
    after = replace(desc, **changes)
    return PlanStep(name=name, ell=ell, audit=audit, verdict=verdict, after=after)


def _move_make_non_dihedral(desc: SystemDescriptor, bound: int) -> PlanStep:
    mod = _next_prime_where(5, lambda p: p not in desc.conductor)
    s = next_prime(1)
    while s % mod != mod - 1 or s in desc.conductor:
        s = next_prime(s)
        if s >= bound:
            raise DomainError(
                f"no prime below bound {bound} fits the dihedral-breaking step"
            )
    conductor = dict(desc.conductor)
    conductor[s] = Steinberg()
    return _step(
        desc,
        "make-non-dihedral",
        mod,
        f"break dihedral shape: add steinberg place {s} via level raising mod {mod}",
        (desc.weight, desc.weight),
        conductor,
        dihedral=False,
    )


def _move_to_parallel_weight_two(desc: SystemDescriptor, bound: int) -> PlanStep:
    mod = _next_prime_where(
        max(5, desc.weight), lambda p: p not in desc.conductor
    )
    return _step(
        desc,
        "to-parallel-weight-two",
        mod,
        f"lower weight {desc.weight} to 2 mod {mod}",
        (desc.weight, 2),
        weight=2,
    )


def _move_add_good_dihedral(
    desc: SystemDescriptor, bound: int, pair: GoodDihedralPair | None
) -> PlanStep:
    if desc.weight != 2:
        raise DomainError("good-dihedral step requires weight 2")
    if bound <= max([5, *desc.conductor]):
        raise DomainError(f"bound {bound} does not clear the conductor primes")
    if pair is None:
        pair = find_good_dihedral(bound, forbidden=tuple(sorted(desc.conductor)))
    conductor = dict(desc.conductor)
    conductor[pair.q] = GoodDihedral(pair.p, bound)
    return _step(
        desc,
        "add-good-dihedral",
        pair.p,
        f"install good-dihedral place at {pair.q} with order-{pair.p} "
        f"character mod {pair.p}",
        (2, 2),
        conductor,
    )


def _move_tameify_wild(desc: SystemDescriptor, bound: int) -> PlanStep:
    t = min(
        q
        for q, lt in desc.conductor.items()
        if isinstance(lt, (PrincipalSeries, Supercuspidal)) and lt.wild
    )
    conductor = dict(desc.conductor)
    conductor[t] = Steinberg() if t == 2 else PrincipalSeries(char_order=2)
    used = set(desc.conductor) | set(desc.twist_conductor)
    twists = []
    c = 2
    while len(twists) < 2:
        if is_prime(c) and c not in used:
            twists.append(c)
        c += 1
    return _step(
        desc,
        "tameify-wild",
        t,
        f"tame the wild place {t} mod {t} after twisting by {twists[0]} and {twists[1]}",
        (2, 2),
        conductor,
        twist_conductor=tuple(sorted(desc.twist_conductor + tuple(twists))),
    )


def _move_kill_tame_part(desc: SystemDescriptor, bound: int) -> PlanStep:
    tame = {
        q: lt
        for q, lt in desc.conductor.items()
        if isinstance(lt, (PrincipalSeries, Supercuspidal))
        and not lt.wild
        and lt.char_order > 1
    }
    mod = min(min(factorize(lt.char_order)) for lt in tame.values())
    conductor = dict(desc.conductor)
    for q, lt in tame.items():
        order = lt.char_order
        while order % mod == 0:
            order //= mod
        if order == 1:
            del conductor[q]
        else:
            conductor[q] = replace(lt, char_order=order)
    return _step(
        desc,
        "kill-tame-part",
        mod,
        f"strip {mod}-part from tame characters mod {mod}",
        (2, 2),
        conductor,
    )


def _move_steinberg_to_split(desc: SystemDescriptor, bound: int) -> PlanStep:
    frm = min(
        q for q, lt in desc.conductor.items() if isinstance(lt, Steinberg) and q in (2, 3)
    )
    to = 5
    while to in desc.conductor or not is_prime(to):
        to += 1
        if to > bound:
            raise DomainError(f"no split prime available below bound {bound}")
    conductor = dict(desc.conductor)
    del conductor[frm]
    conductor[to] = Steinberg()
    # The move through characteristic 2 passes a weight-four lift, which is
    # where the parallel-weight-two theorem only applies with assumptions.
    weights = (2, 4) if frm == 2 else (2, 2)
    return _step(
        desc,
        "move-steinberg-to-split",
        frm,
        f"move steinberg place {frm} to {to} mod {frm}",
        weights,
        conductor,
    )


def _move_kill_steinberg(desc: SystemDescriptor, bound: int) -> PlanStep:
    at = min(
        q
        for q, lt in desc.conductor.items()
        if isinstance(lt, Steinberg) and 5 <= q <= bound
    )
    conductor = dict(desc.conductor)
    del conductor[at]
    verdict = check_mlt1(_context(desc, at, (2, 2)))
    return _step(
        desc,
        "kill-steinberg",
        at,
        f"remove steinberg place {at} mod {at}",
        (2, 2),
        conductor,
        verdict=verdict,
    )


def _pick_aux(desc: SystemDescriptor, bound: int, pair: GoodDihedralPair) -> int:
    return _next_prime_where(
        bound,
        lambda p: p % 4 == 1
        and p not in desc.conductor
        and p not in (pair.p, pair.q),
    )


def _move_final_lift(
    desc: SystemDescriptor, bound: int, pair: GoodDihedralPair, aux: int | None
) -> PlanStep:
    if aux is None:
        aux = _pick_aux(desc, bound, pair)
    conductor = dict(desc.conductor)
    conductor[aux] = Steinberg()
    return _step(
        desc,
        "final-weight-two-lift",
        pair.p,
        f"add auxiliary steinberg place {aux} above bound {bound} mod {pair.p}",
        (2, 2),
        conductor,
    )


_MOVE_BUDGET = 1000


def plan_to_safe_form(
    desc: SystemDescriptor,
    bound: int,
    pair: GoodDihedralPair | None = None,
    aux: int | None = None,
) -> Plan:
    """Deterministic move sequence from ``desc`` to the safe form for
    ``bound``.  ``pair`` and ``aux`` override the good-dihedral pair and the
    auxiliary Steinberg prime so two plans can share them."""
    validate_descriptor(desc)
    existing = _good_dihedral_entry(desc)
    if existing is not None:
        q0, t0 = existing
        if t0.bound != bound:
            raise DomainError(
                f"descriptor carries a good-dihedral place for bound {t0.bound}, "
                f"plan expects {bound}"
            )
        if pair is not None and pair != GoodDihedralPair(t0.p, q0):
            raise DomainError("good-dihedral pair mismatch")
        pair = GoodDihedralPair(t0.p, q0)

    start = desc
    steps: list[PlanStep] = []
    current = desc
    m = measure(current, bound)
    budget = _MOVE_BUDGET
    while any(m):
        budget -= 1
        if budget < 0:
            raise DomainError("planner loop exceeded move budget")
        if m[0]:
            step = _move_make_non_dihedral(current, bound)
        elif m[1]:
            step = _move_to_parallel_weight_two(current, bound)
        elif m[2]:
            step = _move_add_good_dihedral(current, bound, pair)
            entry = _good_dihedral_entry(step.after)
            pair = GoodDihedralPair(entry[1].p, entry[0])
        elif m[3]:
            step = _move_tameify_wild(current, bound)
        elif m[4]:
            step = _move_kill_tame_part(current, bound)
        elif m[5]:
            step = _move_steinberg_to_split(current, bound)
        elif m[6]:
            step = _move_kill_steinberg(current, bound)
        else:
            step = _move_final_lift(current, bound, pair, aux)
        steps.append(step)
        current = step.after
        m_new = measure(current, bound)
        if not m_new < m:
            raise DomainError(f"move {step.name} failed to lower the measure")
        m = m_new

    entry = _good_dihedral_entry(current)
    if entry is None:
        raise DomainError("safe form is missing its good-dihedral place")
    pair = GoodDihedralPair(entry[1].p, entry[0])
    final_aux = [
        q
        for q, t in current.conductor.items()
        if isinstance(t, Steinberg) and q > bound
    ]
    if aux is not None and final_aux and final_aux[0] != aux:
        raise DomainError("auxiliary place mismatch")
    return Plan(
        start=start,
        bound=bound,
        pair=pair,
        aux=final_aux[0],
        steps=tuple(steps),
        final=current,
    )


def connect(
    d1: SystemDescriptor, d2: SystemDescriptor, bound: int
) -> ConnectResult:
    """Plan both descriptors to one shared safe form.

    The good-dihedral pair avoids every prime ramified in either descriptor,
    so the two final conductors agree place by place."""
    validate_descriptor(d1)
    validate_descriptor(d2)
    forbidden = sorted(set(d1.conductor) | set(d2.conductor))
    if bound <= max([5, *forbidden]):
        raise DomainError(f"bound {bound} does not clear the conductor primes")
    pair = find_good_dihedral(bound, forbidden=tuple(forbidden))
    shared = SystemDescriptor(weight=2, conductor=dict.fromkeys(forbidden, Steinberg()))
    aux = _pick_aux(shared, bound, pair)
    left = plan_to_safe_form(d1, bound, pair=pair, aux=aux)
    right = plan_to_safe_form(d2, bound, pair=pair, aux=aux)
    if left.final != right.final:
        raise DomainError("plans reached different safe forms")
    return ConnectResult(left=left, right=right, pair=pair, aux=aux, final=left.final)
