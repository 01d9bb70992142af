"""Congruence graphs and connectedness reports.

:class:`CongruenceGraph` is a small undirected multigraph over hashable
nodes whose edges carry the congruence characteristic, an optional label,
and an optional lifting-theorem verdict.  ``mazur_report`` assembles the
graph of integral eigensystem classes at one level (including classes from
every divisor level) with an edge wherever two classes collide mod ell, and
reports the connected components together with the characteristics that had
to be dropped.  ``chain_graph`` joins the classes of two spaces through the
reductions of their rational classes, for chain search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arith import DomainError, divisors, is_prime, primes_up_to
from .congruence import reduced_congruence, weight_compatible
from .dims import dim_cusp_forms
from .eigensystems import base_primes, operator_primes
from .images import classify_image, witness_bound
from .lifting import integral_classes, orbit_class_map
from .mlt import EdgeContext, MltVerdict, best_verdict
from .modsym import validate_level_weight


MAX_LMAX = 1000


def characteristics(lmax: int) -> list[int]:
    """The primes up to lmax, each a characteristic whose spaces are built and
    split; lmax below 0 or above ``MAX_LMAX`` is refused before listing."""
    if lmax < 0:
        raise DomainError("lmax must not be negative")
    if lmax > MAX_LMAX:
        raise DomainError(f"lmax above supported ceiling {MAX_LMAX}")
    return primes_up_to(lmax)


@dataclass(frozen=True)
class Edge:
    u: object
    v: object
    ell: int
    label: str = ""
    verdict: MltVerdict | None = None

    def reversed(self) -> "Edge":
        return Edge(self.v, self.u, self.ell, self.label, self.verdict)


class CongruenceGraph:
    """Undirected multigraph; insertion order fixes all tie-breaking."""

    def __init__(self) -> None:
        self._adj: dict[object, list[Edge]] = {}
        self._edges: list[Edge] = []

    def add_node(self, u) -> None:
        self._adj.setdefault(u, [])

    def add_edge(self, u, v, ell: int, label: str = "", verdict=None) -> Edge:
        edge = Edge(u, v, ell, label, verdict)
        self.add_node(u)
        self.add_node(v)
        self._adj[u].append(edge)
        self._adj[v].append(edge.reversed())
        self._edges.append(edge)
        return edge

    def components(self) -> list[tuple]:
        """Connected components, each in insertion order, ordered by their
        first-seen node."""
        parent: dict[object, object] = {u: u for u in self._adj}

        def root(x):
            while parent[x] is not x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self._edges:
            ru, rv = root(e.u), root(e.v)
            if ru is not rv:
                parent[rv] = ru
        groups: dict[object, list] = {}
        for u in self._adj:
            groups.setdefault(root(u), []).append(u)
        return [tuple(g) for g in groups.values()]

    def connected(self, u, v) -> bool:
        for comp in self.components():
            if u in comp:
                return v in comp
        return False

    def _distances(self, target, mlt_only: bool) -> dict[object, int]:
        dist = {target: 0}
        frontier = [target]
        while frontier:
            nxt = []
            for u in frontier:
                for e in self._adj[u]:
                    if mlt_only and e.verdict is None:
                        continue
                    if e.v not in dist:
                        dist[e.v] = dist[u] + 1
                        nxt.append(e.v)
            frontier = nxt
        return dist

    def chain_search(self, src, dst, mlt_only: bool = False) -> list[Edge] | None:
        """Shortest edge path from src to dst; among shortest paths the
        sequence of (ell, label) pairs is lexicographically smallest.
        ``mlt_only`` restricts to edges carrying a verdict."""
        if src not in self._adj or dst not in self._adj:
            raise DomainError("chain endpoints must be graph nodes")
        if src == dst:
            return []
        dist = self._distances(dst, mlt_only)
        if src not in dist:
            return None
        path: list[Edge] = []
        cur = src
        while cur != dst:
            options = [
                e
                for e in self._adj[cur]
                if not (mlt_only and e.verdict is None)
                and e.v in dist
                and dist[e.v] == dist[cur] - 1
            ]
            step = min(options, key=lambda e: (e.ell, e.label))
            path.append(step)
            cur = step.v
        return path


@dataclass(frozen=True)
class MazurReport:
    N: int
    k: int
    nodes: tuple[tuple[int, int, int], ...]
    characteristics_used: tuple[int, ...]
    characteristics_dropped: tuple[tuple[int, str], ...]
    witnesses: tuple[tuple[int, tuple[int, ...]], ...]
    edges: tuple[tuple[tuple[int, int, int], tuple[int, int, int], int], ...]
    components: tuple[tuple[tuple[int, int, int], ...], ...]
    connected: bool


def mazur_report(N: int, k: int, ell_range) -> MazurReport:
    """Connectedness of the classes at level N and its divisors under mod-ell
    collisions for every usable prime in ``ell_range``.

    Classes appearing at several levels are identified by their exact Hecke
    factors away from N and kept at the lowest level.  A characteristic that
    cannot be used (divides the level, too small for the weight, dimension
    anomaly, ...) is recorded with its reason rather than silently skipped.
    """
    validate_level_weight(N, k)
    qs = base_primes(N, k)
    nodes = []
    seen = set()
    for M in divisors(N):
        if dim_cusp_forms(M, k) == 0:
            continue
        for cls in integral_classes(M, k).classes:
            fingerprint = tuple(cls.factor_at(q) for q in qs)
            if fingerprint not in seen:
                seen.add(fingerprint)
                nodes.append(cls)
    labels = [cls.label for cls in nodes]

    graph = CongruenceGraph()
    for label in labels:
        graph.add_node(label)

    used = []
    dropped = []
    witnesses = []
    edges = []
    for ell in sorted(set(ell_range)):
        if not is_prime(ell):
            continue
        comparison = tuple(operator_primes(N, k, ell))
        if not comparison:
            dropped.append((ell, "no comparison primes below the bound"))
            continue
        try:
            mapping = orbit_class_map(N, k, ell, nodes)
        except DomainError as exc:
            dropped.append((ell, str(exc)))
            continue
        used.append(ell)
        witnesses.append((ell, comparison))
        ell_edges = {
            (labels[i], labels[j]) for hits in mapping.values() for i, j in combinations(hits, 2)
        }
        for u, v in sorted(ell_edges):
            graph.add_edge(u, v, ell)
            edges.append((u, v, ell))

    components = tuple(graph.components())
    return MazurReport(
        N=N,
        k=k,
        nodes=tuple(labels),
        characteristics_used=tuple(used),
        characteristics_dropped=tuple(dropped),
        witnesses=tuple(witnesses),
        edges=tuple(edges),
        components=components,
        connected=len(components) <= 1,
    )


def chain_graph(a, b, lmax: int) -> CongruenceGraph:
    """Congruence graph of the integral classes in the spaces of the class
    labels ``a`` and ``b``, (N, k, index) each.  An edge joins two rational
    classes congruent mod a prime ell <= lmax, as found through their
    reductions, and carries the best lifting-theorem verdict for the image of
    the left class."""
    ells = characteristics(lmax)
    for N, k in (a[:2], b[:2]):
        validate_level_weight(N, k)
    classes = [
        cls for N, k in dict.fromkeys([a[:2], b[:2]]) for cls in integral_classes(N, k).classes
    ]
    graph = CongruenceGraph()
    for cls in classes:
        graph.add_node("%d.%d.%d" % cls.label)
    for ell in ells:
        for ca, cb in combinations(classes, 2):
            if not weight_compatible(ca.k, cb.k, ell):
                continue
            try:
                found = reduced_congruence(ca, cb, ell, witness_bound(ca.N, ca.k))
            except DomainError:  # no comparison primes below the pair's bound
                continue
            if found is None or not found[1].certified:
                continue
            ra, edge = found
            context = EdgeContext(ell=ell, image=classify_image(ra), weights=(ca.k, cb.k))
            graph.add_edge(
                edge.left, edge.right, ell, label=f"{edge.left}~{edge.right}",
                verdict=best_verdict(context),
            )
    return graph
