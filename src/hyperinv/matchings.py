"""Matching-type invariants: family classification, the induced and
semi-induced matching numbers, the matching number, 2-collages, and the
greedy independent set extracted from a semi-induced matching.

A semi-induced matching is determined by its union U: the family must be
exactly the set of edges contained in U.  The exact maxima are therefore
computed over the lcm lattice (``hypergraph._lattice``: each union W of
edges with the edges inside it, in ascending order of W) instead of raw
edge subsets; the two searches have the same optima.  A matching is a
perfect matching of its union W, and one of W holds the edge e through
the least vertex of W and a perfect matching of W \\ e, a union that
comes earlier; so one pass up the lattice keeps, per W, the least index
set of its perfect matchings with the fewest edges k, and m is the
largest |W| - k.  The edges inside W form an induced matching iff that
set holds them all.  Each union is scored on integers, and the witnesses
are built from the optimal edge-index tuples on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import hypergraph
from .errors import NotSemiInduced, SearchLimitExceeded, UnknownEdge
from .hypergraph import Hypergraph, _lattice, bit_ids


@dataclass(frozen=True)
class EdgeFamily:
    edges: tuple[int, ...]
    weight: int
    matching: bool
    semi_induced: bool
    induced: bool

    def as_labels(self, h: Hypergraph) -> list[list[str]]:
        return [list(h.edge_labels(e)) for e in self.edges]


def classify_family(h: Hypergraph, family: Sequence[int]) -> EdgeFamily:
    edges = []
    for e in family:
        if e not in h.edges:
            raise UnknownEdge(f"not an edge of this hypergraph: {bit_ids(e)}")
        if e in edges:
            raise UnknownEdge(f"repeated edge in family: {bit_ids(e)}")
        edges.append(e)
    edges.sort(key=lambda e: h.edges.index(e))
    union = 0
    total = 0
    for e in edges:
        union |= e
        total += e.bit_count()
    matching = total == union.bit_count()
    inside = [e for e in h.edges if e & union == e]
    semi = set(inside) == set(edges)
    weight = union.bit_count() - len(edges)
    return EdgeFamily(tuple(edges), weight, matching, semi, matching and semi)


@dataclass(frozen=True)
class MatchingInvariants:
    c: int
    c_prime: int
    m: int
    h: Hypergraph
    optima: dict  # name -> edge-index tuple of the witness

    @cached_property
    def witnesses(self) -> dict:
        """name -> EdgeFamily, built on first read."""
        edges = self.h.edges
        return {name: classify_family(self.h, [edges[i] for i in best])
                for name, best in self.optima.items()}


def matching_invariants(h: Hypergraph) -> MatchingInvariants:
    """Exact c, c', m with one optimal witness each, in one lattice pass.

    Witness tie-break: lexicographically least edge-index tuple among the
    optima.
    """
    edges = h.edges
    through = [sum(1 << j for j, e in enumerate(edges) if e >> v & 1) for v in range(h.n)]
    perfect = {0: (0, 0)}  # W -> (k, index mask of its least perfect matching of k edges)
    c, c_ids, c_prime, c_prime_ids, m, m_ids = 0, (), 0, (), 0, ()
    for union, inside in _lattice(edges):
        size, best = union.bit_count(), None
        for i in bit_ids(inside & through[(union & -union).bit_length() - 1]):
            if sub := perfect.get(union ^ edges[i]):
                k, got = sub[0] + 1, sub[1] | 1 << i
                diff = got ^ best[1] if best else 0
                if not best or k < best[0] or k == best[0] and got & diff & -diff:
                    best = k, got  # of two sets of k, the lesser holds their least difference
        if best:
            perfect[union] = best
            if size - best[0] > m or 0 < size - best[0] == m and bit_ids(best[1]) < m_ids:
                m, m_ids = size - best[0], bit_ids(best[1])
        weight = size - inside.bit_count()
        if weight <= 0 or weight < c:
            continue  # c <= c', so it can beat neither optimum
        ids = bit_ids(inside)
        if weight > c_prime or weight == c_prime and ids < c_prime_ids:
            c_prime, c_prime_ids = weight, ids
        if best and best[1] == inside and (weight > c or ids < c_ids):  # W's edges match it
            c, c_ids = weight, ids
    return MatchingInvariants(c, c_prime, m, h, {"c": c_ids, "c_prime": c_prime_ids, "m": m_ids})


def is_two_collage(h: Hypergraph, collage: Sequence[int]) -> bool:
    """True iff every edge, minus one of its vertices, fits inside a collage
    member: iff the edge is nonempty and has at most one vertex outside it."""
    for c in collage:
        if c not in h.edges:
            raise UnknownEdge(f"not an edge of this hypergraph: {bit_ids(c)}")
    return all(e and any((e & ~c).bit_count() <= 1 for c in collage) for e in h.edges)


def maximal_matchings(h: Hypergraph) -> list[tuple[int, ...]]:
    """All inclusion-maximal pairwise-disjoint edge sets.  The walk grows
    each matching by edges of higher index and visits every matching once;
    when the edges of the matchings visited, summed, pass
    ``DEFAULT_LATTICE_CAP`` (20 edges give at most 20 * 2^19) it raises
    ``SearchLimitExceeded``."""
    edges, out, cap, walked = h.edges, [], hypergraph.DEFAULT_LATTICE_CAP, 0
    stack = [(0, 0, (), range(len(edges)))]  # a matching with the edges its parent left free
    while stack:
        start, used, chosen, free = stack.pop()
        if (walked := walked + len(chosen)) > cap:
            raise SearchLimitExceeded(f"edges in the matchings walked exceed lattice cap {cap}")
        free = [i for i in free if not edges[i] & used]
        if not free:
            out.append(tuple(edges[i] for i in chosen))
        stack += [(i + 1, used | edges[i], chosen + (i,), free) for i in reversed(free) if i >= start]
    return out


def independent_set_from_semi_induced(h: Hypergraph, family: Sequence[int]) -> int:
    """Greedy independent set inside the union of a semi-induced matching.

    Walks the family in canonical order; whenever an edge avoids the
    current transversal it contributes its least vertex.  Returns the
    union minus the transversal, which is independent and at least as
    large as the family weight.
    """
    fam = classify_family(h, family)
    if not fam.semi_induced:
        raise NotSemiInduced("family is not a semi-induced matching")
    s = union = 0
    for e in fam.edges:
        union |= e
        if not e & s:
            s |= e & -e  # its least vertex
    g = union & ~s
    if any(e & g == e for e in h.edges):  # a fault here, not in the input: exit 4
        raise RuntimeError("greedy set from a semi-induced matching is not independent")
    return g
