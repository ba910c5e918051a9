"""Matching-type invariants: family classification, the induced and
semi-induced matching numbers, the matching number, 2-collages, and the
greedy independent set extracted from a semi-induced matching.

A semi-induced matching is determined by its union U: the family must be
exactly the set of edges contained in U.  The exact maxima are therefore
computed over the lcm lattice (``hypergraph._lattice``: each union of
edges with the edges inside it) instead of raw edge subsets; the two
searches have the same optima.  They score each union on integers, and
the witnesses are built from the optimal edge-index tuples on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import NotSemiInduced, SearchLimitExceeded, UnknownEdge
from .hypergraph import Hypergraph, _lattice, bit_ids

DEFAULT_EDGE_CAP = 20


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
    """Exact c, c', m with one optimal witness each.

    Witness tie-break: lexicographically least edge-index tuple among the
    optima.
    """
    if len(h.edges) > DEFAULT_EDGE_CAP:
        raise SearchLimitExceeded(f"{len(h.edges)} edges exceed cap {DEFAULT_EDGE_CAP}")
    edges = h.edges
    sizes = [e.bit_count() for e in edges]
    c, c_ids, c_prime, c_prime_ids = 0, (), 0, ()
    for union, inside in _lattice(edges):
        size = union.bit_count()
        weight = size - inside.bit_count()
        if weight <= 0 or weight < c:
            continue  # c <= c', so it can beat neither optimum
        ids = bit_ids(inside)
        if weight > c_prime or weight == c_prime and ids < c_prime_ids:
            c_prime, c_prime_ids = weight, ids
        for i in ids:  # a matching: the edge sizes sum to |W|
            size -= sizes[i]
        if not size and (weight > c or ids < c_ids):
            c, c_ids = weight, ids
    m, m_ids = _best_matching(edges)
    return MatchingInvariants(c, c_prime, m, h, {"c": c_ids, "c_prime": c_prime_ids, "m": m_ids})


def _best_matching(edges: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Branch-and-bound over pairwise disjoint edge subsets."""
    order = sorted(range(len(edges)), key=lambda i: -(edges[i].bit_count() - 1))
    gains = [edges[i].bit_count() - 1 for i in order]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + gains[i]
    best: list = [0, ()]

    def rec(pos: int, used: int, weight: int, chosen: list[int]) -> None:
        if weight and weight >= best[0]:  # only a tie or a gain needs the tuple
            ids = tuple(sorted(chosen))
            if weight > best[0] or ids < best[1]:
                best[0], best[1] = weight, ids
        if pos == len(order) or weight + suffix[pos] < best[0]:
            return
        i = order[pos]
        if not edges[i] & used:
            chosen.append(i)
            rec(pos + 1, used | edges[i], weight + gains[pos], chosen)
            chosen.pop()
        rec(pos + 1, used, weight, chosen)

    rec(0, 0, 0, [])
    return best[0], best[1]


def is_two_collage(h: Hypergraph, collage: Sequence[int]) -> bool:
    """True iff every edge, minus one vertex, fits inside a collage member."""
    for c in collage:
        if c not in h.edges:
            raise UnknownEdge(f"not an edge of this hypergraph: {bit_ids(c)}")
    for e in h.edges:
        ok = False
        for v in bit_ids(e):
            reduced = e & ~(1 << v)
            if any(reduced & c == reduced for c in collage):
                ok = True
                break
        if not ok:
            return False
    return True


def maximal_matchings(h: Hypergraph) -> list[tuple[int, ...]]:
    """All inclusion-maximal pairwise-disjoint edge sets."""
    edges = h.edges
    out: list[tuple[int, ...]] = []

    def rec(start: int, used: int, chosen: list[int]) -> None:
        extendable = False
        for i in range(len(edges)):
            if not edges[i] & used:
                extendable = True
                if i >= start:
                    chosen.append(i)
                    rec(i + 1, used | edges[i], chosen)
                    chosen.pop()
        if not extendable:
            out.append(tuple(edges[i] for i in chosen))

    rec(0, 0, [])
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
    s = 0
    union = 0
    for e in fam.edges:
        union |= e
        if not e & s:
            least = bit_ids(e)[0]
            s |= 1 << least
    g = union & ~s
    if any(e & g == e for e in h.edges):  # a fault here, not in the input: exit 4
        raise RuntimeError("greedy set from a semi-induced matching is not independent")
    return g
