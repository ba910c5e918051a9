"""Matching-type invariants: family classification, the induced and
semi-induced matching numbers, the matching number, 2-collages, and the
greedy independent set extracted from a semi-induced matching.

A semi-induced matching is determined by its union U: the family must be
exactly the set of edges contained in U.  The exact maxima are therefore
computed over the lcm lattice (``hypergraph._lattice``: each union of
edges with the edges inside it) instead of raw edge subsets; the two
searches have the same optima.
"""

from __future__ import annotations

from dataclasses import dataclass
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
            raise UnknownEdge(f"not an edge of this hypergraph: {tuple(bit_ids(e))}")
        if e in edges:
            raise UnknownEdge(f"repeated edge in family: {tuple(bit_ids(e))}")
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
    witnesses: dict  # name -> EdgeFamily


def matching_invariants(h: Hypergraph) -> MatchingInvariants:
    """Exact c, c', m with one optimal witness each.

    Witness tie-break: lexicographically least edge-index tuple among the
    optima.
    """
    if len(h.edges) > DEFAULT_EDGE_CAP:
        raise SearchLimitExceeded(f"{len(h.edges)} edges exceed cap {DEFAULT_EDGE_CAP}")
    edges = h.edges
    c = c_prime = (0, ())
    for union, inside in _lattice(edges):
        weight = union.bit_count() - inside.bit_count()
        if weight <= 0 or weight < c[0]:
            continue  # c <= c', so it can beat neither optimum
        cand = (weight, tuple(bit_ids(inside)))
        if _better(cand, c_prime):
            c_prime = cand
        if sum(edges[i].bit_count() for i in cand[1]) == union.bit_count() and _better(cand, c):
            c = cand
    m_best = _best_matching(edges)
    witnesses = {name: classify_family(h, [edges[i] for i in best[1]])
                 for name, best in (("c", c), ("c_prime", c_prime), ("m", m_best))}
    return MatchingInvariants(c[0], c_prime[0], m_best[0], witnesses)


def _better(cand: tuple, cur: tuple) -> bool:
    if cand[0] != cur[0]:
        return cand[0] > cur[0]
    return cand[0] > 0 and cand[1] < cur[1]


def _best_matching(edges: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Branch-and-bound over pairwise disjoint edge subsets."""
    order = sorted(range(len(edges)), key=lambda i: -(edges[i].bit_count() - 1))
    gains = [edges[i].bit_count() - 1 for i in order]
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + gains[i]
    best: list = [0, ()]

    def rec(pos: int, used: int, weight: int, chosen: list[int]) -> None:
        cand = (weight, tuple(sorted(chosen)))
        if _better(cand, tuple(best)):
            best[0], best[1] = cand
        if pos == len(order) or weight + suffix[pos] < best[0]:
            return
        i = order[pos]
        if not edges[i] & used:
            chosen.append(i)
            rec(pos + 1, used | edges[i], weight + gains[pos], chosen)
            chosen.pop()
        rec(pos + 1, used, weight, chosen)

    rec(0, 0, 0, [])
    return best[0], tuple(best[1])


def is_two_collage(h: Hypergraph, collage: Sequence[int]) -> bool:
    """True iff every edge, minus one vertex, fits inside a collage member."""
    for c in collage:
        if c not in h.edges:
            raise UnknownEdge(f"not an edge of this hypergraph: {tuple(bit_ids(c))}")
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
            least = next(bit_ids(e))
            s |= 1 << least
    g = union & ~s
    assert not any(e & g == e for e in h.edges), "construction must be independent"
    return g
