"""Finite simple hypergraphs over an ordered vertex table.

Vertices are identified by their position in the vertex table; edges are
stored as integer bitmasks over those ids.  Canonical edge order is
(cardinality, ascending id tuple).  Everything downstream relies on that
order for deterministic witnesses.

A hypergraph produced by contracting a singleton edge carries the
``void`` flag: its conceptual edge set is exactly {∅}, no vertex set is
independent, and its independence complex is the void complex.

One dualization primitive, ``_minimal_transversals`` (Berge's
branching on the first edge not yet hit), yields the minimal vertex
covers; the maximal independent sets are their complements, and the
minimal non-faces and Alexander dual of a complex in ``homological`` are
the transversals of its facet complements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    AntichainViolation,
    DuplicateEdge,
    EmptyEdge,
    HyperinvError,
    NoEdges,
    SameVertex,
    SearchLimitExceeded,
    UnknownVertex,
)

DEFAULT_CYCLE_LENGTH_CAP = 7
DEFAULT_CYCLE_EDGE_CAP = 20


def bit_ids(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Sequence[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def edge_sort_key(mask: int) -> tuple:
    return (mask.bit_count(), tuple(bit_ids(mask)))


def _minimal(masks: set[int]) -> tuple[int, ...]:
    """The inclusion-minimal members of a set of masks, ascending.

    A mask can only contain masks of smaller popcount, so walking in
    popcount order each mask is tested against the minimal ones kept so far.
    """
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def _maximal(masks: set[int]) -> tuple[int, ...]:
    """The inclusion-maximal members of a set of masks, ascending."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if not any(k & m == m for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def _all_faces(facets: Iterable[int]) -> set[int]:
    """Every subset of every facet, walked as the submasks of each facet."""
    faces: set[int] = set()
    for f in facets:
        s = f
        while s:
            faces.add(s)
            s = (s - 1) & f
        faces.add(0)
    return faces


def _compress(masks: Iterable[int], order: Sequence[int]) -> list[int]:
    """Renumber the bits of each mask: bit ``order[k]`` becomes bit k.

    Every set bit of every mask must occur in ``order``.
    """
    pos = {old: 1 << new for new, old in enumerate(order)}
    out = []
    for m in masks:
        c = 0
        for i in bit_ids(m):
            c |= pos[i]
        out.append(c)
    return out


@dataclass(frozen=True)
class Hypergraph:
    labels: tuple[str, ...]
    edges: tuple[int, ...]  # bitmasks in canonical order
    void: bool = False

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertex_id(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownVertex(f"unknown vertex {label!r}") from None

    def edge_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bit_ids(mask))

    def edges_as_labels(self) -> list[tuple[str, ...]]:
        return [self.edge_labels(e) for e in self.edges]

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.labels),
            "edges": [list(self.edge_labels(e)) for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def build(vertex_labels: Sequence[str], edge_lists: Sequence[Sequence[str]]) -> Hypergraph:
    """Construct a simple hypergraph, enforcing the antichain condition."""
    labels = tuple(vertex_labels)
    if len(set(labels)) != len(labels):
        raise HyperinvError("vertex labels are not distinct")
    index = {lab: i for i, lab in enumerate(labels)}
    masks = []
    for edge in edge_lists:
        if not edge:
            raise EmptyEdge("empty edge")
        ids = []
        for lab in edge:
            if lab not in index:
                raise UnknownVertex(f"unknown vertex {lab!r} in edge {tuple(edge)}")
            ids.append(index[lab])
        m = mask_of(ids)
        if m in masks:
            raise DuplicateEdge(f"duplicate edge {tuple(sorted(edge))}")
        masks.append(m)
    for a, b in combinations(masks, 2):
        if a & b == a or a & b == b:
            raise AntichainViolation(
                f"edge containment between {tuple(bit_ids(a))} and {tuple(bit_ids(b))}"
            )
    masks.sort(key=edge_sort_key)
    return Hypergraph(labels, tuple(masks))


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def from_json_obj(obj: dict) -> Hypergraph:
    """Read ``{"vertices": [str, ...], "edges": [[str, ...], ...]}``."""
    obj = obj if isinstance(obj, dict) else {}
    vertices, edges = obj.get("vertices"), obj.get("edges")
    if not (_is_str_list(vertices) and isinstance(edges, list) and all(map(_is_str_list, edges))):
        raise HyperinvError(
            'an instance is {"vertices": a list of strings, "edges": a list of lists of strings}'
        )
    return build(vertices, edges)


def from_json(text: str) -> Hypergraph:
    return from_json_obj(json.loads(text))


def from_masks(labels: Sequence[str], masks: Sequence[int], void: bool = False) -> Hypergraph:
    """Internal constructor from already-validated edge masks."""
    canon = tuple(sorted(set(masks), key=edge_sort_key))
    return Hypergraph(tuple(labels), canon, void)


def _drop_vertex_labels(h: Hypergraph, i: int) -> tuple[str, ...]:
    return h.labels[:i] + h.labels[i + 1 :]


def _shift_mask(mask: int, i: int) -> int:
    """Remove bit position i and close the gap above it."""
    low = mask & ((1 << i) - 1)
    high = mask >> (i + 1)
    return low | (high << i)


def deletion(h: Hypergraph, x: str) -> Hypergraph:
    """H\\x: drop the vertex and every edge through it."""
    i = h.vertex_id(x)
    bit = 1 << i
    kept = [_shift_mask(e, i) for e in h.edges if not e & bit]
    return from_masks(_drop_vertex_labels(h, i), kept)


def contraction(h: Hypergraph, x: str) -> Hypergraph:
    """H/x: remove x from every edge and keep the inclusion-minimal results."""
    i = h.vertex_id(x)
    bit = 1 << i
    stripped = {e & ~bit for e in h.edges}
    if 0 in stripped:
        # {x} was an edge: the contraction's only "edge" is the empty set.
        return Hypergraph(_drop_vertex_labels(h, i), (), void=True)
    shifted = [_shift_mask(e, i) for e in _minimal(stripped)]
    return from_masks(_drop_vertex_labels(h, i), shifted)


def neighborhood_minus(h: Hypergraph, x: str, y: str) -> set[int]:
    """{E \\ {x} : E edge, x in E, y not in E}, as a set of masks."""
    ix, iy = h.vertex_id(x), h.vertex_id(y)
    if ix == iy:
        raise SameVertex(f"vertices coincide: {x!r}")
    bx, by = 1 << ix, 1 << iy
    return {e & ~bx for e in h.edges if e & bx and not e & by}


@dataclass(frozen=True)
class CycleWitness:
    vertex_ids: tuple[int, ...]
    edge_masks: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertex_ids)

    def as_labels(self, h: Hypergraph) -> dict:
        return {
            "vertices": [h.labels[i] for i in self.vertex_ids],
            "edges": [list(h.edge_labels(e)) for e in self.edge_masks],
        }


def _cycles(h: Hypergraph, n: int) -> Iterator[CycleWitness]:
    """Backtracking enumeration of n-cycle witnesses.

    The first vertex is forced to be the least vertex on the cycle, so the
    first witness yielded is deterministic.
    """
    edges = h.edges

    def extend(
        start: int, path_v: list[int], path_e: list[int], used_v: int
    ) -> Iterator[CycleWitness]:
        cb = 1 << path_v[-1]
        sb = 1 << start
        if len(path_v) == n:
            for e in edges:
                if e & cb and e & sb and e not in path_e:
                    yield CycleWitness(tuple(path_v), tuple(path_e + [e]))
            return
        for e in edges:
            if not e & cb or e in path_e:
                continue
            path_e.append(e)
            for w in bit_ids(e & ~used_v):
                if w <= start:
                    continue
                path_v.append(w)
                yield from extend(start, path_v, path_e, used_v | (1 << w))
                path_v.pop()
            path_e.pop()

    for start in range(h.n):
        yield from extend(start, [start], [], 1 << start)


def _canonical_witness(w: CycleWitness) -> CycleWitness:
    """Least representative under rotation and reflection."""
    n = w.length
    vs, es = w.vertex_ids, w.edge_masks
    best = None
    for r in range(n):
        fwd_v = tuple(vs[(r + i) % n] for i in range(n))
        fwd_e = tuple(es[(r + i) % n] for i in range(n))
        # reversal: vertices reversed starting at same anchor, edge roles shift
        rev_v = (fwd_v[0],) + tuple(reversed(fwd_v[1:]))
        rev_e = tuple(reversed(fwd_e))
        for cand in (
            (fwd_v, fwd_e),
            (rev_v, rev_e),
        ):
            key = (cand[0], tuple(tuple(bit_ids(e)) for e in cand[1]))
            if best is None or key < best[0]:
                best = (key, cand)
    assert best is not None
    return CycleWitness(best[1][0], best[1][1])


def find_cycle(
    h: Hypergraph,
    n: int,
    cycle_limit: int = DEFAULT_CYCLE_LENGTH_CAP,
    edge_cap: int = DEFAULT_CYCLE_EDGE_CAP,
) -> Optional[CycleWitness]:
    """Exhaustive search for a Berge cycle of length n; None if absent."""
    if n < 2:
        raise SearchLimitExceeded("cycle length must be at least 2")
    if n > cycle_limit:
        raise SearchLimitExceeded(f"cycle length {n} exceeds cap {cycle_limit}")
    if len(h.edges) > edge_cap:
        raise SearchLimitExceeded(f"{len(h.edges)} edges exceed cycle-search cap {edge_cap}")
    for w in _cycles(h, n):
        return _canonical_witness(w)
    return None


def three_cycle_edge_condition(h: Hypergraph) -> bool:
    """True iff every 3-cycle of H uses only edges of cardinality two.

    A 3-cycle on the unordered edge triple {A, B, C} exists iff the three
    pairwise intersections admit distinct representatives, so the check
    runs over edge triples instead of replaying the generic search.
    """
    edges = h.edges
    for a, b, c in combinations(edges, 3):
        if max(a.bit_count(), b.bit_count(), c.bit_count()) == 2:
            continue
        iab, ibc, ica = a & b, b & c, c & a
        if not (iab and ibc and ica):
            continue
        found = False
        for u in bit_ids(iab):
            for v in bit_ids(ibc):
                if v == u:
                    continue
                if ica & ~(1 << u) & ~(1 << v):
                    found = True
                    break
            if found:
                break
        if found:
            return False
    return True


def is_graph(h: Hypergraph) -> bool:
    """True iff every edge has two vertices (so also when there is no edge)."""
    return all(e.bit_count() == 2 for e in h.edges)


def c2_free(h: Hypergraph) -> bool:
    """True iff no two edges share two vertices (no Berge 2-cycle)."""
    return all((a & b).bit_count() < 2 for a, b in combinations(h.edges, 2))


def uniformity_profile(h: Hypergraph) -> dict:
    """Edge-cardinality uniformity and the pairwise d-1 intersection property."""
    if not h.edges:
        raise NoEdges("hypergraph has no edges")
    sizes = {e.bit_count() for e in h.edges}
    d = sizes.pop() if len(sizes) == 1 else None
    strong = False
    if d is not None:
        strong = all(
            (a & b).bit_count() in (0, d - 1) for a, b in combinations(h.edges, 2)
        )
    return {"d": d, "strong_intersection": strong}


def maximal_independent_sets(h: Hypergraph) -> tuple[int, ...]:
    """All maximal independent vertex sets, as masks in ascending mask order.

    They are the complements of the minimal vertex covers.
    """
    if h.void:
        return ()
    full = h.full_mask
    return tuple(sorted(full & ~c for c in _minimal_transversals(h.edges)))


def _edge_subset_unions(edges: Sequence[int]) -> list[int]:
    """Unions of all edge subsets (the lcm lattice), 0 included, ascending."""
    unions = {0}
    for e in edges:
        unions |= {u | e for u in unions}
    return sorted(unions)


def _minimal_transversals(edges: Sequence[int]) -> tuple[int, ...]:
    """Minimal sets meeting every edge, ascending; ``(0,)`` for no edges.

    Branches on the vertices of the first edge the partial choice misses,
    then keeps the inclusion-minimal leaves.
    """
    results: set[int] = set()

    def rec(chosen: int, idx: int) -> None:
        for j in range(idx, len(edges)):
            if not edges[j] & chosen:
                for v in bit_ids(edges[j]):
                    rec(chosen | (1 << v), j + 1)
                return
        results.add(chosen)

    rec(0, 0)
    return _minimal(results)


@dataclass(frozen=True)
class CoverList:
    covers: tuple[int, ...]
    bigheight: int

    def as_labels(self, h: Hypergraph) -> list[list[str]]:
        return [list(h.edge_labels(c)) for c in self.covers]


def minimal_vertex_covers(h: Hypergraph) -> CoverList:
    """Minimal vertex covers: the minimal transversals of the edges."""
    if h.void:
        return CoverList((), 0)
    covers = _minimal_transversals(h.edges)
    big = max((c.bit_count() for c in covers), default=0)
    return CoverList(covers, big)
