"""Finite simple hypergraphs over an ordered vertex table.

Vertices are identified by their position in the vertex table; edges are
stored as integer bitmasks over those ids.  Canonical edge order is
(cardinality, ascending id tuple).  Everything downstream relies on that
order for deterministic witnesses.

A hypergraph produced by contracting a singleton edge carries the
``void`` flag: its conceptual edge set is exactly {∅}, no vertex set is
independent, and its independence complex is the void complex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

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


def from_json_obj(obj: dict) -> Hypergraph:
    return build(obj["vertices"], obj["edges"])


def from_json(text: str) -> Hypergraph:
    return from_json_obj(json.loads(text))


def from_masks(labels: Sequence[str], masks: Sequence[int], void: bool = False) -> Hypergraph:
    """Internal constructor from already-validated edge masks."""
    canon = tuple(sorted(set(masks), key=edge_sort_key))
    return Hypergraph(tuple(labels), canon, void)


def _check_vertex(h: Hypergraph, x: str) -> int:
    return h.vertex_id(x)


def _drop_vertex_labels(h: Hypergraph, i: int) -> tuple[str, ...]:
    return h.labels[:i] + h.labels[i + 1 :]


def _shift_mask(mask: int, i: int) -> int:
    """Remove bit position i and close the gap above it."""
    low = mask & ((1 << i) - 1)
    high = mask >> (i + 1)
    return low | (high << i)


def deletion(h: Hypergraph, x: str) -> Hypergraph:
    """H\\x: drop the vertex and every edge through it."""
    i = _check_vertex(h, x)
    bit = 1 << i
    kept = [_shift_mask(e, i) for e in h.edges if not e & bit]
    return from_masks(_drop_vertex_labels(h, i), kept)


def contraction(h: Hypergraph, x: str) -> Hypergraph:
    """H/x: remove x from every edge and keep the inclusion-minimal results."""
    i = _check_vertex(h, x)
    bit = 1 << i
    stripped = {e & ~bit for e in h.edges}
    if 0 in stripped:
        # {x} was an edge: the contraction's only "edge" is the empty set.
        return Hypergraph(_drop_vertex_labels(h, i), (), void=True)
    minimal = [
        e for e in stripped if not any(o != e and o & e == o for o in stripped)
    ]
    shifted = [_shift_mask(e, i) for e in minimal]
    return from_masks(_drop_vertex_labels(h, i), shifted)


def neighborhood_minus(h: Hypergraph, x: str, y: str) -> set[int]:
    """{E \\ {x} : E edge, x in E, y not in E}, as a set of masks."""
    ix, iy = _check_vertex(h, x), _check_vertex(h, y)
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
    """All maximal independent vertex sets, as masks in ascending mask order."""
    if h.void:
        return ()
    n = h.n
    edges = h.edges
    if not edges:
        return (h.full_mask,)
    if n <= 16:
        independent = []
        for u in range(1 << n):
            if not any(e & u == e for e in edges):
                independent.append(u)
        ind_set = set(independent)
        out = []
        for u in independent:
            if all((u | (1 << v)) not in ind_set for v in range(n) if not u >> v & 1):
                out.append(u)
        return tuple(sorted(out))
    # complement route: minimal transversals of the edge set
    covers = _minimal_transversals(edges)
    full = h.full_mask
    return tuple(sorted(full & ~c for c in covers))


def _edge_subset_unions(edges: Sequence[int]) -> list[int]:
    """Unions of all edge subsets (the lcm lattice), 0 included, ascending."""
    unions = {0}
    for e in edges:
        unions |= {u | e for u in unions}
    return sorted(unions)


def _minimal_transversals(edges: Sequence[int]) -> list[int]:
    results: set[int] = set()

    def rec(chosen: int, idx: int) -> None:
        for j in range(idx, len(edges)):
            if not edges[j] & chosen:
                for v in bit_ids(edges[j]):
                    rec(chosen | (1 << v), j + 1)
                return
        results.add(chosen)

    rec(0, 0)
    return [
        c for c in results if not any(o != c and o & c == o for o in results)
    ]


@dataclass(frozen=True)
class CoverList:
    covers: tuple[int, ...]
    bigheight: int

    def as_labels(self, h: Hypergraph) -> list[list[str]]:
        return [list(h.edge_labels(c)) for c in self.covers]


def minimal_vertex_covers(h: Hypergraph) -> CoverList:
    """Minimal vertex covers = complements of the independence-complex facets."""
    if h.void:
        return CoverList((), 0)
    full = h.full_mask
    covers = tuple(sorted(full & ~f for f in maximal_independent_sets(h)))
    big = max((c.bit_count() for c in covers), default=0)
    return CoverList(covers, big)
