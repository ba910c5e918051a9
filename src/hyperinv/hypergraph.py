"""Finite simple hypergraphs over an ordered vertex table.

Vertices are identified by their position in the vertex table; edges are
stored as integer bitmasks over those ids.  Canonical edge order is
(cardinality, ascending id tuple).  Everything downstream relies on that
order for deterministic witnesses.

Contracting a singleton edge leaves the void marker: the hypergraph whose
only edge is the empty set, ``edges == (0,)``.  No vertex set is
independent, so it has no minimal vertex cover and its independence
complex is the void complex.  Deleting or contracting a vertex keeps it.

One dualization primitive, ``_minimal_transversals`` (MMCS), yields the
minimal vertex covers; the maximal independent sets are their
complements, and the minimal non-faces and Alexander dual of a complex
in ``homological`` are the transversals of its facet complements.  Past
``DEFAULT_TRANSVERSAL_CAP`` transversals it raises ``SearchLimitExceeded``.

One renumbering primitive, ``_compress``, moves masks onto the set bits
of a vertex mask, in ascending order: deletion and contraction of a
vertex, the link and deletion of a vertex in ``complexes`` and the
Hochster restrictions in ``homological`` use it.  Contraction needs no
antichain normalization: the edges through x, less x, are kept, and an
edge that misses x drops iff it contains one of them.

One edge-union primitive, ``_lattice``, walks the lcm lattice: every
nonzero union W of edges with the mask of the edges inside W, ascending
by W.  The c, c' and m searches in ``matchings``, the induced matchings
of the d search in ``bouquets`` and the Hochster sum in ``homological``
read their families and restrictions from it, so its one cap,
``DEFAULT_LATTICE_CAP`` on the edges inside each W summed, bounds them
all.  The Berge cycle search, ``find_cycle``, counts the paths it grows
against the same constant; no cap counts edges or a cycle length.
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

DEFAULT_TRANSVERSAL_CAP = 10_000
DEFAULT_LATTICE_CAP = 20 << 19  # edges inside the edge unions, summed: at most 20 * 2^19 for 20 edges


_SMALL_BIT_IDS: list[tuple[int, ...]] = [()]  # masks with top bit i: those below 2**i, + (i,)
for _i in range(10):
    _SMALL_BIT_IDS += [ids + (_i,) for ids in _SMALL_BIT_IDS]


def bit_ids(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask``, ascending; from a table below 2**10."""
    if mask < 1024:
        return _SMALL_BIT_IDS[mask]
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def edge_sort_key(mask: int) -> tuple:
    return (mask.bit_count(), bit_ids(mask))


def _maximal(masks: set[int]) -> tuple[int, ...]:
    """The inclusion-maximal members of a set of masks, ascending."""
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if not any(k & m == m for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def _faces(facets: Iterable[int], cap: int, what: str) -> set[int]:
    """The nonempty faces spanned by ``facets``: the nonzero submasks of each.
    Past ``cap`` collected, a cap its caller reads at call time, it raises
    ``SearchLimitExceeded``: "<what> exceed cap <cap>"."""
    faces = set()
    for f in facets:
        s = f
        while s:
            faces.add(s)
            if len(faces) > cap:
                raise SearchLimitExceeded(f"{what} exceed cap {cap}")
            s = (s - 1) & f
    return faces


def _compress(masks: Iterable[int], keep: int) -> list[int]:
    """Renumber each mask onto the set bits of ``keep``: the k-th lowest set
    bit of ``keep`` becomes bit k, and bits outside ``keep`` are dropped.

    ``keep`` is cut into runs of consecutive bits; each run moves down by
    the number of bits outside ``keep`` below it.
    """
    runs = []
    rest = keep
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)
        runs.append((run, low.bit_length() - 1 - (keep & (low - 1)).bit_count()))
        rest ^= run
    out = []
    for m in masks:
        c = 0
        for run, shift in runs:
            c |= (m & run) >> shift
        out.append(c)
    return out


@dataclass(frozen=True)
class Hypergraph:
    labels: tuple[str, ...]
    edges: tuple[int, ...]  # bitmasks in canonical order

    @property
    def void(self) -> bool:
        """True for the void marker, whose only edge is the empty set."""
        return self.edges == (0,)

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
        if m.bit_count() < len(ids):
            raise HyperinvError(f"edge {tuple(edge)} names a vertex twice")
        if m in masks:
            raise DuplicateEdge(f"duplicate edge {tuple(sorted(edge))}")
        masks.append(m)
    for a, b in combinations(masks, 2):
        if a & b == a or a & b == b:
            raise AntichainViolation(
                f"edge containment between {bit_ids(a)} and {bit_ids(b)}"
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


def from_masks(labels: Sequence[str], masks: Sequence[int]) -> Hypergraph:
    """Internal constructor from already-validated edge masks."""
    canon = tuple(sorted(set(masks), key=edge_sort_key))
    return Hypergraph(tuple(labels), canon)


def _deleted(edges: Iterable[int], n: int, i: int) -> tuple[int, ...]:
    """The edges over 0..n-1 that miss vertex i, with bit i removed, in their order."""
    return tuple(_compress([e for e in edges if not e >> i & 1], (1 << n) - 1 & ~(1 << i)))


def _contract(edges: Sequence[int], bit: int) -> list[int]:
    """Minimal sets among the edges less the vertex of ``bit``, same ids; [0]
    if it is an edge.  The edges through it, less it, stay (an antichain in
    no other edge); an edge that misses it drops iff it contains one."""
    through = [e ^ bit for e in edges if e & bit]
    return through + [e for e in edges if not e & bit and not any(t & e == t for t in through)]


def _contracted(edges: Sequence[int], n: int, i: int) -> tuple[int, ...]:
    """``_contract`` at vertex i, renumbered onto 0..n-2, ascending."""
    return tuple(sorted(_compress(_contract(edges, 1 << i), (1 << n) - 1 & ~(1 << i))))


def deletion(h: Hypergraph, x: str) -> Hypergraph:
    """H\\x: drop the vertex and every edge through it."""
    i = h.vertex_id(x)
    return from_masks(h.labels[:i] + h.labels[i + 1 :], _deleted(h.edges, h.n, i))


def contraction(h: Hypergraph, x: str) -> Hypergraph:
    """H/x: remove x from every edge and keep the inclusion-minimal results.
    If {x} was an edge, the only edge left is empty: the void marker."""
    i = h.vertex_id(x)
    return from_masks(h.labels[:i] + h.labels[i + 1 :], _contracted(h.edges, h.n, i))


def neighborhood_minus(h: Hypergraph, x: str, y: str) -> set[int]:
    """{E \\ {x} : E edge, x in E, y not in E}, as a set of masks."""
    ix, iy = h.vertex_id(x), h.vertex_id(y)
    if ix == iy:
        raise SameVertex(f"vertices coincide: {x!r}")
    return _neighborhood_minus(h.edges, 1 << ix, 1 << iy)


def _neighborhood_minus(edges: Sequence[int], bx: int, by: int) -> set[int]:
    """``neighborhood_minus`` on the bits of two distinct vertices."""
    return {e & ~bx for e in edges if e & bx and not e & by}


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
    first witness yielded is deterministic.  Each path scans only the edges
    through its end vertex, in canonical order, and never enters a vertex
    in fewer than two edges, which no cycle passes.  Past
    ``DEFAULT_LATTICE_CAP`` paths grown it raises ``SearchLimitExceeded``.
    """
    cap, paths = DEFAULT_LATTICE_CAP, 0
    through = [[e for e in h.edges if e >> v & 1] for v in range(h.n)]
    lone = mask_of(v for v in range(h.n) if len(through[v]) < 2)

    def extend(
        start: int, path_v: list[int], path_e: list[int], used_v: int
    ) -> Iterator[CycleWitness]:
        nonlocal paths
        if (paths := paths + 1) > cap:
            raise SearchLimitExceeded(f"cycle search paths exceed lattice cap {cap}")
        if len(path_v) == n:
            for e in through[path_v[-1]]:
                if e >> start & 1 and e not in path_e:
                    yield CycleWitness(tuple(path_v), tuple(path_e + [e]))
            return
        for e in through[path_v[-1]]:
            if e in path_e:
                continue
            path_e.append(e)
            for w in bit_ids(e & ~used_v):
                path_v.append(w)
                yield from extend(start, path_v, path_e, used_v | (1 << w))
                path_v.pop()
            path_e.pop()

    for start in bit_ids(h.full_mask & ~lone):  # every vertex up to the start counts as used
        yield from extend(start, [start], [], (2 << start) - 1 | lone)


def _canonical_witness(w: CycleWitness) -> CycleWitness:
    """Least representative under rotation and reflection.  ``_cycles``
    starts every cycle at its least vertex, so no other rotation can be
    less: only the reversal, which keeps that anchor, is compared."""
    vs, es = w.vertex_ids, w.edge_masks
    rev = CycleWitness(vs[:1] + vs[:0:-1], es[::-1])
    return min(w, rev, key=lambda c: (c.vertex_ids, [bit_ids(e) for e in c.edge_masks]))


def find_cycle(h: Hypergraph, n: int) -> Optional[CycleWitness]:
    """Exhaustive search for a Berge cycle of length n; None if absent.
    The paths it grows count against ``DEFAULT_LATTICE_CAP``."""
    if n < 2:
        raise HyperinvError("cycle length must be at least 2")
    if len(h.edges) < n or h.n < n:  # an n-cycle has n distinct edges and n distinct vertices
        return None
    for w in _cycles(h, n):
        return _canonical_witness(w)
    return None


def three_cycle_edge_condition(h: Hypergraph) -> bool:
    """True iff every 3-cycle of H uses only edges of cardinality two.

    A 3-cycle on the unordered edge triple {A, B, C} exists iff the three
    pairwise intersections admit distinct representatives, so the check
    runs over edge triples instead of replaying the generic search: only
    those with an edge C of three or more vertices, each once, as C with two
    earlier edges that meet it (canonical order puts smaller edges first).
    """
    edges = h.edges
    for k, c in enumerate(edges):
        if c.bit_count() < 3:
            continue
        for a, b in combinations([e for e in edges[:k] if e & c], 2):
            iab, ibc, ica = a & b, b & c, c & a
            if any(ica & ~(1 << u) & ~(1 << v) for u in bit_ids(iab) for v in bit_ids(ibc) if v != u):
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
    return tuple(sorted(h.full_mask & ~c for c in minimal_vertex_covers(h).covers))


_LATTICE_MEMO: dict[tuple[int, ...], tuple[Optional[tuple[tuple[int, int], ...]], int]] = {}


def _lattice(edges: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Each nonzero union W of edges (the lcm lattice) with the mask of the
    indices of the edges inside W, in ascending order of W.  An edge inside
    W | e lies inside an earlier union that also extends to W | e, so OR-ing
    their masks is exact.  Only the last edge list's lattice is kept: one
    per hypergraph.  Its size, the edges inside each W summed, bounds the
    work of each walk over it.  The unions and their edges only grow, so
    summing after each edge (once the unions times the edges merged could
    pass the cap) raises ``SearchLimitExceeded`` iff the whole lattice's
    size passes ``DEFAULT_LATTICE_CAP``, holding at most twice the cap unions.
    A refusal is kept too, with the size it stopped at: only a cap raised
    to that size builds again."""
    cap, key = DEFAULT_LATTICE_CAP, tuple(edges)
    kept = _LATTICE_MEMO.get(key)
    if kept is None or kept[0] is None and kept[1] <= cap:  # new, or refused under a smaller cap
        inside = {0: 0}
        for j, e in enumerate(edges):
            bit = 1 << j
            for w, m in list(inside.items()):
                u = w | e
                inside[u] = inside.get(u, 0) | m | bit
            if len(inside) * (j + 1) > cap and sum(map(int.bit_count, inside.values())) > cap:
                break
        size = sum(map(int.bit_count, inside.values()))  # past the cap iff the loop broke
        del inside[0]
        _LATTICE_MEMO.clear()
        kept = _LATTICE_MEMO[key] = (tuple(sorted(inside.items())) if size <= cap else None), size
    if kept[1] > cap:  # refused, or kept under a larger cap
        raise SearchLimitExceeded(f"edges inside the edge unions exceed lattice cap {cap}")
    return kept[0]


def _minimal_transversals(edges: Sequence[int]) -> tuple[int, ...]:
    """Minimal sets meeting every edge, ascending; ``(0,)`` for no edges.

    MMCS (Murakami and Uno 2014) branches on the uncovered edge with the
    fewest candidates, adds a vertex only while every chosen vertex keeps
    a critical edge (met by no other chosen vertex), so every leaf is
    minimal, and makes each branch vertex a candidate again after its
    branch, so no set is found twice.  Edge sets are masks of edge indices.
    """
    if not edges:
        return (0,)
    cap = DEFAULT_TRANSVERSAL_CAP
    occ: dict[int, int] = {}  # vertex bit -> the index bits of its edges
    for j, e in enumerate(edges):
        while e:
            v = e & -e
            occ[v] = occ.get(v, 0) | 1 << j
            e ^= v
    found: list[int] = []

    def rec(chosen: int, uncov: int, cand: int, crit: list[int]) -> None:
        fewest = len(occ) + 1
        rest = uncov
        while rest:
            j = rest & -rest
            rest ^= j
            c = edges[j.bit_length() - 1] & cand
            k = c.bit_count()
            if k < fewest:  # an edge with no candidate leaves nothing to branch on
                fewest, branch = k, c
        cand &= ~branch
        while branch:
            v = branch & -branch
            branch ^= v
            hit = occ[v]
            kept = [x & ~hit for x in crit]
            if all(kept):
                if uncov & ~hit:
                    kept.append(uncov & hit)
                    rec(chosen | v, uncov & ~hit, cand, kept)
                else:
                    found.append(chosen | v)
                    if len(found) > cap:
                        raise SearchLimitExceeded(f"minimal transversals exceed cap {cap}")
            cand |= v

    rec(0, (1 << len(edges)) - 1, sum(occ), [])
    return tuple(sorted(found))


@dataclass(frozen=True)
class CoverList:
    covers: tuple[int, ...]

    @property
    def bigheight(self) -> int:
        return max((c.bit_count() for c in self.covers), default=0)

    def as_labels(self, h: Hypergraph) -> list[list[str]]:
        return [list(h.edge_labels(c)) for c in self.covers]


def minimal_vertex_covers(h: Hypergraph) -> CoverList:
    """Minimal vertex covers: the minimal transversals of the edges."""
    return CoverList(_minimal_transversals(h.edges))
