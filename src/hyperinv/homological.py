"""Graded Betti numbers of the Stanley-Reisner ring of an independence
complex, via the reduced-homology sum over induced subcomplexes, plus
regularity, projective dimension, and the Alexander dual.

The Hochster sum runs over the lcm lattice of the edges only.  Ranks are
exact, over the rationals or GF(p), by one sparse column eliminator that
pivots on units and falls back to fraction-free cross-multiplication on
the rational entries that are not +-1.  The reduced chain complex
includes the empty face, so restrictions whose only face is empty
contribute the (-1)-dimensional class.

Clearing (Chen and Kerber 2011) and apparent pivots (Bauer, Ripser 2021)
leave most boundary columns unbuilt.  Dimensions are reduced top-down, and
a face that is the pivot row of a reduced column one dimension up is
skipped: its column would reduce to zero.  A face whose lowest boundary
row, the face minus its lowest vertex, has no pivot yet becomes that row's
pivot unbuilt; its column is built only if another column reduces against it.

Each restriction K is first reduced by rules, tried in order, that keep its
reduced homology over every field, being cones, suspensions and homotopy
equivalences (K\\w drops w and its edges, K/w keeps the minimal edges
minus w): (a) n = 0 gives {-1: 1}, and a vertex in no edge is a cone point:
zero; (b) a singleton edge {v}: v is in no face, go on with K\\v; (c) some
c != w in no edge of K\\w makes Ind(K\\w) a cone, so Ind K is the suspension
of the link Ind(K/w) of w: degrees shift up by one; (d) some c != w in no
edge of K/w makes that link a cone, so Ind K ~ Ind(K\\w), the fold lemma of
Engström (Discrete Math. 309, 2009) for graphs; (e) otherwise the faces of
the irreducible core are enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, isqrt
from operator import or_

from .complexes import SimplicialComplex
from .errors import HyperinvError, SizeLimitExceeded, UnknownField
from .hypergraph import (
    Hypergraph,
    _all_faces,
    _compress,
    _contracted,
    _deleted,
    _edge_subset_unions,
    _minimal_transversals,
    bit_ids,
    from_masks,
)

DEFAULT_HOMOLOGY_CAP = 14
DEFAULT_BETTI_CAP = 12

FIELD_Q = "Q"


def parse_field(text: str) -> str:
    """"q" for the rationals, "f<p>" for GF(p) with p a prime below 2^31."""
    t = text.strip().lower()
    if t == "q":
        return FIELD_Q
    if t.startswith("f") and t[1:].isdecimal() and len(t) <= 11:
        p = int(t[1:])
        if 2 <= p < 1 << 31 and all(p % q for q in range(2, isqrt(p) + 1)):
            return f"F{p}"
    raise UnknownField(f"unknown field {text!r}: use q, or f<p> for a prime p below 2^31")


def _boundary(f: int, p: int) -> dict[int, int]:
    """Boundary column of face f, keyed by its codimension-one faces, mod p (0: over Z)."""
    neg = p - 1 if p else -1
    return {f & ~(1 << v): neg if k % 2 else 1 for k, v in enumerate(bit_ids(f))}


def _reduce(columns: list[dict[int, int] | int], field: str) -> dict[int, dict[int, int] | int]:
    """Pivot columns of an exact column reduction, keyed by their lowest row.

    A column is a sparse {row: entry} dict, or a face mask that stands for
    its boundary and becomes an apparent pivot when it can.  Each column is
    reduced by its lowest (largest) nonzero row against the earlier column
    that owns that row as its pivot.  Over GF(p) every nonzero entry is a
    unit.  Over Q a pivot of +-1 eliminates in plain integers; any other
    pivot cross-multiplies and the column is then divided by its content,
    so entries stay small and exact.
    """
    p = 0 if field == FIELD_Q else int(field[1:])
    pivots: dict[int, dict[int, int] | int] = {}
    for col in columns:
        if isinstance(col, int):
            low = col & (col - 1)  # the face minus its lowest vertex
            if low not in pivots:
                pivots[low] = col
                continue
            col = _boundary(col, p)
        else:
            col = {r: x for r, v in col.items() if (x := v % p if p else v)}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            if isinstance(piv, int):
                piv = pivots[low] = _boundary(piv, p)
            a, b = col[low], piv[low]
            unit = p > 0 or b in (1, -1)
            if unit:
                f = a * pow(b, -1, p) if p else a * b
            else:
                f, col = a, {r: b * v for r, v in col.items()}
            for r, v in piv.items():
                x = col.get(r, 0) - f * v
                if p:
                    x %= p
                if x:
                    col[r] = x
                else:
                    del col[r]
            if not unit and col:
                g = gcd(*col.values())
                col = {r: v // g for r, v in col.items()}
    return pivots


def _rank(columns: list[dict[int, int]], field: str) -> int:
    """Exact rank of the matrix whose columns are sparse {row: entry} dicts."""
    return len(_reduce(columns, field))


def _homology_from_faces(faces: set[int], field: str) -> dict[int, int]:
    """Reduced Betti numbers keyed by dimension, zero entries omitted.

    Boundary columns are keyed by the masks of the codimension-one faces,
    so a column's lowest row is its largest face mask.  Faces are reduced
    in increasing mask order, dimensions top-down, with clearing.
    """
    if not faces:
        return {}
    by_dim: dict[int, list[int]] = {}
    for f in sorted(faces):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    rank: dict[int, int] = {}
    pivots: dict = {}  # rows of the reduced map one dimension up: cleared
    for d in range(top, -1, -1):
        pivots = _reduce([f for f in by_dim[d] if f not in pivots], field)
        rank[d] = len(pivots)
    betti = {d: len(fs) - rank.get(d, 0) - rank.get(d + 1, 0) for d, fs in by_dim.items()}
    return {d: b for d, b in betti.items() if b}


def reduced_homology(
    d: SimplicialComplex, field: str = FIELD_Q, cap: int = DEFAULT_HOMOLOGY_CAP
) -> dict[int, int]:
    """Reduced Betti numbers of D keyed by dimension, zero entries omitted."""
    if d.n > cap:
        raise SizeLimitExceeded(f"ground set {d.n} exceeds homology cap {cap}")
    return _homology_from_faces(_all_faces(d.facets), field)


# ---------------------------------------------------------------------------
# Betti table via the induced-subcomplex homology sum

_SUBGRAPH_HOMOLOGY_MEMO: dict[tuple, dict[int, int]] = {}


def _subhypergraph_homology(n: int, edges: tuple[int, ...], field: str) -> dict[int, int]:
    """Homology of the independence complex of a (compressed) hypergraph."""
    key = (n, edges, field)
    hit = _SUBGRAPH_HOMOLOGY_MEMO.get(key)
    if hit is None:
        hit = _SUBGRAPH_HOMOLOGY_MEMO[key] = _homology_by_rules(n, edges, field)
    return hit


def _homology_by_rules(n: int, edges: tuple[int, ...], field: str) -> dict[int, int]:
    """Rules (a)-(e) of the module docstring; reduced hypergraphs go through the memo."""
    full = (1 << n) - 1
    if not n or reduce(or_, edges, 0) != full:  # (a)
        return {} if n else {-1: 1}
    for e in edges:
        if not e & (e - 1):  # (b)
            return _subhypergraph_homology(n - 1, _deleted(edges, e.bit_length() - 1), field)
    for w in range(n):
        if reduce(or_, [e for e in edges if not e >> w & 1], 1 << w) != full:  # (c)
            hom = _subhypergraph_homology(n - 1, _contracted(edges, w), field)
            return {d + 1: r for d, r in hom.items()}
    for w in range(n):
        if reduce(or_, _contracted(edges, w), 0) != full >> 1:  # (d)
            return _subhypergraph_homology(n - 1, _deleted(edges, w), field)
    facets = tuple(full & ~c for c in _minimal_transversals(edges))  # (e)
    return _homology_from_faces(_all_faces(facets), field)


@dataclass(frozen=True)
class BettiTable:
    entries: dict  # (i, j) -> rank, zero entries omitted
    n: int
    field: str

    @property
    def reg(self) -> int:
        return max((j - i for i, j in self.entries), default=0)

    @property
    def pd(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def to_json_obj(self) -> dict:
        return {
            "field": self.field,
            "entries": [[i, j, r] for (i, j), r in sorted(self.entries.items())],
            "reg": self.reg,
            "pd": self.pd,
        }


def betti_table(
    h: Hypergraph, field: str = FIELD_Q, cap: int = DEFAULT_BETTI_CAP
) -> BettiTable:
    """Exact graded Betti numbers of the quotient by the edge ideal.

    Hochster's formula: for a vertex subset W, the restriction of the
    independence complex is the independence complex of the edges inside
    W, and its reduced homology in dimension |W|-i-1 contributes to the
    (i, |W|) entry.  Only W in the lcm lattice (nonzero unions of edges)
    are visited: elsewhere rule (a) gives zero.  Results per compressed
    sub-hypergraph are memoized globally.
    """
    if h.n > cap:
        raise SizeLimitExceeded(f"{h.n} vertices exceed Betti cap {cap}")
    if h.void:
        raise HyperinvError("Betti table of the void-marker hypergraph is undefined")
    entries: dict[tuple[int, int], int] = {}
    for w in _edge_subset_unions(h.edges)[1:]:
        ids = list(bit_ids(w))
        j = len(ids)
        sub = _compress([e for e in h.edges if e & w == e], ids)
        hom = _subhypergraph_homology(j, tuple(sorted(sub)), field)
        for dim, rank in hom.items():
            i = j - dim - 1
            if i >= 1:
                entries[(i, j)] = entries.get((i, j), 0) + rank
    return BettiTable(entries, h.n, field)


def reg_and_pd(h: Hypergraph, field: str = FIELD_Q, cap: int = DEFAULT_BETTI_CAP) -> dict:
    t = betti_table(h, field, cap)
    return {"reg": t.reg, "pd": t.pd}


# ---------------------------------------------------------------------------
# Alexander duality


def minimal_nonfaces(d: SimplicialComplex) -> tuple[int, ...]:
    """Inclusion-minimal subsets of the ground set that are not faces.

    A set is a non-face iff it meets the complement of every facet, so the
    minimal non-faces are the minimal transversals of those complements.
    """
    full = (1 << d.n) - 1
    return _minimal_transversals([full & ~f for f in d.facets])


def alexander_dual(d: SimplicialComplex) -> SimplicialComplex:
    """Complex of complements of non-faces; full simplex and void swap."""
    full = (1 << d.n) - 1
    duals = [full & ~m for m in minimal_nonfaces(d)]
    return SimplicialComplex(d.labels, tuple(sorted(duals)))


def complex_to_hypergraph(d: SimplicialComplex) -> Hypergraph:
    """Hypergraph whose independence complex is D (edges = minimal non-faces)."""
    nonfaces = minimal_nonfaces(d)
    if 0 in nonfaces:
        return Hypergraph(d.labels, (), void=True)
    return from_masks(d.labels, nonfaces)
