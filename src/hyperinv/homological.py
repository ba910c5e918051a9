"""Graded Betti numbers of the Stanley-Reisner ring of an independence
complex, via the reduced-homology sum over induced subcomplexes, plus
regularity, projective dimension, and the Alexander dual.

The Hochster sum runs over the lcm lattice of the edges only.  Ranks are
exact, over the rationals or GF(p), by one sparse column eliminator that
pivots on units and falls back to fraction-free cross-multiplication on
the rational entries that are not +-1.  The reduced chain complex
includes the empty face, so restrictions whose only face is empty
contribute the (-1)-dimensional class.

Every homology question, ``reduced_homology`` included, goes through the
rules below first; the plain eliminator ranks each boundary map of the
irreducible core that they leave.

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
    _lattice,
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


def _boundary(f: int) -> dict[int, int]:
    """Boundary column of face f, keyed by its codimension-one faces."""
    return {f & ~(1 << v): -1 if k % 2 else 1 for k, v in enumerate(bit_ids(f))}


def _reduce(columns: list[dict[int, int]], field: str) -> dict[int, dict[int, int]]:
    """Pivot columns of an exact column reduction, keyed by their lowest row.

    A column is a sparse {row: entry} dict, taken mod p as it comes in.
    Each column is reduced by its lowest (largest) nonzero row against the
    earlier column that owns that row as its pivot.  Over GF(p) every
    nonzero entry is a unit.  Over Q a pivot of +-1 eliminates in plain
    integers; any other pivot cross-multiplies and the column is then
    divided by its content, so entries stay small and exact.
    """
    p = 0 if field == FIELD_Q else int(field[1:])
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        col = {r: x for r, v in col.items() if (x := v % p if p else v)}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
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
    """Reduced Betti numbers keyed by dimension, zero entries omitted:
    faces minus the ranks of the boundary maps out of and into each dimension."""
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    rank = {d: _rank([_boundary(f) for f in fs], field) for d, fs in by_dim.items()}
    betti = {d: len(fs) - rank[d] - rank.get(d + 1, 0) for d, fs in by_dim.items()}
    return {d: b for d, b in betti.items() if b}


def reduced_homology(d: SimplicialComplex, field: str = FIELD_Q) -> dict[int, int]:
    """Reduced Betti numbers of D keyed by dimension, zero entries omitted.
    D is the independence complex of its minimal non-faces, so the rules apply."""
    if d.n > DEFAULT_HOMOLOGY_CAP:
        raise SizeLimitExceeded(f"ground set {d.n} exceeds homology cap {DEFAULT_HOMOLOGY_CAP}")
    if not d.facets:  # the void complex
        return {}
    return _subhypergraph_homology(d.n, minimal_nonfaces(d), field)


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
            return _subhypergraph_homology(n - 1, _deleted(edges, n, e.bit_length() - 1), field)
    for w in range(n):
        if reduce(or_, [e for e in edges if not e >> w & 1], 1 << w) != full:  # (c)
            hom = _subhypergraph_homology(n - 1, _contracted(edges, n, w), field)
            return {d + 1: r for d, r in hom.items()}
    for w in range(n):
        if reduce(or_, _contracted(edges, n, w), 0) != full >> 1:  # (d)
            return _subhypergraph_homology(n - 1, _deleted(edges, n, w), field)
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


def betti_table(h: Hypergraph, field: str = FIELD_Q) -> BettiTable:
    """Exact graded Betti numbers of the quotient by the edge ideal.

    Hochster's formula: for a vertex subset W, the restriction of the
    independence complex is the independence complex of the edges inside
    W, and its reduced homology in dimension |W|-i-1 contributes to the
    (i, |W|) entry.  Only W in the lcm lattice (nonzero unions of edges)
    are visited: elsewhere rule (a) gives zero.  Results per compressed
    sub-hypergraph are memoized globally.
    """
    if h.n > DEFAULT_BETTI_CAP:
        raise SizeLimitExceeded(f"{h.n} vertices exceed Betti cap {DEFAULT_BETTI_CAP}")
    if h.void:
        raise HyperinvError("Betti table of the void-marker hypergraph is undefined")
    entries: dict[tuple[int, int], int] = {}
    for w, inside in _lattice(h.edges):
        j = w.bit_count()
        sub = _compress([h.edges[i] for i in bit_ids(inside)], w)
        hom = _subhypergraph_homology(j, tuple(sorted(sub)), field)
        for dim, rank in hom.items():
            i = j - dim - 1
            if i >= 1:
                entries[(i, j)] = entries.get((i, j), 0) + rank
    return BettiTable(entries, h.n, field)


def reg_and_pd(h: Hypergraph, field: str = FIELD_Q) -> dict:
    t = betti_table(h, field)
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
    return from_masks(d.labels, minimal_nonfaces(d))
