"""Graded Betti numbers of the Stanley-Reisner ring of an independence
complex, via the reduced-homology sum over induced subcomplexes, plus
regularity, projective dimension, and the Alexander dual.

The Hochster sum runs over the lcm lattice of the edges only.  Ranks are
exact, over the rationals or GF(p), by one sparse column eliminator that
pivots on units and falls back to fraction-free cross-multiplication on
the rational entries that are not +-1.  The reduced chain complex
includes the empty face, so restrictions whose only face is empty
contribute the (-1)-dimensional class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .complexes import SimplicialComplex
from .errors import SizeLimitExceeded, UnknownField
from .hypergraph import (
    Hypergraph,
    _all_faces,
    _compress,
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


def _rank(columns: list[dict[int, int]], field: str) -> int:
    """Exact rank of the matrix whose columns are sparse {row: entry} dicts.

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
    return len(pivots)


def _homology_from_faces(faces: set[int], field: str) -> dict[int, int]:
    """Reduced Betti numbers keyed by dimension, zero entries omitted.

    Boundary columns are keyed by the masks of the codimension-one faces,
    so a column's lowest row is its largest face mask.
    """
    if not faces:
        return {}
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    for lst in by_dim.values():
        lst.sort()
    top = max(by_dim)
    ranks: dict[int, int] = {}
    boundary_rank: dict[int, int] = {}
    for d in range(0, top + 1):
        cols = [
            {f & ~(1 << v): -1 if k % 2 else 1 for k, v in enumerate(bit_ids(f))}
            for f in by_dim.get(d, [])
        ]
        boundary_rank[d] = _rank(cols, field)
    for d in range(-1, top + 1):
        dim_count = len(by_dim.get(d, []))
        b = dim_count - boundary_rank.get(d, 0) - boundary_rank.get(d + 1, 0)
        if b:
            ranks[d] = b
    return ranks


@dataclass(frozen=True)
class HomologyProfile:
    ranks: dict  # dimension -> rank, zero entries omitted


def reduced_homology(
    d: SimplicialComplex, field: str = FIELD_Q, cap: int = DEFAULT_HOMOLOGY_CAP
) -> HomologyProfile:
    if d.n > cap:
        raise SizeLimitExceeded(f"ground set {d.n} exceeds homology cap {cap}")
    if d.kind == "void":
        return HomologyProfile({})
    return HomologyProfile(_homology_from_faces(_all_faces(d.facets), field))


# ---------------------------------------------------------------------------
# Betti table via the induced-subcomplex homology sum

_SUBGRAPH_HOMOLOGY_MEMO: dict[tuple, dict[int, int]] = {}


def _subhypergraph_homology(n: int, edges: tuple[int, ...], field: str) -> dict[int, int]:
    """Homology of the independence complex of a (compressed) hypergraph."""
    key = (n, edges, field)
    hit = _SUBGRAPH_HOMOLOGY_MEMO.get(key)
    if hit is None:
        full = (1 << n) - 1
        facets = tuple(full & ~c for c in _minimal_transversals(edges))
        hit = _homology_from_faces(_all_faces(facets), field)
        _SUBGRAPH_HOMOLOGY_MEMO[key] = hit
    return hit


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
    are visited: if W is not the union of the edges inside it, a vertex
    of W in none of them is a cone point of the restriction, which then
    has no reduced homology.  Results per compressed sub-hypergraph are
    memoized globally.
    """
    if h.n > cap:
        raise SizeLimitExceeded(f"{h.n} vertices exceed Betti cap {cap}")
    if h.void:
        raise SizeLimitExceeded("Betti table of the void-marker hypergraph is undefined")
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
