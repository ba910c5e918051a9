"""Graded Betti numbers of the Stanley-Reisner ring of an independence
complex, via the reduced-homology sum over induced subcomplexes, plus
regularity, projective dimension, and the Alexander dual.

The Hochster sum runs over the lcm lattice of the edges only; for reg and
pd alone ``betti_table`` walks it largest element first, only until no
smaller one can raise them, and one such walk also gives reg and pd of
H\\x at every vertex x asked for.  Ranks are exact, over the rationals or
GF(p), by one sparse column eliminator that pivots on units and falls
back to fraction-free cross-multiplication on the rational entries that
are not +-1.  The reduced chain complex includes the empty face, so
restrictions whose only face is empty contribute the (-1)-dimensional class.

Every homology question, ``reduced_homology`` included, goes through the
rules below first; the plain eliminator ranks each boundary map of the
irreducible core that they leave.  One memo keeps the answers, under the
renumbered hypergraph and first under a Hochster restriction's own edges.

Each restriction K is reduced first by rules tried in order, exact over
every field (K\\w drops w and its edges, K/w keeps the minimal edges minus
w): (a) n = 0 gives {-1: 1}, a vertex in no edge is a cone point: zero;
(b) a singleton edge {v} (no face holds v) goes on with K\\v, ahead of (c),
where K/v would be the void marker; (c) Ind K is Ind(K\\w) and the cone from
w on the link Ind(K/w), glued along the link, so at the first w where no
degree d has H~_d(K/w) and H~_d(K\\w) both nonzero Mayer-Vietoris splits:
H~_d(K) = H~_d(K\\w) + H~_{d-1}(K/w) (Adamaszek, J. Combin. Theory Ser. A
119, 2012); a cone K\\w (a suspension) and a cone link (Engstrom's fold
lemma) are its special cases, and a side whose edges miss a vertex is not
built, as (a) makes it zero; (d) otherwise the faces of K, collected by the
d' search's face walk ``_faces`` against its cap, ``DEFAULT_CANDIDATE_CAP``
in ``bouquets``, go to the eliminator in ascending mask order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, isqrt
from operator import or_

from . import bouquets
from .complexes import SimplicialComplex
from .errors import HyperinvError
from .hypergraph import (
    Hypergraph,
    _compress,
    _contract,
    _deleted,
    _faces,
    _lattice,
    _minimal_transversals,
    bit_ids,
    from_masks,
)

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
    raise HyperinvError(f"unknown field {text!r}: use q, or f<p> for a prime p below 2^31")


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
    faces minus the ranks of the boundary maps out of and into each dimension,
    whose columns go to the eliminator in ascending mask order."""
    by_dim: dict[int, list[int]] = {}
    for f in sorted(faces):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    rank = {d: _rank([_boundary(f) for f in fs], field) for d, fs in by_dim.items()}
    betti = {d: len(fs) - rank[d] - rank.get(d + 1, 0) for d, fs in by_dim.items()}
    return {d: b for d, b in betti.items() if b}


def reduced_homology(d: SimplicialComplex, field: str = FIELD_Q) -> dict[int, int]:
    """Reduced Betti numbers of D keyed by dimension, zero entries omitted.
    D is the independence complex of its minimal non-faces, so the rules apply."""
    if not d.facets:  # the void complex
        return {}
    return _subhypergraph_homology(d.n, minimal_nonfaces(d), field)


# ---------------------------------------------------------------------------
# Betti table via the induced-subcomplex homology sum

# keys (n, field, *renumbered edges) and (field, *labelled edges): one flat
# tuple per entry, so the cyclic garbage collector is triggered less often
_SUBGRAPH_HOMOLOGY_MEMO: dict[tuple, dict[int, int]] = {}


def _subhypergraph_homology(n: int, edges: tuple[int, ...], field: str) -> dict[int, int]:
    """Homology of the independence complex of a (compressed) hypergraph: a
    memo miss runs the rules on one explicit stack, no Python frame per step."""
    memo, key = _SUBGRAPH_HOMOLOGY_MEMO, (n, field, *edges)
    stack = [] if (hom := memo.get(key)) is not None else [(key, _homology_by_rules(n, edges, field))]
    while stack:
        key, rules = stack[-1]
        try:
            n, edges = rules.send(hom)
        except StopIteration as done:
            hom = memo[key] = done.value
            stack.pop()
            continue
        key = (n, field, *edges)
        if (hom := memo.get(key)) is None:
            stack.append((key, _homology_by_rules(n, edges, field)))
    return hom


def _homology_by_rules(n: int, edges: tuple[int, ...], field: str):
    """Rules (a)-(d) of the module docstring, as a generator: it yields each
    reduced hypergraph (n - 1, edges) it needs and is sent its homology."""
    full = (1 << n) - 1
    if not n or reduce(or_, edges, 0) != full:  # (a)
        return {} if n else {-1: 1}
    for e in edges:
        if not e & (e - 1):  # (b)
            return (yield n - 1, _deleted(edges, n, e.bit_length() - 1))
    for w in range(n):  # (c), in ascending w
        rest = full ^ 1 << w
        sides = []  # H~(K/w), then H~(K\w); a side whose edges miss a vertex is a cone, zero by (a)
        for side in (_contract(edges, 1 << w), [e for e in edges if not e >> w & 1]):
            cone = reduce(or_, side, 0) != rest
            sides.append({} if cone else (yield n - 1, tuple(sorted(_compress(side, rest)))))
        lk, dl = sides
        if lk.keys().isdisjoint(dl):  # so every map H~_d(lk) -> H~_d(dl) is zero
            return {d: dl.get(d, 0) + lk.get(d - 1, 0) for d in {*dl, *(d + 1 for d in lk)}}
    facets = [full & ~c for c in _minimal_transversals(edges)]  # (d)
    faces = _faces(facets, bouquets.DEFAULT_CANDIDATE_CAP, "homology fallback faces")
    faces.add(0)  # the empty face: the edges have a transversal, so there is a facet
    return _homology_from_faces(faces, field)


@dataclass(frozen=True)
class BettiTable:
    entries: dict  # (i, j) -> rank, zero entries omitted; none from a bounded walk
    n: int
    field: str
    reg: int  # max j - i over the entries, 0 without any
    pd: int  # max i over the entries, 0 without any
    deletions: tuple = ()  # (reg, pd) of H\x for each x asked for, by ascending id

    def to_json_obj(self) -> dict:
        return {
            "field": self.field,
            "entries": [[i, j, r] for (i, j), r in sorted(self.entries.items())],
            "reg": self.reg,
            "pd": self.pd,
        }


def betti_table(h: Hypergraph, field: str = FIELD_Q, bounded: bool = False, deletions: int = 0) -> BettiTable:
    """Exact graded Betti numbers of the quotient by the edge ideal.

    Hochster's formula: for a vertex subset W, the restriction of the
    independence complex is the independence complex of the edges inside
    W, and its reduced homology in dimension |W|-i-1 contributes to the
    (i, |W|) entry.  Only W in the lcm lattice (nonzero unions of edges)
    are visited: elsewhere rule (a) gives zero.  A restriction is looked up
    by its labelled edges (their union is W) before any renumbering; a miss
    is compressed, sorted, sent through the rules and kept under both keys.

    With ``bounded`` only reg and pd are computed, with no entries: the walk
    goes down the lattice by |W|, and a class of H~_d at W adds
    i = |W| - d - 1 <= |W| to pd and d + 1 <= |W| - 1 to reg (i >= 1: W holds
    an edge, so it is no face and d <= |W| - 2), so it stops at the first W
    with |W| <= pd and |W| - 1 <= reg.  With ``deletions`` a vertex mask, the
    walk also keeps a (reg, pd) row for H\\x at each x in it: Ind(H\\x)
    restricts as Ind(H) at the W that miss x, which are the unions of the
    edges of H\\x, so a class at W raises the row of every such x, and a
    bounded walk stops once every row is settled.
    """
    if h.void:
        raise HyperinvError("Betti table of the void-marker hypergraph is undefined")
    edges, memo = h.edges, _SUBGRAPH_HOMOLOGY_MEMO
    lattice = _lattice(edges)
    if bounded:
        lattice = sorted(lattice, key=lambda wi: -wi[0].bit_count())
    entries: dict[tuple[int, int], int] = {}
    rows = [[1 << x, 0, 0] for x in bit_ids(deletions)]  # bit of x, reg and pd of H\x
    reg = pd = 0
    stop = 0 if rows else h.n  # every row is settled once |W| <= stop
    for w, inside in lattice:
        j = w.bit_count()
        if bounded and j <= pd and j <= reg + 1 and j <= stop:
            break
        sub = []
        while inside:
            low = inside & -inside
            sub.append(edges[low.bit_length() - 1])
            inside ^= low
        key = (field, *sub)
        hom = memo.get(key)
        if hom is None:
            hom = memo[key] = _subhypergraph_homology(j, tuple(sorted(_compress(sub, w))), field)
        for dim, rank in hom.items():
            i = j - dim - 1
            if not bounded:
                entries[(i, j)] = entries.get((i, j), 0) + rank
            if i > pd:
                pd = i
            if dim >= reg:
                reg = dim + 1
            for row in rows:
                if not w & row[0] and (dim >= row[1] or i > row[2]):
                    row[1], row[2] = max(row[1], dim + 1), max(row[2], i)
                    stop = min(min(p, r + 1) for _, r, p in rows)
    return BettiTable(entries, h.n, field, reg, pd, tuple((r, p) for _, r, p in rows))


def _reg_pd(h: Hypergraph, field: str = FIELD_Q) -> tuple[int, int]:
    """(reg, pd) of H, by the bounded walk."""
    t = betti_table(h, field, bounded=True)
    return t.reg, t.pd


def reg_and_pd(h: Hypergraph, field: str = FIELD_Q) -> dict:
    """reg and pd of the Betti table, by its bounded walk."""
    return dict(zip(("reg", "pd"), _reg_pd(h, field)))


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
