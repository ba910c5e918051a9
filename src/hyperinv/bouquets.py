"""Bouquets, strongly and semi-strongly disjoint bouquet sets, and the
exact invariants d and d'.

The d' maximization does not enumerate raw edge partitions.  Any bouquet
set can be rewritten, without losing flowers or adding roots, as a set
of single-stem bouquets whose roots are singletons: a multi-stem bouquet
rooted at its stem intersection only loses flowers compared to splitting
its stems into single-stem bouquets sharing one chosen root vertex.  The
search therefore ranges over independent root sets R, walked as the
faces of the independence complex (submasks of the maximal independent
sets), and per-edge root assignments.  The d maximization ranges over
induced matchings (the chosen stem system), a hub vertex inside each
chosen stem (a member of the final stem intersection), and assignments
of the remaining edges to hubs they contain.

Each search is one pass.  It scores every candidate by its flower count
on bitmasks, in a fixed order with strict improvement.  The first best
candidate wins, and only its bouquet set is built and classified, once.
``dprime_invariant`` runs the d' search alone: ``_dprime_walk`` (d' and the
winning R), then ``_dprime_witness`` on R; ``bouquet_invariants`` adds d.

A root set R scores the vertices outside R of the union of the edges
that meet R, plus its freed roots.  An edge meeting R in one root is
rooted there; an edge meeting R in a "common" c = e & R of two or more
roots keeps one of them and frees the rest.  The d' search scores R
without choosing the kept roots:

    freed(R) = sum over the components K of the hypergraph of the
               commons of min(sum of (|c| - 1) over c in K, |V(K)|),

which is |V(K)| unless K is Berge-acyclic, and then |V(K)| - 1.  Proof
sketch: in a connected K, sum (|c| - 1) >= |V(K)| - 1, with equality iff
K is Berge-acyclic.  A root is freed only by a common through it that
keeps another root, and there are sum (|c| - 1) such pairs, so an
acyclic K keeps a root; keeping each common's root nearest a fixed root
frees all the others.  A K with a Berge cycle frees every root: the
commons of the cycle keep the roots of the cycle, each the next one
round, and every other common, taken breadth first from the cycle,
keeps the root it shares with the commons taken before it.  The
dynamic program ``_max_freed`` then runs once, on the winning R, for
the root each of its contested edges keeps.  The d scorer returns its
stem groups and single-stem roots with the count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import and_, or_
from typing import Optional, Sequence

from .errors import (
    HyperinvError,
    InvalidBouquet,
    NotOptimalWitness,
    NotSemiStronglyDisjoint,
    SearchLimitExceeded,
)
from .hypergraph import Hypergraph, _faces, _lattice, bit_ids, edge_sort_key
from .matchings import classify_family

# candidates either search may score: a root set R for d'; for d, a root
# choice of a stem grouping, or a grouping or hub choice that a flower
# ceiling cuts off; also the stem choices that classify a bouquet set
DEFAULT_CANDIDATE_CAP = 500_000


@dataclass(frozen=True)
class Bouquet:
    stems: tuple[int, ...]  # edge masks, canonical order
    roots: int  # vertex mask

    @property
    def union(self) -> int:
        return reduce(or_, self.stems, 0)

    @property
    def flowers(self) -> int:
        return self.union & ~self.roots


def make_bouquet(h: Hypergraph, stems: Sequence[int], roots: Optional[int] = None) -> Bouquet:
    """Validate and canonicalize one bouquet of H."""
    stem_list = sorted(set(stems), key=edge_sort_key)
    if len(stem_list) != len(stems):
        raise InvalidBouquet("repeated stem inside one bouquet")
    if not stem_list:
        raise InvalidBouquet("bouquet needs at least one stem")
    for s in stem_list:
        if s not in h.edges:
            raise InvalidBouquet(f"stem is not an edge: {bit_ids(s)}")
    if len(stem_list) >= 2:
        inter = reduce(and_, stem_list)
        if not inter:
            raise InvalidBouquet("stems have empty common intersection")
        if roots is not None and roots != inter:
            raise InvalidBouquet("roots of a multi-stem bouquet must equal the stem intersection")
        return Bouquet(tuple(stem_list), inter)
    stem = stem_list[0]
    if roots is None or roots == 0 or roots & ~stem or roots == stem:
        raise InvalidBouquet("single-stem roots must be a nonempty proper subset of the stem")
    return Bouquet((stem,), roots)


@dataclass(frozen=True)
class BouquetSet:
    bouquets: tuple[Bouquet, ...]
    flowers: int
    roots: int
    stems: tuple[int, ...]
    strongly_disjoint: bool
    semi_strongly_disjoint: bool

    def to_json_obj(self, h: Hypergraph) -> dict:
        return {
            "bouquets": [
                {
                    "stems": [h.edges.index(s) for s in b.stems],
                    "roots": list(h.edge_labels(b.roots)),
                }
                for b in self.bouquets
            ],
            "flowers": list(h.edge_labels(self.flowers)),
            "strongly_disjoint": self.strongly_disjoint,
            "semi_strongly_disjoint": self.semi_strongly_disjoint,
        }


def classify_bouquet_set(h: Hypergraph, bouquets: Sequence[Bouquet]) -> BouquetSet:
    flowers = roots = 0
    stems: list[int] = []
    for b in bouquets:
        flowers |= b.flowers
        roots |= b.roots
        stems.extend(b.stems)
    if len(set(stems)) != len(stems):
        raise InvalidBouquet("an edge is a stem of two bouquets")
    semi = not any(e & roots == e for e in h.edges)  # the roots are independent
    strong, cap = not bouquets, DEFAULT_CANDIDATE_CAP  # some choice of one stem each is induced
    for tried, choice in enumerate(product(*[b.stems for b in bouquets]) if bouquets else (), 1):
        if tried > cap:
            raise SearchLimitExceeded(f"stem choices exceed cap {cap}")
        if len(set(choice)) == len(choice) and classify_family(h, list(choice)).induced:
            strong = True
            break
    return BouquetSet(tuple(bouquets), flowers, roots, tuple(sorted(stems, key=edge_sort_key)),
                      strong, semi)


@dataclass(frozen=True)
class BouquetInvariants:
    d: int
    d_prime: int
    witnesses: dict  # name -> BouquetSet


def dprime_invariant(h: Hypergraph, facets: Sequence[int]) -> tuple[int, BouquetSet]:
    """d' with its witness, without the d search; ``facets`` span the independence complex."""
    best, best_r = _dprime_walk(h.edges, h.n, facets)
    return best, _dprime_witness(h, best_r)


def bouquet_invariants(
    h: Hypergraph,
    facets: Sequence[int],
    dprime: Optional[tuple[int, BouquetSet]] = None,
) -> BouquetInvariants:
    """d and d' with their witnesses; ``dprime``, when known, is what
    ``dprime_invariant`` returned for the same arguments.  Every step of
    either search counts against ``DEFAULT_CANDIDATE_CAP`` or is bounded
    by it (see the README's caps section)."""
    dp_val, dp_wit = dprime_invariant(h, facets) if dprime is None else dprime
    d_val, d_wit = _d_search(h)
    return BouquetInvariants(d_val, dp_val, {"d": d_wit, "d_prime": dp_wit})


# ---------------------------------------------------------------------------
# d' : semi-strongly disjoint maximization


def _dprime_witness(h: Hypergraph, best_r: int) -> BouquetSet:
    """One single-stem bouquet per edge touched by the walk's R, in edge order: rooted
    at the forced root where the edge meets R once, at the kept root elsewhere."""
    kept_roots = iter(_max_freed([c for e in h.edges if (c := e & best_r) & (c - 1)])[1])
    bouquets = tuple(
        Bouquet((e,), next(kept_roots) if c & (c - 1) else c)
        for e in h.edges
        if (c := e & best_r)
    )
    return classify_bouquet_set(h, bouquets)


def _dprime_walk(edges: Sequence[int], n: int, facets: Sequence[int]) -> tuple[int, int]:
    """d' and the first root set R that reaches it (empty when no R touches
    an edge: no edges, or only singleton edges), on edge masks over vertex
    ids 0..n-1.  Root sets R are the faces of the independence complex
    (given by its ``facets``) inside the edge support, collected by the one
    face walk, ``_faces``, and scored in ascending mask order; a root set that also holds vertices in no edge scores the same
    as its part inside the support, which comes first.  Each R is scored in
    closed form (``_freed_count``), unless its edge union, or that union's
    part outside R with the roots that share an edge, cannot beat the best
    so far.  At the first root set past ``DEFAULT_CANDIDATE_CAP`` it raises
    ``SearchLimitExceeded``, so it scores at most that many root sets, in
    O(|R| + edges) steps each."""
    support = reduce(or_, edges, 0)
    faces = _faces({f & support for f in facets}, DEFAULT_CANDIDATE_CAP, "d' search candidates")
    star = [0] * n  # vertex id -> union of the edges through it
    for e in edges:
        for v in bit_ids(e):
            star[v] |= e
    best, best_r = 0, 0
    for r_mask in sorted(faces):
        roots = bit_ids(r_mask)
        union = 0
        for v in roots:
            union |= star[v]
        # the base and the freed roots both lie in the union of touched edges
        if union.bit_count() <= best:
            continue
        base = (union & ~r_mask).bit_count()
        # only a root that shares an edge with another root can be freed
        shared = 0
        for v in roots:
            if star[v] & (r_mask ^ 1 << v):
                shared += 1
        if base + shared <= best:
            continue
        size = base + _freed_count([c for e in edges if (c := e & r_mask) & (c - 1)])
        if size > best:
            best, best_r = size, r_mask
    return best, best_r


def _freed_count(commons: list[int]) -> int:
    """``_max_freed(commons)[0]`` in closed form (see the module docstring):
    each connected component of the hypergraph of the ``commons`` frees
    min(sum of (|c| - 1) over its commons, its vertex count)."""
    parts: list[tuple[int, int]] = []  # (vertex mask, sum of |c| - 1) per component
    for common in commons:
        mask, excess = common, common.bit_count() - 1
        apart = []
        for m, x in parts:
            if m & mask:
                mask |= m
                excess += x
            else:
                apart.append((m, x))
        apart.append((mask, excess))
        parts = apart
    return sum(min(x, m.bit_count()) for m, x in parts)


def _max_freed(commons: list[int]) -> tuple[int, tuple[int, ...]]:
    """Largest union of freed roots: each edge meeting R in ``common``
    keeps one root of it and frees the others.  Returns its size and the
    root bit each edge keeps; the first choice reaching a union wins, and
    of the largest unions the least mask."""
    states: dict[int, tuple[int, ...]] = {0: ()}
    for common in commons:
        nxt: dict[int, tuple[int, ...]] = {}
        for freed, kept in states.items():
            for v in bit_ids(common):
                nxt.setdefault(freed | (common & ~(1 << v)), kept + (1 << v,))
        states = nxt
    best = max(states, key=lambda f: (f.bit_count(), -f))
    return best.bit_count(), states[best]


# ---------------------------------------------------------------------------
# d : strongly disjoint maximization


def _induced_matchings(h: Hypergraph) -> list[tuple[int, ...]]:
    """Pairwise disjoint edge sets with no other edge inside their union,
    ascending by union: the edges inside each union W of the lcm lattice,
    when their sizes sum to |W|."""
    edges = h.edges
    found = []
    for w, inside in _lattice(edges):
        free, ids = w.bit_count(), bit_ids(inside)  # |W| minus the sizes of the edges inside
        for i in ids:
            free -= edges[i].bit_count()
        if not free:
            found.append(tuple(edges[i] for i in ids))
    return found


def _d_search(h: Hypergraph) -> tuple[int, BouquetSet]:
    """Each (matching, hubs, assignment) is scored on masks; the first best
    one records its stem groups and single-stem roots, and only it is
    turned into bouquets.  Past ``DEFAULT_CANDIDATE_CAP`` scored candidates
    it raises ``SearchLimitExceeded``."""
    cap, over = DEFAULT_CANDIDATE_CAP, f"d search candidates exceed cap {DEFAULT_CANDIDATE_CAP}"
    best_val, best = 0, ([], ())
    scored = 0
    for matching in _induced_matchings(h):
        rest = [e for e in h.edges if e not in matching]
        for hubs in product(*[bit_ids(e) for e in matching]):
            slot = {1 << hub: i for i, hub in enumerate(hubs)}
            hub_mask = sum(slot)
            stems: list[list[int]] = [[e] for e in matching]
            contested: list[tuple[int, list[int]]] = []
            for e in rest:
                hit = e & hub_mask
                if hit & (hit - 1):
                    contested.append((e, sorted(slot[1 << v] for v in bit_ids(hit))))
                elif hit:
                    stems[slot[hit]].append(e)
            # every flower lies in a stem, so a hub choice whose stems cannot
            # beat the best is cut off, and counts as one candidate
            reach = reduce(or_, [e for s in stems for e in s] + [e for e, _ in contested])
            if reach.bit_count() <= best_val:
                scored += 1
                if scored > cap:
                    raise SearchLimitExceeded(over)
                continue
            base = [(reduce(or_, s), reduce(and_, s), len(s)) for s in stems]
            # the first contested edge varies fastest; with strict ">" this
            # order decides which of equally good candidates is reported
            for pick in product(*[[(e, i) for i in o] for e, o in reversed(contested)]):
                groups = base[:]
                for e, i in pick:
                    u, x, c = groups[i]
                    groups[i] = (u | e, x & e, c + 1)
                val, roots, tried = _grouped_flowers(groups, best_val)
                scored += tried
                if scored > cap:
                    raise SearchLimitExceeded(over)
                if val > best_val:
                    best_val = val
                    picked = [s + [e for e, j in reversed(pick) if j == i] for i, s in enumerate(stems)]
                    best = picked, roots
    picked, roots = best
    # a lone singleton edge admits no root choice and forms no bouquet
    singles = [g[0] for g in picked if len(g) == 1 and g[0] & (g[0] - 1)]
    bouquets = [make_bouquet(h, g) for g in picked if len(g) >= 2]
    bouquets += [make_bouquet(h, [e], 1 << r) for e, r in zip(singles, roots)]
    bouquets.sort(key=lambda b: edge_sort_key(b.stems[0]))
    return best_val, classify_bouquet_set(h, tuple(bouquets))


def _grouped_flowers(
    groups: list[tuple[int, int, int]], floor: int
) -> tuple[int, tuple[int, ...], int]:
    """Flowers of stem groups given as (union, intersection, size): a group
    of two or more stems is rooted at its intersection, and each single
    stem of two or more vertices at one of them, the first choice with
    the most flowers.  Returns (flower count, root ids of the single
    stems, root choices scored), or (``floor``, (), 1) when the groups
    cannot beat ``floor``."""
    fixed = 0
    singles: list[int] = []
    for u, x, c in groups:
        if c >= 2:
            fixed |= u & ~x
        elif u & (u - 1):
            singles.append(u)
    ceiling = reduce(or_, singles, fixed).bit_count()
    if ceiling <= floor:
        return floor, (), 1
    best: tuple[int, tuple[int, ...]] = (-1, ())
    for tried, roots in enumerate(product(*[bit_ids(e) for e in singles]), 1):
        flowers = fixed
        for e, r in zip(singles, roots):
            flowers |= e & ~(1 << r)
        if flowers.bit_count() > best[0]:
            best = (flowers.bit_count(), roots)
            if best[0] == ceiling:
                break
    return best + (tried,)


# ---------------------------------------------------------------------------
# constructive minimal cover (Theorem on covers inside F(B))


def cover_from_bouquets(h: Hypergraph, bset: BouquetSet) -> int:
    """Minimal vertex cover of H inside the flower set of an optimal
    semi-strongly disjoint bouquet set.  Optimality is checked against
    the d' of H's profile."""
    from .profile import profile_of  # the profile module builds on this one

    if not bset.semi_strongly_disjoint:
        raise NotSemiStronglyDisjoint("bouquet set has dependent roots")
    d_prime = profile_of(h).dprime_walk[0]
    if bset.flowers.bit_count() != d_prime:
        raise NotOptimalWitness(
            f"|F|={bset.flowers.bit_count()} does not realize d'={d_prime}"
        )
    stem_set = set(bset.stems)
    ordered = [e for e in h.edges if e not in stem_set] + [e for e in h.edges if e in stem_set]
    cover = 0
    for e in ordered:
        if e & cover:
            continue
        candidates = e & bset.flowers
        if not candidates:
            raise HyperinvError("edge misses the flower set; witness not optimal")
        cover |= 1 << bit_ids(candidates)[0]
    # the greedy pass can leave a redundant early pick; prune to a minimal
    # subcover (still inside the flower set)
    for v in bit_ids(cover):
        smaller = cover & ~(1 << v)
        if all(e & smaller for e in h.edges):
            cover = smaller
    for v in bit_ids(cover):
        # minimality: every cover vertex owns an edge it alone covers
        if not any((e & cover) == 1 << v for e in h.edges):
            raise HyperinvError("constructed cover is not minimal")
    return cover
