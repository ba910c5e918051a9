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

Both searches score each candidate by its flower count on bitmasks
alone, in a fixed order with strict improvement, and build and classify
the bouquet set of the first best candidate only, once.
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
from .hypergraph import Hypergraph, _all_faces, bit_ids, edge_sort_key, maximal_independent_sets
from .matchings import classify_family

DEFAULT_EDGE_CAP = 12


@dataclass(frozen=True)
class Bouquet:
    stems: tuple[int, ...]  # edge masks, canonical order
    roots: int  # vertex mask

    @property
    def union(self) -> int:
        u = 0
        for s in self.stems:
            u |= s
        return u

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
            raise InvalidBouquet(f"stem is not an edge: {tuple(bit_ids(s))}")
    if len(stem_list) >= 2:
        inter = stem_list[0]
        for s in stem_list[1:]:
            inter &= s
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
    strong_witness_stems: Optional[tuple[int, ...]]

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


def _independent(h: Hypergraph, mask: int) -> bool:
    return not any(e & mask == e for e in h.edges)


def classify_bouquet_set(h: Hypergraph, bouquets: Sequence[Bouquet]) -> BouquetSet:
    seen: set[int] = set()
    for b in bouquets:
        for s in b.stems:
            if s in seen:
                raise InvalidBouquet("an edge is a stem of two bouquets")
            seen.add(s)
    flowers = roots = 0
    stems: list[int] = []
    for b in bouquets:
        flowers |= b.flowers
        roots |= b.roots
        stems.extend(b.stems)
    semi = _independent(h, roots)
    strong_witness: Optional[tuple[int, ...]] = () if not bouquets else None
    for choice in product(*[b.stems for b in bouquets]) if bouquets else ():
        if len(set(choice)) != len(choice):
            continue
        if classify_family(h, list(choice)).induced:
            strong_witness = tuple(sorted(choice, key=edge_sort_key))
            break
    return BouquetSet(
        tuple(bouquets),
        flowers,
        roots,
        tuple(sorted(stems, key=edge_sort_key)),
        strong_witness is not None,
        semi,
        strong_witness,
    )


@dataclass(frozen=True)
class BouquetInvariants:
    d: int
    d_prime: int
    witnesses: dict  # name -> BouquetSet


def bouquet_invariants(h: Hypergraph, edge_cap: int = DEFAULT_EDGE_CAP) -> BouquetInvariants:
    if len(h.edges) > edge_cap:
        raise SearchLimitExceeded(f"{len(h.edges)} edges exceed cap {edge_cap}")
    if not h.edges:
        empty = classify_bouquet_set(h, ())
        return BouquetInvariants(0, 0, {"d": empty, "d_prime": empty})
    d_val, d_wit = _d_search(h)
    dp_val, dp_wit = _dprime_search(h)
    return BouquetInvariants(d_val, dp_val, {"d": d_wit, "d_prime": dp_wit})


# ---------------------------------------------------------------------------
# d' : semi-strongly disjoint maximization


def _dprime_search(h: Hypergraph) -> tuple[int, BouquetSet]:
    """Root sets R are the faces of the independence complex inside the
    edge support, in ascending mask order; a root set that also holds
    vertices in no edge scores the same as its part inside the support,
    which comes first.  Only the first best R gets a witness."""
    support = reduce(or_, h.edges)
    faces = _all_faces(f & support for f in maximal_independent_sets(h))
    best, best_r = 0, 0
    for r_mask in sorted(faces)[1:]:
        union = 0
        contested: list[int] = []
        for e in h.edges:
            common = e & r_mask
            if common:
                union |= e
                if common & (common - 1):
                    contested.append(common)
        # the base and the freed roots both lie in the union of touched edges
        if union.bit_count() <= best:
            continue
        size = (union & ~r_mask).bit_count() + _max_freed_size(contested)
        if size > best:
            best, best_r = size, r_mask
    if not best_r:
        # no independent root set touches an edge (all edges are singletons)
        return 0, classify_bouquet_set(h, ())
    return best, _dprime_witness(h, best_r)


def _max_freed_size(commons: list[int]) -> int:
    """Largest union of freed roots: each edge meeting R in ``common``
    keeps one root of it and frees the others."""
    states = {0}
    for common in commons:
        frees = [common & ~(1 << v) for v in bit_ids(common)]
        states = {s | f for s in states for f in frees}
    return max(s.bit_count() for s in states)


def _dprime_witness(h: Hypergraph, r_mask: int) -> BouquetSet:
    """The single-stem bouquet set of root set R: forced roots where an
    edge meets R once, the freed-set optimum elsewhere."""
    touched = [e for e in h.edges if e & r_mask]
    forced = [(e, e & r_mask) for e in touched if (e & r_mask).bit_count() == 1]
    contested = [e for e in touched if (e & r_mask).bit_count() >= 2]
    assign = forced + _max_freed(contested, r_mask)[1]
    bouquets = tuple(
        Bouquet((e,), root) for e, root in sorted(assign, key=lambda p: edge_sort_key(p[0]))
    )
    return classify_bouquet_set(h, bouquets)


def _max_freed(contested: list[int], r_mask: int) -> tuple[int, list[tuple[int, int]]]:
    """Root assignments for edges meeting R twice or more.

    Picking root r for edge e leaves the other R-vertices of e as
    flowers; maximize the union of such freed vertices.
    """
    if not contested:
        return 0, []
    states: dict[int, list[tuple[int, int]]] = {0: []}
    for e in contested:
        roots = [1 << v for v in bit_ids(e & r_mask)]
        nxt: dict[int, list[tuple[int, int]]] = {}
        for freed, assign in states.items():
            for rb in roots:
                f2 = freed | ((e & r_mask) & ~rb)
                if f2 not in nxt:
                    nxt[f2] = assign + [(e, rb)]
        states = nxt
    best_freed = max(states, key=lambda f: (f.bit_count(), -f))
    return best_freed, states[best_freed]


# ---------------------------------------------------------------------------
# d : strongly disjoint maximization


def _induced_matchings(h: Hypergraph) -> list[tuple[int, ...]]:
    """Pairwise disjoint edge sets with no other edge inside their union,
    ascending by union.  An edge inside the union stays inside it when
    the matching grows, so only induced matchings are extended."""
    edges = h.edges
    found: list[tuple[int, tuple[int, ...]]] = []

    def grow(start: int, union: int, chosen: tuple[int, ...]) -> None:
        for i in range(start, len(edges)):
            if edges[i] & union:
                continue
            u, m = union | edges[i], chosen + (edges[i],)
            if sum(1 for e in edges if e & u == e) == len(m):
                found.append((u, m))
                grow(i + 1, u, m)

    grow(0, 0, ())
    return [m for _, m in sorted(found)]


def _d_search(h: Hypergraph) -> tuple[int, BouquetSet]:
    """Each (matching, hubs, assignment) is scored on masks; only the
    first best one is turned into bouquets."""
    best_val, best = 0, None
    for matching in _induced_matchings(h):
        rest = [e for e in h.edges if e not in matching]
        for hubs in product(*[tuple(bit_ids(e)) for e in matching]):
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
            # every flower lies in a stem
            reach = reduce(or_, [e for s in stems for e in s] + [e for e, _ in contested])
            if reach.bit_count() <= best_val:
                continue
            base = [(reduce(or_, s), reduce(and_, s), len(s)) for s in stems]
            # the first contested edge varies fastest; with strict ">" this
            # order decides which of equally good candidates is reported
            for pick in product(*[[(e, i) for i in o] for e, o in reversed(contested)]):
                groups = base[:]
                for e, i in pick:
                    u, x, c = groups[i]
                    groups[i] = (u | e, x & e, c + 1)
                val = _grouped_flowers(groups, best_val)
                if val > best_val:
                    best_val = val
                    best = [s + [e for e, j in reversed(pick) if j == i] for i, s in enumerate(stems)]
    if best is None:
        return 0, classify_bouquet_set(h, ())
    _, bouquets = _score_groups(h, best)
    return best_val, classify_bouquet_set(h, bouquets)


def _grouped_flowers(groups: list[tuple[int, int, int]], floor: int) -> int:
    """The flower count ``_score_groups`` finds for stem groups given as
    (union, intersection, size); ``floor`` when it cannot beat ``floor``."""
    fixed = 0
    singles: list[int] = []
    for u, x, c in groups:
        if c >= 2:
            fixed |= u & ~x
        elif u & (u - 1):
            singles.append(u)
    if reduce(or_, singles, fixed).bit_count() <= floor:
        return floor
    return _single_roots(fixed, singles)[0]


def _single_roots(fixed: int, singles: list[int]) -> tuple[int, tuple[int, ...]]:
    """The first choice of one root per single stem with the most flowers
    on top of ``fixed``: (flower count, root ids)."""
    ceiling = reduce(or_, singles, fixed).bit_count()
    best: tuple[int, tuple[int, ...]] = (-1, ())
    for roots in product(*[tuple(bit_ids(e)) for e in singles]):
        flowers = fixed
        for e, r in zip(singles, roots):
            flowers |= e & ~(1 << r)
        if flowers.bit_count() > best[0]:
            best = (flowers.bit_count(), roots)
            if best[0] == ceiling:
                break
    return best


def _score_groups(h: Hypergraph, groups: list[list[int]]) -> tuple[int, tuple[Bouquet, ...]]:
    """Flowers of the grouped bouquets; single-stem roots picked by an
    exhaustive scan over singleton roots."""
    fixed = 0
    singles: list[int] = []
    bouquets: list[Bouquet] = []
    for grp in groups:
        if len(grp) >= 2:
            b = make_bouquet(h, grp)
            fixed |= b.flowers
            bouquets.append(b)
        elif grp[0].bit_count() >= 2:
            singles.append(grp[0])
        # a lone singleton edge admits no root choice and forms no bouquet
    total, roots = _single_roots(fixed, singles)
    bouquets += [make_bouquet(h, [e], 1 << r) for e, r in zip(singles, roots)]
    bouquets.sort(key=lambda b: edge_sort_key(b.stems[0]))
    return total, tuple(bouquets)


# ---------------------------------------------------------------------------
# constructive minimal cover (Theorem on covers inside F(B))


def cover_from_bouquets(
    h: Hypergraph, bset: BouquetSet, edge_cap: int = DEFAULT_EDGE_CAP
) -> int:
    """Minimal vertex cover of H inside the flower set of an optimal
    semi-strongly disjoint bouquet set."""
    if not bset.semi_strongly_disjoint:
        raise NotSemiStronglyDisjoint("bouquet set has dependent roots")
    inv = bouquet_invariants(h, edge_cap=edge_cap)
    if bset.flowers.bit_count() != inv.d_prime:
        raise NotOptimalWitness(
            f"|F|={bset.flowers.bit_count()} does not realize d'={inv.d_prime}"
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
        cover |= 1 << next(bit_ids(candidates))
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
