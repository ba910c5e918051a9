"""Bouquets, strongly and semi-strongly disjoint bouquet sets, and the
exact invariants d and d'.

The d' maximization does not enumerate raw edge partitions.  Any bouquet
set can be rewritten, without losing flowers or adding roots, as a set
of single-stem bouquets whose roots are singletons: a multi-stem bouquet
rooted at its stem intersection only loses flowers compared to splitting
its stems into single-stem bouquets sharing one chosen root vertex.  The
search therefore ranges over independent root sets R and per-edge root
assignments.  The d maximization ranges over induced matchings (the
chosen stem system), a hub vertex inside each chosen stem (a member of
the final stem intersection), and assignments of the remaining edges to
hubs they contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from .errors import (
    HyperinvError,
    InvalidBouquet,
    NotOptimalWitness,
    NotSemiStronglyDisjoint,
    SearchLimitExceeded,
)
from .hypergraph import Hypergraph, _edge_subset_unions, bit_ids, edge_sort_key
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
    best = (-1, None)
    for r_mask in range(1, 1 << h.n):
        if not _independent(h, r_mask):
            continue
        touched = [e for e in h.edges if e & r_mask]
        if not touched:
            continue
        base = 0
        for e in touched:
            base |= e
        base &= ~r_mask
        forced: list[tuple[int, int]] = []
        contested: list[int] = []
        for e in touched:
            common = e & r_mask
            if common.bit_count() == 1:
                forced.append((e, common))
            else:
                contested.append(e)
        freed, choices = _max_freed(contested, r_mask)
        size = base.bit_count() + freed.bit_count()
        if size > best[0]:
            assign = forced + choices
            bouquets = tuple(
                Bouquet((e,), root) for e, root in sorted(assign, key=lambda p: edge_sort_key(p[0]))
            )
            best = (size, classify_bouquet_set(h, bouquets))
    if best[1] is None:
        # no independent root set touches an edge (all edges are singletons)
        return 0, classify_bouquet_set(h, ())
    return best


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
    out = []
    for u in _edge_subset_unions(h.edges)[1:]:
        members = [e for e in h.edges if e & u == e]
        if sum(e.bit_count() for e in members) == u.bit_count():
            out.append(tuple(members))
    return out


def _d_search(h: Hypergraph) -> tuple[int, BouquetSet]:
    best = (0, classify_bouquet_set(h, ()))
    edges = h.edges
    for matching in _induced_matchings(h):
        in_matching = set(matching)
        for hubs in product(*[tuple(bit_ids(e)) for e in matching]):
            stems: list[list[int]] = [[e] for e in matching]
            contested: list[tuple[int, list[int]]] = []
            for e in edges:
                if e in in_matching:
                    continue
                owners = [i for i, hub in enumerate(hubs) if e >> hub & 1]
                if len(owners) == 1:
                    stems[owners[0]].append(e)
                elif owners:
                    contested.append((e, owners))
            for assignment in _assignments(contested):
                groups = [list(s) for s in stems]
                for e, i in assignment:
                    groups[i].append(e)
                val, bouquets = _score_groups(h, groups, hubs)
                if val > best[0]:
                    best = (val, classify_bouquet_set(h, bouquets))
    return best


def _assignments(contested: list[tuple[int, list[int]]]):
    if not contested:
        yield []
        return
    e, owners = contested[0]
    for rest in _assignments(contested[1:]):
        for i in owners:
            yield [(e, i)] + rest


def _score_groups(
    h: Hypergraph, groups: list[list[int]], hubs: tuple[int, ...]
) -> tuple[int, tuple[Bouquet, ...]]:
    """Flowers of the grouped bouquets; single-stem roots picked greedily
    from an exhaustive scan over singleton roots."""
    fixed = 0
    singles: list[int] = []
    bouquets: list[Bouquet] = []
    for grp, hub in zip(groups, hubs):
        if len(grp) >= 2:
            b = make_bouquet(h, grp)
            fixed |= b.flowers
            bouquets.append(b)
        elif grp[0].bit_count() >= 2:
            singles.append(grp[0])
        # a lone singleton edge admits no root choice and forms no bouquet
    best_extra = (-1, [])
    for roots in product(*[tuple(bit_ids(e)) for e in singles]):
        extra = 0
        for e, r in zip(singles, roots):
            extra |= e & ~(1 << r)
        total = (fixed | extra).bit_count()
        if total > best_extra[0]:
            best_extra = (total, list(roots))
    for e, r in zip(singles, best_extra[1]):
        bouquets.append(make_bouquet(h, [e], 1 << r))
    bouquets.sort(key=lambda b: edge_sort_key(b.stems[0]))
    return best_extra[0], tuple(bouquets)


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
