"""Simplicial complexes as facet antichains.

Three kinds of complex occur: ordinary (at least one nonempty facet),
the complex whose only face is the empty set, and the void complex with
no faces at all.  The last two both arise from contracting singleton
edges and both count as vertex decomposable.

One split primitive, ``_split``, gives the link and deletion of a vertex
and whether it sheds, over the same ground set; the shedding flags of a
profile and the memoized vertex-decomposability walk ``_vd_verdict`` read
it.  Only ``complex_from_facets``, which takes face lists from outside,
normalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .hypergraph import Hypergraph, _compress, _maximal, maximal_independent_sets

KIND_VOID = "void"
KIND_EMPTY = "empty"
KIND_ORDINARY = "ordinary"


@dataclass(frozen=True)
class SimplicialComplex:
    labels: tuple[str, ...]
    facets: tuple[int, ...]  # masks in ascending order; () = void, (0,) = {∅}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def kind(self) -> str:
        if not self.facets:
            return KIND_VOID
        if self.facets == (0,):
            return KIND_EMPTY
        return KIND_ORDINARY


def complex_from_facets(labels: Sequence[str], facet_masks: Sequence[int]) -> SimplicialComplex:
    """Normalize an arbitrary face list to its facet antichain."""
    return SimplicialComplex(tuple(labels), _maximal(set(facet_masks)))


def independence_complex(h: Hypergraph) -> SimplicialComplex:
    """Faces are the vertex sets containing no edge of H."""
    return SimplicialComplex(h.labels, maximal_independent_sets(h))


def _split(facets: tuple[int, ...], bit: int) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """(link, deletion, sheds) of the vertex with this bit, over the same ground.

    The facets through x, less x, are an ascending antichain: the link.  The
    deletion is the facets that miss x plus the link facets inside none of
    them, and x sheds iff there is no such link facet.
    """
    link = tuple(f ^ bit for f in facets if f & bit)
    misses = [f for f in facets if not f & bit]
    kept = [g for g in link if not any(g & f == g for f in misses)]
    return link, tuple(sorted(misses + kept)), not kept


def dimension(d: SimplicialComplex) -> Optional[int]:
    """Max facet size minus one; -1 for {∅}; None for the void complex."""
    if d.kind == KIND_VOID:
        return None
    return max(f.bit_count() for f in d.facets) - 1


# ---------------------------------------------------------------------------
# vertex decomposability


_VD_MEMO: dict[tuple, bool] = {}


def _vd_verdict(n: int, facets: tuple[int, ...]) -> bool:
    """Memoized verdict on (ground size, facet masks over 0..n-1).

    Vertices in no facet shed trivially and cone vertices never affect the
    verdict, so both are stripped before the recursion.
    """
    if len(facets) <= 1:
        return True  # void, {∅}, or a simplex over its support
    support = 0
    common = facets[0]
    for f in facets:
        support |= f
        common &= f
    if common or support != (1 << n) - 1:
        keep = support & ~common
        return _vd_verdict(keep.bit_count(), tuple(_compress(facets, keep)))
    key = (n, facets)
    hit = _VD_MEMO.get(key)
    if hit is not None:
        return hit
    verdict = False
    for v in range(n):
        link, dele, sheds = _split(facets, 1 << v)
        if sheds and _vd_verdict(n, dele) and _vd_verdict(n, link):
            verdict = True
            break
    _VD_MEMO[key] = verdict
    return verdict


def vertex_decomposable(d: SimplicialComplex) -> bool:
    """The memoized verdict of ``_vd_verdict``."""
    return _vd_verdict(d.n, d.facets)
