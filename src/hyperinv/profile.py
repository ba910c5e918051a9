"""Per-instance invariant profile.

A ``Profile`` holds the invariants of one hypergraph, each computed on
first read through the public layer functions, under the cap constants
of their modules.
The hypothesis filters, the suite checks and the ``invariants`` report
read them from ``profile_of(h)``, which keeps the profile of the last
hypergraph object asked for only: a filter's verdict is reused by the
check of the same instance, and nothing outlives the next instance.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .bouquets import BouquetInvariants, BouquetSet, bouquet_invariants, dprime_invariant
from .complexes import SimplicialComplex, _split, independence_complex, vertex_decomposable
from .decomposition import EliminationOrder, is_codismantlable, is_codominated
from .errors import HyperinvError, SearchLimitExceeded
from .homological import FIELD_Q, BettiTable, betti_table
from .hypergraph import (
    CoverList,
    Hypergraph,
    bit_ids,
    contraction,
    deletion,
    find_cycle,
    three_cycle_edge_condition,
)
from .matchings import MatchingInvariants, matching_invariants


class _cached(cached_property):
    """A ``cached_property`` that keeps a cap error too and raises it on every read."""

    def __get__(self, obj, owner=None):
        if obj is not None and self.attrname in obj._cap_errors:
            raise obj._cap_errors[self.attrname]
        try:
            return super().__get__(obj, owner)
        except SearchLimitExceeded as exc:
            obj._cap_errors[self.attrname] = exc
            raise


class Profile:
    """The invariants of ``h``, each computed once, on first read."""

    def __init__(self, h: Hypergraph) -> None:
        self.h = h
        self._betti: dict[str, BettiTable] = {}
        self._codominated: dict[str, Optional[int]] = {}
        self._cap_errors: dict[str, HyperinvError] = {}

    @_cached
    def complex(self) -> SimplicialComplex:
        return independence_complex(self.h)

    @_cached
    def vertex_decomposable(self) -> bool:
        return vertex_decomposable(self.complex)

    @_cached
    def c5_free(self) -> bool:
        return find_cycle(self.h, 5) is None

    @_cached
    def three_cycle_condition(self) -> bool:
        return three_cycle_edge_condition(self.h)

    @_cached
    def hypotheses(self) -> dict:
        """The ``c5_free`` and ``three_cycle_condition`` verdicts, with
        ``c5_free`` marked omitted when the C5 search hits its cap."""
        try:
            c5 = self.c5_free
        except SearchLimitExceeded as exc:
            c5 = {"omitted": str(exc)}
        return {"c5_free": c5, "three_cycle_condition": self.three_cycle_condition}

    @_cached
    def matchings(self) -> MatchingInvariants:
        return matching_invariants(self.h)

    @_cached
    def bouquets(self) -> BouquetInvariants:
        """d and d' with their witnesses; d' is read from ``dprime``."""
        return bouquet_invariants(self.h, self.complex.facets, dprime=self.dprime)

    @_cached
    def dprime(self) -> tuple[int, BouquetSet]:
        """d' with its witness; the d search runs only if d is read."""
        return dprime_invariant(self.h, self.complex.facets)

    @_cached
    def covers(self) -> CoverList:
        """The minimal covers: the complements of the facets of the complex."""
        return CoverList(tuple(sorted(self.h.full_mask & ~f for f in self.complex.facets)))

    @_cached
    def shedding(self) -> tuple[bool, ...]:
        """Whether each vertex, by id, is a shedding vertex of the complex."""
        facets = self.complex.facets
        return tuple(_split(facets, 1 << i)[2] for i in range(self.h.n))

    @_cached
    def shedding_vertices(self) -> list[str]:
        """The shedding vertices that lie in an edge."""
        support = 0
        for e in self.h.edges:
            support |= e
        return [self.h.labels[i] for i in bit_ids(support) if self.shedding[i]]

    @_cached
    def shedding_splits(self) -> list[tuple[str, BettiTable, BettiTable]]:
        """(x, Betti table of H\\x, Betti table of H/x) at each shedding
        vertex x whose contraction is not the void marker."""
        splits = []
        for x in self.shedding_vertices:
            ctr = contraction(self.h, x)
            if not ctr.void:
                splits.append((x, betti_table(deletion(self.h, x)), betti_table(ctr)))
        return splits

    def codominated_witness(self, x: str) -> Optional[int]:
        """The least codominated witness of x, or None."""
        if x not in self._codominated:
            self._codominated[x] = is_codominated(self.h, x)
        return self._codominated[x]

    @_cached
    def codominated(self) -> tuple[Optional[int], ...]:
        """The least codominated witness of each vertex, by id, or None."""
        return tuple(self.codominated_witness(x) for x in self.h.labels)

    @_cached
    def codismantle_order(self) -> Optional[EliminationOrder]:
        return is_codismantlable(self.h)

    def betti(self, field: str = FIELD_Q) -> BettiTable:
        table = self._betti.get(field)
        if table is None:
            table = self._betti[field] = betti_table(self.h, field)
        return table


_current: Optional[Profile] = None


def profile_of(h: Hypergraph) -> Profile:
    """The profile of ``h``: the last one made, when it was made for this
    very object, otherwise a new one that replaces it."""
    global _current
    if _current is None or _current.h is not h:
        _current = Profile(h)
    return _current
