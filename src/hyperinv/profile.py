"""Per-instance invariant profile.

A ``Profile`` holds the invariants of one hypergraph, each computed on
first read, and only as far as it is read, under the cap constants of
their modules.
The hypothesis filters, the suite checks and the ``invariants`` report
read them from ``profile_of(h)``, which keeps the profile of the last
hypergraph object asked for only: a filter's verdict is reused by the
check of the same instance, and nothing outlives the next instance.
"""

from __future__ import annotations

from typing import Optional

from .bouquets import BouquetInvariants, BouquetSet, _dprime_walk, _dprime_witness, bouquet_invariants
from .complexes import SimplicialComplex, _split, independence_complex, vertex_decomposable
from .decomposition import EliminationOrder, is_codismantlable, is_codominated
from .errors import HyperinvError, SearchLimitExceeded
from .homological import FIELD_Q, BettiTable, _reg_pd, betti_table
from .hypergraph import (
    CoverList,
    Hypergraph,
    bit_ids,
    contraction,
    find_cycle,
    three_cycle_edge_condition,
)
from .matchings import MatchingInvariants, matching_invariants


class _cached:
    """A lazy field, stored in the instance dict on first read, where later reads
    find it before this non-data descriptor; a cap error is kept and re-raised."""

    def __init__(self, fn) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if self.name in obj._cap_errors:
            raise obj._cap_errors[self.name]
        try:
            value = obj.__dict__[self.name] = self.fn(obj)
        except SearchLimitExceeded as exc:
            obj._cap_errors[self.name] = exc
            raise
        return value


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
    def dprime_walk(self) -> tuple[int, int]:
        """d' and the root set that reaches it first, by the walk alone."""
        return _dprime_walk(self.h.edges, self.h.n, self.complex.facets)

    @_cached
    def dprime(self) -> tuple[int, BouquetSet]:
        """d' with its witness, built from the walk's root set."""
        d_prime, roots = self.dprime_walk
        return d_prime, _dprime_witness(self.h, roots)

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
    def reg_pd(self) -> tuple[int, int]:
        """(reg, pd) over Q, off the table ``betti`` built, else by the bounded walk."""
        table = self._betti.get(FIELD_Q)
        return (table.reg, table.pd) if table else _reg_pd(self.h)

    @_cached
    def shedding_splits(self) -> list[tuple[str, tuple[int, int], tuple[int, int]]]:
        """(x, (reg, pd) of H\\x, (reg, pd) of H/x) at each shedding x whose H/x is
        not void: every H\\x row comes from one walk of H's lattice, in ascending
        id as the shedding vertices are, H/x (restricting to links) from its own."""
        h = self.h
        ctrs = [(x, ctr) for x in self.shedding_vertices if not (ctr := contraction(h, x)).void]
        mask = sum(1 << h.vertex_id(x) for x, _ in ctrs)
        dels = betti_table(h, bounded=True, deletions=mask).deletions if ctrs else ()
        return [(x, dele, _reg_pd(ctr)) for (x, ctr), dele in zip(ctrs, dels)]

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
