"""Every search cap is a module constant that its search reads at call time."""

import re

import pytest

import hyperinv.bouquets as bouquets
import hyperinv.decomposition as decomposition
import hyperinv.homological as homological
import hyperinv.hypergraph as hypergraph
import hyperinv.matchings as matchings
from conftest import disjoint_edges_and_c5
from hyperinv import (
    betti_table,
    dprime_invariant,
    find_cycle,
    from_masks,
    is_codismantlable,
    matching_invariants,
    maximal_independent_sets,
    minimal_vertex_covers,
    named_instance,
    reduced_homology,
)
from hyperinv.complexes import complex_from_facets
from hyperinv.errors import SearchLimitExceeded


def three_disjoint_edges():
    return from_masks([f"x{i}" for i in range(6)], [0b11, 0b1100, 0b110000])


def dprime_of(h):
    return dprime_invariant(h, maximal_independent_sets(h))


# (module, constant, size of the input, the call on a fresh input, message at cap = size - 1)
CAPS = [
    (hypergraph, "DEFAULT_CYCLE_LENGTH_CAP", 5, lambda: find_cycle(named_instance("c5"), 5),
     "cycle length 5 exceeds cap {cap}"),
    (hypergraph, "DEFAULT_CYCLE_EDGE_CAP", 5, lambda: find_cycle(named_instance("c5"), 5),
     "5 edges exceed cycle-search cap {cap}"),
    (hypergraph, "DEFAULT_TRANSVERSAL_CAP", 8, lambda: minimal_vertex_covers(three_disjoint_edges()),
     "minimal transversals exceed cap {cap}"),
    (matchings, "DEFAULT_EDGE_CAP", 3, lambda: matching_invariants(named_instance("h1")),
     "3 edges exceed cap {cap}"),
    (bouquets, "DEFAULT_EDGE_CAP", 3, lambda: dprime_of(named_instance("h1")),
     "3 edges exceed cap {cap}"),
    (bouquets, "DEFAULT_CANDIDATE_CAP", 26, lambda: dprime_of(three_disjoint_edges()),
     "d' search candidates exceed cap {cap}"),
    (decomposition, "DEFAULT_CODISMANTLE_CAP", 4, lambda: is_codismantlable(disjoint_edges_and_c5(2)),
     "codismantlability search failed states exceed cap {cap}"),
    (homological, "DEFAULT_HOMOLOGY_CAP", 3, lambda: reduced_homology(complex_from_facets("abc", [1])),
     "ground set 3 exceeds homology cap {cap}"),
    (homological, "DEFAULT_BETTI_CAP", 6, lambda: betti_table(named_instance("h1")),
     "6 vertices exceed Betti cap {cap}"),
]


@pytest.mark.parametrize(
    "module, name, size, call, message", CAPS,
    ids=[f"{module.__name__.rsplit('.', 1)[1]}.{name}" for module, name, *_ in CAPS],
)
def test_cap_is_read_at_call_time(monkeypatch, module, name, size, call, message):
    """One below the size of the input, the call raises with the cap's
    message; at the size, it passes."""
    assert getattr(module, name) >= size
    monkeypatch.setattr(module, name, size - 1)
    with pytest.raises(SearchLimitExceeded, match=f"^{re.escape(message.format(cap=size - 1))}$"):
        call()
    monkeypatch.setattr(module, name, size)
    call()
