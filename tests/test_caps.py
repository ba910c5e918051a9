"""Every search cap is a module constant that its search reads at call time."""

import re

import pytest

import hyperinv.bouquets as bouquets
import hyperinv.homological as homological
import hyperinv.hypergraph as hypergraph
from conftest import rp2
from hyperinv import (
    bouquet_invariants,
    classify_bouquet_set,
    dprime_invariant,
    find_cycle,
    from_masks,
    matching_invariants,
    make_bouquet,
    minimal_vertex_covers,
    named_instance,
    reduced_homology,
)
from hyperinv.errors import SearchLimitExceeded


def three_disjoint_edges():
    return from_masks([f"x{i}" for i in range(6)], [0b11, 0b1100, 0b110000])


def rp2_homology():
    """Reduced homology of RP2 over F2, which only the face fallback answers,
    from its 31 nonempty faces; a kept answer would do no work, so the memo
    starts empty."""
    homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
    return reduced_homology(rp2(), "F2")


def c5_cycle():
    """The C5 search grows 5 paths: one per vertex of the cycle."""
    return find_cycle(named_instance("c5"), 5)


def paw_bouquets():
    """The paw: the triangle x1 x2 x4 with the pendant edge x1 x3.  The d'
    walk collects 6 root sets, then d scores 8 candidates; d = 3 is reached
    before its last induced matching, {x2, x4}, whose edges and the edges
    that meet it span only x1, x2, x4, so its 2 hub choices are cut off
    together and counted as 2."""
    h = from_masks(["x1", "x2", "x3", "x4"], [0b11, 0b101, 0b1001, 0b1010])
    return bouquet_invariants(h)


def c4_stem_choices():
    """Two bouquets of C4 at opposite roots: none of the 2 * 2 stem choices
    is an induced matching, so all four are tried."""
    c4 = named_instance("c4")
    a, b, c, d = (1 << i for i in range(4))
    return classify_bouquet_set(c4, [make_bouquet(c4, [a | b, a | d]), make_bouquet(c4, [b | c, c | d])])


# (module, constant, size of the input, the call on a fresh input, message at cap = size - 1)
CAPS = [
    (hypergraph, "DEFAULT_TRANSVERSAL_CAP", 8, lambda: minimal_vertex_covers(three_disjoint_edges()),
     "minimal transversals exceed cap {cap}"),
    (hypergraph, "DEFAULT_LATTICE_CAP", 10, lambda: matching_invariants(named_instance("h1")),
     "edges inside the edge unions exceed lattice cap {cap}"),
    (hypergraph, "DEFAULT_LATTICE_CAP", 5, c5_cycle, "cycle search paths exceed lattice cap {cap}"),
    (bouquets, "DEFAULT_CANDIDATE_CAP", 26, lambda: dprime_invariant(three_disjoint_edges()),
     "d' search candidates exceed cap {cap}"),
    (bouquets, "DEFAULT_CANDIDATE_CAP", 8, paw_bouquets, "d search candidates exceed cap {cap}"),
    (bouquets, "DEFAULT_CANDIDATE_CAP", 4, c4_stem_choices, "stem choices exceed cap {cap}"),
    (bouquets, "DEFAULT_CANDIDATE_CAP", 31, rp2_homology, "homology fallback faces exceed cap {cap}"),
]


def cap_ids():
    """``module.CONSTANT``, and for a constant's later rows also the call's name."""
    ids: list[str] = []
    for module, name, _, call, _ in CAPS:
        base = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
        ids.append(base if base not in ids else f"{base}-{call.__name__}")
    return ids


@pytest.mark.parametrize("module, name, size, call, message", CAPS, ids=cap_ids())
def test_cap_is_read_at_call_time(monkeypatch, module, name, size, call, message):
    """One below the size of the input, the call raises with the cap's
    message; at the size, it passes."""
    assert getattr(module, name) >= size
    monkeypatch.setattr(module, name, size - 1)
    with pytest.raises(SearchLimitExceeded, match=f"^{re.escape(message.format(cap=size - 1))}$"):
        call()
    monkeypatch.setattr(module, name, size)
    call()
