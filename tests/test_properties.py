"""Property-based invariant checks over randomly drawn hypergraphs."""

import json
from functools import partial, reduce
from itertools import combinations
from operator import or_
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hyperinv.hypergraph as hypergraph
from conftest import (
    disjoint_edges_and_c5,
    oracle_betti_table,
    oracle_bouquet_numbers,
    oracle_canonical_witness,
    oracle_codismantle_order,
    oracle_dprime_search,
    oracle_has_berge_cycle,
    oracle_independence_facets,
    oracle_matching_numbers,
    oracle_minimal_sets,
    oracle_random_hypergraph,
    oracle_split,
)
from hyperinv import (
    betti_table,
    bouquet_invariants,
    check_instance,
    contraction,
    deletion,
    dprime_invariant,
    from_masks,
    independence_complex,
    independent_set_from_semi_induced,
    is_codismantlable,
    is_codominated,
    is_shedding_vertex,
    matching_invariants,
    maximal_independent_sets,
    minimal_vertex_covers,
    profile_of,
    reg_and_pd,
    vertex_decomposable,
)
from hyperinv.bouquets import _freed_count, _max_freed
from hyperinv.complexes import SimplicialComplex, _split, dimension
from hyperinv.decomposition import _codismantle_order, _codominated
from hyperinv.errors import HyperinvError
from hyperinv.generators import FamilySpec, _labels, random_hypergraph
from hyperinv.homological import _reg_pd
from hyperinv.hypergraph import (
    _canonical_witness,
    _compress,
    _contracted,
    _cycles,
    _maximal,
    bit_ids,
    find_cycle,
    mask_of,
)
from hyperinv.suites import _indented_json


@st.composite
def hypergraphs(draw, max_n=6, max_edge_size=3, max_edges=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    raw = draw(
        st.lists(
            st.integers(min_value=1, max_value=(1 << n) - 1).filter(
                lambda m: m.bit_count() <= max_edge_size
            ),
            max_size=max_edges,
        )
    )
    # keep only inclusion-minimal masks so the edge set is an antichain
    edges = [m for m in raw if not any(o != m and o & m == o for o in raw)]
    labels = [f"x{i + 1}" for i in range(n)]
    return from_masks(labels, sorted(set(edges)))


@st.composite
def graphs(draw, max_n=6, max_edges=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))
    return from_masks([f"x{i + 1}" for i in range(n)], sorted(edges))


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_deletion_and_contraction_stay_simple(h):
    for x in h.labels:
        for derived in (deletion(h, x), contraction(h, x)):
            if derived.void:
                continue
            assert len(set(derived.edges)) == len(derived.edges)
            for a in derived.edges:
                assert a
                assert not any(b != a and b & a == b for b in derived.edges)
        # H/x from the definition: the inclusion-minimal sets E \ {x}
        stripped = {frozenset(e) - {x} for e in h.edges_as_labels()}
        ctr = contraction(h, x)
        assert ctr.void == (frozenset() in stripped)
        if not ctr.void:
            want = {e for e in stripped if not any(o < e for o in stripped)}
            assert {frozenset(e) for e in ctr.edges_as_labels()} == want


@settings(max_examples=200, deadline=None)
@given(hypergraphs(max_n=8, max_edge_size=4, max_edges=7))
@example(from_masks(["x1", "x2", "x3"], [0b001, 0b110]))  # {x1} is an edge: H/x1 is void
def test_link_and_deletion_are_the_split_complexes(h):
    """At every vertex x of H, the link of x in Ind(H) is Ind(H/x) and the
    deletion is Ind(H\\x), and so again at a second vertex y of each; a void
    contraction has a void link, and a void marker stays void."""

    def split(delta, g, x):
        i = delta.labels.index(x)
        labels, keep = delta.labels[:i] + delta.labels[i + 1:], (1 << delta.n) - 1 & ~(1 << i)
        link, dele = (SimplicialComplex(labels, tuple(_compress(f, keep)))
                      for f in _split(delta.facets, 1 << i)[:2])
        ctr, rest = contraction(g, x), deletion(g, x)
        assert link.labels == ctr.labels and dele.labels == rest.labels
        assert link.facets == maximal_independent_sets(ctr)
        assert dele.facets == maximal_independent_sets(rest)
        assert not g.void or (ctr.void and rest.void)
        return (link, ctr), (dele, rest)

    for x in h.labels:
        for delta, g in split(independence_complex(h), h, x):
            for y in g.labels:
                split(delta, g, y)


def _keeps(n):
    full = (1 << n) - 1
    return (st.just(0) | st.just(full)
            | st.integers(0, max(n - 1, 0)).map(lambda i: full & ~(1 << i))
            | st.integers(0, full))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, (1 << n) - 1), max_size=6), _keeps(n))))
@example(([0b1011, 0], 0))  # keep nothing: every mask becomes 0
@example(([0b1011, 0b0100], 0b1111))  # a full keep changes nothing
@example(([0b1011, 0b0110], 0b1101))  # drop bit 1
@example(([0b110101101], 0b111011010))  # runs of one, two and three bits
def test_compress_matches_bitwise_renumbering(case):
    """The k-th lowest bit of keep becomes bit k; other bits are dropped."""
    masks, keep = case
    want = [sum(1 << k for k, old in enumerate(bit_ids(keep)) if m >> old & 1) for m in masks]
    assert _compress(masks, keep) == want


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=(1 << 6) - 1), max_size=12))
def test_antichain_helpers_match_brute_force(masks):
    as_sets = {m: frozenset(bit_ids(m)) for m in masks}
    assert _maximal(masks) == tuple(
        sorted(m for m in masks if not any(as_sets[m] < as_sets[o] for o in masks))
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=8), st.integers(0, n - 1))))
@example((3, [0b001, 0b110], 0))  # {x0} is an edge: the void marker (0,)
@example((3, [0b011, 0b110, 0b101], 1))  # 0b101 contains 0b011 less x1: it drops
@example((4, [0b0011, 0b0101, 0b1000], 0))  # the edge missing x0 contains no other: all stay
@example((2, [], 1))
def test_contracted_is_the_minimal_sets(case):
    """On an antichain, ``_contracted`` gives the minimal sets of E \\ {i},
    renumbered onto the ground set without i, ascending."""
    n, raw, i = case
    edges = oracle_minimal_sets(raw)
    minimal = oracle_minimal_sets(e & ~(1 << i) for e in edges)
    want = tuple(sorted(m & ((1 << i) - 1) | m >> (i + 1) << i for m in minimal))
    assert _contracted(edges, n, i) == want


@settings(max_examples=150, deadline=None)
@given(hypergraphs(max_n=10, max_edge_size=4, max_edges=8))
@example(from_masks([f"x{i + 1}" for i in range(6)], [0b000001, 0b000110, 0b011010]))
@example(from_masks([f"x{i + 1}" for i in range(4)], []))
def test_independent_sets_and_covers_match_oracle(h):
    """Both come from one dualization; singleton edges and vertices in no
    edge are drawn too (the example has both: {x1} and the free x6)."""
    facets = oracle_independence_facets(h)
    assert independence_complex(h).facets == facets
    covers = minimal_vertex_covers(h)
    assert covers.covers == tuple(sorted(h.full_mask & ~f for f in facets))
    assert covers.bigheight == max(c.bit_count() for c in covers.covers)


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_chain_c_cprime_dim(h):
    if not h.edges:
        return
    inv = matching_invariants(h)
    # c' <= m can fail for overlapping large edges; only c <= c' and
    # c <= m hold unconditionally
    assert 0 <= inv.c <= inv.c_prime
    assert inv.c <= inv.m
    assert inv.c_prime <= dimension(independence_complex(h)) + 1


@settings(max_examples=100, deadline=None)
@given(hypergraphs(max_edges=4))
def test_chain_c_d_dprime(h):
    if not h.edges:
        return
    c = matching_invariants(h).c
    b = bouquet_invariants(h)
    assert c <= b.d <= b.d_prime


@settings(max_examples=150, deadline=None)
@given(hypergraphs(max_n=6, max_edge_size=3, max_edges=5))
@example(from_masks([f"x{i + 1}" for i in range(5)], [0b00001, 0b00110, 0b01100]))
@example(from_masks([f"x{i + 1}" for i in range(3)], [0b001, 0b010]))
@example(from_masks(["x1", "x2", "x3"], []))
def test_bouquet_numbers_match_oracle(h):
    """Singleton edges and vertices in no edge are drawn too: the first
    example has the singleton {x1} and the free x5, the second only
    singletons and the free x3, and the third no edge."""
    inv = bouquet_invariants(h)
    assert (inv.d, inv.d_prime) == oracle_bouquet_numbers(h)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.integers(0, 6), min_size=2, max_size=5).map(mask_of), max_size=7))
@example([0b011, 0b011])  # one common twice is a Berge 2-cycle: both roots freed
@example([0b011, 0b110, 0b101])  # a triangle frees all three roots
@example([0b011, 0b110, 0b1100, 0b110000])  # two paths keep one root each
def test_closed_form_freed_count_matches_the_dp(commons):
    assert _freed_count(commons) == _max_freed(commons)[0]


@settings(max_examples=200, deadline=None)
@given(hypergraphs(max_n=9, max_edge_size=4, max_edges=10))
@example(from_masks([f"x{i + 1}" for i in range(6)], [0b000001, 0b000110, 0b011100]))  # {x1}; x6 in no edge
@example(from_masks([f"x{i + 1}" for i in range(4)], [0b0111, 0b1011]))  # two edges share two roots
def test_dprime_search_matches_the_face_by_face_oracle(h):
    """Same d' and the same witness, tie-breaks included; singleton edges
    and vertices in no edge are drawn too."""
    facets = oracle_independence_facets(h)
    value, witness = dprime_invariant(h)
    want_value, want_witness = oracle_dprime_search(h, facets)
    assert value == want_value
    assert json.dumps(witness.to_json_obj(h)) == json.dumps(want_witness.to_json_obj(h))


@st.composite
def many_edges(draw):
    """13 to 21 edges on 6 or 7 vertices: inputs that an edge cap on the
    cycle search (20) or the bouquet searches (12) refused.  At least 13
    edges of one size k in {2, 3}, then up to 21 with larger edges that
    contain none of them."""
    n, k = draw(st.integers(6, 7)), draw(st.integers(2, 3))
    layer = [m for m in range(1 << n) if m.bit_count() == k]
    edges = draw(st.lists(st.sampled_from(layer), min_size=13, max_size=21, unique=True))
    larger = [m for m in range(1 << n) if k < m.bit_count() <= 4]
    for m in draw(st.lists(st.sampled_from(larger), max_size=8, unique=True)):
        if len(edges) < 21 and not any(e & m in (e, m) for e in edges):
            edges.append(m)
    return from_masks([f"x{i + 1}" for i in range(n)], edges)


@settings(max_examples=100, deadline=None)
@given(many_edges())
def test_many_edges_match_the_dprime_and_berge_cycle_oracles(h):
    """d' and its witness equal the face-by-face oracle's, and the cycle
    search agrees with Hall's condition on vertex tuples: for C5, and for
    the lengths 2 to 6 around it (a C5 turned up in every draw tried)."""
    facets = oracle_independence_facets(h)
    value, witness = dprime_invariant(h)
    want_value, want_witness = oracle_dprime_search(h, facets)
    assert value == want_value
    assert json.dumps(witness.to_json_obj(h)) == json.dumps(want_witness.to_json_obj(h))
    for length in range(2, 7):
        assert (find_cycle(h, length) is not None) == oracle_has_berge_cycle(h, length), length


CODISMANTLE_STREAMS = st.one_of(hypergraphs(max_n=9, max_edge_size=4, max_edges=8),
                                graphs(max_n=9, max_edges=12),
                                st.integers(0, 6).map(disjoint_edges_and_c5))


@settings(max_examples=200, deadline=None)
@given(CODISMANTLE_STREAMS)
@example(disjoint_edges_and_c5(6))
def test_codismantle_search_matches_the_oracle(h):
    """The greedy loop on edge masks finds the order (or None) of the
    backtracking search that builds each deleted hypergraph."""
    order = _codismantle_order(h.edges, [_codominated(h.edges, 1 << i) for i in range(h.n)])
    want = oracle_codismantle_order(h, partial(is_codominated, h), set())
    assert (None if order is None else [h.labels[i] for i in order]) == want


@settings(max_examples=200, deadline=None)
@given(CODISMANTLE_STREAMS)
def test_deleting_any_codominated_vertex_keeps_codismantlability(h):
    """The lemma behind the greedy loop: if H is codismantlable and x is
    codominated in H, the backtracking oracle finds H\\x codismantlable."""
    if oracle_codismantle_order(h, partial(is_codominated, h), set()) is None:
        return
    for x in h.labels:
        if is_codominated(h, x) is not None:
            rest = deletion(h, x)
            assert oracle_codismantle_order(rest, partial(is_codominated, rest), set()) is not None, x


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_codominated_implies_shedding(h):
    for x in h.labels:
        if is_codominated(h, x) is not None:
            assert is_shedding_vertex(h, x)


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_shedding_vertices_match_the_oracle_off_one_complex(h):
    """Each vertex sheds as the oracle splits the oracle's facets, and all
    of H's vertices are read off one dualization of H."""
    h = from_masks(h.labels, h.edges)  # a new object: a new profile
    dualize, calls = hypergraph._minimal_transversals, []
    with mock.patch.object(hypergraph, "_minimal_transversals",
                           lambda edges: calls.append(edges) or dualize(edges)):
        got = [is_shedding_vertex(h, x) for x in h.labels]
    facets = oracle_independence_facets(h)
    assert got == [oracle_split(facets, i)[2] for i in range(h.n)]
    assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_first_betti_column_counts_edge_sizes(h):
    t = betti_table(h)
    for j in range(2, h.n + 1):
        assert t.entries.get((1, j), 0) == sum(1 for e in h.edges if e.bit_count() == j)


@st.composite
def relabelled_pairs(draw, max_n=7, max_edge_size=3, max_edges=5):
    """A hypergraph with at least one vertex in no edge, and a random
    relabelling of it."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    free = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    drawn = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), max_size=max_edges))
    raw = [m & ~free for m in drawn if 0 < (m & ~free).bit_count() <= max_edge_size]
    edges = sorted({m for m in raw if not any(o != m and o & m == o for o in raw)})
    perm = draw(st.permutations(range(n)))
    moved = [sum(1 << perm[i] for i in bit_ids(e)) for e in edges]
    labels = [f"x{i + 1}" for i in range(n)]
    return from_masks(labels, edges), from_masks(labels, moved)


# the minimal non-faces of the 6-vertex real projective plane: its table
# over F2 differs from those over Q and F3
RP2 = from_masks([f"x{i + 1}" for i in range(6)], [
    0b1011, 0b10011, 0b10101, 0b100101, 0b101001, 0b1110, 0b100110, 0b110010, 0b11100, 0b111000])


@settings(max_examples=50, deadline=None)
@given(relabelled_pairs(max_n=6), st.integers(min_value=0, max_value=5))
@example((RP2, RP2), 0)
def test_betti_tables_with_warm_memos_match_the_oracle(pair, k):
    """No memo is cleared between calls, so the tables of a relabelling of
    H and of H\\x read restrictions stored by earlier tables, labelled and
    renumbered, over every field."""
    h, moved = pair
    rest = deletion(h, h.labels[k % h.n])
    for field, p in (("Q", None), ("F2", 2), ("F3", 3)):
        want = oracle_betti_table(h, p)
        assert betti_table(h, field).entries == want, field
        assert betti_table(moved, field).entries == want, field
        assert betti_table(rest, field).entries == oracle_betti_table(rest, p), field


@settings(max_examples=150, deadline=None)
@given(relabelled_pairs())
def test_betti_table_matches_oracle_and_ignores_labels(pair):
    h, moved = pair
    entries = betti_table(h).entries
    assert entries == oracle_betti_table(h)
    assert betti_table(moved).entries == entries


def _oracle_reg_pd(h, p):
    entries = oracle_betti_table(h, p)
    return max((j - i for i, j in entries), default=0), max((i for i, _ in entries), default=0)


@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_n=8, max_edge_size=4, max_edges=6))
@example(from_masks(["x1", "x2", "x3"], [0b001, 0b110]))  # a singleton edge
def test_bounded_walk_gives_the_oracle_reg_and_pd(h):
    """The walk's stopping rule loses nothing: over Q and F2, reg and pd
    equal those of the oracle table, and one walk with every vertex asked
    for gives each H\\x row as the oracle table of deletion(H, x) does."""
    for field, p in (("Q", None), ("F2", 2)):
        oracle = _oracle_reg_pd(h, p)
        assert _reg_pd(h, field) == oracle, field
        walk = betti_table(h, field, bounded=True, deletions=h.full_mask)
        assert (walk.reg, walk.pd) == oracle, field
        rows = tuple(_oracle_reg_pd(deletion(h, x), p) for x in h.labels)
        assert walk.deletions == rows, field


@settings(max_examples=150, deadline=None)
@given(hypergraphs(max_n=8, max_edge_size=3, max_edges=6))
def test_vertex_decomposable_pure_complexes_have_linear_cover_tables(h):
    """Eagon-Reiner (J. Pure Appl. Algebra 130, 1998): a pure Ind(H) is
    Cohen-Macaulay iff the ideal of its minimal covers has a linear
    resolution, and vertex decomposable implies Cohen-Macaulay.  So with c
    the codimension, every entry of the cover hypergraph's table lies on
    j - i = c - 1, and its reg is c - 1.  The converse is not asserted:
    there are Cohen-Macaulay complexes that are not vertex decomposable."""
    d = independence_complex(h)
    sizes = {f.bit_count() for f in d.facets}
    assume(h.edges and len(sizes) == 1 and vertex_decomposable(d))
    c = h.n - sizes.pop()
    covers = from_masks(h.labels, minimal_vertex_covers(h).covers)
    table = betti_table(covers)
    assert table.entries and {j - i for i, j in table.entries} == {c - 1}
    assert reg_and_pd(covers) == {"reg": c - 1, "pd": table.pd}


@settings(max_examples=100, deadline=None)
@given(hypergraphs(max_n=8, max_edge_size=3, max_edges=7))
@example(from_masks(["x1", "x2", "x3"], [0b001, 0b110]))  # {x1} is an edge: H/x1 is void
@example(from_masks(["x1", "x2", "x3", "x4"], [0b0001, 0b0110, 0b1010]))
def test_shedding_rows_on_masks_match_the_relabelled_hypergraphs(h):
    """At every shedding vertex x in an edge, the d' lemma rows equal d' of
    ``contraction(h, x)`` and ``deletion(h, x)`` on their own complexes, and
    the recursion rows equal the reg and pd of their Betti tables (no row
    for a void contraction).  The d' lemmas assume no singleton edge."""
    delta = independence_complex(h)
    support = reduce(or_, h.edges, 0)
    shedding = [x for i, x in enumerate(h.labels) if support >> i & 1 and _split(delta.facets, 1 << i)[2]]
    lemma_rows, splits = [], []
    for x in shedding:
        ctr, rest = contraction(h, x), deletion(h, x)
        if not ctr.void:
            dp_ctr = dprime_invariant(ctr)[0]
            dp_del = dprime_invariant(rest)[0]
            lemma_rows.append({"vertex": x, "d_prime_contraction": dp_ctr, "d_prime_deletion": dp_del})
            splits.append((x, *((t.reg, t.pd) for t in (betti_table(rest), betti_table(ctr)))))
    h = from_masks(h.labels, h.edges)  # a new object: a new profile
    details = check_instance("lemmas-dprime", h).details
    if all(e & (e - 1) for e in h.edges):
        assert details["shedding"] == lemma_rows
    else:
        assert details == {"no_singleton_edges": False}
    assert profile_of(h).shedding_splits == splits


@settings(max_examples=100, deadline=None)
@given(relabelled_pairs())
def test_every_value_ignores_labels(pair):
    """c, c', m, d, d', vertex decomposability, codismantlability and
    bigheight are the same after relabelling."""

    def values(h):
        inv = matching_invariants(h)
        binv = bouquet_invariants(h)
        return (
            inv.c, inv.c_prime, inv.m, binv.d, binv.d_prime,
            vertex_decomposable(independence_complex(h)),
            is_codismantlable(h) is not None,
            minimal_vertex_covers(h).bigheight,
        )

    h, moved = pair
    assert values(moved) == values(h)


@settings(max_examples=100, deadline=None)
@given(hypergraphs(max_n=8, max_edge_size=4, max_edges=8))
def test_reg_pd_bounds(h):
    got = reg_and_pd(h)
    if not h.edges:
        assert got["reg"] == got["pd"] == 0
        return
    assert got["pd"] >= 1  # a nonzero ideal never has a free quotient
    assert got["pd"] <= h.n
    # the minimal covers are the associated primes, and each one's height bounds pd below
    assert got["pd"] >= minimal_vertex_covers(h).bigheight
    # an induced matching survives restriction, so its weight bounds reg below
    assert matching_invariants(h).c <= got["reg"]


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_greedy_independent_set_from_witness(h):
    if not h.edges:
        return
    inv = matching_invariants(h)
    witness = inv.witnesses["c_prime"].edges
    ind = independent_set_from_semi_induced(h, witness)
    # independent: no edge inside the chosen set
    assert not any(e & ind == e for e in h.edges)
    assert ind.bit_count() >= inv.c_prime


@settings(max_examples=150, deadline=None)
@given(hypergraphs(max_n=7, max_edge_size=4, max_edges=8))
@example(from_masks([f"x{i + 1}" for i in range(4)], [0b0001, 0b0110, 0b1000]))  # singletons tie
@example(from_masks([f"x{i + 1}" for i in range(5)], [0b00011, 0b00110, 0b01100, 0b11000, 0b10001]))
def test_matching_witnesses_are_the_least_optimal_families(h):
    """The tie rule: each witness is the least edge-index tuple among the
    optimal families of the raw subset oracle, with that family's flags."""
    inv = matching_invariants(h)
    *values, optima = oracle_matching_numbers(h)
    assert [inv.c, inv.c_prime, inv.m] == values
    for name, (ids, matching, semi) in optima.items():
        w = inv.witnesses[name]
        assert w.edges == tuple(h.edges[i] for i in ids), name
        assert (w.matching, w.semi_induced, w.induced) == (matching, semi, matching and semi), name


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_graph_c_equals_c_prime(h):
    if not h.edges:
        return
    inv = matching_invariants(h)
    assert inv.c == inv.c_prime


@settings(max_examples=150, deadline=None)
@given(hypergraphs(max_n=7, max_edge_size=3, max_edges=7))
def test_find_cycle_is_the_first_enumerated_cycle(h):
    """The early exit on too few edges or vertices changes no answer."""
    for n in range(2, 8):
        first = next(_cycles(h, n), None)
        assert find_cycle(h, n) == (first and _canonical_witness(first))


@settings(max_examples=150, deadline=None)
@given(hypergraphs(max_n=7, max_edge_size=3, max_edges=7))
@example(from_masks([f"x{i + 1}" for i in range(4)], [0b0011, 0b0110, 0b1100, 0b1001, 0b0101]))
@example(from_masks(["x1", "x2"], [0b11]))
def test_canonical_witness_is_the_least_rotation_or_reflection(h):
    """Every enumerated cycle, not only the first: comparing a witness with
    its reversal gives the least of all its rotations and reflections."""
    for n in range(2, 8):
        for w in _cycles(h, n):
            assert _canonical_witness(w) == oracle_canonical_witness(w)


@settings(max_examples=150, deadline=None)
@given(hypergraphs(max_n=8, max_edge_size=4, max_edges=10))
@example(from_masks([f"x{i + 1}" for i in range(8)], [0b11, 0b1100, 0b110000, 0b11000000]))
def test_induced_matchings_match_brute_force(h):
    """The induced matchings that the matchings pass reads from the lcm
    lattice, as edge-index masks, are the edge subsets that are pairwise
    disjoint with no other edge inside their union, in edge order,
    ascending by union."""
    found = []
    for k in range(1, len(h.edges) + 1):
        for family in combinations(h.edges, k):
            union = reduce(or_, family)
            inside = tuple(e for e in h.edges if e & union == e)
            if sum(e.bit_count() for e in family) == union.bit_count() and inside == family:
                found.append((union, family))
    induced = matching_invariants(h).induced
    assert [tuple(h.edges[i] for i in bit_ids(m)) for m in induced] == [m for _, m in sorted(found)]


def _draw(draw_fn, spec, index):
    try:
        h = draw_fn(spec, index)
    except HyperinvError as exc:
        return str(exc)
    return h.labels, h.edges


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.builds(FamilySpec, kind=st.just("random_hypergraph"), n=st.integers(0, 40),
              max_edge_size=st.integers(1, 8), edge_count=st.integers(0, 14),
              seed=st.integers(-5, 10**6)),
    st.integers(0, 10**4)), min_size=1, max_size=6))
@example([(FamilySpec(kind="random_hypergraph", n=2, max_edge_size=2, edge_count=2), 0)])
def test_random_draws_match_a_freshly_seeded_oracle(draws):
    """Draw for draw, in any order of specs, the shared re-seeded generator
    gives the instances (or the refusal) of a fresh Random per draw, and
    every instance on n vertices shares one label tuple.  Past 21 vertices
    ``Random.sample`` may take its set branch."""
    for spec, index in draws:
        got = _draw(random_hypergraph, spec, index)
        assert got == _draw(oracle_random_hypergraph, spec, index)
        if not isinstance(got, str):
            assert got[0] is _labels(spec.n)


_TEXT = st.text(st.characters(exclude_categories=())  # lone surrogates included
                | st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\ud800", "\udfff", "\U0001f600"]))
_INTS = st.integers() | st.integers(-(1 << 256), 1 << 256)
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | _INTS | _TEXT,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(_TEXT, kids, max_size=5)
                  | st.lists(_TEXT, max_size=5) | st.lists(_INTS, max_size=5)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_REPORT_VALUES)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": [[], {}, ()]})
@example({"k": ["x", "y"], "n": [1, -2], "t": ("x", 3)})
def test_indented_json_is_json_dumps(value):
    """The report writer gives the bytes of the indented, key-sorted
    ``json.dumps`` on every report value type, on every Python version."""
    assert _indented_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_indented_json_edge_cases():
    """A bool is no int in a list of ints, a float has no writer, and an
    empty report is ``{}``."""
    assert _indented_json([True, 1]) == json.dumps([True, 1], indent=2) == "[\n  true,\n  1\n]"
    assert _indented_json([1, True]) == "[\n  1,\n  true\n]"
    with pytest.raises(TypeError):
        _indented_json({"x": 0.5})
    assert _indented_json({}) == "{}"
