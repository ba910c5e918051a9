"""Property-based invariant checks over randomly drawn hypergraphs."""

from hypothesis import example, given, settings, strategies as st

from conftest import oracle_betti_table, oracle_bouquet_numbers, oracle_independence_facets
from hyperinv import (
    betti_table,
    bouquet_invariants,
    contraction,
    deletion,
    from_masks,
    independence_complex,
    independent_set_from_semi_induced,
    is_codominated,
    is_shedding_vertex,
    matching_invariants,
    minimal_vertex_covers,
    reg_and_pd,
)
from hyperinv.complexes import dimension
from hyperinv.hypergraph import _maximal, _minimal, bit_ids


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
@given(st.sets(st.integers(min_value=0, max_value=(1 << 6) - 1), max_size=12))
def test_antichain_helpers_match_brute_force(masks):
    as_sets = {m: frozenset(bit_ids(m)) for m in masks}
    assert _minimal(masks) == tuple(
        sorted(m for m in masks if not any(as_sets[o] < as_sets[m] for o in masks))
    )
    assert _maximal(masks) == tuple(
        sorted(m for m in masks if not any(as_sets[m] < as_sets[o] for o in masks))
    )


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
def test_bouquet_numbers_match_oracle(h):
    """Singleton edges and vertices in no edge are drawn too: the first
    example has the singleton {x1} and the free x5, the second only
    singletons and the free x3."""
    inv = bouquet_invariants(h)
    assert (inv.d, inv.d_prime) == oracle_bouquet_numbers(h)


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_codominated_implies_shedding(h):
    for x in h.labels:
        if is_codominated(h, x) is not None:
            assert is_shedding_vertex(h, x)


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


@settings(max_examples=150, deadline=None)
@given(relabelled_pairs())
def test_betti_table_matches_oracle_and_ignores_labels(pair):
    h, moved = pair
    entries = betti_table(h).entries
    assert entries == oracle_betti_table(h)
    assert betti_table(moved).entries == entries


@settings(max_examples=100, deadline=None)
@given(hypergraphs())
def test_reg_pd_bounds(h):
    got = reg_and_pd(h)
    if not h.edges:
        assert got["reg"] == got["pd"] == 0
        return
    assert got["pd"] >= 1  # a nonzero ideal never has a free quotient
    assert got["pd"] <= h.n
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
@given(graphs())
def test_graph_c_equals_c_prime(h):
    if not h.edges:
        return
    inv = matching_invariants(h)
    assert inv.c == inv.c_prime
