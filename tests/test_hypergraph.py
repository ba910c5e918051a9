"""Construction, deletion/contraction, cycle search, uniformity, covers."""

import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import hyperinv.hypergraph as hypergraph
from conftest import oracle_minimal_transversals

from hyperinv import (
    betti_table,
    build,
    contraction,
    deletion,
    find_cycle,
    from_json,
    from_masks,
    independence_complex,
    maximal_independent_sets,
    minimal_vertex_covers,
    three_cycle_edge_condition,
    uniformity_profile,
)
from hyperinv.errors import HyperinvError, SearchLimitExceeded
from hyperinv.hypergraph import (
    _lattice,
    _minimal_transversals,
    _neighborhood_minus,
    bit_ids,
    edge_sort_key,
    mask_of,
)


class TestBuild:
    def test_h1_canonical(self, h1):
        assert h1.n == 6
        assert h1.edges_as_labels() == [
            ("x1", "x2", "x3"),
            ("x2", "x3", "x4"),
            ("x4", "x5", "x6"),
        ]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(HyperinvError, match=r"^duplicate edge \('a', 'b'\)$"):
            build(["a", "b"], [["a", "b"], ["b", "a"]])

    @pytest.mark.parametrize("edges", [[["a", "a"]], [["a", "b", "a"]]])
    def test_edge_naming_a_vertex_twice_rejected(self, edges):
        with pytest.raises(HyperinvError, match="names a vertex twice"):
            build(["a", "b"], edges)

    def test_empty_edge_rejected(self):
        with pytest.raises(HyperinvError, match="^empty edge$"):
            build(["a"], [[]])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(HyperinvError, match=r"^unknown vertex 'z' in edge \('a', 'z'\)$"):
            build(["a"], [["a", "z"]])

    def test_antichain_violation_rejected(self):
        with pytest.raises(HyperinvError, match=r"^edge containment between \('a', 'b'\) and \('a', 'b', 'c'\)$"):
            build(["a", "b", "c"], [["a", "b"], ["a", "b", "c"]])

    def test_json_round_trip(self, h1):
        assert from_json(h1.to_json()).edges == h1.edges

    def test_json_stable_bytes(self, h1):
        assert h1.to_json() == h1.to_json()
        assert json.loads(h1.to_json())["vertices"] == list(h1.labels)

    def test_edge_sort_key_orders_by_size_then_ids(self):
        assert edge_sort_key(mask_of([0, 5])) < edge_sort_key(mask_of([1, 2, 3]))
        assert edge_sort_key(mask_of([0, 2])) < edge_sort_key(mask_of([1, 2]))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, 2047), st.sets(st.integers(0, 63), max_size=8).map(mask_of)))
    @example(0)
    @example(1)
    @example(1023)
    @example(1024)
    @example(1025)
    @example(1 << 40)
    def test_bit_ids_match_the_bit_walk_across_the_table_bound(self, mask):
        """Below 2**10 the ids are read from a table, above it walked."""
        walked = [i for i in range(mask.bit_length()) if mask >> i & 1]
        ids = bit_ids(mask)
        assert type(ids) is tuple and list(ids) == walked


class TestDeletionContraction:
    def test_h1_delete_x2(self, h1):
        d = deletion(h1, "x2")
        assert d.edges_as_labels() == [("x4", "x5", "x6")]
        assert "x2" not in d.labels

    def test_h2_contract_x1(self, h2):
        c = contraction(h2, "x1")
        assert c.edges_as_labels() == [("x2", "x3"), ("x4", "x5")]

    def test_contraction_keeps_minimal_edges(self):
        h = build(["a", "b", "c"], [["a", "b"], ["b", "c"]])
        c = contraction(h, "a")
        assert c.edges_as_labels() == [("b",)]

    def test_contracting_singleton_edge_gives_void_marker(self):
        h = build(["a", "b", "c"], [["a"], ["b", "c"]])
        c = contraction(h, "a")
        assert c.void and c.edges == (0,)

    @pytest.mark.parametrize("step", [deletion, contraction])
    def test_void_marker_survives_a_second_step(self, step):
        """(H/a)\\b and (H/a)/b are void: no vertex set is independent."""
        h = build(["a", "b", "c"], [["a"], ["b", "c"]])
        c = step(contraction(h, "a"), "b")
        assert c.void and c.labels == ("c",) and c.edges == (0,)
        assert independence_complex(c).kind == "void"
        assert minimal_vertex_covers(c).covers == ()
        with pytest.raises(HyperinvError, match="void-marker"):
            betti_table(c)

    def test_unknown_vertex(self, h1):
        with pytest.raises(HyperinvError, match="^unknown vertex 'zz'$"):
            deletion(h1, "zz")

    def test_neighborhood_minus_h1(self, h1):
        # edges through x2 avoiding x1: only E2; E2 \ {x2} = {x3, x4}
        masks = _neighborhood_minus(h1.edges, 1 << h1.vertex_id("x2"), 1 << h1.vertex_id("x1"))
        assert {tuple(h1.edge_labels(m)) for m in masks} == {("x3", "x4")}


class TestCycles:
    def test_h1_two_cycle(self, h1):
        w = find_cycle(h1, 2)
        assert w is not None
        assert [h1.labels[i] for i in w.vertex_ids] == ["x2", "x3"]
        assert [h1.edge_labels(e) for e in w.edge_masks] == [("x1", "x2", "x3"), ("x2", "x3", "x4")]

    def test_h1_no_five_cycle(self, h1):
        assert find_cycle(h1, 5) is None

    def test_c5_has_five_cycle(self, c5):
        w = find_cycle(c5, 5)
        assert w is not None and w.length == 5

    def test_c4_no_five_cycle(self):
        from hyperinv import named_instance

        assert find_cycle(named_instance("c4"), 5) is None

    def test_caps(self, h1, monkeypatch):
        """Length 1 is undefined, not a cap; no length or edge count is
        refused, only a search past ``DEFAULT_LATTICE_CAP`` paths."""
        with pytest.raises(HyperinvError) as exc:
            find_cycle(h1, 1)
        assert not isinstance(exc.value, SearchLimitExceeded)
        labels = [f"x{i}" for i in range(9)]
        c9 = build(labels, [[labels[i], labels[(i + 1) % 9]] for i in range(9)])
        assert find_cycle(c9, 9).length == 9
        k7 = build(labels[:7], [[u, v] for i, u in enumerate(labels[:7]) for v in labels[i + 1:7]])
        assert find_cycle(k7, 7).vertex_ids == tuple(range(7))  # 21 edges
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 8)
        with pytest.raises(SearchLimitExceeded, match="^cycle search paths exceed lattice cap 8$"):
            find_cycle(c9, 9)

    def test_vertices_in_one_edge_are_never_entered(self, monkeypatch):
        """20 edges of 20 vertices that share 4: a vertex in one edge lies on
        no cycle, so the C5 search grows 44,204 paths on the core alone.
        Entering the 320 others, it grew more than the lattice cap."""
        core = 0b1111
        sunflower = from_masks([f"x{i}" for i in range(324)],
                               [core | ((1 << 16) - 1) << (4 + 16 * i) for i in range(20)])
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 44_204)
        assert find_cycle(sunflower, 5) is None
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 44_203)
        with pytest.raises(SearchLimitExceeded):
            find_cycle(sunflower, 5)

    def test_witness_deterministic(self, h1):
        assert find_cycle(h1, 2) == find_cycle(h1, 2)

    def test_too_few_edges_or_vertices_skip_the_search(self, monkeypatch):
        import hyperinv.hypergraph as hg

        entered = []
        real = hg._cycles
        monkeypatch.setattr(hg, "_cycles", lambda h, n: entered.append(n) or real(h, n))
        labels = [f"x{i}" for i in range(1, 9)]
        four = build(labels, [["x1", "x2"], ["x2", "x3"], ["x3", "x4"], ["x4", "x1"]])
        assert find_cycle(four, 5) is None
        k4 = build(["a", "b", "c", "d"], [[u, v] for u in "abcd" for v in "abcd" if u < v])
        assert find_cycle(k4, 5) is None  # six edges, but only four vertices
        assert entered == []
        assert find_cycle(four, 9) is None  # no length is refused
        assert entered == []
        assert find_cycle(four, 4) is not None and entered == [4]


class TestThreeCycleCondition:
    def test_h1_true(self, h1):
        assert three_cycle_edge_condition(h1)

    def test_triangle_graph_true(self):
        g = build(["a", "b", "c"], [["a", "b"], ["b", "c"], ["c", "a"]])
        assert three_cycle_edge_condition(g)

    def test_big_edge_three_cycle_false(self):
        h = build(
            ["a", "b", "c", "d"],
            [["a", "b", "d"], ["b", "c"], ["c", "a"]],
        )
        # 3-cycle a-{a,b,d}-b-{b,c}-c-{c,a}-a uses a size-3 edge
        assert not three_cycle_edge_condition(h)

    def test_matches_generic_search(self):
        """Triple-based check agrees with full 3-cycle enumeration."""
        from hyperinv import random_hypergraph
        from hyperinv.generators import FamilySpec
        from hyperinv.hypergraph import _cycles

        spec = FamilySpec(
            kind="random_hypergraph", n=6, max_edge_size=4, edge_count=4, seed=7, count=150
        )
        for i in range(spec.count):
            h = random_hypergraph(spec, i)
            all_small = all(
                all(e.bit_count() == 2 for e in w.edge_masks) for w in _cycles(h, 3)
            )
            assert three_cycle_edge_condition(h) == all_small

    @staticmethod
    def oracle(h):
        """Every unordered edge triple, with brute-force distinct
        representatives of its three pairwise intersections."""
        return not any(
            max(a.bit_count(), b.bit_count(), c.bit_count()) > 2
            and any(len({u, v, w}) == 3
                    for u in bit_ids(a & b) for v in bit_ids(b & c) for w in bit_ids(c & a))
            for a, b, c in itertools.combinations(h.edges, 3)
        )

    def test_matches_all_triples_oracle(self):
        """Seeded antichains with a few singleton edges and edges of up to
        five vertices; 1,775 of the 3,000 hold."""
        rng = random.Random(3)
        verdicts = []
        for _ in range(3000):
            n = rng.randint(4, 9)
            masks = {mask_of(rng.sample(range(n), 1 if rng.random() < 0.05 else rng.randint(2, min(5, n))))
                     for _ in range(rng.randint(3, 14))}
            h = from_masks([f"v{i}" for i in range(n)], [m for m in masks if not any(o != m and o & m == o for o in masks)])
            verdicts.append(self.oracle(h))
            assert three_cycle_edge_condition(h) == verdicts[-1], h.edges
        assert sum(verdicts) == 1775

    def test_graphs_read_no_triple(self, monkeypatch):
        """On a graph every 3-cycle has edges of two vertices: K30 reads no
        pair of edges, where reading all triples took seconds."""
        labels = [f"x{i}" for i in range(30)]
        k30 = build(labels, [[a, b] for i, a in enumerate(labels) for b in labels[i + 1:]])
        read = []
        real = hypergraph.combinations
        monkeypatch.setattr(hypergraph, "combinations", lambda xs, k: read.append(k) or real(xs, k))
        assert three_cycle_edge_condition(k30)
        assert read == []


class TestUniformity:
    def test_h1(self, h1):
        assert uniformity_profile(h1) == {"d": 3, "strong_intersection": False}

    def test_graph_strong(self, p3):
        assert uniformity_profile(p3) == {"d": 2, "strong_intersection": True}

    def test_mixed_sizes(self, h2):
        assert uniformity_profile(h2)["d"] is None

    def test_no_edges(self):
        with pytest.raises(HyperinvError, match="^hypergraph has no edges$"):
            uniformity_profile(build(["a"], []))


class TestCovers:
    def test_p3_covers(self, p3):
        cl = minimal_vertex_covers(p3)
        assert cl.as_labels(p3) == [["x2"], ["x1", "x3"]]
        assert cl.bigheight == 2

    def test_star_covers(self, star3):
        cl = minimal_vertex_covers(star3)
        assert sorted(cl.as_labels(star3)) == [["x1"], ["x2", "x3", "x4"]]
        assert cl.bigheight == 3

    def test_edgeless(self):
        cl = minimal_vertex_covers(build(["a", "b"], []))
        assert cl.covers == (0,) and cl.bigheight == 0

    def test_nine_disjoint_edges_on_eighteen_vertices(self):
        # one vertex from each edge: 2^9 maximal independent sets and covers
        h = from_masks([f"x{i + 1}" for i in range(18)], [0b11 << 2 * k for k in range(9)])
        mis = maximal_independent_sets(h)
        assert len(mis) == 512 and {m.bit_count() for m in mis} == {9}
        assert all(not any(e & m == e for e in h.edges) for m in mis)
        cl = minimal_vertex_covers(h)
        assert cl.bigheight == 9
        assert cl.covers == tuple(sorted(h.full_mask & ~m for m in mis))

    def test_covers_cover_and_are_minimal(self, tiny=None):
        from conftest import tiny_hypergraphs

        for h in tiny_hypergraphs():
            cl = minimal_vertex_covers(h)
            for c in cl.covers:
                assert all(e & c for e in h.edges)
                for v in bit_ids(c):
                    smaller = c & ~(1 << v)
                    assert not all(e & smaller for e in h.edges)


@st.composite
def edge_lists(draw, max_n=10, max_edges=9):
    """(n, edges) with repeated, nested, singleton and empty edges allowed."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    mask = st.integers(min_value=0, max_value=(1 << n) - 1)
    singleton = st.integers(min_value=0, max_value=max(n - 1, 0)).map(lambda i: 1 << i if n else 0)
    edges = draw(st.lists(st.one_of(mask, singleton), max_size=max_edges))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else []
    return n, edges + repeats


class TestLattice:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists(max_n=8, max_edges=8))
    @example((3, [0b001, 0b110, 0b011]))  # a singleton edge inside a union of others
    @example((0, []))
    def test_matches_every_edge_subset(self, case):
        """Each nonempty edge subset S gives W = the union of S and the
        indices of every edge inside W; ``_lattice`` yields each such W
        once, with that index mask."""
        _, edges = case
        expected = {}
        for subset in range(1, 1 << len(edges)):
            w = 0
            for i in bit_ids(subset):
                w |= edges[i]
            if w:
                expected[w] = mask_of([i for i, e in enumerate(edges) if e & w == e])
        lattice = list(_lattice(edges))
        assert len(lattice) == len(expected)
        assert dict(lattice) == expected
        assert [w for w, _ in lattice] == sorted(expected)

    @settings(max_examples=200, deadline=None)
    @given(edge_lists(max_n=8, max_edges=8), st.integers(-2, 2), st.randoms(use_true_random=False))
    @example((3, [0b011, 0b110, 0b101]), 0, random.Random(0))  # K3: 3 + 3 edges inside 4 unions, at the cap
    @example((3, [0b011, 0b110, 0b101]), -1, random.Random(0))  # one over it
    def test_cap_raises_iff_the_lattice_passes_it(self, case, offset, rnd):
        """With the cap near the lattice size, the edges inside each union
        summed, ``_lattice`` raises iff the whole lattice's size passes the
        cap, however the vertices are labelled and the edges ordered,
        whether it builds the lattice or finds it kept from a call under a
        larger cap."""
        n, edges = case
        unions = {0}
        for e in edges:
            unions |= {w | e for w in unions}
        size = sum(e & w == e for w in unions for e in edges)
        cap = max(size + offset, 0)
        perm = rnd.sample(range(n), n)
        relabelled = [mask_of(perm[v] for v in bit_ids(e)) for e in edges]
        rnd.shuffle(relabelled)
        default = hypergraph.DEFAULT_LATTICE_CAP
        try:
            for es in (edges, relabelled):
                for kept in (False, True):
                    hypergraph._LATTICE_MEMO.clear()
                    if kept:
                        _lattice(es)
                    hypergraph.DEFAULT_LATTICE_CAP = cap
                    if size > cap:
                        with pytest.raises(SearchLimitExceeded, match=f"^edges inside the edge unions exceed lattice cap {cap}$"):
                            _lattice(es)
                    else:
                        assert len(_lattice(es)) == len(unions) - 1
                    hypergraph.DEFAULT_LATTICE_CAP = default
        finally:
            hypergraph.DEFAULT_LATTICE_CAP = default

    def test_refusal_is_kept(self, monkeypatch):
        """A refused lattice is not built again for the next caller under
        the same cap; a cap raised past the size it stopped at builds it."""
        edges = [0b11, 0b1100, 0b110000, 0b11000000]  # 4 disjoint edges: 4 * 2^3 edges inside
        hypergraph._LATTICE_MEMO.clear()
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 5)
        message = "^edges inside the edge unions exceed lattice cap 5$"
        with pytest.raises(SearchLimitExceeded, match=message):
            _lattice(edges)
        refused = hypergraph._LATTICE_MEMO[tuple(edges)]
        assert refused[0] is None and refused[1] > 5
        with pytest.raises(SearchLimitExceeded, match=message):
            _lattice(edges)
        assert hypergraph._LATTICE_MEMO[tuple(edges)] is refused  # not built again
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 32)
        assert len(_lattice(edges)) == 15

    def test_matching_past_the_cap_refuses_before_merging(self, monkeypatch):
        """k disjoint edges alone give k * 2^(k-1) edges inside their unions,
        so 7 of them refuse at cap 100 with that size kept, before any merge
        pass (a merge would stop at 6 edges, 6 * 2^5 = 192); 5 of them, at
        exactly cap 80, are admitted."""
        disjoint = [0b11 << 2 * i for i in range(7)]
        hypergraph._LATTICE_MEMO.clear()
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 100)
        with pytest.raises(SearchLimitExceeded, match="^edges inside the edge unions exceed lattice cap 100$"):
            _lattice(disjoint)
        assert hypergraph._LATTICE_MEMO == {tuple(disjoint): (None, 448)}
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 80)
        assert len(_lattice(disjoint[:5])) == 31


class TestMinimalTransversals:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    @example((4, [0b0011, 0b0111, 0b0011, 0b1000]))  # nested, repeated, singleton
    @example((3, [0b011, 0b000, 0b110]))  # an empty edge
    def test_matches_brute_force(self, case):
        n, edges = case
        assert _minimal_transversals(edges) == oracle_minimal_transversals(edges, n)

    def test_edge_cases(self):
        assert _minimal_transversals(()) == (0,)
        assert _minimal_transversals([0b11, 0]) == ()
        assert _minimal_transversals([0]) == ()

    def test_cap_is_hit_during_enumeration(self):
        """24 disjoint edges have 2^24 minimal transversals: the search stops
        as soon as it passes the cap, long before enumerating them."""
        edges = [0b11 << 2 * k for k in range(24)]
        start = time.perf_counter()
        with pytest.raises(SearchLimitExceeded, match="exceed cap"):
            _minimal_transversals(edges)
        assert time.perf_counter() - start < 2.0

    def test_count_at_the_cap_passes(self):
        """Four disjoint 2-sets and four disjoint 5-sets: 2^4 * 5^4 = 10,000
        transversals, exactly the cap."""
        assert hypergraph.DEFAULT_TRANSVERSAL_CAP == 10_000
        sizes = [2] * 4 + [5] * 4
        edges, low = [], 0
        for size in sizes:
            edges.append(((1 << size) - 1) << low)
            low += size
        assert len(_minimal_transversals(edges)) == 10_000

    def test_cap_is_read_at_call_time(self, monkeypatch):
        """One transversal over the cap raises, also through the covers."""
        edges = [0b11, 0b1100, 0b110000]  # 8 transversals
        monkeypatch.setattr(hypergraph, "DEFAULT_TRANSVERSAL_CAP", 8)
        assert len(_minimal_transversals(edges)) == 8
        monkeypatch.setattr(hypergraph, "DEFAULT_TRANSVERSAL_CAP", 7)
        with pytest.raises(SearchLimitExceeded):
            _minimal_transversals(edges)
        with pytest.raises(SearchLimitExceeded):
            minimal_vertex_covers(from_masks([f"x{i}" for i in range(6)], edges))
