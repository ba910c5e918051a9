"""Construction, deletion/contraction, cycle search, uniformity, covers."""

import json

import pytest

from hyperinv import (
    build,
    contraction,
    deletion,
    find_cycle,
    from_json,
    from_masks,
    maximal_independent_sets,
    minimal_vertex_covers,
    neighborhood_minus,
    three_cycle_edge_condition,
    uniformity_profile,
)
from hyperinv.errors import (
    AntichainViolation,
    DuplicateEdge,
    EmptyEdge,
    NoEdges,
    SameVertex,
    SearchLimitExceeded,
    UnknownVertex,
)
from hyperinv.hypergraph import bit_ids, edge_sort_key, mask_of


class TestBuild:
    def test_h1_canonical(self, h1):
        assert h1.n == 6
        assert h1.edges_as_labels() == [
            ("x1", "x2", "x3"),
            ("x2", "x3", "x4"),
            ("x4", "x5", "x6"),
        ]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            build(["a", "b"], [["a", "b"], ["b", "a"]])

    def test_empty_edge_rejected(self):
        with pytest.raises(EmptyEdge):
            build(["a"], [[]])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            build(["a"], [["a", "z"]])

    def test_antichain_violation_rejected(self):
        with pytest.raises(AntichainViolation):
            build(["a", "b", "c"], [["a", "b"], ["a", "b", "c"]])

    def test_json_round_trip(self, h1):
        assert from_json(h1.to_json()).edges == h1.edges

    def test_json_stable_bytes(self, h1):
        assert h1.to_json() == h1.to_json()
        assert json.loads(h1.to_json())["vertices"] == list(h1.labels)

    def test_edge_sort_key_orders_by_size_then_ids(self):
        assert edge_sort_key(mask_of([0, 5])) < edge_sort_key(mask_of([1, 2, 3]))
        assert edge_sort_key(mask_of([0, 2])) < edge_sort_key(mask_of([1, 2]))


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
        assert c.void and c.edges == ()

    def test_unknown_vertex(self, h1):
        with pytest.raises(UnknownVertex):
            deletion(h1, "zz")

    def test_neighborhood_minus_same_vertex(self, h1):
        with pytest.raises(SameVertex):
            neighborhood_minus(h1, "x1", "x1")

    def test_neighborhood_minus_h1(self, h1):
        # edges through x2 avoiding x1: only E2; E2 \ {x2} = {x3, x4}
        masks = neighborhood_minus(h1, "x2", "x1")
        assert {tuple(h1.edge_labels(m)) for m in masks} == {("x3", "x4")}


class TestCycles:
    def test_h1_two_cycle(self, h1):
        w = find_cycle(h1, 2)
        assert w is not None
        got = w.as_labels(h1)
        assert got["vertices"] == ["x2", "x3"]
        assert got["edges"] == [["x1", "x2", "x3"], ["x2", "x3", "x4"]]

    def test_h1_no_five_cycle(self, h1):
        assert find_cycle(h1, 5) is None

    def test_c5_has_five_cycle(self, c5):
        w = find_cycle(c5, 5)
        assert w is not None and w.length == 5

    def test_c4_no_five_cycle(self):
        from hyperinv import named_instance

        assert find_cycle(named_instance("c4"), 5) is None

    def test_caps(self, h1):
        with pytest.raises(SearchLimitExceeded):
            find_cycle(h1, 1)
        with pytest.raises(SearchLimitExceeded):
            find_cycle(h1, 9)

    def test_witness_deterministic(self, h1):
        assert find_cycle(h1, 2) == find_cycle(h1, 2)


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


class TestUniformity:
    def test_h1(self, h1):
        assert uniformity_profile(h1) == {"d": 3, "strong_intersection": False}

    def test_graph_strong(self, p3):
        assert uniformity_profile(p3) == {"d": 2, "strong_intersection": True}

    def test_mixed_sizes(self, h2):
        assert uniformity_profile(h2)["d"] is None

    def test_no_edges(self):
        with pytest.raises(NoEdges):
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
