"""Instance generators: enumeration counts, determinism, filters."""

from dataclasses import replace
from itertools import combinations

import pytest

from hyperinv import enumerate_graphs, generators, random_hypergraph
from hyperinv.errors import SizeLimitExceeded, UnknownFilter, Unsatisfiable
from hyperinv.generators import (
    FILTERS,
    FamilySpec,
    family_from_json,
    filter_stream,
    named_instance,
    stream,
)
from hyperinv.hypergraph import uniformity_profile

# frozen at first build from the deterministic generator
GOLDEN_RANDOM = {
    "edges": [["x2", "x4"], ["x4", "x5"], ["x3", "x4", "x6"]],
    "vertices": ["x1", "x2", "x3", "x4", "x5", "x6"],
}


class TestEnumerateGraphs:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_graphs(n)) == count

    def test_dedup_counts_isomorphism_classes(self):
        # unlabeled graphs on 3 and 4 vertices
        assert sum(1 for _ in enumerate_graphs(3, dedup=True)) == 4
        assert sum(1 for _ in enumerate_graphs(4, dedup=True)) == 11

    def test_all_edges_are_pairs(self):
        for h in enumerate_graphs(3):
            assert all(e.bit_count() == 2 for e in h.edges)

    def test_out_of_range(self):
        with pytest.raises(SizeLimitExceeded):
            list(enumerate_graphs(0))
        with pytest.raises(SizeLimitExceeded):
            list(enumerate_graphs(8))

    def test_deterministic_order(self):
        a = [h.edges for h in enumerate_graphs(4)]
        b = [h.edges for h in enumerate_graphs(4)]
        assert a == b


class TestRandomHypergraph:
    def test_golden_instance(self):
        spec = FamilySpec(kind="random_hypergraph", n=6, max_edge_size=3, edge_count=3, seed=1)
        assert random_hypergraph(spec, 0).to_json_obj() == GOLDEN_RANDOM

    def test_determinism(self):
        spec = FamilySpec(kind="random_hypergraph", n=7, max_edge_size=3, edge_count=5, seed=9)
        for i in range(20):
            assert random_hypergraph(spec, i).edges == random_hypergraph(spec, i).edges

    def test_instances_are_simple(self):
        spec = FamilySpec(kind="random_hypergraph", n=7, max_edge_size=4, edge_count=6, seed=2)
        for i in range(100):
            h = random_hypergraph(spec, i)
            assert all(e for e in h.edges)
            for a, b in combinations(h.edges, 2):
                assert a & b != a and a & b != b

    def test_zero_edges(self):
        spec = FamilySpec(kind="random_hypergraph", n=4, max_edge_size=3, edge_count=0, seed=0)
        assert random_hypergraph(spec, 0).edges == ()

    def test_unsatisfiable(self):
        spec = FamilySpec(kind="random_hypergraph", n=2, max_edge_size=2, edge_count=2, seed=0)
        with pytest.raises(Unsatisfiable):
            random_hypergraph(spec, 0)


class TestFilters:
    def test_c5_free_on_small_graphs(self):
        # no graph on 4 vertices carries a 5-cycle
        spec = FamilySpec(kind="all_graphs", n=4, filters=("c5_free",))
        assert sum(1 for _ in stream(spec)) == 64

    def test_pentagon_is_vertex_decomposable(self):
        assert FILTERS["vertex_decomposable"](named_instance("c5"))

    def test_square_not_vertex_decomposable(self):
        assert not FILTERS["vertex_decomposable"](named_instance("c4"))

    def test_c2_filter(self, h1, p3):
        assert not FILTERS["c2_free"](h1)
        assert FILTERS["c2_free"](p3)

    def test_d_uniform_strong(self, p3, h1, h2):
        assert FILTERS["d_uniform_strong"](p3)
        assert not FILTERS["d_uniform_strong"](h1)  # |E2 ∩ E3| = 1 != 2
        assert not FILTERS["d_uniform_strong"](h2)  # mixed sizes

    def test_d_uniform_strong_profiles_each_draw_once(self, monkeypatch):
        """One uniformity profile per draw, and the stream the definition
        (d-uniform, every two edges meet in 0 or d-1 vertices) selects."""
        calls = []

        def counted(h):
            calls.append(h)
            return uniformity_profile(h)

        monkeypatch.setattr(generators, "uniformity_profile", counted)
        spec = FamilySpec(kind="random_hypergraph", n=5, max_edge_size=3,
                          edge_count=3, seed=2, count=200)
        draws = [h for _, h in stream(spec)]
        kept = [h for _, h in stream(replace(spec, filters=("d_uniform_strong",)))]
        assert len(calls) == len(draws)

        def definition(h):
            sizes = {e.bit_count() for e in h.edges}
            return len(sizes) == 1 and all(
                (a & b).bit_count() in (0, min(sizes) - 1) for a, b in combinations(h.edges, 2)
            )

        assert kept == [h for h in draws if definition(h)]
        assert 0 < len(kept) < len(draws)

    def test_unknown_filter(self):
        with pytest.raises(UnknownFilter):
            list(filter_stream(iter([]), ["nope"]))

    def test_filtered_stream_subset(self):
        spec = FamilySpec(
            kind="random_hypergraph",
            n=6,
            max_edge_size=3,
            edge_count=4,
            seed=4,
            count=50,
            filters=("c5_free",),
        )
        plain = dict(stream(FamilySpec(**{**spec.__dict__, "filters": ()})))
        filtered = dict(stream(spec))
        assert set(filtered) <= set(plain)
        assert all(FILTERS["c5_free"](h) for h in filtered.values())


class TestSpecs:
    def test_json_round_trip(self):
        spec = FamilySpec(kind="all_graphs", n=4, filters=("c5_free",))
        import json

        assert family_from_json(json.dumps(spec.to_json_obj())) == spec

    def test_unknown_field_rejected(self):
        from hyperinv.errors import HyperinvError

        with pytest.raises(HyperinvError):
            family_from_json('{"kind": "all_graphs", "bogus": 1}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "all_graphs", "n": "3"}',
            '{"kind": "all_graphs", "n": true}',
            '{"kind": "all_graphs", "n": 3.0}',
            '{"kind": "all_graphs", "n": 3, "dedup": 1}',
            '{"kind": "all_graphs", "n": 3, "filters": "c5_free"}',
            '{"kind": "all_graphs", "n": 3, "filters": [5]}',
            '{"kind": 4}',
            '{"n": 3}',
            '[{"kind": "all_graphs"}]',
        ],
    )
    def test_field_types_checked(self, text):
        from hyperinv.errors import HyperinvError

        with pytest.raises(HyperinvError):
            family_from_json(text)

    def test_named_stream(self):
        spec = FamilySpec(kind="named", name="p3")
        [(i, h)] = list(stream(spec))
        assert i == 0 and h.edges == named_instance("p3").edges

    def test_identical_specs_identical_streams(self):
        spec = FamilySpec(
            kind="random_hypergraph", n=6, max_edge_size=3, edge_count=4, seed=8, count=30
        )
        a = [(i, h.edges) for i, h in stream(spec)]
        b = [(i, h.edges) for i, h in stream(spec)]
        assert a == b
