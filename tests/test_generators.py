"""Instance generators: enumeration counts, determinism, filters."""

import hashlib
import re
from dataclasses import replace
from itertools import combinations

import pytest

from hyperinv import enumerate_graphs, generators, random_hypergraph
from hyperinv.errors import HyperinvError, SearchLimitExceeded
from hyperinv.generators import (
    FILTERS,
    FamilySpec,
    family_from_json,
    named_instance,
    stream,
)
from hyperinv.hypergraph import from_masks, uniformity_profile

# recorded from the draws made through Random.randint and Random.sample
GOLDEN_DRAWS_SHA256 = "86e2dfd1f6ee436e0941313b30ed38f766c465a2992b64c597ae59490342f75b"

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
        with pytest.raises(HyperinvError, match=r"^graph enumeration supports 1\.\.7 vertices$"):
            list(enumerate_graphs(0))
        with pytest.raises(HyperinvError, match=r"^graph enumeration supports 1\.\.7 vertices$") as exc:
            list(enumerate_graphs(8))
        assert not isinstance(exc.value, SearchLimitExceeded)  # an input error, not a cap

    def test_dedup_above_six_vertices_raises_before_any_graph(self):
        """Dedup tries n! relabelings of each of the 2^(n(n-1)/2) graphs."""
        with pytest.raises(HyperinvError, match=r"^graph enumeration with dedup supports 1\.\.6 vertices$") as exc:
            next(enumerate_graphs(7, dedup=True))
        assert not isinstance(exc.value, SearchLimitExceeded)  # an input error, not a cap
        assert next(enumerate_graphs(7)).edges == ()

    def test_edges_come_in_canonical_order(self):
        for h in enumerate_graphs(5):
            assert h.edges == from_masks(h.labels, h.edges).edges

    def test_deterministic_order(self):
        a = [h.edges for h in enumerate_graphs(4)]
        b = [h.edges for h in enumerate_graphs(4)]
        assert a == b


class TestRandomHypergraph:
    def test_golden_instance(self):
        spec = FamilySpec(kind="random_hypergraph", n=6, max_edge_size=3, edge_count=3, seed=1)
        assert random_hypergraph(spec, 0).to_json_obj() == GOLDEN_RANDOM

    def test_golden_draws(self):
        """3,000 draws over six specs hash to the digest recorded with the
        draws made through ``Random.randint`` and ``Random.sample``: both
        branches of ``sample`` (n 30 and 60), edge sizes up to n, and a
        spec every draw of which is refused."""
        specs = [
            dict(n=2, max_edge_size=2, edge_count=1, seed=1),
            dict(n=12, max_edge_size=5, edge_count=8, seed=2),
            dict(n=30, max_edge_size=8, edge_count=10, seed=3),
            dict(n=60, max_edge_size=12, edge_count=12, seed=4),
            dict(n=21, max_edge_size=30, edge_count=6, seed=5),
            dict(n=3, max_edge_size=2, edge_count=4, seed=6),  # three pairs, four edges
        ]
        digest = hashlib.sha256()
        for fields in specs:
            spec = FamilySpec(kind="random_hypergraph", **fields)
            for i in range(500):
                try:
                    drawn = random_hypergraph(spec, i).edges
                except HyperinvError as exc:
                    drawn = str(exc)
                digest.update(f"{fields}:{i}:{drawn}\n".encode())
        assert digest.hexdigest() == GOLDEN_DRAWS_SHA256

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
        with pytest.raises(HyperinvError, match="^cannot place 2 distinct edges$"):
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
        message = f"unknown filter 'nope'; have {sorted(FILTERS)}"
        with pytest.raises(HyperinvError, match=f"^{re.escape(message)}$"):
            stream(FamilySpec(kind="named", name="p3", filters=("nope",)))

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


@pytest.mark.parametrize("spec", [
    FamilySpec(kind="all_graphs", n=4, filters=("c5_free", "vertex_decomposable")),
    FamilySpec(kind="random_hypergraph", n=6, max_edge_size=3, edge_count=4, seed=41,
               count=50, filters=("c5_free", "three_cycle_condition", "vertex_decomposable")),
    FamilySpec(kind="named", name="h1"),
])
def test_shards_split_the_stream_before_drawing(monkeypatch, spec):
    """The shards of a stream are its instances at the indices of each
    residue class, and a random shard draws only its own indices."""
    drawn = []

    def counted(spec, index):
        drawn.append(index)
        return random_hypergraph(spec, index)

    monkeypatch.setattr(generators, "random_hypergraph", counted)
    whole = [(i, h.to_json()) for i, h in stream(spec)]
    assert whole
    for jobs in (1, 2, 3):
        shards = []
        for shard in range(jobs):
            drawn.clear()
            part = [(i, h.to_json()) for i, h in stream(spec, shard, jobs)]
            assert all(i % jobs == shard for i, _ in part)
            if spec.kind == "random_hypergraph":
                assert drawn == list(range(shard, spec.count, jobs))
            shards += part
        assert sorted(shards) == whole
