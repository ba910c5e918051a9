"""Reduced homology, Betti tables, reg/pd, Alexander duality."""

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    oracle_betti_table,
    oracle_minimal_nonfaces,
    oracle_minimal_sets,
    oracle_rank,
    oracle_reduced_homology,
    tiny_hypergraphs,
)

from hyperinv import (
    alexander_dual,
    betti_table,
    build,
    complex_to_hypergraph,
    contraction,
    from_masks,
    independence_complex,
    minimal_nonfaces,
    named_instance,
    reduced_homology,
    reg_and_pd,
)
from hyperinv.complexes import SimplicialComplex, complex_from_facets
from hyperinv.errors import HyperinvError, SizeLimitExceeded, UnknownField
import hyperinv.homological as homological
from hyperinv.homological import _all_faces, _rank, _reduce, parse_field
from hyperinv.hypergraph import _contracted, _deleted

# Golden Betti tables, frozen from the definition-level oracle (betti
# entries are {(i, j): rank}); reg/pd follow as max(j-i)/max(i).
GOLDEN = {
    "single_edge": {(1, 2): 1},
    "p3": {(1, 2): 2, (2, 3): 1},
    "two_disjoint_edges": {(1, 2): 2, (2, 4): 1},
    "star3": {(1, 2): 3, (2, 3): 3, (3, 4): 1},
    "c5": {(1, 2): 5, (2, 3): 5, (3, 5): 1},
}


# The real projective plane on six vertices: its homology has 2-torsion,
# so its Betti numbers over F2 differ from those over Q and F3.
RP2_FACETS = ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")


def _rp2():
    labels = [str(i) for i in range(1, 7)]
    masks = [sum(1 << (int(c) - 1) for c in f) for f in RP2_FACETS]
    return complex_from_facets(labels, masks)


def _columns(rows):
    """Sparse {row: entry} columns of a dense row-major matrix."""
    return [{r: row[c] for r, row in enumerate(rows)} for c in range(len(rows[0]))]


class TestRanks:
    def test_rank_functions_match_oracle(self):
        import random

        rng = random.Random(99)
        for _ in range(40):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
            expect = oracle_rank(rows)
            assert _rank(_columns(rows), "Q") == expect
            # rank over GF(p) can only drop; equal for a large prime here
            assert _rank(_columns(rows), "F1000003") == expect

    def test_rank_depends_on_the_field(self):
        cases = [  # matrix, rank over Q, F2, F3
            ([[1, 1], [1, -1]], 2, 1, 2),
            ([[2, 1], [1, 2]], 2, 2, 1),
            ([[2, 0], [0, 2]], 2, 0, 2),
            ([[2, 4], [4, 2]], 2, 0, 1),
            ([[0, 0], [0, 0]], 0, 0, 0),
        ]
        for rows, q, f2, f3 in cases:
            assert oracle_rank(rows) == q
            got = tuple(_rank(_columns(rows), field) for field in ("Q", "F2", "F3"))
            assert got == (q, f2, f3), rows

    def test_parse_field(self):
        assert parse_field("q") == "Q"
        assert parse_field("f2") == "F2"
        assert parse_field("F7") == "F7"
        assert parse_field("f2147483647") == "F2147483647"  # the prime 2^31 - 1
        for text in ("f1", "zz", "f4", "f6", "f", "f-3", "f2147483659"):
            with pytest.raises(UnknownField):
                parse_field(text)
        assert issubclass(UnknownField, HyperinvError) and issubclass(UnknownField, ValueError)


class TestReducedHomology:
    def test_empty_complex_has_minus_one_class(self):
        d = SimplicialComplex(("a",), (0,))
        assert reduced_homology(d) == {-1: 1}

    def test_void_complex(self):
        d = SimplicialComplex(("a",), ())
        assert reduced_homology(d) == {}

    def test_two_points(self):
        d = complex_from_facets(["a", "b"], [0b01, 0b10])
        assert reduced_homology(d) == {0: 1}

    def test_hollow_triangle_is_circle(self):
        d = complex_from_facets(["a", "b", "c"], [0b011, 0b101, 0b110])
        assert reduced_homology(d) == {1: 1}

    def test_hollow_tetrahedron_is_sphere(self):
        full = 0b1111
        d = complex_from_facets(["a", "b", "c", "d"], [full & ~(1 << i) for i in range(4)])
        assert reduced_homology(d) == {2: 1}

    def test_simplex_is_acyclic(self):
        d = complex_from_facets(["a", "b", "c"], [0b111])
        assert reduced_homology(d) == {}

    def test_matches_oracle_on_independence_complexes(self):
        for h in tiny_hypergraphs():
            d = independence_complex(h)
            if d.kind == "void":
                continue
            got = reduced_homology(d)
            assert got == oracle_reduced_homology(_all_faces(d.facets))

    def test_torsion_separates_the_fields(self):
        d = _rp2()
        assert reduced_homology(d, "F2") == {1: 1, 2: 1}
        assert reduced_homology(d) == {}
        assert reduced_homology(d, "F3") == {}

    def test_cap(self):
        d = complex_from_facets([f"v{i}" for i in range(16)], [1])
        with pytest.raises(SizeLimitExceeded):
            reduced_homology(d)


@st.composite
def facet_sets(draw, max_n=8, max_size=5):
    """(n, facet masks): the void complex (no facets), {empty set}, ghost
    vertices in no facet, and a cone point on every facet included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    facet = st.integers(min_value=0, max_value=(1 << n) - 1).filter(
        lambda m: m.bit_count() <= max_size
    )
    masks = draw(st.lists(facet, max_size=6))
    if draw(st.booleans()):  # a cone on the new vertex n
        masks, n = [m | 1 << n for m in masks], n + 1
    return n, masks


@st.composite
def antichains(draw, max_n=9, max_size=4):
    """(n, ascending antichain of edges), n = 0, singleton edges and
    vertices in no edge included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    edge = st.integers(min_value=1, max_value=max(1, (1 << n) - 1)).filter(
        lambda m: m.bit_count() <= max_size
    )
    return n, oracle_minimal_sets(draw(st.lists(edge, max_size=8))) if n else ()


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [1 << a | 1 << b for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    return from_masks([f"v{i}" for i in range(n)], edges)


class TestConeReductions:
    """Restrictions are reduced by rules (a)-(d) of ``homological`` before
    any face is built; only irreducible cores reach the faces (e)."""

    @settings(max_examples=60, deadline=None)
    @given(antichains())
    def test_matches_dense_oracle_over_the_faces(self, case):
        n, edges = case
        faces = [u for u in range(1 << n) if not any(e & u == e for e in edges)]
        for field, p in (("Q", None), ("F2", 2), ("F3", 3)):
            homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
            got = homological._subhypergraph_homology(n, edges, field)
            assert got == oracle_reduced_homology(faces, p), field

    @pytest.mark.parametrize(
        "name, rule, step",
        [
            # (c): w = the centre, whose deletion leaves the leaves in no edge
            ("star3", "c", (3, (0b001, 0b010, 0b100))),
            ("p3", "c", (2, (0b01, 0b10))),  # w = the middle vertex
            ("two_disjoint_edges", "c", (3, (0b001, 0b110))),
            # (d): x3 is in no edge of C4/x1 (N(x3) = N(x1)), so x1 is deleted
            ("c4", "d", (3, (0b011, 0b110))),
            # (e): C5 is irreducible; its 11 faces are enumerated
            ("c5", "e", 11),
        ],
    )
    def test_first_rule_applied(self, monkeypatch, name, rule, step):
        """The first step hands on a contraction K/w (c), a deletion K\\w (d)
        or the faces (e); the answer equals the homology over all faces."""
        h = named_instance(name)
        edges = tuple(sorted(h.edges))
        faces = _all_faces(independence_complex(h).facets)
        made_by = {
            "c": [(h.n - 1, _contracted(edges, h.n, w)) for w in range(h.n)],
            "d": [(h.n - 1, _deleted(edges, h.n, w)) for w in range(h.n)],
            "e": [len(faces)],
        }
        steps = []
        monkeypatch.setattr(homological, "_subhypergraph_homology",
                            lambda n, es, field: steps.append((n, es)) or {})
        monkeypatch.setattr(homological, "_homology_from_faces",
                            lambda fs, field: steps.append(len(fs)) or {})
        homological._homology_by_rules(h.n, edges, "Q")
        assert steps == [step] and step in made_by[rule]
        monkeypatch.undo()
        expect = homological._homology_from_faces(faces, "Q")
        homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
        assert homological._subhypergraph_homology(h.n, edges, "Q") == expect


class TestKernel:
    """The rules and the plain eliminator give the ranks of the dense oracle."""

    @settings(max_examples=150, deadline=None)
    @given(facet_sets())
    @example((0, []))  # the void complex
    @example((0, [0]))  # {empty set}
    @example((3, [0]))  # {empty set} with three ghost vertices
    @example((4, [0b1111]))  # a full simplex
    @example((5, [0b00111, 0b01100]))  # ghost vertex 4; vertex 2 is in every facet
    @example((6, [0b111111 & ~(1 << i) for i in range(6)]))  # the 4-sphere
    def test_reduced_homology_matches_dense_oracle(self, case):
        n, masks = case
        d = complex_from_facets([f"v{i}" for i in range(n)], masks)
        faces = _all_faces(d.facets)
        for field, p in (("Q", None), ("F2", 2), ("F3", 3)):
            homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
            expect = oracle_reduced_homology(faces, p)
            assert reduced_homology(d, field) == expect, field
            assert homological._homology_from_faces(faces, field) == expect, field

    def test_oracle_rank_over_prime_fields(self):
        assert oracle_rank([[1, 1], [1, -1]], 2) == 1
        assert oracle_rank([[2, 1], [1, 2]], 3) == 1
        assert oracle_rank([[2, 4], [4, 2]], 2) == 0
        assert oracle_rank([[2, 4], [4, 2]], 5) == 2

    def test_rules_leave_no_faces_to_eliminate(self, monkeypatch):
        """``reduced_homology`` goes through the rules: spheres, cones and
        suspensions reduce to the base cases without building a face."""
        calls = []
        real = homological._homology_from_faces
        monkeypatch.setattr(homological, "_homology_from_faces",
                            lambda fs, field: calls.append(fs) or real(fs, field))
        full = 0b111111
        sphere = [full & ~(1 << i) for i in range(6)]  # the boundary of the 5-simplex
        cases = [
            (6, sphere, {4: 1}),
            (7, [f | 1 << 6 for f in sphere], {}),  # a cone on it
            (4, [0b0101, 0b0110, 0b1001, 0b1010], {1: 1}),  # the suspension of two points
        ]
        for n, facets, expect in cases:
            homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
            d = complex_from_facets([f"v{i}" for i in range(n)], facets)
            assert reduced_homology(d) == expect
        assert calls == []

    def test_lazy_pivots_are_stored_mod_p(self):
        faces = sorted(_all_faces([0b11111]))
        for field, p in (("F2", 2), ("F3", 3)):
            for d in (2, 3, 4):
                columns = [homological._boundary(f) for f in faces if f.bit_count() == d]
                for col in _reduce(columns, field).values():
                    assert all(0 < v < p for v in col.values()), (field, col)


class TestBettiTable:
    def test_golden_tables(self):
        for name, entries in GOLDEN.items():
            h = named_instance(name)
            assert oracle_betti_table(h) == entries, f"oracle drift on {name}"
            t = betti_table(h)
            assert t.entries == entries, name

    def test_reg_pd_values(self):
        values = {"star3": (1, 3), "p3": (1, 2), "c5": (2, 3), "h1": (3, 2)}
        for name, (reg, pd) in values.items():
            got = reg_and_pd(named_instance(name))
            assert (got["reg"], got["pd"]) == (reg, pd), name

    def test_matches_oracle_on_random_instances(self):
        from hyperinv import random_hypergraph
        from hyperinv.generators import FamilySpec

        spec = FamilySpec(
            kind="random_hypergraph", n=6, max_edge_size=3, edge_count=4, seed=29, count=40
        )
        for i in range(spec.count):
            h = random_hypergraph(spec, i)
            assert betti_table(h).entries == oracle_betti_table(h)

    def test_first_column_counts_edge_sizes(self):
        for h in tiny_hypergraphs():
            t = betti_table(h)
            for j in range(2, h.n + 1):
                expect = sum(1 for e in h.edges if e.bit_count() == j)
                assert t.entries.get((1, j), 0) == expect

    def test_edgeless_table_empty(self):
        t = betti_table(build(["a", "b"], []))
        assert t.entries == {} and t.reg == 0 and t.pd == 0

    def test_field_choice_agrees_at_desk_scale(self):
        for h in tiny_hypergraphs():
            assert betti_table(h).entries == betti_table(h, field="F2").entries

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_graph_tables_agree_over_q_f2_f3(self, h):
        """Betti numbers of graphs on at most 10 vertices do not depend on
        the field (Katzman, J. Combin. Theory Ser. A 113, 2006)."""
        q = betti_table(h).entries
        assert betti_table(h, "F2").entries == q and betti_table(h, "F3").entries == q

    def test_torsion_changes_the_table_over_f2(self):
        h = complex_to_hypergraph(_rp2())
        tables = {field: betti_table(h, field) for field in ("Q", "F2", "F3")}
        assert [(t.pd, t.reg) for t in tables.values()] == [(3, 2), (4, 3), (3, 2)]
        assert tables["F3"].entries == tables["Q"].entries
        assert tables["F2"].entries == {**tables["Q"].entries, (3, 6): 1, (4, 6): 1}
        for field, p in (("Q", None), ("F2", 2), ("F3", 3)):
            assert tables[field].entries == oracle_betti_table(h, p), field

    def test_a_labelled_restriction_met_twice_is_ruled_once(self, monkeypatch):
        """A restriction is looked up by its own labelled edges before it is
        renumbered: C4 plus the edge {x5, x6}, then C4 plus the singleton
        {x5}, share every restriction inside {x1, ..., x4}, which the second
        table neither compresses nor sends through the rules; a third table
        of the first edges compresses nothing."""
        compressed, ruled = [], []
        compress, rules = homological._compress, homological._homology_by_rules
        monkeypatch.setattr(homological, "_compress",
                            lambda masks, keep: compressed.append(keep) or compress(masks, keep))
        monkeypatch.setattr(homological, "_homology_by_rules",
                            lambda n, edges, field: ruled.append((n, edges, field))
                            or rules(n, edges, field))
        labels = [f"x{i + 1}" for i in range(6)]
        c4 = named_instance("c4").edges
        first, second = from_masks(labels, c4 + (0b110000,)), from_masks(labels, c4 + (0b10000,))
        homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
        assert betti_table(first).entries == oracle_betti_table(first)
        assert (4, tuple(sorted(c4)), "Q") in ruled
        compressed.clear()
        assert betti_table(second).entries == oracle_betti_table(second)
        assert compressed and all(w & 0b10000 for w in compressed)
        assert len(ruled) == len(set(ruled))
        compressed.clear()
        ruled.clear()
        assert betti_table(from_masks(labels, first.edges)).entries == oracle_betti_table(first)
        assert compressed == ruled == []

    def test_serialization_sorted(self, star3):
        obj = betti_table(star3).to_json_obj()
        assert obj["entries"] == sorted(obj["entries"])
        assert obj["reg"] == 1 and obj["pd"] == 3

    def test_cap(self):
        h = build([f"v{i}" for i in range(13)], [["v0", "v1"]])
        with pytest.raises(SizeLimitExceeded):
            betti_table(h)

    def test_void_marker_is_undefined_not_capped(self):
        void = contraction(build(["a", "b"], [["a"]]), "a")
        assert void.void
        with pytest.raises(HyperinvError) as exc:
            betti_table(void)
        assert not isinstance(exc.value, SizeLimitExceeded)


class TestAlexanderDuality:
    def test_two_points_dual(self):
        d = complex_from_facets(["a", "b"], [0b01, 0b10])
        dual = alexander_dual(d)
        assert dual.facets == (0,)  # only the empty face

    def test_full_simplex_dual_is_void(self):
        d = complex_from_facets(["a", "b"], [0b11])
        assert alexander_dual(d).kind == "void"

    def test_minimal_nonfaces_are_edges(self):
        for h in tiny_hypergraphs():
            if not h.edges:
                continue
            d = independence_complex(h)
            assert set(minimal_nonfaces(d)) == set(h.edges)

    def test_minimal_nonfaces_match_brute_force(self):
        void = SimplicialComplex(("a", "b"), ())
        empty = SimplicialComplex(("a", "b", "c"), (0,))
        assert minimal_nonfaces(void) == (0,)
        assert minimal_nonfaces(empty) == (0b001, 0b010, 0b100)
        cases = [void, empty, SimplicialComplex((), ()), SimplicialComplex((), (0,)), _rp2()]
        for h in tiny_hypergraphs():
            d = independence_complex(h)
            cases += [d, alexander_dual(d)]
        for d in cases:
            assert minimal_nonfaces(d) == oracle_minimal_nonfaces(d.facets, d.n), d

    def test_round_trip_through_hypergraph(self, p3):
        d = independence_complex(p3)
        assert complex_to_hypergraph(d).edges == p3.edges

    def test_terai_duality(self):
        """pd of the quotient equals reg of the dual ideal (= reg of the
        dual quotient plus one)."""
        for h in tiny_hypergraphs():
            if h.n <= 10:
                _assert_terai(h)

    @settings(max_examples=60, deadline=None)
    @given(antichains(max_n=8))
    def test_terai_duality_on_random_antichains(self, case):
        n, edges = case
        h = from_masks([f"v{i}" for i in range(n)], edges)
        for field in ("Q", "F2"):
            _assert_terai(h, field)


def _assert_terai(h, field="Q"):
    if not h.edges:
        return
    pd = betti_table(h, field).pd
    dual_h = complex_to_hypergraph(alexander_dual(independence_complex(h)))
    if dual_h.void:
        return
    assert pd == (betti_table(dual_h, field).reg + 1 if dual_h.edges else 0), field
