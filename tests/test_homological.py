"""Reduced homology, Betti tables, reg/pd, Alexander duality."""

import pytest

from conftest import (
    oracle_betti_table,
    oracle_minimal_nonfaces,
    oracle_rank,
    oracle_reduced_homology,
    tiny_hypergraphs,
)

from hyperinv import (
    alexander_dual,
    betti_table,
    build,
    complex_to_hypergraph,
    independence_complex,
    minimal_nonfaces,
    named_instance,
    reduced_homology,
    reg_and_pd,
)
from hyperinv.complexes import SimplicialComplex, complex_from_facets
from hyperinv.errors import HyperinvError, SizeLimitExceeded, UnknownField
from hyperinv.homological import _all_faces, _rank, parse_field

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
        assert reduced_homology(d).ranks == {-1: 1}

    def test_void_complex(self):
        d = SimplicialComplex(("a",), ())
        assert reduced_homology(d).ranks == {}

    def test_two_points(self):
        d = complex_from_facets(["a", "b"], [0b01, 0b10])
        assert reduced_homology(d).ranks == {0: 1}

    def test_hollow_triangle_is_circle(self):
        d = complex_from_facets(["a", "b", "c"], [0b011, 0b101, 0b110])
        assert reduced_homology(d).ranks == {1: 1}

    def test_hollow_tetrahedron_is_sphere(self):
        full = 0b1111
        d = complex_from_facets(["a", "b", "c", "d"], [full & ~(1 << i) for i in range(4)])
        assert reduced_homology(d).ranks == {2: 1}

    def test_simplex_is_acyclic(self):
        d = complex_from_facets(["a", "b", "c"], [0b111])
        assert reduced_homology(d).ranks == {}

    def test_matches_oracle_on_independence_complexes(self):
        for h in tiny_hypergraphs():
            d = independence_complex(h)
            if d.kind == "void":
                continue
            got = reduced_homology(d).ranks
            assert got == oracle_reduced_homology(_all_faces(d.facets))

    def test_torsion_separates_the_fields(self):
        d = _rp2()
        assert reduced_homology(d, "F2").ranks == {1: 1, 2: 1}
        assert reduced_homology(d).ranks == {}
        assert reduced_homology(d, "F3").ranks == {}

    def test_cap(self):
        d = complex_from_facets([f"v{i}" for i in range(16)], [1])
        with pytest.raises(SizeLimitExceeded):
            reduced_homology(d)


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

    def test_torsion_changes_the_table_over_f2(self):
        h = complex_to_hypergraph(_rp2())
        tables = {field: betti_table(h, field) for field in ("Q", "F2", "F3")}
        assert [(t.pd, t.reg) for t in tables.values()] == [(3, 2), (4, 3), (3, 2)]
        assert tables["F3"].entries == tables["Q"].entries
        assert tables["F2"].entries == {**tables["Q"].entries, (3, 6): 1, (4, 6): 1}

    def test_serialization_sorted(self, star3):
        obj = betti_table(star3).to_json_obj()
        assert obj["entries"] == sorted(obj["entries"])
        assert obj["reg"] == 1 and obj["pd"] == 3

    def test_cap(self):
        h = build([f"v{i}" for i in range(13)], [["v0", "v1"]])
        with pytest.raises(SizeLimitExceeded):
            betti_table(h)


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
            if not h.edges or h.n > 10:
                continue
            pd = reg_and_pd(h)["pd"]
            dual = alexander_dual(independence_complex(h))
            dual_h = complex_to_hypergraph(dual)
            if dual_h.void:
                continue
            if dual_h.edges:
                assert pd == reg_and_pd(dual_h)["reg"] + 1
            else:
                assert pd == 0
