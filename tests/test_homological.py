"""Reduced homology, Betti tables, reg/pd, Alexander duality."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    oracle_betti_table,
    oracle_minimal_nonfaces,
    oracle_minimal_sets,
    oracle_rank,
    oracle_reduced_homology,
    rp2,
    tiny_hypergraphs,
)

from hyperinv import (
    alexander_dual,
    betti_table,
    build,
    complex_to_hypergraph,
    contraction,
    enumerate_graphs,
    from_masks,
    independence_complex,
    minimal_nonfaces,
    named_instance,
    reduced_homology,
    reg_and_pd,
)
from hyperinv.complexes import SimplicialComplex, complex_from_facets
from hyperinv.errors import HyperinvError, SearchLimitExceeded, UnknownField
import hyperinv.homological as homological
import hyperinv.hypergraph as hypergraph
from hyperinv.homological import _rank, _reduce, parse_field
from hyperinv.hypergraph import _contracted, _deleted, _faces, bit_ids

# Golden Betti tables, frozen from the definition-level oracle (betti
# entries are {(i, j): rank}); reg/pd follow as max(j-i)/max(i).
GOLDEN = {
    "single_edge": {(1, 2): 1},
    "p3": {(1, 2): 2, (2, 3): 1},
    "two_disjoint_edges": {(1, 2): 2, (2, 4): 1},
    "star3": {(1, 2): 3, (2, 3): 3, (3, 4): 1},
    "c5": {(1, 2): 5, (2, 3): 5, (3, 5): 1},
}


def _all_faces(facets):
    """Every face of the complex spanned by ``facets``, by the one face walk,
    with the empty face when there is a facet."""
    facets = list(facets)
    return _faces(facets, float("inf"), "faces") | ({0} if facets else set())


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
        d = rp2()
        assert reduced_homology(d, "F2") == {1: 1, 2: 1}
        assert reduced_homology(d) == {}
        assert reduced_homology(d, "F3") == {}

    def test_cap(self):
        """No cap counts vertices: a point with 15 ghost vertices needs no
        face, and the join of three RP2 over F2 reaches the fallback on all
        18 vertices, whose 32,768 faces lie under the candidate cap.  By
        Kunneth for joins, H~_k(A * B) is the sum of H~_i(A) (x) H~_j(B) over
        i + j + 1 = k, so RP2 over F2 ({1: 1, 2: 1}) gives the table below,
        and over Q the join is acyclic."""
        assert reduced_homology(complex_from_facets([f"v{i}" for i in range(16)], [1])) == {}
        facets = rp2().facets
        join = complex_from_facets([f"v{i}" for i in range(18)],
                                   [a | b << 6 | c << 12 for a in facets for b in facets for c in facets])
        homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
        assert reduced_homology(join, "F2") == {5: 1, 6: 3, 7: 3, 8: 1}
        assert reduced_homology(join) == {}


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
    """Restrictions are reduced by rules (a)-(c) of ``homological`` before
    any face is built; only cores where every vertex's link and deletion
    share a homology degree reach the faces (d)."""

    @settings(max_examples=60, deadline=None)
    @given(antichains())
    def test_matches_dense_oracle_over_the_faces(self, case):
        n, edges = case
        faces = [u for u in range(1 << n) if not any(e & u == e for e in edges)]
        for field, p in (("Q", None), ("F2", 2), ("F3", 3)):
            homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
            got = homological._subhypergraph_homology(n, edges, field)
            assert got == oracle_reduced_homology(faces, p), field

    @staticmethod
    def first_steps(monkeypatch, n, edges, field, p):
        """The hypergraphs and face counts that one rule step hands on, each
        hypergraph answered by the dense oracle, and the step's answer."""
        steps, rules, hom = [], homological._homology_by_rules(n, edges, field), None
        monkeypatch.setattr(homological, "_homology_from_faces",
                            lambda fs, field: steps.append(len(fs)) or {})
        try:
            while True:
                m, es = rules.send(hom)
                steps.append((m, es))
                hom = oracle_reduced_homology([u for u in range(1 << m) if not any(e & u == e for e in es)], p)
        except StopIteration as done:
            hom = done.value
        monkeypatch.undo()
        return steps, hom

    @pytest.mark.parametrize("name, link, deletion", [pytest.param(*case, id=case[0]) for case in (
        ("star3", True, False), ("p3", False, True), ("two_disjoint_edges", True, False),
        ("c4", False, True), ("c5", True, True))])
    def test_first_rule_applied(self, monkeypatch, name, link, deletion):
        """The link and deletion of vertex 0 share no homology degree, so the
        split (c) answers at w = 0 and builds no face.  It hands on each of
        K/w and K\\w unless its edges miss a vertex (the centre's deletion in
        star3, the link of an end of p3): that side is a cone, zero."""
        h = named_instance(name)
        edges = tuple(sorted(h.edges))
        steps, hom = self.first_steps(monkeypatch, h.n, edges, "Q", None)
        assert steps == [(h.n - 1, side) for side, kept in (
            (_contracted(edges, h.n, 0), link), (_deleted(edges, h.n, 0), deletion)) if kept]
        assert hom == oracle_reduced_homology(_all_faces(independence_complex(h).facets))

    @pytest.mark.parametrize("field, p", [("Q", None), ("F2", 2)])
    def test_rp2_reaches_the_faces(self, monkeypatch, field, p):
        """Every vertex link of the six-vertex RP2 is a circle and every
        deletion a Moebius band, both with a class in degree 1: the split
        tries each vertex and the 32 faces go to the fallback (d)."""
        h = complex_to_hypergraph(rp2())
        edges = tuple(sorted(h.edges))
        steps, _ = self.first_steps(monkeypatch, h.n, edges, field, p)
        assert steps == [s for w in range(h.n) for s in ((h.n - 1, _contracted(edges, h.n, w)),
                                                        (h.n - 1, _deleted(edges, h.n, w)))] + [32]


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
        h = complex_to_hypergraph(rp2())
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

    def test_cap(self, monkeypatch):
        """The walk is bounded by its lattice: one edge on 13 vertices is one
        lattice element, past the 12 vertices of the former Betti cap."""
        h = build([f"v{i}" for i in range(13)], [["v0", "v1"]])
        assert betti_table(h).entries == {(1, 2): 1}
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 0)
        with pytest.raises(SearchLimitExceeded, match="^edges inside the edge unions exceed lattice cap 0$"):
            betti_table(h)

    def test_chains_of_rule_steps_take_no_frames(self):
        """Each rule step removes one vertex and runs on an explicit stack,
        so chains of 399 steps pass the interpreter's recursion limit: one
        edge on 400 vertices (cone steps down to a point) and the 400 edges
        of size 399 (a two-sided split at every step, whose independence
        complex is the 397-skeleton of the 399-simplex)."""
        labels = [f"v{i}" for i in range(400)]
        full = (1 << 400) - 1
        sphere = complex_from_facets(labels, [full ^ 1 << i for i in range(400)])
        homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
        assert reduced_homology(sphere) == {398: 1}
        assert betti_table(from_masks(labels, [full])).entries == {(1, 400): 1}
        table = betti_table(from_masks(labels, [full ^ 1 << i for i in range(400)]))
        assert table.entries == {(1, 399): 400, (2, 400): 399}

    def test_void_marker_is_undefined_not_capped(self):
        void = contraction(build(["a", "b"], [["a"]]), "a")
        assert void.void
        with pytest.raises(HyperinvError) as exc:
            betti_table(void)
        assert not isinstance(exc.value, SearchLimitExceeded)


class TestClosedForms:
    """Betti tables known in closed form, past what brute force reaches:
    the full table and the bounded walk's reg and pd."""

    @staticmethod
    def check(h, entries):
        t = betti_table(h)
        assert t.entries == {k: r for k, r in entries.items() if r}
        assert reg_and_pd(h) == {"reg": t.reg, "pd": t.pd}

    @pytest.mark.parametrize("s", [2, 3])
    def test_disjoint_edges_are_the_koszul_complex(self, s):
        """k disjoint s-edges: beta_{i, si} = C(k, i), up to 32 vertices."""
        for k in range(1, 32 // s + 1):
            labels = [f"x{v}" for v in range(k * s)]
            h = from_masks(labels, [((1 << s) - 1) << (s * e) for e in range(k)])
            self.check(h, {(i, s * i): comb(k, i) for i in range(1, k + 1)})

    def test_complete_uniform_hypergraphs(self):
        """All d-subsets of n vertices: Ind is the (d-2)-skeleton of the
        simplex, and beta_{j-d+1, j} = C(n, j) C(j-1, d-1)."""
        for n in range(1, 11):
            for d in range(1, min(n, 5) + 1):
                edges = sorted(sum(1 << v for v in c) for c in combinations(range(n), d))
                h = from_masks([f"x{v}" for v in range(n)], edges)
                self.check(h, {(j - d + 1, j): comb(n, j) * comb(j - 1, d - 1)
                               for j in range(d, n + 1)})

    def test_complete_bipartite_graphs(self):
        """K_{m,n}: beta_{i, i+1} = sum over a + b = i + 1, a, b >= 1, of C(m, a) C(n, b),
        for m + n <= 14; past 12 vertices only m <= n, as K_{n,m} differs by labels."""
        for m in range(1, 14):
            for n in range(1, 15 - m):
                if m + n > 12 and m > n:
                    continue
                edges = sorted((1 << a) | (1 << (m + b)) for a in range(m) for b in range(n))
                h = from_masks([f"x{v}" for v in range(m + n)], edges)
                self.check(h, {(i, i + 1): sum(comb(m, a) * comb(n, i + 1 - a)
                                               for a in range(1, i + 1))
                               for i in range(1, m + n)})

    @staticmethod
    def path_or_cycle_table(n, cycle):
        """Betti table of P_n or C_n by Hochster's formula, with Kozlov's
        homotopy types (J. Combin. Theory Ser. A 88, 1999): Ind(P_l) is
        contractible for l = 1 mod 3, S^(k-1) for l = 3k and S^k for l = 3k+2;
        Ind(C_n) is S^(k-1) v S^(k-1) for n = 3k, S^(k-1) for n = 3k+1 and S^k
        for n = 3k+2.  Any other restriction is a disjoint union of paths, one
        per run of W, and Ind of a disjoint union is the join of the parts."""
        entries = {}
        for w in range(1, 1 << n):
            if cycle and w == (1 << n) - 1:
                k, r = divmod(n, 3)
                hom = {k - 1: 2} if r == 0 else {k - 1: 1} if r == 1 else {k: 1}
            else:
                bits = format(w, f"0{n}b")
                if cycle:  # start at a vertex outside W, so no run wraps around
                    z = bits.index("0")
                    bits = bits[z:] + bits[:z]
                hom = {-1: 1}  # Ind of no vertex; joining S^s shifts degrees by s + 1
                for run in filter(None, bits.split("0")):
                    k, r = divmod(len(run), 3)
                    if r == 1:
                        hom = {}
                        break
                    hom = {d + k + (r == 2): b for d, b in hom.items()}
            j = w.bit_count()
            for d, b in hom.items():
                entries[(j - d - 1, j)] = entries.get((j - d - 1, j), 0) + b
        return entries

    @pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
    def test_paths_and_cycles(self, monkeypatch, cycle):
        """The closed form equals the dense oracle up to 10 vertices, and the
        Betti table up to 18, where no face is built."""
        def graph(n):
            closing = [1 | 1 << (n - 1)] if cycle else []
            edges = [1 << v | 1 << (v + 1) for v in range(n - 1)] + closing
            return from_masks([f"x{v}" for v in range(n)], sorted(edges))

        low = 3 if cycle else 2
        for n in range(low, 11):
            assert self.path_or_cycle_table(n, cycle) == oracle_betti_table(graph(n)), n
        faces = []
        monkeypatch.setattr(homological, "_homology_from_faces",
                            lambda fs, field: faces.append(fs) or {})
        homological._SUBGRAPH_HOMOLOGY_MEMO.clear()
        for n in range(low, 19):
            self.check(graph(n), self.path_or_cycle_table(n, cycle))
        assert faces == []


class TestPublishedTheorems:
    """Theorems from the literature that share no code with the paper's suites."""

    def test_froberg_reg_one_iff_the_complement_is_chordal(self):
        """reg(S/I(G)) = 1 iff the complement of G is chordal (R. Fröberg,
        Banach Center Publ. 26, 1990), on every labelled graph with at most
        5 vertices and an edge; networkx decides chordality."""
        nx = pytest.importorskip("networkx")
        total = 0
        for n in range(2, 6):
            for g in enumerate_graphs(n):
                if not g.edges:
                    continue
                total += 1
                complement = nx.complement(nx.Graph([bit_ids(e) for e in g.edges]))
                complement.add_nodes_from(range(n))
                assert (reg_and_pd(g)["reg"] == 1) == nx.is_chordal(complement), g.edges
        assert total == 1094


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
        cases = [void, empty, SimplicialComplex((), ()), SimplicialComplex((), (0,)), rp2()]
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
