"""Independence complexes, links/deletions, shedding, vertex decomposability."""

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_independence_facets, oracle_split, oracle_vd, tiny_hypergraphs

from hyperinv import (
    build,
    dimension,
    independence_complex,
    is_shedding,
    link_and_deletion,
    named_instance,
    vertex_decomposable,
)
from hyperinv.complexes import SimplicialComplex, complex_from_facets
from hyperinv.hypergraph import contraction


class TestIndependenceComplex:
    def test_facets_match_oracle(self):
        for h in tiny_hypergraphs():
            assert independence_complex(h).facets == oracle_independence_facets(h)

    def test_kinds(self):
        ordinary = independence_complex(named_instance("p3"))
        assert ordinary.kind == "ordinary"
        void_h = contraction(build(["a", "b"], [["a"], ["b"]]), "a")
        assert independence_complex(void_h).kind == "void"
        single = build(["a"], [["a"]])
        assert independence_complex(single).kind == "empty"

    def test_edgeless_is_full_simplex(self):
        d = independence_complex(build(["a", "b", "c"], []))
        assert d.facets == (0b111,)

    def test_star_dim(self, star3):
        assert dimension(independence_complex(star3)) == 2

    def test_dimension_conventions(self):
        assert dimension(SimplicialComplex(("a",), ())) is None
        assert dimension(SimplicialComplex(("a",), (0,))) == -1

    def test_complex_from_facets_normalizes(self):
        d = complex_from_facets(["a", "b"], [0b01, 0b11, 0b10])
        assert d.facets == (0b11,)


class TestRestriction:
    def test_link_and_deletion_p3(self, p3):
        link, dele = link_and_deletion(independence_complex(p3), "x2")
        assert dele.facet_labels() == [["x1", "x3"]]
        assert link.facet_labels() == [[]]


class TestShedding:
    def test_p3_sheddings(self, p3):
        d = independence_complex(p3)
        # del(x1) has facet {x3}, not a facet of D; del(x2) has facet {x1,x3}
        assert not is_shedding(d, "x1")
        assert not is_shedding(d, "x3")
        assert is_shedding(d, "x2")

    def test_c5_all_shedding(self, c5):
        # every pentagon vertex sheds, yet none is codominated
        d = independence_complex(c5)
        assert all(is_shedding(d, x) for x in c5.labels)


class TestVertexDecomposability:
    def test_matches_oracle_on_all_graphs_n4(self):
        from hyperinv import enumerate_graphs

        for h in enumerate_graphs(4):
            expect = oracle_vd(oracle_independence_facets(h), h.n)
            assert vertex_decomposable(independence_complex(h)) == expect

    def test_matches_oracle_on_random_hypergraphs(self):
        from hyperinv import random_hypergraph
        from hyperinv.generators import FamilySpec

        spec = FamilySpec(
            kind="random_hypergraph", n=6, max_edge_size=3, edge_count=4, seed=5, count=120
        )
        for i in range(spec.count):
            h = random_hypergraph(spec, i)
            expect = oracle_vd(oracle_independence_facets(h), h.n)
            assert vertex_decomposable(independence_complex(h)) == expect

    def test_c4_not_vd(self):
        d = independence_complex(named_instance("c4"))
        assert not vertex_decomposable(d)

    def test_c5_pentagon_is_vd(self, c5):
        assert vertex_decomposable(independence_complex(c5))

    def test_simplex_and_degenerate_cases(self):
        assert vertex_decomposable(SimplicialComplex(("a", "b"), (0b11,)))
        assert vertex_decomposable(SimplicialComplex(("a",), ()))
        assert vertex_decomposable(SimplicialComplex(("a",), (0,)))

    def test_cone_stripping_consistency(self):
        # cone over two disjoint edges (not VD) must remain not VD
        disjoint = complex_from_facets(["a", "b", "c", "d"], [0b0101, 0b1010])
        assert not vertex_decomposable(disjoint)
        cone = complex_from_facets(
            ["a", "b", "c", "d", "e"],
            [f | 0b10000 for f in disjoint.facets],
        )
        assert not vertex_decomposable(cone)
        # cone over a VD complex stays VD
        path = complex_from_facets(["a", "b", "c"], [0b011, 0b110])
        assert vertex_decomposable(path)
        cone2 = complex_from_facets(["a", "b", "c", "e"], [f | 0b1000 for f in path.facets])
        assert vertex_decomposable(cone2)


@st.composite
def complexes(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6))
    return complex_from_facets([f"v{i}" for i in range(n)], masks)


@settings(max_examples=200, deadline=None)
@given(complexes())
def test_vd_certificate_agrees_with_verdict(d):
    """The memoized verdict equals the oracle's naive recursion on arbitrary
    complexes, not only on independence complexes."""
    assert vertex_decomposable(d) == oracle_vd(d.facets, d.n)


@settings(max_examples=300, deadline=None)
@given(complexes())
@example(SimplicialComplex(("a", "b"), ()))  # the void complex
@example(SimplicialComplex(("a", "b"), (0,)))  # {∅}, two ghost vertices
@example(complex_from_facets(["a", "b", "c"], [0b011, 0b110]))  # b is a cone point
@example(complex_from_facets(["a", "b", "c"], [0b011]))  # a simplex and a ghost vertex
def test_split_matches_maximal_sets(d):
    """At every vertex x, the link and deletion are the maximal sets of
    f \\ x over the facets f through x and over all facets, and x sheds iff
    every facet of the deletion is a facet of the complex."""
    for i, x in enumerate(d.labels):
        link_facets, del_facets, sheds = oracle_split(d.facets, i)
        link, dele = link_and_deletion(d, x)
        labels = d.labels[:i] + d.labels[i + 1:]
        assert (link.labels, link.facets) == (labels, link_facets)
        assert (dele.labels, dele.facets) == (labels, del_facets)
        assert is_shedding(d, x) == sheds
