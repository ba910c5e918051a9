"""Independence complexes, links/deletions, shedding, vertex decomposability."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_independence_facets, oracle_vd, tiny_hypergraphs

from hyperinv import (
    build,
    dimension,
    independence_complex,
    induced_subcomplex,
    is_shedding,
    is_vertex_decomposable,
    link_and_deletion,
    named_instance,
    vertex_decomposable,
    verify_certificate,
)
from hyperinv.complexes import SimplicialComplex, complex_from_facets
from hyperinv.hypergraph import Hypergraph, contraction, mask_of


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
    def test_h1_restriction_to_first_edge(self, h1):
        d = induced_subcomplex(independence_complex(h1), ["x1", "x2", "x3"])
        # the triple is the first edge, so the restriction is the hollow triangle
        assert d.facets == (0b011, 0b101, 0b110)

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
        cert = is_vertex_decomposable(d)
        assert not cert.verdict and cert.failure_witness is not None

    def test_c5_pentagon_is_vd(self, c5):
        assert vertex_decomposable(independence_complex(c5))

    def test_simplex_and_degenerate_cases(self):
        assert vertex_decomposable(SimplicialComplex(("a", "b"), (0b11,)))
        assert vertex_decomposable(SimplicialComplex(("a",), ()))
        assert vertex_decomposable(SimplicialComplex(("a",), (0,)))

    def test_certificate_replay(self):
        for h in tiny_hypergraphs():
            d = independence_complex(h)
            cert = is_vertex_decomposable(d)
            if cert.verdict:
                assert verify_certificate(d, cert)
            else:
                assert not verify_certificate(d, cert)

    def test_certificate_rejected_on_wrong_complex(self, p3, star3):
        cert = is_vertex_decomposable(independence_complex(star3))
        assert cert.verdict
        other = independence_complex(named_instance("c4"))
        assert not verify_certificate(other, cert)

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
    """A positive certificate replays.  A failure witness is a complex that
    is not VD, and none of its shedding vertices has a VD link and deletion:
    the walk stops only where no vertex sheds."""
    cert = is_vertex_decomposable(d)
    assert cert.verdict == vertex_decomposable(d)
    if cert.verdict:
        assert cert.failure_witness is None and verify_certificate(d, cert)
        return
    assert cert.tree is None
    ground = cert.failure_witness["ground_set"]
    w = SimplicialComplex(
        tuple(ground),
        tuple(mask_of([ground.index(x) for x in f]) for f in cert.failure_witness["facets"]),
    )
    assert not vertex_decomposable(w)
    assert not any(is_shedding(w, x) for x in w.labels)
