"""Codominated vertices, codismantlability, shedding/codominated reports."""

from functools import partial

import pytest

import hyperinv.decomposition as decomposition
from conftest import disjoint_edges_and_c5, tiny_hypergraphs

from hyperinv import (
    build,
    deletion,
    enumerate_graphs,
    is_codismantlable,
    is_codominated,
    is_shedding_vertex,
    named_instance,
    replay_elimination,
    theorem_main_report,
)
from hyperinv.decomposition import EliminationOrder
from hyperinv.errors import SearchLimitExceeded


class TestCodominated:
    def test_h1_x2_witness(self, h1):
        w = is_codominated(h1, "x2")
        assert w is not None
        assert h1.edge_labels(w) == ("x1", "x2", "x3")

    def test_h1_x5_not_codominated(self, h1):
        assert is_codominated(h1, "x5") is None

    def test_p3_center(self, p3):
        assert is_codominated(p3, "x2") is not None
        assert is_codominated(p3, "x1") is None

    def test_c5_none(self, c5):
        assert all(is_codominated(c5, x) is None for x in c5.labels)

    def test_isolated_vertex_not_codominated(self):
        h = build(["a", "b", "c"], [["a", "b"]])
        assert is_codominated(h, "c") is None

    def test_witness_is_least_edge(self, star3):
        # x1 has three witness edges; canonical order picks {x1,x2}
        w = is_codominated(star3, "x1")
        assert star3.edge_labels(w) == ("x1", "x2")


class TestCodismantlable:
    def test_h1_order(self, h1):
        order = is_codismantlable(h1)
        assert order is not None and order.order == ("x2", "x4")
        assert replay_elimination(h1, order)

    def test_c5_not_codismantlable(self, c5):
        assert is_codismantlable(c5) is None

    def test_edgeless_trivially_codismantlable(self):
        order = is_codismantlable(build(["a", "b"], []))
        assert order is not None and order.order == ()

    def test_replay_rejects_bad_orders(self, h1):
        assert not replay_elimination(h1, EliminationOrder(("x5",), True))
        assert not replay_elimination(h1, EliminationOrder(("x2",), True))  # stops early
        assert not replay_elimination(h1, EliminationOrder(("x2", "zz"), True))

    def test_elimination_steps_are_codominated(self):
        for h in tiny_hypergraphs():
            order = is_codismantlable(h)
            if order is None:
                continue
            cur = h
            for x in order.order:
                assert is_codominated(cur, x) is not None
                cur = deletion(cur, x)
            assert not cur.edges

    def test_failed_states_past_the_cap_raise(self, monkeypatch):
        """With a C5 left no edge set has an elimination order: the search
        fails on every one of the 2^k sets of disjoint edges left beside
        it.  One failed set over the cap, read at call time, raises."""
        assert decomposition.DEFAULT_CODISMANTLE_CAP == 10_000
        h = disjoint_edges_and_c5(4)
        failed = set()
        assert decomposition._codismantle_order(h, partial(is_codominated, h), failed) is None
        assert len(failed) == 16
        monkeypatch.setattr(decomposition, "DEFAULT_CODISMANTLE_CAP", 16)
        assert is_codismantlable(disjoint_edges_and_c5(4)) is None
        monkeypatch.setattr(decomposition, "DEFAULT_CODISMANTLE_CAP", 15)
        with pytest.raises(SearchLimitExceeded,
                           match="^codismantlability search failed states exceed cap 15$"):
            is_codismantlable(disjoint_edges_and_c5(4))


class TestEquivalenceReport:
    def test_h1_report(self, h1):
        rep = theorem_main_report(h1)
        assert rep.hypotheses == {"c5_free": True, "three_cycle_condition": True}
        assert rep.equivalence_holds
        by_vertex = {r["vertex"]: r for r in rep.rows}
        assert by_vertex["x2"]["codominated"] and by_vertex["x2"]["shedding"]
        assert by_vertex["x2"]["codominated_witness"] == ["x1", "x2", "x3"]

    def test_c5_report_flags_hypothesis(self, c5):
        rep = theorem_main_report(c5)
        assert not rep.hypotheses["c5_free"]
        # sheds everywhere but codominated nowhere: sets differ
        assert not rep.equivalence_holds

    def test_codominated_implies_shedding_everywhere(self):
        for h in tiny_hypergraphs():
            for x in h.labels:
                if is_codominated(h, x) is not None:
                    assert is_shedding_vertex(h, x)

    def test_equivalence_is_equality_of_the_vertex_sets(self):
        mixed = 0
        for h in enumerate_graphs(5):
            rep = theorem_main_report(h)
            shed = {r["vertex"] for r in rep.rows if r["shedding"]}
            codom = {r["vertex"] for r in rep.rows if r["codominated"]}
            assert rep.equivalence_holds == (shed == codom)
            mixed += len({r["shedding"] == r["codominated"] for r in rep.rows}) == 2
        assert mixed  # instances where some vertices agree and some do not

    def test_report_serializes(self, h1):
        obj = theorem_main_report(h1).to_json_obj()
        assert set(obj) == {"vertices", "hypotheses", "equivalence_holds"}
