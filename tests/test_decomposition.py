"""Codominated vertices, codismantlability, shedding/codominated reports."""

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
        assert not replay_elimination(h1, EliminationOrder(("x5",)))
        assert not replay_elimination(h1, EliminationOrder(("x2",)))  # stops early
        assert not replay_elimination(h1, EliminationOrder(("x2", "zz")))

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

    def test_c5_beside_disjoint_edges_settles_without_a_cap(self):
        """Beside a C5 no edge set has an elimination order.  The greedy loop
        deletes the 14 disjoint edges' first vertices, then finds nothing
        codominated in the C5: None, with no search over the 2^14 edge sets."""
        assert is_codismantlable(disjoint_edges_and_c5(14)) is None

    def test_deep_orders_need_no_recursion(self):
        """1,100 disjoint edges have an elimination order of 1,100 steps, the
        first vertex of each edge, deeper than the interpreter's stack."""
        labels = [f"x{i + 1}" for i in range(2200)]
        h = build(labels, [labels[2 * k: 2 * k + 2] for k in range(1100)])
        order = is_codismantlable(h)
        assert order is not None and order.order == tuple(labels[::2])


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
