"""Matching invariants against a raw-subset oracle, collages, greedy sets."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hyperinv

import hyperinv.hypergraph as hypergraph
import hyperinv.matchings as matchings
from conftest import oracle_matching_numbers, tiny_hypergraphs

from hyperinv import (
    build,
    classify_family,
    enumerate_graphs,
    from_masks,
    independent_set_from_semi_induced,
    is_two_collage,
    matching_invariants,
    maximal_matchings,
    random_hypergraph,
    reg_and_pd,
)
from hyperinv.errors import NotSemiInduced, SearchLimitExceeded, UnknownEdge
from hyperinv.generators import FamilySpec
from hyperinv.hypergraph import bit_ids


def edge_by_labels(h, labels):
    return next(e for e in h.edges if h.edge_labels(e) == tuple(labels))


class TestClassifyFamily:
    def test_h1_matching_not_semi(self, h1):
        e1 = edge_by_labels(h1, ["x1", "x2", "x3"])
        e3 = edge_by_labels(h1, ["x4", "x5", "x6"])
        fam = classify_family(h1, [e1, e3])
        assert fam.matching and not fam.semi_induced and not fam.induced
        assert fam.weight == 4

    def test_h1_all_edges_semi_not_matching(self, h1):
        fam = classify_family(h1, list(h1.edges))
        assert fam.semi_induced and not fam.matching
        assert fam.weight == 3

    def test_h2_e1_e3_not_semi(self, h2):
        e1 = edge_by_labels(h2, ["x1", "x2", "x3"])
        e3 = edge_by_labels(h2, ["x4", "x5"])
        assert not classify_family(h2, [e1, e3]).semi_induced

    def test_unknown_and_repeated_edges(self, h1):
        with pytest.raises(UnknownEdge):
            classify_family(h1, [0b11])
        with pytest.raises(UnknownEdge):
            classify_family(h1, [h1.edges[0], h1.edges[0]])

    def test_empty_family(self, h1):
        fam = classify_family(h1, [])
        assert fam.matching and fam.semi_induced and fam.induced and fam.weight == 0


class TestInvariants:
    def test_h1_values(self, h1):
        inv = matching_invariants(h1)
        assert (inv.c, inv.c_prime, inv.m) == (2, 3, 4)

    def test_star_c_prime(self, star3):
        inv = matching_invariants(star3)
        assert inv.c_prime == 1

    def test_witnesses_revalidate(self):
        for h in tiny_hypergraphs():
            inv = matching_invariants(h)
            w = inv.witnesses
            assert w["c"].induced and w["c"].weight == inv.c
            assert w["c_prime"].semi_induced and w["c_prime"].weight == inv.c_prime
            assert w["m"].matching and w["m"].weight == inv.m

    def test_matches_oracle_on_graphs_n4(self):
        for h in enumerate_graphs(4):
            inv = matching_invariants(h)
            assert (inv.c, inv.c_prime, inv.m) == oracle_matching_numbers(h)[:3]

    def test_matches_oracle_on_random_hypergraphs(self):
        spec = FamilySpec(
            kind="random_hypergraph", n=7, max_edge_size=4, edge_count=5, seed=3, count=200
        )
        for i in range(spec.count):
            h = random_hypergraph(spec, i)
            inv = matching_invariants(h)
            assert (inv.c, inv.c_prime, inv.m) == oracle_matching_numbers(h)[:3]

    def test_lattice_cap(self, h1, monkeypatch):
        """The one cap of the search is the lattice's: h1's 6 edge unions
        hold 10 edges, summed."""
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 9)
        with pytest.raises(SearchLimitExceeded, match="^edges inside the edge unions exceed lattice cap 9$"):
            matching_invariants(h1)
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 10)
        assert matching_invariants(h1).m == 4

    def test_edgeless(self):
        inv = matching_invariants(build(["a"], []))
        assert (inv.c, inv.c_prime, inv.m) == (0, 0, 0)


def assert_matches_oracle(h):
    """c, c', m and each witness equal those of the raw subset oracle."""
    inv = matching_invariants(h)
    *values, optima = oracle_matching_numbers(h)
    assert [inv.c, inv.c_prime, inv.m] == values, h.edges
    for name, (ids, _, _) in optima.items():
        assert inv.witnesses[name].edges == tuple(h.edges[i] for i in ids), (name, h.edges)


@st.composite
def hypergraphs_with_singleton_edges(draw, max_n=7):
    """Antichains with at least one singleton edge; the edges through it drop."""
    n = draw(st.integers(1, max_n))
    raw = draw(st.lists(st.integers(1, (1 << n) - 1).filter(lambda m: m.bit_count() <= 4),
                        max_size=8))
    raw.append(1 << draw(st.integers(0, n - 1)))
    edges = {m for m in raw if not any(o != m and o & m == o for o in raw)}
    return from_masks([f"x{i + 1}" for i in range(n)], sorted(edges))


def graph(n, pairs):
    return from_masks([f"x{i + 1}" for i in range(n)], sorted(1 << a | 1 << b for a, b in pairs))


def graphs_past_twenty_edges():
    """K_n for 7 <= n <= 14 and seeded random graphs on 10 to 14 vertices,
    each with more than 20 edges."""
    rng = random.Random(25)
    out = [graph(n, combinations(range(n), 2)) for n in range(7, 15)]
    for n in range(10, 15):
        for p in (0.6, 0.8):
            out.append(graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return out


class TestMatchingNumberFromTheLattice:
    """m is read from the lattice pass, past the 20 edges that the
    branch-and-bound it replaced was capped at."""

    def test_all_graphs_up_to_five_vertices(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                assert_matches_oracle(g)

    @settings(max_examples=200, deadline=None)
    @given(hypergraphs_with_singleton_edges())
    @example(from_masks(["a", "b", "c"], [0b001, 0b110]))
    def test_hypergraphs_with_singleton_edges(self, h):
        assert_matches_oracle(h)

    def test_graphs_past_twenty_edges_against_networkx(self):
        """On a graph m is the size of a maximum matching; networkx finds
        one by Edmonds' blossom algorithm, which shares nothing with the
        lattice."""
        nx = pytest.importorskip("networkx")
        for g in graphs_past_twenty_edges():
            assert len(g.edges) > 20
            inv = matching_invariants(g)
            want = nx.max_weight_matching(nx.Graph([bit_ids(e) for e in g.edges]),
                                          maxcardinality=True)
            assert inv.m == len(want), g.edges
            w = inv.witnesses["m"]
            assert w.matching and w.weight == inv.m

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True))))
    def test_reg_is_at_most_m_on_graphs(self, case):
        """On a graph reg S/I(G) is at most the matching number (H. T. Ha
        and A. Van Tuyl, J. Algebraic Combin. 27, 2008).  Not on every
        hypergraph: the edges {a, b, x} and {c, d, x} have reg 3 and m 2."""
        g = graph(*case)
        assert reg_and_pd(g)["reg"] <= matching_invariants(g).m

    def test_reg_is_at_most_m_on_graphs_past_twenty_edges(self):
        for g in graphs_past_twenty_edges():
            if g.n <= 12:
                assert reg_and_pd(g)["reg"] <= matching_invariants(g).m, g.edges
        h = build(list("abcdx"), [["a", "b", "x"], ["c", "d", "x"]])
        assert (reg_and_pd(h)["reg"], matching_invariants(h).m) == (3, 2)


class TestCollagesAndMatchings:
    def test_h1_collage(self, h1):
        e1 = edge_by_labels(h1, ["x1", "x2", "x3"])
        e3 = edge_by_labels(h1, ["x4", "x5", "x6"])
        assert is_two_collage(h1, [e1, e3])
        assert not is_two_collage(h1, [e1])

    def test_unknown_collage_edge(self, h1):
        with pytest.raises(UnknownEdge):
            is_two_collage(h1, [0b11])

    def test_maximal_matchings_are_maximal(self):
        for h in tiny_hypergraphs():
            for mm in maximal_matchings(h):
                used = 0
                for e in mm:
                    assert not e & used
                    used |= e
                assert all(e & used for e in h.edges)

    def test_maximal_matchings_p3(self, p3):
        mms = maximal_matchings(p3)
        assert sorted(len(m) for m in mms) == [1, 1]

    def test_maximal_matchings_walk_is_capped(self, monkeypatch):
        """The walk visits each matching once and raises when their edges,
        summed, pass the lattice cap: K8 has 28 matchings of one edge, 210
        of two, 420 of three and 105 of four, its perfect matchings, which
        are the maximal ones; 28 + 420 + 1260 + 420 = 2128 edges."""
        labels = [f"x{i}" for i in range(8)]
        k8 = build(labels, [[a, b] for a, b in combinations(labels, 2)])
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 2127)
        with pytest.raises(SearchLimitExceeded, match="^edges in the matchings walked exceed lattice cap 2127$"):
            maximal_matchings(k8)
        monkeypatch.setattr(hypergraph, "DEFAULT_LATTICE_CAP", 2128)
        assert len(maximal_matchings(k8)) == 105


# The greedy construction is made to read a family that is not
# semi-induced as one: a-b, c-d with the edge b-d inside their union.
# The greedy picks a and c, which leaves the edge b-d.  The subprocess
# runs it under python -O, which deletes asserts.
DEPENDENT_GREEDY = """
import dataclasses
import hyperinv.matchings as matchings
from hyperinv import build

real = matchings.classify_family
matchings.classify_family = lambda h, fam: dataclasses.replace(real(h, fam), semi_induced=True)
h = build(["a", "b", "c", "d"], [["a", "b"], ["c", "d"], ["b", "d"]])
try:
    matchings.independent_set_from_semi_induced(h, [0b0011, 0b1100])
except RuntimeError as exc:
    print(type(exc).__name__, exc)
"""


class TestGreedyIndependentSet:
    def test_a_dependent_greedy_set_is_an_internal_error(self, monkeypatch):
        real = matchings.classify_family
        monkeypatch.setattr(matchings, "classify_family",
                            lambda h, fam: replace(real(h, fam), semi_induced=True))
        h = build(["a", "b", "c", "d"], [["a", "b"], ["c", "d"], ["b", "d"]])
        with pytest.raises(RuntimeError,
                           match="^greedy set from a semi-induced matching is not independent$"):
            independent_set_from_semi_induced(h, [0b0011, 0b1100])

    def test_the_independence_check_holds_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=str(Path(hyperinv.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-O", "-c", DEPENDENT_GREEDY], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "RuntimeError greedy set from a semi-induced matching is not independent\n")

    def test_h1_replay(self, h1):
        g = independent_set_from_semi_induced(h1, list(h1.edges))
        assert sorted(h1.edge_labels(g)) == ["x3", "x5", "x6"]

    def test_rejects_non_semi_induced(self, h1):
        e1 = edge_by_labels(h1, ["x1", "x2", "x3"])
        e3 = edge_by_labels(h1, ["x4", "x5", "x6"])
        with pytest.raises(NotSemiInduced):
            independent_set_from_semi_induced(h1, [e1, e3])

    def test_size_at_least_weight_on_optimal_witnesses(self):
        for h in tiny_hypergraphs():
            inv = matching_invariants(h)
            fam = inv.witnesses["c_prime"]
            g = independent_set_from_semi_induced(h, list(fam.edges))
            assert g.bit_count() >= inv.c_prime
            assert not any(e & g == e for e in h.edges)
