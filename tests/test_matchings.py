"""Matching invariants against a raw-subset oracle, collages, greedy sets."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hyperinv

import hyperinv.matchings as matchings
from conftest import oracle_matching_numbers, tiny_hypergraphs

from hyperinv import (
    build,
    classify_family,
    enumerate_graphs,
    independent_set_from_semi_induced,
    is_two_collage,
    matching_invariants,
    maximal_matchings,
    random_hypergraph,
)
from hyperinv.errors import NotSemiInduced, SearchLimitExceeded, UnknownEdge
from hyperinv.generators import FamilySpec


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

    def test_edge_cap(self, h1, monkeypatch):
        monkeypatch.setattr(matchings, "DEFAULT_EDGE_CAP", 2)
        with pytest.raises(SearchLimitExceeded):
            matching_invariants(h1)

    def test_edgeless(self):
        inv = matching_invariants(build(["a"], []))
        assert (inv.c, inv.c_prime, inv.m) == (0, 0, 0)


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
