"""Bouquet validation, disjointness classification, d/d', cover replay."""

import json
import random
from pathlib import Path

import pytest

import hyperinv.bouquets as bouquets
from conftest import oracle_bouquet_numbers, tiny_hypergraphs

from hyperinv import (
    bouquet_invariants,
    build,
    classify_bouquet_set,
    cover_from_bouquets,
    dprime_invariant,
    enumerate_graphs,
    from_masks,
    make_bouquet,
    matching_invariants,
    maximal_independent_sets,
    minimal_vertex_covers,
    named_instance,
    random_hypergraph,
)
from hyperinv.errors import (
    InvalidBouquet,
    NotOptimalWitness,
    NotSemiStronglyDisjoint,
    SearchLimitExceeded,
)
from hyperinv.generators import FamilySpec

NAMED = ("h1", "h2", "star3", "p3", "single_edge", "two_disjoint_edges", "c4", "c5")
GOLDEN_WITNESSES = Path(__file__).with_name("bouquet_witnesses.json")


def edge_by_labels(h, labels):
    return next(e for e in h.edges if h.edge_labels(e) == tuple(labels))


def vmask(h, labels):
    m = 0
    for lab in labels:
        m |= 1 << h.vertex_id(lab)
    return m


class TestMakeBouquet:
    def test_multi_stem_roots_are_intersection(self, p3):
        b = make_bouquet(p3, list(p3.edges))
        assert p3.edge_labels(b.roots) == ("x2",)
        assert sorted(p3.edge_labels(b.flowers)) == ["x1", "x3"]

    def test_multi_stem_empty_intersection_rejected(self, h1):
        e1 = edge_by_labels(h1, ["x1", "x2", "x3"])
        e3 = edge_by_labels(h1, ["x4", "x5", "x6"])
        with pytest.raises(InvalidBouquet):
            make_bouquet(h1, [e1, e3])

    def test_single_stem_root_rules(self, p3):
        e = p3.edges[0]
        with pytest.raises(InvalidBouquet):
            make_bouquet(p3, [e])  # roots required
        with pytest.raises(InvalidBouquet):
            make_bouquet(p3, [e], e)  # roots must be proper
        b = make_bouquet(p3, [e], 1 << p3.vertex_id("x2"))
        assert b.flowers == e & ~b.roots

    def test_non_edge_stem_rejected(self, p3):
        with pytest.raises(InvalidBouquet):
            make_bouquet(p3, [0b101], 0b001)

    def test_wrong_roots_on_multi_stem(self, p3):
        with pytest.raises(InvalidBouquet):
            make_bouquet(p3, list(p3.edges), 1 << p3.vertex_id("x1"))


class TestClassification:
    def test_star_single_bouquet(self, star3):
        b = make_bouquet(star3, list(star3.edges))
        bs = classify_bouquet_set(star3, [b])
        assert bs.strongly_disjoint and bs.semi_strongly_disjoint
        assert sorted(star3.edge_labels(bs.flowers)) == ["x2", "x3", "x4"]

    def test_c5_two_bouquets(self, c5):
        b1 = make_bouquet(
            c5,
            [edge_by_labels(c5, ["x1", "x2"]), edge_by_labels(c5, ["x1", "x5"])],
        )
        b2 = make_bouquet(
            c5,
            [edge_by_labels(c5, ["x2", "x3"]), edge_by_labels(c5, ["x3", "x4"])],
        )
        bs = classify_bouquet_set(c5, [b1, b2])
        assert bs.semi_strongly_disjoint
        assert not bs.strongly_disjoint
        assert sorted(c5.edge_labels(bs.flowers)) == ["x2", "x4", "x5"]

    def test_shared_stem_rejected(self, p3):
        b1 = make_bouquet(p3, [p3.edges[0]], 1 << p3.vertex_id("x2"))
        b2 = make_bouquet(p3, list(p3.edges))
        with pytest.raises(InvalidBouquet):
            classify_bouquet_set(p3, [b1, b2])

    def test_empty_set_classifies_disjoint(self, p3):
        bs = classify_bouquet_set(p3, [])
        assert bs.strongly_disjoint and bs.semi_strongly_disjoint
        assert bs.flowers == 0


class TestInvariants:
    def test_named_values(self):
        expected = {
            "star3": (3, 3),
            "p3": (2, 2),
            "c5": (2, 3),
            "h1": (4, 5),
            "single_edge": (1, 1),
        }
        for name, (d, dp) in expected.items():
            h = named_instance(name)
            inv = bouquet_invariants(h, maximal_independent_sets(h))
            assert (inv.d, inv.d_prime) == (d, dp), name

    def test_matches_oracle_on_graphs_n4(self):
        for h in enumerate_graphs(4):
            if len(h.edges) > 4:
                continue  # oracle enumeration cost
            inv = bouquet_invariants(h, maximal_independent_sets(h))
            assert (inv.d, inv.d_prime) == oracle_bouquet_numbers(h)

    def test_matches_oracle_on_random_hypergraphs(self):
        spec = FamilySpec(
            kind="random_hypergraph", n=6, max_edge_size=3, edge_count=4, seed=17, count=60
        )
        for i in range(spec.count):
            h = random_hypergraph(spec, i)
            if len(h.edges) > 4:
                continue
            inv = bouquet_invariants(h, maximal_independent_sets(h))
            assert (inv.d, inv.d_prime) == oracle_bouquet_numbers(h)

    def test_witnesses_revalidate(self):
        for h in tiny_hypergraphs():
            inv = bouquet_invariants(h, maximal_independent_sets(h))
            w = inv.witnesses
            assert w["d"].strongly_disjoint
            assert w["d"].flowers.bit_count() == inv.d
            assert w["d_prime"].semi_strongly_disjoint
            assert w["d_prime"].flowers.bit_count() == inv.d_prime

    def test_induced_matching_is_strongly_disjoint(self):
        """Each optimal induced matching converts to a bouquet-set witness."""
        for h in tiny_hypergraphs():
            if not h.edges:
                continue
            minv = matching_invariants(h)
            fam = minv.witnesses["c"]
            bouquets = []
            for e in fam.edges:
                root = 1 << next(iter([v for v in range(h.n) if e >> v & 1]))
                bouquets.append(make_bouquet(h, [e], root))
            bs = classify_bouquet_set(h, bouquets)
            assert bs.strongly_disjoint and bs.semi_strongly_disjoint

    def test_edge_cap(self, h1, monkeypatch):
        monkeypatch.setattr(bouquets, "DEFAULT_EDGE_CAP", 2)
        with pytest.raises(SearchLimitExceeded):
            bouquet_invariants(h1, maximal_independent_sets(h1))

    def test_candidate_cap_is_read_at_call_time(self, monkeypatch):
        """Three disjoint edges: d' scores the 3^3 - 1 nonempty root sets,
        d scores 120 candidates (a counted value: the flower ceilings cut
        some of the 5^3 - 1); one candidate over the cap raises."""
        h = from_masks([f"x{i}" for i in range(6)], [0b11, 0b1100, 0b110000])
        facets = maximal_independent_sets(h)
        assert bouquets.DEFAULT_CANDIDATE_CAP == 500_000
        monkeypatch.setattr(bouquets, "DEFAULT_CANDIDATE_CAP", 120)
        inv = bouquet_invariants(h, facets)
        assert (inv.d, inv.d_prime) == (3, 3)
        monkeypatch.setattr(bouquets, "DEFAULT_CANDIDATE_CAP", 119)
        with pytest.raises(SearchLimitExceeded, match="^d search candidates exceed cap 119$"):
            bouquet_invariants(h, facets)
        monkeypatch.setattr(bouquets, "DEFAULT_CANDIDATE_CAP", 26)
        assert dprime_invariant(h, facets)[0] == 3
        monkeypatch.setattr(bouquets, "DEFAULT_CANDIDATE_CAP", 25)
        with pytest.raises(SearchLimitExceeded, match="^d' search candidates exceed cap 25$"):
            dprime_invariant(h, facets)

    def test_edgeless(self):
        inv = bouquet_invariants(build(["a"], []), (1,))
        assert (inv.d, inv.d_prime) == (0, 0)


class TestCoverFromBouquets:
    def test_star_cover(self, star3):
        inv = bouquet_invariants(star3, maximal_independent_sets(star3))
        cover = cover_from_bouquets(star3, inv.witnesses["d_prime"])
        assert sorted(star3.edge_labels(cover)) == ["x2", "x3", "x4"]
        assert cover in minimal_vertex_covers(star3).covers

    def test_cover_always_minimal_within_flowers(self):
        for h in tiny_hypergraphs():
            inv = bouquet_invariants(h, maximal_independent_sets(h))
            bset = inv.witnesses["d_prime"]
            cover = cover_from_bouquets(h, bset)
            assert cover & ~bset.flowers == 0
            assert cover in minimal_vertex_covers(h).covers

    def test_rejects_non_optimal_witness(self, star3):
        b = make_bouquet(star3, [star3.edges[0]], 1 << star3.vertex_id("x1"))
        bs = classify_bouquet_set(star3, [b])
        with pytest.raises(NotOptimalWitness):
            cover_from_bouquets(star3, bs)

    def test_rejects_dependent_roots(self, p3):
        b1 = make_bouquet(p3, [edge_by_labels(p3, ["x1", "x2"])], vmask(p3, ["x2"]))
        b2 = make_bouquet(p3, [edge_by_labels(p3, ["x2", "x3"])], vmask(p3, ["x3"]))
        bs = classify_bouquet_set(p3, [b1, b2])
        assert not bs.semi_strongly_disjoint
        with pytest.raises(NotSemiStronglyDisjoint):
            cover_from_bouquets(p3, bs)


def seeded_witness_stream(seed, n_range, draws, sizes, count=60):
    """Seeded hypergraphs: ``draws`` random edges with sizes drawn from
    ``sizes``, reduced to their inclusion-minimal members."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(*n_range)
        raw = set()
        for _ in range(rng.randint(*draws)):
            size = min(n, rng.choice(sizes))
            raw.add(sum(1 << v for v in rng.sample(range(n), size)))
        edges = [m for m in raw if not any(o != m and o & m == o for o in raw)]
        yield from_masks([f"x{i + 1}" for i in range(n)], edges)


def witness_cases():
    """(name, hypergraph) for every named instance and two seeded streams:
    one where singleton edges and vertices in no edge are common, and one
    of 8-12 edges of size 2-4, where hubs and roots are often contested."""
    cases = [(name, named_instance(name)) for name in NAMED]
    mixed = seeded_witness_stream(4, (2, 9), (2, 12), (1, 2, 2, 2, 2, 3, 3, 3, 4))
    dense = seeded_witness_stream(6, (5, 8), (8, 12), (2, 2, 3, 3, 3, 4))
    cases += [(f"mixed-{i}", h) for i, h in enumerate(mixed)]
    cases += [(f"dense-{i}", h) for i, h in enumerate(dense)]
    return cases


def witness_record(name, h):
    inv = bouquet_invariants(h, maximal_independent_sets(h))
    return {
        "name": name,
        "instance": h.to_json_obj(),
        "d": inv.witnesses["d"].to_json_obj(h),
        "d_prime": inv.witnesses["d_prime"].to_json_obj(h),
    }


def test_each_search_classifies_one_bouquet_set(monkeypatch):
    """Candidates are scored on masks; only the reported witness is built
    and classified."""
    calls = []

    def counted(h, bset):
        calls.append(bset)
        return classify_bouquet_set(h, bset)

    monkeypatch.setattr(bouquets, "classify_bouquet_set", counted)
    for _, h in witness_cases():
        facets = maximal_independent_sets(h)
        for name, search in (("d", lambda: bouquets._d_search(h)),
                             ("d'", lambda: bouquets._dprime_search(h, facets))):
            calls.clear()
            search()
            assert len(calls) == 1, name


def test_golden_witnesses():
    """The d and d' witnesses, tie-breaks included, as recorded from the
    searches that built a witness for every improving candidate."""
    golden = json.loads(GOLDEN_WITNESSES.read_text())
    got = [witness_record(name, h) for name, h in witness_cases()]
    assert len(got) == len(golden)
    for g, want in zip(got, golden):
        assert g == want, g["name"]


def test_dprime_entry_point_matches_bouquet_invariants(monkeypatch):
    """The d'-only search gives the d' and the witness of
    ``bouquet_invariants`` on every golden instance."""
    golden = json.loads(GOLDEN_WITNESSES.read_text())
    for want in golden:
        obj = want["instance"]
        h = build(obj["vertices"], obj["edges"])
        facets = maximal_independent_sets(h)
        value, witness = dprime_invariant(h, facets)
        assert value == bouquet_invariants(h, facets).d_prime == len(want["d_prime"]["flowers"])
        assert witness.to_json_obj(h) == want["d_prime"], want["name"]
    monkeypatch.setattr(bouquets, "DEFAULT_EDGE_CAP", 2)
    with pytest.raises(SearchLimitExceeded):
        dprime_invariant(named_instance("h1"), ())
