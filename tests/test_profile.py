"""Per-instance profile: each invariant of a hypergraph is computed once
per report and per suite check, and d runs only where it is read."""

import json
import sys
from collections import Counter
from itertools import combinations

import pytest

import hyperinv.bouquets as bouquets
import hyperinv.decomposition as decomposition
import hyperinv.homological as homological
import hyperinv.hypergraph as hypergraph
from conftest import rp2
from hyperinv import (
    SUITES,
    check_instance,
    complex_to_hypergraph,
    from_masks,
    named_instance,
    profile_of,
    random_hypergraph,
    run_suite,
)
from hyperinv.cli import main
from hyperinv.generators import FamilySpec

# The public functions that fill a profile.  is_codominated is counted
# apart: replay_elimination re-tests each step of an order on purpose.
PROFILED = {
    "complexes": ("independence_complex", "vertex_decomposable"),
    "hypergraph": ("find_cycle", "three_cycle_edge_condition", "minimal_vertex_covers"),
    "matchings": ("matching_invariants",),
    "bouquets": ("bouquet_invariants", "dprime_invariant"),
    "decomposition": ("is_codismantlable",),
}


def _key(obj):
    facets = getattr(obj, "facets", None)
    if facets is not None:
        return ("complex", obj.labels, facets)
    return ("hypergraph", obj.labels, obj.edges, obj.void)


@pytest.fixture
def counts(monkeypatch):
    """Counter of (function, argument) calls, over every reference to each
    profiled function inside the package, plus the d search, the d' walk
    and the Betti tables."""
    seen = Counter()

    def counted(name, fn):
        def wrapper(obj, *args, **kwargs):
            seen[(name, _key(obj))] += 1
            return fn(obj, *args, **kwargs)

        return wrapper

    modules = [m for n, m in list(sys.modules.items()) if n.startswith("hyperinv.")]
    for mod_name, names in PROFILED.items():
        for name in names:
            orig = getattr(sys.modules[f"hyperinv.{mod_name}"], name)
            wrapped = counted(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, attr, wrapped)
    # the d' walk takes masks: keyed by its edges, vertex count and facets;
    # a Betti table by H, field, bound and the vertices whose H\\x rows it
    # keeps, so that H's reg and pd walk and the walk of its rows count apart
    walk, table = bouquets._dprime_walk, homological.betti_table

    def counted_walk(edges, n, facets):
        seen[("_dprime_walk", tuple(edges), n, tuple(facets))] += 1
        return walk(edges, n, facets)

    def counted_table(h, field="Q", bounded=False, deletions=0):
        seen[("betti_table", _key(h), field, bounded, deletions)] += 1
        return table(h, field, bounded, deletions)

    for mod in modules:
        if getattr(mod, "_dprime_walk", None) is walk:
            monkeypatch.setattr(mod, "_dprime_walk", counted_walk)
        if getattr(mod, "betti_table", None) is table:
            monkeypatch.setattr(mod, "betti_table", counted_table)
    d_search = bouquets._d_search
    monkeypatch.setattr(bouquets, "_d_search",
                        counted("_d_search", lambda h: d_search(h)))
    codominated = decomposition.is_codominated
    for mod in modules:
        if getattr(mod, "is_codominated", None) is codominated:
            monkeypatch.setattr(mod, "is_codominated",
                                counted("is_codominated", lambda h, x: codominated(h, x)))
    return seen


def instances():
    """Named instances plus random ones with 4-8 edges of size 2-3."""
    out = [named_instance(name) for name in ("h1", "h2", "star3", "p3", "c4", "c5")]
    spec = FamilySpec(kind="random_hypergraph", n=7, max_edge_size=3, edge_count=8, seed=5)
    out += [random_hypergraph(spec, i) for i in range(6)]
    return out


def _d_searches(counts):
    return sum(c for key, c in counts.items() if key[0] == "_d_search")


def _profiled(counts):
    """The counts of the profiled functions: is_codominated is called once
    per vertex of a hypergraph."""
    return Counter({key: c for key, c in counts.items() if key[0] != "is_codominated"})


@pytest.mark.parametrize("flags", [["--skip-homology"], []])
def test_invariants_report_computes_each_invariant_once(counts, tmp_path, capsys, flags):
    """Also with homology: the reg and pd checks read H's reg and pd off the
    report's Betti table, and the recursion checks share the walks of the
    deletions and contractions at the shedding vertices."""
    for k, h in enumerate(instances()):
        path = tmp_path / f"instance-{k}.json"
        path.write_text(h.to_json())
        counts.clear()
        assert main(["invariants", str(path), *flags]) == 0
        capsys.readouterr()
        tested = counts[("is_codominated", _key(h))]
        assert max(_profiled(counts).values()) == 1, counts.most_common(3)
        assert counts[("betti_table", _key(h), "Q", False, 0)] == (not flags)
        assert ("betti_table", _key(h), "Q", True, 0) not in counts
        # d is read by the report and by prop-cd, and computed once for both
        assert _d_searches(counts) == 1
        # each vertex once, for the rows and the elimination order, plus the
        # replay of the order's first step by corollary-codis
        assert h.n <= tested <= h.n + 1


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_check_computes_each_invariant_once(counts, name):
    for base in instances():
        h = from_masks(base.labels, base.edges)  # a new object: a new profile
        counts.clear()
        check_instance(name, h)
        if _profiled(counts):
            assert max(_profiled(counts).values()) == 1, counts.most_common(3)
        assert _d_searches(counts) == (1 if name == "prop-cd" else 0)


def test_one_report_dualizes_its_input_once(monkeypatch, tmp_path, capsys):
    """The profile's independence complex is the only dualization of the
    input in an ``invariants --skip-homology`` report: the d' search reads
    its facets and calls ``maximal_independent_sets`` on nothing."""
    seen, in_search = Counter(), []
    mis = hypergraph.maximal_independent_sets

    def counted(h):
        seen[(_key(h), bool(in_search))] += 1
        return mis(h)

    for mod in [m for n, m in list(sys.modules.items()) if n.startswith("hyperinv.")]:
        if getattr(mod, "maximal_independent_sets", None) is mis:
            monkeypatch.setattr(mod, "maximal_independent_sets", counted)
    walk = bouquets._dprime_walk

    def traced(*args):
        in_search.append(args)
        try:
            return walk(*args)
        finally:
            in_search.pop()

    for mod in [m for n, m in list(sys.modules.items()) if n.startswith("hyperinv.")]:
        if getattr(mod, "_dprime_walk", None) is walk:
            monkeypatch.setattr(mod, "_dprime_walk", traced)
    for k, h in enumerate(instances()):
        path = tmp_path / f"instance-{k}.json"
        path.write_text(h.to_json())
        seen.clear()
        assert main(["invariants", str(path), "--skip-homology"]) == 0
        capsys.readouterr()
        assert seen[(_key(h), False)] == 1
        assert not any(inside for _, inside in seen), seen


def test_lemmas_dprime_dualizes_nothing(monkeypatch, tmp_path, capsys):
    """Ind(H/x) and Ind(H\\x) are the link and the deletion of x in the
    profile's complex, so the d' lemmas run no transversal search once the
    input is dualized, and one report runs exactly one."""
    dualize, calls = hypergraph._minimal_transversals, []
    monkeypatch.setattr(hypergraph, "_minimal_transversals",
                        lambda edges: calls.append(edges) or dualize(edges))
    rows = 0
    for k, base in enumerate(instances()):
        h = from_masks(base.labels, base.edges)  # a new object: a new profile
        profile_of(h).complex
        calls.clear()
        res = check_instance("lemmas-dprime", h)
        assert res.conclusion_holds and calls == []
        rows += len(res.details["shedding"])
        path = tmp_path / f"instance-{k}.json"
        path.write_text(h.to_json())
        assert main(["invariants", str(path), "--skip-homology"]) == 0
        capsys.readouterr()
        assert len(calls) == 1
    assert rows >= len(instances())  # the lemmas were checked at shedding vertices


def test_filter_verdicts_are_reused_by_the_check(counts, tmp_path):
    """A family filtered on C5 and vertex decomposability: the check reads
    the filters' verdicts instead of computing them again."""
    family = FamilySpec(kind="all_graphs", n=4, filters=("c5_free", "vertex_decomposable"))
    rep = run_suite("corollary-codis", [family], out_dir=str(tmp_path))
    assert rep.hypotheses_passed > 0
    assert max(_profiled(counts).values()) == 1
    assert sum(c for key, c in counts.items() if key[0] == "find_cycle") == 64


def test_reg_pd_is_read_off_the_built_table(counts):
    """After ``betti("Q")``, reading reg and pd walks nothing.  A table over
    another field is not read: RP2's table over F2 has reg 3 and pd 4, and
    over Q reg 2 and pd 3."""
    p = profile_of(from_masks(named_instance("c5").labels, named_instance("c5").edges))
    table = p.betti("Q")
    counts.clear()
    assert p.reg_pd == (table.reg, table.pd) == (2, 3)
    assert not any(key[0] == "betti_table" for key in counts)
    p = profile_of(complex_to_hypergraph(rp2()))
    assert (p.betti("F2").reg, p.betti("F2").pd) == (3, 4)
    assert p.reg_pd == (2, 3)


def test_profile_reads_d_prime_from_bouquets_when_d_was_read(counts):
    """One d' walk per profile, whether d' is read by value, with its
    witness or through the bouquets; the witness is the one of
    ``dprime_invariant``."""
    p = profile_of(named_instance("h1"))
    assert p.dprime_walk[0] == 5
    assert p.bouquets.d_prime == p.dprime[0] == 5
    assert sum(c for key, c in counts.items() if key[0] == "_dprime_walk") == 1
    want = bouquets.dprime_invariant(p.h, p.complex.facets)[1].to_json_obj(p.h)
    assert json.dumps(p.dprime[1].to_json_obj(p.h)) == json.dumps(
        p.bouquets.witnesses["d_prime"].to_json_obj(p.h)) == json.dumps(want)


def test_shedding_rows_read_each_restriction_once(monkeypatch):
    """Every H\\x row comes from one walk of H's lattice: once H's own reg
    and pd are read, the rows of K10 look up each restriction of K10 (keyed
    by its labelled edges) at most once, not once per vertex that it misses."""
    h = from_masks([f"x{i}" for i in range(10)],
                   [1 << a | 1 << b for a, b in combinations(range(10), 2)])
    p = profile_of(h)
    assert p.reg_pd == (1, 9)
    gets = Counter()

    class CountingMemo(dict):
        def get(self, key, default=None):
            gets[key] += 1
            return super().get(key, default)

    monkeypatch.setattr(homological, "_SUBGRAPH_HOMOLOGY_MEMO",
                        CountingMemo(homological._SUBGRAPH_HOMOLOGY_MEMO))
    assert [dele for _, dele, _ in p.shedding_splits] == [(1, 8)] * 10
    own = [c for key, c in gets.items() if key[0] == "Q" and set(key[1:]) <= set(h.edges)]
    assert own and max(own) == 1
