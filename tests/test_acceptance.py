"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible under ``pytest -s``; under ``pytest -v`` the test name
itself serves as the line).  Runtime caps are asserted where stated.
"""

import json
import time

import pytest

from hyperinv import (
    SUITES,
    betti_table,
    check_instance,
    classify_family,
    contraction,
    dprime_invariant,
    enumerate_graphs,
    from_json_obj,
    independence_complex,
    independent_set_from_semi_induced,
    is_codismantlable,
    is_codominated,
    is_shedding_vertex,
    matching_invariants,
    named_instance,
    reg_and_pd,
    replay_elimination,
    run_suite,
    theorem_main_report,
    vertex_decomposable,
)
from hyperinv.complexes import dimension
from hyperinv.generators import FILTERS, FamilySpec, raw_stream, stream
from hyperinv.hypergraph import minimal_vertex_covers
from hyperinv.matchings import is_two_collage, maximal_matchings

# Random streams reused across criteria.  Sizes chosen so the filtered
# yields exceed the stated floors with margin.
STREAM_MAIN = FamilySpec(
    kind="random_hypergraph", n=7, max_edge_size=3, edge_count=5, seed=101, count=24000
)
STREAM_MAIN_FILTERED = FamilySpec(
    **{**STREAM_MAIN.__dict__, "filters": ("c5_free", "three_cycle_condition")}
)
STREAM_UNIFORM_A = FamilySpec(
    kind="random_hypergraph",
    n=6,
    max_edge_size=3,
    edge_count=3,
    seed=71,
    count=40000,
    filters=("d_uniform_strong",),
)
STREAM_UNIFORM_B = FamilySpec(
    kind="random_hypergraph",
    n=8,
    max_edge_size=3,
    edge_count=4,
    seed=73,
    count=8000,
    filters=("d_uniform_strong",),
)
STREAM_N8_C2C5_VD = FamilySpec(
    kind="random_hypergraph",
    n=8,
    max_edge_size=3,
    edge_count=4,
    seed=81,
    count=3000,
    filters=("c2_free", "c5_free", "vertex_decomposable"),
)
STREAM_N8_VD = FamilySpec(
    kind="random_hypergraph",
    n=8,
    max_edge_size=3,
    edge_count=4,
    seed=83,
    count=2000,
    filters=("vertex_decomposable",),
)
STREAM_N7_CODIS = FamilySpec(
    kind="random_hypergraph",
    n=7,
    max_edge_size=3,
    edge_count=4,
    seed=91,
    count=2000,
    filters=("c5_free", "three_cycle_condition", "vertex_decomposable"),
)


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _graphs_up_to(max_n, filters=()):
    for n in range(1, max_n + 1):
        for h in enumerate_graphs(n):
            if all(FILTERS[f](h) for f in filters):
                yield h


def _mask(h, labels):
    m = 0
    for l in labels:
        m |= 1 << h.vertex_id(l)
    return m


def _all_default_families():
    seen = []
    for suite in SUITES.values():
        for fam in suite.default_families:
            if fam not in seen:
                seen.append(fam)
    return seen


def test_criterion_01_worked_matching_values():
    t0 = time.monotonic()
    h1 = named_instance("h1")
    inv = matching_invariants(h1)
    star = named_instance("star3")
    star_inv = matching_invariants(star)
    star_dim = dimension(independence_complex(star))
    elapsed = time.monotonic() - t0
    ok = (inv.c, inv.c_prime) == (2, 3) and star_inv.c_prime == 1 and star_dim == 2
    _report(1, ok and elapsed < 1.0, f"c=2 c'=3; star c'=1 dim=2 in {elapsed:.3f}s")


def test_criterion_02_contraction_and_semi_induced():
    t0 = time.monotonic()
    h2 = named_instance("h2")
    h2c = contraction(h2, "x1")
    edges = {frozenset(e) for e in h2c.edges_as_labels()}
    contraction_ok = edges == {frozenset({"x2", "x3"}), frozenset({"x4", "x5"})}
    semi_ok = classify_family(h2c, h2c.edges).semi_induced
    e1 = _mask(h2, ["x1", "x2", "x3"])
    e3 = _mask(h2, ["x4", "x5"])
    non_semi_ok = not classify_family(h2, [e1, e3]).semi_induced
    elapsed = time.monotonic() - t0
    ok = contraction_ok and semi_ok and non_semi_ok and elapsed < 1.0
    _report(2, ok, f"contraction edges + semi-induced verdicts in {elapsed:.3f}s")


def test_criterion_03_shedding_equals_codominated_under_hypotheses():
    t0 = time.monotonic()
    bad = 0
    random_count = 0
    for h in _graphs_up_to(5, ("c5_free",)):
        if not theorem_main_report(h).equivalence_holds:
            bad += 1
    for _, h in stream(STREAM_MAIN_FILTERED):
        random_count += 1
        if not theorem_main_report(h).equivalence_holds:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and random_count >= 10000 and elapsed < 300
    _report(3, ok, f"{random_count} random + exhaustive, {bad} violations, {elapsed:.1f}s")


def test_criterion_04_codominated_implies_shedding_unconditionally():
    bad = 0
    for h in _graphs_up_to(5):
        for x in h.labels:
            if is_codominated(h, x) is not None and not is_shedding_vertex(h, x):
                bad += 1
    for _, h in raw_stream(STREAM_MAIN):
        for x in h.labels:
            if is_codominated(h, x) is not None and not is_shedding_vertex(h, x):
                bad += 1
    _report(4, bad == 0, f"codominated implies shedding, {bad} violations")


def test_criterion_05_graphs_c_equals_c_prime_exhaustive_n6():
    t0 = time.monotonic()
    total = bad = 0
    for h in enumerate_graphs(6):
        total += 1
        inv = matching_invariants(h)
        if inv.c != inv.c_prime:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = total == 2**15 and bad == 0 and elapsed < 600
    _report(5, ok, f"{total} graphs on 6 vertices, {bad} violations, {elapsed:.1f}s")


def test_criterion_06_dimension_chain_and_greedy_witness():
    bad = 0
    for fam in _all_default_families():
        for _, h in stream(fam):
            if not h.edges:
                continue
            inv = matching_invariants(h)
            d = dimension(independence_complex(h))
            if not (inv.c <= inv.c_prime <= (d if d is not None else -1) + 1):
                bad += 1
                continue
            ind = independent_set_from_semi_induced(h, inv.witnesses["c_prime"].edges)
            if any(e & ind == e for e in h.edges) or ind.bit_count() < inv.c_prime:
                bad += 1
    _report(6, bad == 0, f"c <= c' <= dim+1 and greedy witness on all suite instances, {bad} bad")


def test_criterion_07_uniform_strong_intersection():
    t0 = time.monotonic()
    total = bad = 0
    uniformities = set()
    for spec in (STREAM_UNIFORM_A, STREAM_UNIFORM_B):
        for _, h in stream(spec):
            total += 1
            uniformities.add(h.edges[0].bit_count())
            inv = matching_invariants(h)
            hom = reg_and_pd(h)
            if not (inv.c <= inv.c_prime <= inv.m and inv.c <= hom["reg"] <= inv.m):
                bad += 1
                continue
            if not all(is_two_collage(h, mm) for mm in maximal_matchings(h)):
                bad += 1
    elapsed = time.monotonic() - t0
    ok = total >= 5000 and uniformities == {2, 3} and bad == 0 and elapsed < 600
    _report(7, ok, f"{total} uniform instances (d in {sorted(uniformities)}), {bad} bad, {elapsed:.1f}s")


def test_criterion_08_reg_bound_on_c2_c5_free_vd():
    bad = total = 0
    filt = ("c2_free", "c5_free", "vertex_decomposable")
    streams = [_graphs_up_to(5, filt), (h for _, h in stream(STREAM_N8_C2C5_VD))]
    for src in streams:
        for h in src:
            if not h.edges:
                continue
            total += 1
            inv = matching_invariants(h)
            d = dimension(independence_complex(h))
            if not (reg_and_pd(h)["reg"] <= inv.c_prime <= (d if d is not None else -1) + 1):
                bad += 1
    _report(8, bad == 0, f"reg <= c' <= dim+1 on {total} filtered instances, {bad} bad")


def test_criterion_09_pd_bounded_by_d_prime():
    bad = total = 0
    streams = [
        _graphs_up_to(5, ("vertex_decomposable",)),
        (h for _, h in stream(STREAM_N8_VD)),
    ]
    for src in streams:
        for h in src:
            total += 1
            dprime = dprime_invariant(h)[0]
            if reg_and_pd(h)["pd"] > dprime:
                bad += 1
    _report(9, bad == 0, f"pd <= d' on {total} vertex-decomposable instances, {bad} bad")


def test_criterion_10_bigheight_pd_dprime_on_vd_graphs():
    t0 = time.monotonic()
    total = bad = 0
    for h in _graphs_up_to(6, ("vertex_decomposable",)):
        total += 1
        bh = minimal_vertex_covers(h).bigheight
        pd = reg_and_pd(h)["pd"]
        dp = dprime_invariant(h)[0]
        if not (bh == pd == dp):
            bad += 1
    spots = all(
        minimal_vertex_covers(g).bigheight
        == reg_and_pd(g)["pd"]
        == dprime_invariant(g)[0]
        == v
        for g, v in [
            (named_instance("star3"), 3),
            (named_instance("p3"), 2),
            (named_instance("c5"), 3),
        ]
    )
    elapsed = time.monotonic() - t0
    ok = bad == 0 and spots and elapsed < 900
    _report(10, ok, f"bigheight=pd=d' on {total} VD graphs + spot values, {bad} bad, {elapsed:.1f}s")


def test_criterion_11_reg_equals_c_on_c5_free_vd_graphs():
    total = bad = 0
    for h in _graphs_up_to(6, ("c5_free", "vertex_decomposable")):
        total += 1
        if reg_and_pd(h)["reg"] != matching_invariants(h).c:
            bad += 1
    _report(11, bad == 0, f"reg = c on {total} C5-free VD graphs, {bad} bad")


def test_criterion_12_codismantlable_with_replay():
    filt = ("c5_free", "three_cycle_condition", "vertex_decomposable")
    bad = total = 0
    streams = [_graphs_up_to(5, filt), (h for _, h in stream(STREAM_N7_CODIS))]
    for src in streams:
        for h in src:
            if not h.edges:
                continue
            total += 1
            order = is_codismantlable(h)
            if order is None or not replay_elimination(h, order):
                bad += 1
    _report(12, bad == 0, f"replay-valid elimination order on {total} instances, {bad} bad")


def test_criterion_13_monotonicity_and_cd_chain_on_all_suites():
    fams = _all_default_families()
    ok = True
    for name in ("lemmas-dprime", "prop-cd"):
        rep = run_suite(name, fams)
        if rep.exit_status != 0 or rep.counterexamples:
            ok = False
    _report(13, ok, "d'-monotonicity at shedding vertices and c<=d<=d' (c'<=d' C2-free) hold")


def test_criterion_14_homology_oracle_cross_checks(tmp_path):
    t0 = time.monotonic()
    golden = {
        "single_edge": {(1, 2): 1},
        "p3": {(1, 2): 2, (2, 3): 1},
        "two_disjoint_edges": {(1, 2): 2, (2, 4): 1},
        "star3": {(1, 2): 3, (2, 3): 3, (3, 4): 1},
        "c5": {(1, 2): 5, (2, 3): 5, (3, 5): 1},
    }
    ok = all(betti_table(named_instance(k)).entries == v for k, v in golden.items())
    spec = FamilySpec(
        kind="random_hypergraph", n=6, max_edge_size=3, edge_count=4, seed=141, count=300
    )
    for _, h in stream(spec):
        t = betti_table(h)
        for j in range(2, h.n + 1):
            if t.entries.get((1, j), 0) != sum(1 for e in h.edges if e.bit_count() == j):
                ok = False
    from hyperinv import alexander_dual, complex_to_hypergraph

    spec10 = FamilySpec(
        kind="random_hypergraph", n=10, max_edge_size=3, edge_count=4, seed=143, count=60
    )
    for _, h in stream(spec10):
        pd = reg_and_pd(h)["pd"]
        dual_h = complex_to_hypergraph(alexander_dual(independence_complex(h)))
        dual = reg_and_pd(dual_h)["reg"] + 1 if dual_h.edges else 0
        if not dual_h.void and pd != dual:
            ok = False
    elapsed = time.monotonic() - t0
    _report(14, ok and elapsed < 120, f"golden tables, beta_1j counts, Terai duality, {elapsed:.1f}s")


def test_criterion_15_self_test_and_determinism(tmp_path):
    fams = [FamilySpec(kind="all_graphs", n=4)]
    planted = run_suite("graph-cc", fams, self_test=True, out_dir=str(tmp_path))
    ok = planted.exit_status == 1 and len(planted.counterexample_files) == 1
    with open(planted.counterexample_files[0]) as fh:
        replay = check_instance("graph-cc", from_json_obj(json.load(fh)))
    ok = ok and replay.conclusion_holds is not False  # file is re-runnable
    blobs = []
    for jobs in (1, 1, 8):
        rep = run_suite("lemma-dim", fams, jobs=jobs, out_dir=str(tmp_path))
        blobs.append(json.dumps(rep.to_json_obj(), sort_keys=True))
    ok = ok and blobs[0] == blobs[1] == blobs[2]
    _report(15, ok, "self-test exits 1 with re-runnable file; reports byte-identical")
