"""Verification suites: each suite pins one statement about hypergraph
invariants and checks it on every instance of a family whose hypotheses
hold.  Reports are deterministic; parallel runs shard by instance index
and merge in order, so worker count never changes the output bytes.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bouquets import bouquet_invariants, cover_from_bouquets
from .complexes import dimension, independence_complex, vertex_decomposable
from .decomposition import (
    is_codismantlable,
    is_codominated,
    is_shedding_vertex,
    replay_elimination,
    theorem_main_report,
)
from .errors import UnknownSuite
from .generators import FamilySpec, stream
from .homological import reg_and_pd
from .hypergraph import (
    Hypergraph,
    bit_ids,
    c2_free,
    contraction,
    deletion,
    find_cycle,
    is_graph,
    minimal_vertex_covers,
    three_cycle_edge_condition,
    uniformity_profile,
)
from .matchings import (
    independent_set_from_semi_induced,
    is_two_collage,
    matching_invariants,
    maximal_matchings,
)


@dataclass(frozen=True)
class SuiteResult:
    hypotheses_hold: bool
    conclusion_holds: Optional[bool]  # None when hypotheses fail
    details: dict

    def to_json_obj(self) -> dict:
        return {
            "hypotheses_hold": self.hypotheses_hold,
            "conclusion_holds": self.conclusion_holds,
            "details": self.details,
        }


def _skip(**details) -> SuiteResult:
    return SuiteResult(False, None, details)


def _verdict(ok: bool, **details) -> SuiteResult:
    return SuiteResult(True, ok, details)


def _is_vd(h: Hypergraph) -> bool:
    return vertex_decomposable(independence_complex(h))


def _shedding_vertices(h: Hypergraph) -> list[str]:
    support = 0
    for e in h.edges:
        support |= e
    return [h.labels[i] for i in bit_ids(support) if is_shedding_vertex(h, h.labels[i])]


# ---------------------------------------------------------------------------
# suite checks


def _check_theorem_main(h: Hypergraph) -> SuiteResult:
    c5 = find_cycle(h, 5) is None
    tcc = three_cycle_edge_condition(h)
    if not (c5 and tcc):
        return _skip(c5_free=c5, three_cycle_condition=tcc)
    rep = theorem_main_report(h)
    shed = sorted(r["vertex"] for r in rep.rows if r["shedding"])
    codom = sorted(r["vertex"] for r in rep.rows if r["codominated"])
    return _verdict(rep.equivalence_holds, shedding=shed, codominated=codom)


def _check_lemma_codominated(h: Hypergraph) -> SuiteResult:
    bad = [
        x
        for x in h.labels
        if is_codominated(h, x) is not None and not is_shedding_vertex(h, x)
    ]
    return _verdict(not bad, codominated_not_shedding=bad)


def _check_graph_cc(h: Hypergraph) -> SuiteResult:
    if not is_graph(h):
        return _skip(graph=False)
    inv = matching_invariants(h)
    return _verdict(inv.c == inv.c_prime, c=inv.c, c_prime=inv.c_prime)


def _check_lemma_dim(h: Hypergraph) -> SuiteResult:
    inv = matching_invariants(h)
    dim = dimension(independence_complex(h))
    top = (dim if dim is not None else -1) + 1
    ok = inv.c <= inv.c_prime <= top
    g = independent_set_from_semi_induced(h, list(inv.witnesses["c_prime"].edges))
    ok = ok and g.bit_count() >= inv.c_prime
    return _verdict(
        ok,
        c=inv.c,
        c_prime=inv.c_prime,
        dim_plus_one=top,
        greedy_independent_set=sorted(h.edge_labels(g)),
    )


def _check_prop_mh(h: Hypergraph) -> SuiteResult:
    if not h.edges:
        return _skip(uniform=False)
    prof = uniformity_profile(h)
    if prof["d"] is None or not prof["strong_intersection"]:
        return _skip(uniform=prof["d"] is not None, strong_intersection=False)
    inv = matching_invariants(h)
    collage_ok = all(is_two_collage(h, mm) for mm in maximal_matchings(h))
    hom = reg_and_pd(h)
    ok = inv.c <= inv.c_prime <= inv.m and collage_ok and inv.c <= hom["reg"] <= inv.m
    return _verdict(
        ok,
        c=inv.c,
        c_prime=inv.c_prime,
        m=inv.m,
        reg=hom["reg"],
        maximal_matchings_are_two_collages=collage_ok,
    )


def _check_prop_cd(h: Hypergraph) -> SuiteResult:
    inv = matching_invariants(h)
    binv = bouquet_invariants(h)
    ok = inv.c <= binv.d <= binv.d_prime
    c2 = c2_free(h)
    if c2:
        ok = ok and inv.c_prime <= binv.d_prime
    return _verdict(ok, c=inv.c, c_prime=inv.c_prime, d=binv.d, d_prime=binv.d_prime, c2_free=c2)


def _check_theorem_reg(h: Hypergraph) -> SuiteResult:
    c2 = c2_free(h)
    c5 = find_cycle(h, 5) is None
    if not (c2 and c5 and _is_vd(h)):
        return _skip(c2_free=c2, c5_free=c5)
    inv = matching_invariants(h)
    dim = dimension(independence_complex(h))
    top = (dim if dim is not None else -1) + 1
    hom = reg_and_pd(h)
    return _verdict(
        hom["reg"] <= inv.c_prime <= top,
        reg=hom["reg"],
        c_prime=inv.c_prime,
        dim_plus_one=top,
    )


def _check_theorem_pd(h: Hypergraph) -> SuiteResult:
    if not _is_vd(h):
        return _skip(vertex_decomposable=False)
    binv = bouquet_invariants(h)
    hom = reg_and_pd(h)
    return _verdict(hom["pd"] <= binv.d_prime, pd=hom["pd"], d_prime=binv.d_prime)


def _check_theorem_final(h: Hypergraph) -> SuiteResult:
    if not (is_graph(h) and _is_vd(h)):
        return _skip(graph=is_graph(h))
    binv = bouquet_invariants(h)
    covers = minimal_vertex_covers(h)
    hom = reg_and_pd(h)
    cover = cover_from_bouquets(h, binv.witnesses["d_prime"])
    flowers = binv.witnesses["d_prime"].flowers
    # Theorem final (ii): with size-two stems the flower set itself covers
    flowers_are_cover = flowers in covers.covers
    ok = covers.bigheight == hom["pd"] == binv.d_prime and flowers_are_cover and cover == flowers
    return _verdict(
        ok,
        bigheight=covers.bigheight,
        pd=hom["pd"],
        d_prime=binv.d_prime,
        flowers_minimal_cover=flowers_are_cover,
    )


def _check_corollary_codis(h: Hypergraph) -> SuiteResult:
    c5 = find_cycle(h, 5) is None
    tcc = three_cycle_edge_condition(h)
    if not (c5 and tcc and _is_vd(h)):
        return _skip(c5_free=c5, three_cycle_condition=tcc)
    order = is_codismantlable(h)
    ok = order is not None and replay_elimination(h, order)
    return _verdict(ok, elimination_order=list(order.order) if order else None)


def _dprime(h: Hypergraph) -> int:
    return bouquet_invariants(h).d_prime


def _check_lemmas_dprime(h: Hypergraph) -> SuiteResult:
    dp = _dprime(h)
    rows = []
    ok = True
    for x in _shedding_vertices(h):
        ctr = contraction(h, x)
        dp_ctr = None if ctr.void else _dprime(ctr)
        dp_del = _dprime(deletion(h, x))
        good = (dp_ctr is None or dp_ctr <= dp) and dp_del + 1 <= dp
        ok = ok and good
        rows.append({"vertex": x, "d_prime_contraction": dp_ctr, "d_prime_deletion": dp_del})
    return _verdict(ok, d_prime=dp, shedding=rows)


def _check_recursion_pd(h: Hypergraph) -> SuiteResult:
    if not _is_vd(h):
        return _skip(vertex_decomposable=False)
    pd = reg_and_pd(h)["pd"]
    rows = []
    ok = True
    for x in _shedding_vertices(h):
        ctr = contraction(h, x)
        if ctr.void:
            continue
        pd_del = reg_and_pd(deletion(h, x))["pd"]
        pd_ctr = reg_and_pd(ctr)["pd"]
        good = pd == max(pd_del + 1, pd_ctr)
        ok = ok and good
        rows.append({"vertex": x, "pd_deletion": pd_del, "pd_contraction": pd_ctr})
    return _verdict(ok, pd=pd, shedding=rows)


def _check_recursion_reg(h: Hypergraph) -> SuiteResult:
    if not _is_vd(h):
        return _skip(vertex_decomposable=False)
    reg = reg_and_pd(h)["reg"]
    rows = []
    ok = True
    for x in _shedding_vertices(h):
        ctr = contraction(h, x)
        if ctr.void:
            continue
        reg_del = reg_and_pd(deletion(h, x))["reg"]
        reg_ctr = reg_and_pd(ctr)["reg"]
        good = reg <= max(reg_del, reg_ctr + 1)
        ok = ok and good
        rows.append({"vertex": x, "reg_deletion": reg_del, "reg_contraction": reg_ctr})
    return _verdict(ok, reg=reg, shedding=rows)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Suite:
    name: str
    statement: str
    check: Callable[[Hypergraph], SuiteResult]
    default_families: tuple[FamilySpec, ...]


def _fam(**kw) -> FamilySpec:
    kw.setdefault("kind", "random_hypergraph")
    kw["filters"] = tuple(kw.get("filters", ()))
    return FamilySpec(**kw)


_GRAPHS4 = _fam(kind="all_graphs", n=4)
_RANDOM = _fam(n=6, max_edge_size=3, edge_count=4, seed=11, count=300)

SUITES: dict[str, Suite] = {}


def _register(name, statement, check, families):
    SUITES[name] = Suite(name, statement, check, tuple(families))


_register(
    "theorem-main",
    "on C5-free instances whose 3-cycles use only size-2 edges, "
    "a vertex is shedding iff it is codominated",
    _check_theorem_main,
    [_fam(kind="all_graphs", n=4, filters=("c5_free",)),
     _fam(n=6, max_edge_size=3, edge_count=4, seed=11, count=300,
          filters=("c5_free", "three_cycle_condition"))],
)
_register(
    "lemma-codominated",
    "every codominated vertex is a shedding vertex",
    _check_lemma_codominated,
    [_GRAPHS4, _RANDOM],
)
_register(
    "graph-cc",
    "on graphs the induced and semi-induced matching numbers agree",
    _check_graph_cc,
    [_fam(kind="all_graphs", n=5)],
)
_register(
    "lemma-dim",
    "c <= c' <= dim+1, with a greedy independent set of size >= c'",
    _check_lemma_dim,
    [_GRAPHS4, _RANDOM],
)
_register(
    "prop-mh",
    "on d-uniform strong-intersection instances c <= c' <= m, "
    "maximal matchings are 2-collages, and c <= reg <= m",
    _check_prop_mh,
    [_fam(kind="all_graphs", n=4),
     _fam(n=6, max_edge_size=3, edge_count=3, seed=23, count=600,
          filters=("d_uniform_strong",))],
)
_register(
    "prop-cd",
    "c <= d <= d', and c' <= d' when no two edges share two vertices",
    _check_prop_cd,
    [_GRAPHS4, _RANDOM],
)
_register(
    "theorem-reg",
    "on (C2,C5)-free vertex-decomposable instances reg <= c' <= dim+1",
    _check_theorem_reg,
    [_fam(kind="all_graphs", n=5, filters=("c5_free", "vertex_decomposable")),
     _fam(n=6, max_edge_size=3, edge_count=4, seed=31, count=300,
          filters=("c2_free", "c5_free", "vertex_decomposable"))],
)
_register(
    "theorem-pd",
    "on vertex-decomposable instances pd <= d'",
    _check_theorem_pd,
    [_fam(kind="all_graphs", n=4, filters=("vertex_decomposable",)),
     _fam(n=6, max_edge_size=3, edge_count=4, seed=37, count=300,
          filters=("vertex_decomposable",))],
)
_register(
    "theorem-final",
    "on vertex-decomposable graphs bigheight = pd = d', with a minimal "
    "cover inside the optimal flower set",
    _check_theorem_final,
    [_fam(kind="all_graphs", n=5, filters=("vertex_decomposable",))],
)
_register(
    "corollary-codis",
    "C5-free vertex-decomposable instances with size-2-edge 3-cycles "
    "are codismantlable",
    _check_corollary_codis,
    [_fam(kind="all_graphs", n=4, filters=("c5_free", "vertex_decomposable")),
     _fam(n=6, max_edge_size=3, edge_count=4, seed=41, count=300,
          filters=("c5_free", "three_cycle_condition", "vertex_decomposable"))],
)
_register(
    "lemmas-dprime",
    "at a shedding vertex x, d'(H/x) <= d'(H) and d'(H\\x)+1 <= d'(H)",
    _check_lemmas_dprime,
    [_GRAPHS4, _fam(n=6, max_edge_size=3, edge_count=4, seed=43, count=200)],
)
_register(
    "recursion-pd",
    "at a shedding vertex of a vertex-decomposable instance, "
    "pd = max(pd(deletion)+1, pd(contraction))",
    _check_recursion_pd,
    [_fam(kind="all_graphs", n=4, filters=("vertex_decomposable",)),
     _fam(n=6, max_edge_size=3, edge_count=4, seed=47, count=200,
          filters=("vertex_decomposable",))],
)
_register(
    "recursion-reg",
    "at a shedding vertex of a vertex-decomposable instance, "
    "reg <= max(reg(deletion), reg(contraction)+1)",
    _check_recursion_reg,
    [_fam(kind="all_graphs", n=4, filters=("vertex_decomposable",)),
     _fam(n=6, max_edge_size=3, edge_count=4, seed=53, count=200,
          filters=("vertex_decomposable",))],
)


def get_suite(name: str) -> Suite:
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; have {sorted(SUITES)}")
    return SUITES[name]


def check_instance(name: str, h: Hypergraph) -> SuiteResult:
    return get_suite(name).check(h)


# ---------------------------------------------------------------------------
# suite runner


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    families: tuple[FamilySpec, ...]
    instances_tested: int
    hypotheses_passed: int
    counterexamples: tuple[dict, ...]
    exit_status: int
    counterexample_files: tuple[str, ...] = ()
    elapsed: float = 0.0  # informational only; excluded from the report JSON

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "families": [f.to_json_obj() for f in self.families],
            "instances_tested": self.instances_tested,
            "hypotheses_passed": self.hypotheses_passed,
            "counterexamples": list(self.counterexamples),
            "exit_status": self.exit_status,
        }


def _run_shard(name: str, fam_obj: dict, fam_idx: int, shard: int, jobs: int) -> list[tuple]:
    fam_obj = dict(fam_obj)
    fam_obj["filters"] = tuple(fam_obj["filters"])
    spec = FamilySpec(**fam_obj)
    check = get_suite(name).check
    out = []
    for idx, h in stream(spec):
        if idx % jobs != shard:
            continue
        res = check(h)
        out.append((fam_idx, idx, h.to_json_obj(), res.to_json_obj()))
    return out


def run_suite(
    name: str,
    families: Optional[Sequence[FamilySpec]] = None,
    jobs: int = 1,
    self_test: bool = False,
    out_dir: Optional[str] = None,
) -> VerificationReport:
    import time

    start = time.monotonic()
    suite = get_suite(name)
    fams = tuple(families) if families else suite.default_families
    rows: list[tuple] = []
    if jobs <= 1:
        for fi, spec in enumerate(fams):
            rows.extend(_run_shard(name, spec.to_json_obj(), fi, 0, 1))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_shard, name, spec.to_json_obj(), fi, shard, jobs)
                for fi, spec in enumerate(fams)
                for shard in range(jobs)
            ]
            for fut in futures:
                rows.extend(fut.result())
    rows.sort(key=lambda r: (r[0], r[1]))

    if self_test:
        # planted comparator fault: flip the first evaluated verdict
        for i, (fi, idx, hj, res) in enumerate(rows):
            if res["hypotheses_hold"]:
                res = dict(res, conclusion_holds=False,
                           details=dict(res["details"], planted_fault=True))
                rows[i] = (fi, idx, hj, res)
                break

    tested = len(rows)
    passed = sum(1 for r in rows if r[3]["hypotheses_hold"])
    counterexamples = tuple(
        {
            "family": fi,
            "index": idx,
            "instance": hj,
            "statement": suite.statement,
            "details": res["details"],
        }
        for fi, idx, hj, res in rows
        if res["hypotheses_hold"] and res["conclusion_holds"] is False
    )
    files = []
    base = out_dir or os.getcwd()
    for ce in counterexamples:
        path = os.path.join(base, f"counterexample-{name}-{ce['family']}-{ce['index']}.json")
        with open(path, "w") as fh:
            json.dump(ce["instance"], fh, indent=2, sort_keys=True)
            fh.write("\n")
        files.append(path)
    status = 1 if counterexamples else 0
    return VerificationReport(
        name,
        fams,
        tested,
        passed,
        counterexamples,
        status,
        tuple(files),
        time.monotonic() - start,
    )
