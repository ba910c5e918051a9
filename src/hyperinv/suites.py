"""Verification suites: each suite pins one statement about hypergraph
invariants and checks it on every instance of a family whose hypotheses
hold.  Reports are deterministic; parallel runs shard by instance index
before drawing and filtering, and merge in order, so worker count never
changes the output bytes.  Each check reads the instance's invariants
from its profile, where the family's filters left theirs.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bouquets import cover_from_bouquets, dprime_invariant
from .complexes import dimension
from .decomposition import replay_elimination, theorem_main_report
from .errors import HyperinvError, SearchLimitExceeded, SizeLimitExceeded, UnknownSuite
from .generators import FamilySpec, stream
from .hypergraph import (
    Hypergraph,
    c2_free,
    contraction,
    deletion,
    is_graph,
    uniformity_profile,
)
from .matchings import (
    independent_set_from_semi_induced,
    is_two_collage,
    maximal_matchings,
)
from .profile import Profile, profile_of


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


def _dim_plus_one(p: Profile) -> int:
    dim = dimension(p.complex)
    return (dim if dim is not None else -1) + 1


# ---------------------------------------------------------------------------
# suite checks: each reads the instance's invariants from its profile


def _check_theorem_main(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    c5 = p.c5_free
    tcc = p.three_cycle_condition
    if not (c5 and tcc):
        return _skip(c5_free=c5, three_cycle_condition=tcc)
    rep = theorem_main_report(h)
    shed = sorted(r["vertex"] for r in rep.rows if r["shedding"])
    codom = sorted(r["vertex"] for r in rep.rows if r["codominated"])
    return _verdict(rep.equivalence_holds, shedding=shed, codominated=codom)


def _check_lemma_codominated(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    bad = [
        x
        for x, witness, shed in zip(h.labels, p.codominated, p.shedding)
        if witness is not None and not shed
    ]
    return _verdict(not bad, codominated_not_shedding=bad)


def _check_graph_cc(h: Hypergraph) -> SuiteResult:
    if not is_graph(h):
        return _skip(graph=False)
    inv = profile_of(h).matchings
    return _verdict(inv.c == inv.c_prime, c=inv.c, c_prime=inv.c_prime)


def _check_lemma_dim(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    inv = p.matchings
    top = _dim_plus_one(p)
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
    p = profile_of(h)
    inv = p.matchings
    collage_ok = all(is_two_collage(h, mm) for mm in maximal_matchings(h))
    reg = p.betti().reg
    ok = inv.c <= inv.c_prime <= inv.m and collage_ok and inv.c <= reg <= inv.m
    return _verdict(
        ok,
        c=inv.c,
        c_prime=inv.c_prime,
        m=inv.m,
        reg=reg,
        maximal_matchings_are_two_collages=collage_ok,
    )


def _check_prop_cd(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    inv = p.matchings
    binv = p.bouquets
    ok = inv.c <= binv.d <= binv.d_prime
    c2 = c2_free(h)
    if c2:
        ok = ok and inv.c_prime <= binv.d_prime
    return _verdict(ok, c=inv.c, c_prime=inv.c_prime, d=binv.d, d_prime=binv.d_prime, c2_free=c2)


def _check_theorem_reg(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    c2 = c2_free(h)
    c5 = p.c5_free
    if not (c2 and c5 and p.vertex_decomposable):
        return _skip(c2_free=c2, c5_free=c5)
    c_prime = p.matchings.c_prime
    top = _dim_plus_one(p)
    reg = p.betti().reg
    return _verdict(reg <= c_prime <= top, reg=reg, c_prime=c_prime, dim_plus_one=top)


def _check_theorem_pd(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    if not p.vertex_decomposable:
        return _skip(vertex_decomposable=False)
    d_prime = p.dprime[0]
    pd = p.betti().pd
    return _verdict(pd <= d_prime, pd=pd, d_prime=d_prime)


def _check_theorem_final(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    if not (is_graph(h) and p.vertex_decomposable):
        return _skip(graph=is_graph(h))
    d_prime, witness = p.dprime
    covers = p.covers
    pd = p.betti().pd
    cover = cover_from_bouquets(h, witness)
    flowers = witness.flowers
    # Theorem final (ii): with size-two stems the flower set itself covers
    flowers_are_cover = flowers in covers.covers
    ok = covers.bigheight == pd == d_prime and flowers_are_cover and cover == flowers
    return _verdict(
        ok,
        bigheight=covers.bigheight,
        pd=pd,
        d_prime=d_prime,
        flowers_minimal_cover=flowers_are_cover,
    )


def _check_corollary_codis(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    c5 = p.c5_free
    tcc = p.three_cycle_condition
    if not (c5 and tcc and p.vertex_decomposable):
        return _skip(c5_free=c5, three_cycle_condition=tcc)
    order = p.codismantle_order
    ok = order is not None and replay_elimination(h, order)
    return _verdict(ok, elimination_order=list(order.order) if order else None)


def _check_lemmas_dprime(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    dp = p.dprime[0]
    rows = []
    ok = True
    for x in p.shedding_vertices:
        ctr = contraction(h, x)
        dp_ctr = None if ctr.void else dprime_invariant(ctr)[0]
        dp_del = dprime_invariant(deletion(h, x))[0]
        good = (dp_ctr is None or dp_ctr <= dp) and dp_del + 1 <= dp
        ok = ok and good
        rows.append({"vertex": x, "d_prime_contraction": dp_ctr, "d_prime_deletion": dp_del})
    return _verdict(ok, d_prime=dp, shedding=rows)


def _check_recursion_pd(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    if not p.vertex_decomposable:
        return _skip(vertex_decomposable=False)
    pd = p.betti().pd
    rows = [
        {"vertex": x, "pd_deletion": dele.pd, "pd_contraction": ctr.pd}
        for x, dele, ctr in p.shedding_splits
    ]
    ok = all(pd == max(r["pd_deletion"] + 1, r["pd_contraction"]) for r in rows)
    return _verdict(ok, pd=pd, shedding=rows)


def _check_recursion_reg(h: Hypergraph) -> SuiteResult:
    p = profile_of(h)
    if not p.vertex_decomposable:
        return _skip(vertex_decomposable=False)
    reg = p.betti().reg
    rows = [
        {"vertex": x, "reg_deletion": dele.reg, "reg_contraction": ctr.reg}
        for x, dele, ctr in p.shedding_splits
    ]
    ok = all(reg <= max(r["reg_deletion"], r["reg_contraction"] + 1) for r in rows)
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
    omitted: tuple[dict, ...] = ()  # instances whose check hit a cap

    def to_json_obj(self) -> dict:
        obj = {
            "suite": self.suite,
            "families": [f.to_json_obj() for f in self.families],
            "instances_tested": self.instances_tested,
            "hypotheses_passed": self.hypotheses_passed,
            "counterexamples": list(self.counterexamples),
            "exit_status": self.exit_status,
        }
        if self.omitted:
            obj["omitted"] = list(self.omitted)
        return obj


def _run_shard(name: str, fam_obj: dict, fam_idx: int, shard: int, jobs: int) -> list[tuple]:
    fam_obj = dict(fam_obj)
    fam_obj["filters"] = tuple(fam_obj["filters"])
    spec = FamilySpec(**fam_obj)
    check = get_suite(name).check
    out = []
    for idx, h in stream(spec, shard, jobs):
        try:
            res = check(h).to_json_obj()
        except (SizeLimitExceeded, SearchLimitExceeded) as exc:
            res = {"omitted": str(exc)}
        out.append((fam_idx, idx, h.to_json_obj(), res))
    return out


def write_json(path: str, obj) -> None:
    """Write obj as stable JSON; a failed write is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise HyperinvError(f"cannot write {path}: {exc}") from exc


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
        # shards are still counted by jobs; only the pool is bounded
        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
            futures = [
                pool.submit(_run_shard, name, spec.to_json_obj(), fi, shard, jobs)
                for fi, spec in enumerate(fams)
                for shard in range(jobs)
            ]
            for fut in futures:
                rows.extend(fut.result())
    rows.sort(key=lambda r: (r[0], r[1]))
    omitted = tuple(
        {"family": fi, "index": idx, "reason": res["omitted"]}
        for fi, idx, _, res in rows
        if "omitted" in res
    )
    rows = [r for r in rows if "omitted" not in r[3]]

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
        write_json(path, ce["instance"])
        files.append(path)
    # 1: counterexample, 3: some check hit a cap (partial report), 0: ok
    status = 1 if counterexamples else 3 if omitted else 0
    return VerificationReport(
        name,
        fams,
        tested,
        passed,
        counterexamples,
        status,
        tuple(files),
        time.monotonic() - start,
        omitted,
    )
