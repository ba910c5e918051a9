"""Verification suites: each suite is one row of a table, a statement
about hypergraph invariants split into named hypotheses and a conclusion,
checked on every instance of a family whose hypotheses hold.  Reports are
deterministic; parallel runs shard by instance index before drawing and
filtering, and merge in order, so worker count never changes the output
bytes.  Each check reads the instance's invariants
from its profile, where the family's filters left theirs.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from functools import partial, reduce
from json.encoder import encode_basestring_ascii as _quote  # the C escaper json.dumps uses
from operator import or_
from typing import Callable, Optional, Sequence

from .bouquets import _dprime_walk
from .complexes import dimension
from .decomposition import replay_elimination, theorem_main_report
from .errors import HyperinvError, SearchLimitExceeded
from .generators import FILTERS, FamilySpec, check_filters, passes_filters, stream
from .hypergraph import Hypergraph, _contract, c2_free, is_graph
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


def _dim_plus_one(p: Profile) -> int:
    dim = dimension(p.complex)
    return (dim if dim is not None else -1) + 1


# ---------------------------------------------------------------------------
# hypotheses: named tests on H, most of them family filters


HYPOTHESES: dict[str, Callable[[Hypergraph], bool]] = {
    **{name: FILTERS[name]
       for name in ("c2_free", "c5_free", "three_cycle_condition", "vertex_decomposable")},
    "graph": is_graph,  # unlike the graph filter, an edgeless H counts
    "uniform": lambda h: len({e.bit_count() for e in h.edges}) == 1,
    "strong_intersection": FILTERS["d_uniform_strong"],
    "no_singleton_edges": lambda h: all(e & (e - 1) for e in h.edges),
}


def _check(hypotheses: tuple[str, ...], conclusion: Callable, h: Hypergraph) -> SuiteResult:
    # The one skip rule: every named hypothesis other than vertex
    # decomposability is evaluated and reported.  VD, the costly one, is
    # read only after those hold, and reported (as false) only in a suite
    # that names no other hypothesis.
    held = {name: HYPOTHESES[name](h) for name in hypotheses if name != "vertex_decomposable"}
    if not all(held.values()) or (
        "vertex_decomposable" in hypotheses and not HYPOTHESES["vertex_decomposable"](h)
    ):
        return SuiteResult(False, None, held or {"vertex_decomposable": False})
    ok, details = conclusion(h, profile_of(h))
    return SuiteResult(True, ok, details)


# ---------------------------------------------------------------------------
# conclusions: each reads the instance's invariants from its profile and
# returns (verdict, details)


def _theorem_main(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    rep = theorem_main_report(h)
    shed = sorted(r["vertex"] for r in rep.rows if r["shedding"])
    codom = sorted(r["vertex"] for r in rep.rows if r["codominated"])
    return rep.equivalence_holds, dict(shedding=shed, codominated=codom)


def _lemma_codominated(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    bad = [
        x
        for x, witness, shed in zip(h.labels, p.codominated, p.shedding)
        if witness is not None and not shed
    ]
    return not bad, dict(codominated_not_shedding=bad)


def _graph_cc(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    inv = p.matchings
    return inv.c == inv.c_prime, dict(c=inv.c, c_prime=inv.c_prime)


def _lemma_dim(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    inv = p.matchings
    top = _dim_plus_one(p)
    ok = inv.c <= inv.c_prime <= top
    g = independent_set_from_semi_induced(h, list(inv.witnesses["c_prime"].edges))
    ok = ok and g.bit_count() >= inv.c_prime
    return ok, dict(
        c=inv.c,
        c_prime=inv.c_prime,
        dim_plus_one=top,
        greedy_independent_set=sorted(h.edge_labels(g)),
    )


def _prop_mh(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    inv = p.matchings
    collage_ok = all(is_two_collage(h, mm) for mm in maximal_matchings(h))
    reg = p.reg_pd[0]
    ok = inv.c <= inv.c_prime <= inv.m and collage_ok and inv.c <= reg <= inv.m
    return ok, dict(
        c=inv.c,
        c_prime=inv.c_prime,
        m=inv.m,
        reg=reg,
        maximal_matchings_are_two_collages=collage_ok,
    )


def _prop_cd(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    inv = p.matchings
    binv = p.bouquets
    ok = inv.c <= binv.d <= binv.d_prime
    c2 = c2_free(h)
    if c2:
        ok = ok and inv.c_prime <= binv.d_prime
    return ok, dict(c=inv.c, c_prime=inv.c_prime, d=binv.d, d_prime=binv.d_prime, c2_free=c2)


def _theorem_reg(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    c_prime = p.matchings.c_prime
    top = _dim_plus_one(p)
    reg = p.reg_pd[0]
    return reg <= c_prime <= top, dict(reg=reg, c_prime=c_prime, dim_plus_one=top)


def _theorem_pd(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    d_prime = p.dprime_walk[0]
    pd = p.reg_pd[1]
    return pd <= d_prime, dict(pd=pd, d_prime=d_prime)


def _theorem_final(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    d_prime, witness = p.dprime
    covers = p.covers
    pd = p.reg_pd[1]
    # Theorem final (ii): with size-two stems an optimal flower set is a minimal cover
    flowers_are_cover = witness.flowers in covers.covers
    optimal = witness.semi_strongly_disjoint and witness.flowers.bit_count() == d_prime
    ok = covers.bigheight == pd == d_prime and optimal and flowers_are_cover
    return ok, dict(
        bigheight=covers.bigheight,
        pd=pd,
        d_prime=d_prime,
        flowers_minimal_cover=flowers_are_cover,
    )


def _corollary_codis(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    order = p.codismantle_order
    ok = order is not None and replay_elimination(h, order)
    return ok, dict(elimination_order=list(order.order) if order else None)


def _lemmas_dprime(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    # Ind(H/x) and Ind(H\x) are the link and deletion of x in Ind(H) ({x} is no edge), so
    # their root sets are H's R through x, as R ^ x, and the R that miss x, inside their
    # edge support: its independent sets, so equal edges (H\x2 = H\x3 on h1) walk once.
    dp, walked, rows = p.dprime_walk[0], {}, []
    for x in p.shedding_vertices:
        bit, row = 1 << h.vertex_id(x), {"vertex": x}
        for name, edges, through in (("d_prime_contraction", _contract(h.edges, bit), bit),
                                     ("d_prime_deletion", [e for e in h.edges if not e & bit], 0)):
            if (key := tuple(edges)) not in walked:
                out = ~reduce(or_, edges, 0)
                kept = [r for s in p.root_sets if s & through == through and (r := s ^ through) and not r & out]
                walked[key] = _dprime_walk(edges, h.n, kept)[0] if kept else 0
            row[name] = walked[key]
        rows.append(row)
    ok = all(r["d_prime_contraction"] <= dp and r["d_prime_deletion"] + 1 <= dp for r in rows)
    return ok, dict(d_prime=dp, shedding=rows)


def _recursion_pd(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    pd = p.reg_pd[1]
    rows = [
        {"vertex": x, "pd_deletion": dele[1], "pd_contraction": ctr[1]}
        for x, dele, ctr in p.shedding_splits
    ]
    ok = all(pd == max(r["pd_deletion"] + 1, r["pd_contraction"]) for r in rows)
    return ok, dict(pd=pd, shedding=rows)


def _recursion_reg(h: Hypergraph, p: Profile) -> tuple[bool, dict]:
    reg = p.reg_pd[0]
    rows = [
        {"vertex": x, "reg_deletion": dele[0], "reg_contraction": ctr[0]}
        for x, dele, ctr in p.shedding_splits
    ]
    ok = all(reg <= max(r["reg_deletion"], r["reg_contraction"] + 1) for r in rows)
    return ok, dict(reg=reg, shedding=rows)


# ---------------------------------------------------------------------------
# the table: one row per suite


@dataclass(frozen=True)
class Suite:
    name: str
    statement: str
    check: Callable[[Hypergraph], SuiteResult]
    default_families: tuple[FamilySpec, ...]
    homology: bool  # whether the conclusion reads homology (reg, pd)


def _fam(**kw) -> FamilySpec:
    kw.setdefault("kind", "random_hypergraph")
    kw["filters"] = tuple(kw.get("filters", ()))
    return FamilySpec(**kw)


_GRAPHS4 = _fam(kind="all_graphs", n=4)
_RANDOM = _fam(n=6, max_edge_size=3, edge_count=4, seed=11, count=300)

# (name, hypotheses, conclusion, homology, statement, default families).
# A row's random family filters on the row's hypotheses but
# no_singleton_edges, which every drawn instance meets; the families are
# written out, since their filters appear in the report.
_TABLE = (
    ("theorem-main", ("c5_free", "three_cycle_condition"), _theorem_main, False,
     "on C5-free instances whose 3-cycles use only size-2 edges, "
     "a vertex is shedding iff it is codominated",
     (_fam(kind="all_graphs", n=4, filters=("c5_free",)),
      _fam(n=6, max_edge_size=3, edge_count=4, seed=11, count=300,
           filters=("c5_free", "three_cycle_condition")))),
    ("lemma-codominated", (), _lemma_codominated, False,
     "every codominated vertex is a shedding vertex",
     (_GRAPHS4, _RANDOM)),
    ("graph-cc", ("graph",), _graph_cc, False,
     "on graphs the induced and semi-induced matching numbers agree",
     (_fam(kind="all_graphs", n=5),)),
    ("lemma-dim", (), _lemma_dim, False,
     "c <= c' <= dim+1, with a greedy independent set of size >= c'",
     (_GRAPHS4, _RANDOM)),
    ("prop-mh", ("uniform", "strong_intersection"), _prop_mh, True,
     "on d-uniform strong-intersection instances c <= c' <= m, "
     "maximal matchings are 2-collages, and c <= reg <= m",
     (_fam(kind="all_graphs", n=4),
      _fam(n=6, max_edge_size=3, edge_count=3, seed=23, count=600,
           filters=("d_uniform_strong",)))),
    ("prop-cd", (), _prop_cd, False,
     "c <= d <= d', and c' <= d' when no two edges share two vertices",
     (_GRAPHS4, _RANDOM)),
    ("theorem-reg", ("c2_free", "c5_free", "vertex_decomposable"), _theorem_reg, True,
     "on (C2,C5)-free vertex-decomposable instances reg <= c' <= dim+1",
     (_fam(kind="all_graphs", n=5, filters=("c5_free", "vertex_decomposable")),
      _fam(n=6, max_edge_size=3, edge_count=4, seed=31, count=300,
           filters=("c2_free", "c5_free", "vertex_decomposable")))),
    ("theorem-pd", ("no_singleton_edges", "vertex_decomposable"), _theorem_pd, True,
     "on vertex-decomposable instances with no singleton edges, pd <= d'",
     (_fam(kind="all_graphs", n=4, filters=("vertex_decomposable",)),
      _fam(n=6, max_edge_size=3, edge_count=4, seed=37, count=300,
           filters=("vertex_decomposable",)))),
    ("theorem-final", ("graph", "vertex_decomposable"), _theorem_final, True,
     "on vertex-decomposable graphs bigheight = pd = d', with a minimal "
     "cover inside the optimal flower set",
     (_fam(kind="all_graphs", n=5, filters=("vertex_decomposable",)),)),
    ("corollary-codis", ("c5_free", "three_cycle_condition", "vertex_decomposable"),
     _corollary_codis, False,
     "C5-free vertex-decomposable instances with size-2-edge 3-cycles "
     "are codismantlable",
     (_fam(kind="all_graphs", n=4, filters=("c5_free", "vertex_decomposable")),
      _fam(n=6, max_edge_size=3, edge_count=4, seed=41, count=300,
           filters=("c5_free", "three_cycle_condition", "vertex_decomposable")))),
    ("lemmas-dprime", ("no_singleton_edges",), _lemmas_dprime, False,
     "with no singleton edges, at a shedding x, d'(H/x) <= d'(H) and d'(H\\x)+1 <= d'(H)",
     (_GRAPHS4, _fam(n=6, max_edge_size=3, edge_count=4, seed=43, count=200))),
    ("recursion-pd", ("vertex_decomposable",), _recursion_pd, True,
     "at a shedding vertex of a vertex-decomposable instance, "
     "pd = max(pd(deletion)+1, pd(contraction))",
     (_fam(kind="all_graphs", n=4, filters=("vertex_decomposable",)),
      _fam(n=6, max_edge_size=3, edge_count=4, seed=47, count=200,
           filters=("vertex_decomposable",)))),
    ("recursion-reg", ("vertex_decomposable",), _recursion_reg, True,
     "at a shedding vertex of a vertex-decomposable instance, "
     "reg <= max(reg(deletion), reg(contraction)+1)",
     (_fam(kind="all_graphs", n=4, filters=("vertex_decomposable",)),
      _fam(n=6, max_edge_size=3, edge_count=4, seed=53, count=200,
           filters=("vertex_decomposable",)))),
)

SUITES: dict[str, Suite] = {
    name: Suite(name, statement, partial(_check, hypotheses, conclusion), families, homology)
    for name, hypotheses, conclusion, homology, statement, families in _TABLE
}


def get_suite(name: str) -> Suite:
    if name not in SUITES:
        raise HyperinvError(f"unknown suite {name!r}; have {sorted(SUITES)}")
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


def _run_shard(name: str, fams: Sequence[FamilySpec], shard: int, jobs: int) -> list[tuple]:
    """The (family, index, instance, result) rows of one shard of every family."""
    check = get_suite(name).check
    out = []
    for fi, spec in enumerate(fams):
        check_filters(spec.filters)  # an unknown filter is an input error, before any draw
        # the filters run per instance, so that a cap hit in one omits the instance
        for idx, h in stream(replace(spec, filters=()), shard, jobs):
            try:
                if not passes_filters(h, spec.filters):
                    continue
                res = check(h).to_json_obj()
            except SearchLimitExceeded as exc:
                res = {"omitted": str(exc)}
            out.append((fi, idx, h, res))  # serialized only as a counterexample
    return out


def _fork_shards(name: str, fams: Sequence[FamilySpec], workers: int) -> list[tuple]:
    """The rows of every shard, shard s run in forked child s.  The lowest failed
    shard's exception is raised here; every child is killed and reaped first."""
    import pickle
    import signal
    import traceback

    children = []  # (pid, read end of its pipe)
    try:
        for shard in range(workers):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # leave through os._exit: no atexit hooks, no inherited buffers
                    os.close(r)
                    try:
                        out = _run_shard(name, fams, shard, workers)
                    except BaseException as exc:
                        out = (exc, traceback.format_exc())
                    with open(w, "wb") as fh:
                        pickle.dump(out, fh)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        rows = []
        for pid, fh in children:
            try:
                out = pickle.load(fh)
            except Exception:  # the child died first, or its exception does not pickle
                raise RuntimeError(f"verify worker {pid} exited without a report") from None
            if isinstance(out, tuple):  # the child's exception, and its traceback there
                raise out[0] from RuntimeError(f"in verify worker {pid}:\n{out[1]}")
            rows += out
        return rows
    finally:
        for pid, fh in children:
            os.kill(pid, signal.SIGKILL)  # harmless to a child that has sent its rows
            fh.close()
            os.waitpid(pid, 0)


def _indented_json(obj) -> str:
    """The text of ``report_text``'s ``json.dumps`` call for str keys and
    str, int, bool, None, list, tuple and dict values, in one pass: before
    Python 3.13 that call runs the pure-Python encoder, one generator
    frame per nesting level.  A list of only str or only int items is one
    join.  Any other type raises ``TypeError``."""
    out: list[str] = []
    put = out.append

    def write(v, pad: str) -> None:
        if isinstance(v, str):
            put(_quote(v))
        elif v is None:
            put("null")
        elif v is True:
            put("true")
        elif v is False:
            put("false")
        elif isinstance(v, int):
            put(int.__repr__(v))
        elif isinstance(v, dict):
            if not v:
                put("{}")
                return
            inner = pad + "  "
            lead, sep = "{\n" + inner, ",\n" + inner
            for k in sorted(v):
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                put(lead + _quote(k) + ": ")
                write(v[k], inner)
                lead = sep
            put("\n" + pad + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                put("[]")
                return
            inner = pad + "  "
            sep = ",\n" + inner
            if all(type(x) is str for x in v):
                put("[\n" + inner + sep.join(map(_quote, v)) + "\n" + pad + "]")
            elif all(type(x) is int for x in v):
                put("[\n" + inner + sep.join(map(int.__repr__, v)) + "\n" + pad + "]")
            else:
                lead = "[\n" + inner
                for x in v:
                    put(lead)
                    write(x, inner)
                    lead = sep
                put("\n" + pad + "]")
        else:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    write(obj, "")
    return "".join(out)


def report_text(obj) -> str:
    """Every indented report's text, ``json.dumps(obj, indent=2,
    sort_keys=True)``.  From Python 3.13 the C encoder honours ``indent``
    and is faster than ``_indented_json``, so it writes the text there."""
    if sys.version_info >= (3, 13):
        return json.dumps(obj, indent=2, sort_keys=True)
    return _indented_json(obj)


def write_json(path: str, obj) -> None:
    """Write obj as stable JSON; a failed write is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(report_text(obj) + "\n")
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
    if jobs < 1:
        raise HyperinvError(f"jobs must be at least 1, not {jobs}")
    fams = suite.default_families if families is None else tuple(families)
    if not fams:
        raise HyperinvError("the family list is empty")
    # one shard per worker, and no more workers than the CPUs this process may use
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, cpus) if hasattr(os, "fork") else 1
    rows = _run_shard(name, fams, 0, 1) if workers == 1 else _fork_shards(name, fams, workers)
    rows.sort(key=lambda r: (r[0], r[1]))
    omitted = tuple(
        {"family": fi, "index": idx, "reason": res["omitted"]}
        for fi, idx, _, res in rows
        if "omitted" in res
    )
    rows = [r for r in rows if "omitted" not in r[3]]

    if self_test:
        # planted comparator fault: flip the first evaluated verdict
        for i, (fi, idx, h, res) in enumerate(rows):
            if res["hypotheses_hold"]:
                res = dict(res, conclusion_holds=False,
                           details=dict(res["details"], planted_fault=True))
                rows[i] = (fi, idx, h, res)
                break

    tested = len(rows)
    passed = sum(1 for r in rows if r[3]["hypotheses_hold"])
    counterexamples = tuple(
        {
            "family": fi,
            "index": idx,
            "instance": h.to_json_obj(),
            "statement": suite.statement,
            "details": res["details"],
        }
        for fi, idx, h, res in rows
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
