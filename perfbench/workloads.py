"""The four benchmark workloads: how each builds its inputs from the
workload seed, what its timed region runs, and how its outputs are checked.

Inputs depend only on (workload, seed, size); every pass of a run gets
the same inputs.  The verify workloads draw thousands of instances, so
their cost hardly depends on the seed.  hochster-n10 and
invariants-combinatorial time a few costly instances each, and drawing
fresh ones per seed made their cost differ by 12-25% (IQR over median)
between seeds; so their instance structures are drawn once, and the seed
relabels the vertices and reorders the edges.  Seed 0 is the default
seed: it runs the shipped default families unchanged, and its outputs
are compared byte for byte (by SHA-256) with ``digests.json``.  Betti
tables do not depend on vertex labels, so hochster-n10 is compared with
its digests at every seed.  Every seed is also checked against identities
that must hold whatever the inputs are.  Functions are looked up on their
modules at call time so that the traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from time import perf_counter

import hyperinv
import hyperinv.cli as cli
import hyperinv.complexes as complexes
import hyperinv.generators as generators
import hyperinv.homological as homological
import hyperinv.suites as suites

DEFAULT_SEED = 0
SEED_STRIDE = 1000  # family seed offset per workload seed; seed 0 keeps the shipped seeds


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Clock:
    """Times the segments of a pass's timed region.  Between two segments
    it runs ``between`` (a calibration rep, see child.py), whose time is
    left out of every segment."""

    def __init__(self, between) -> None:
        self.between = between
        self.segments: list[float] = []
        self._t = 0.0

    def start(self) -> None:
        self._t = perf_counter()

    def split(self) -> None:
        """End the current segment, run ``between``, start the next one."""
        self.segments.append(perf_counter() - self._t)
        self.between()
        self._t = perf_counter()

    def stop(self) -> None:
        self.segments.append(perf_counter() - self._t)


@dataclasses.dataclass
class PassResult:
    """One timed pass: outputs to digest, failure reasons, and item counts."""

    segments: list  # seconds of each segment of the timed region
    items: int
    outputs: list  # texts compared with the seed-0 digests; None when one raised
    failures: list  # one reason string per failed item
    item_ms: list  # per-item latency, on workloads that time each item
    info: dict = dataclasses.field(default_factory=dict)


# ---------------------------------------------------------------------------
# verify-defaults and verify-sharded


def _shift(spec, seed: int, size: str):
    if spec.kind == "random_hypergraph":
        spec = dataclasses.replace(spec, seed=spec.seed + SEED_STRIDE * seed)
        if size == "min":
            spec = dataclasses.replace(spec, count=min(spec.count, 20))
    elif spec.kind == "all_graphs" and size == "min":
        spec = dataclasses.replace(spec, n=min(spec.n, 3))
    return spec


def verify_defaults_inputs(seed: int, size: str, workdir: str) -> list:
    """Every suite on its shipped default families, in registry order."""
    return [(name, [_shift(f, seed, size) for f in suite.default_families])
            for name, suite in suites.SUITES.items()]


def verify_sharded_inputs(seed: int, size: str, workdir: str) -> list:
    """The acceptance-size streams of theorem-reg (n=8) and corollary-codis (n=7)."""
    spec = generators.FamilySpec
    reg = spec(kind="random_hypergraph", n=8, max_edge_size=3, edge_count=4, seed=81,
               count=600, filters=("c2_free", "c5_free", "vertex_decomposable"))
    codis = spec(kind="random_hypergraph", n=7, max_edge_size=3, edge_count=4, seed=91,
                 count=2000, filters=("c5_free", "three_cycle_condition", "vertex_decomposable"))
    return [("theorem-reg", [_shift(reg, seed, size)]),
            ("corollary-codis", [_shift(codis, seed, size)])]


def run_verify(inputs: list, jobs: int, workdir: str, clock: Clock) -> PassResult:
    """One run_suite call per suite, one segment each; an item is one instance checked."""
    reports, failures = [], []
    clock.start()
    for i, (name, fams) in enumerate(inputs):
        if i:
            clock.split()
        try:
            rep = suites.run_suite(name, families=fams, jobs=jobs, out_dir=workdir)
        except Exception as exc:  # a crash fails the suite's items, not the benchmark
            reports.append((name, None, repr(exc)))
        else:
            reports.append((name, rep, None))
    clock.stop()
    outputs, info = [], {"suites": []}
    for name, rep, err in reports:
        if rep is None:
            outputs.append(None)
            failures.append(f"{name}: raised {err}")
            continue
        text = json.dumps(rep.to_json_obj(), indent=2, sort_keys=True)
        outputs.append(text)
        info["suites"].append({"suite": name, "instances": rep.instances_tested,
                               "hypotheses_held": rep.hypotheses_passed,
                               "counterexamples": len(rep.counterexamples),
                               "exit_status": rep.exit_status})
        if rep.exit_status != 0 or rep.counterexamples:
            failures.extend(f"{name}: counterexample" for _ in range(max(1, len(rep.counterexamples))))
        if rep.hypotheses_passed == 0:
            failures.append(f"{name}: hypotheses never held (vacuous pass)")
    # An item is one instance checked; a suite that raised counts as one item.
    n_items = sum(s["instances"] for s in info["suites"]) + outputs.count(None)
    return PassResult(clock.segments, n_items, outputs, failures, [], info)


def verify_funnel(inputs: list) -> dict:
    """Instance funnel of every (suite, family) stream, from the public
    raw stream and filter table: raw draws, first rejecting filter, and
    draws with fewer edges than requested."""
    counts = {"generators.raw_draws": 0, "generators.short_draws": 0}
    for f in generators.FILTERS:
        counts[f"generators.filtered_out.{f}"] = 0
    for _name, fams in inputs:
        for spec in fams:
            for _idx, h in generators.raw_stream(spec):
                counts["generators.raw_draws"] += 1
                if spec.kind == "random_hypergraph" and len(h.edges) < spec.edge_count:
                    counts["generators.short_draws"] += 1
                for f in spec.filters:
                    if not generators.FILTERS[f](h):
                        counts[f"generators.filtered_out.{f}"] += 1
                        break
    return counts


# ---------------------------------------------------------------------------
# hochster-n10


def _antichain(rng: random.Random, n: int, edge_count: int, max_size: int) -> list[int]:
    """Exactly ``edge_count`` pairwise incomparable edges of size 2..max_size."""
    edges: list[int] = []
    while len(edges) < edge_count:
        m = 0
        for v in rng.sample(range(n), rng.randint(2, max_size)):
            m |= 1 << v
        if not any(e & m in (e, m) for e in edges):
            edges.append(m)
    return edges


def _relabel(rng: random.Random, n: int, edges: list[int]) -> list[int]:
    """The edges under a random permutation of the n vertices, in random order."""
    perm = rng.sample(range(n), n)
    out = [sum(1 << perm[v] for v in range(n) if e >> v & 1) for e in edges]
    rng.shuffle(out)
    return out


# The labelling sets the elimination order, which moved the cost of two
# instances by up to 30% between seeds; four average that out better.
HOCHSTER_INSTANCES = 4


def hochster_inputs(seed: int, size: str, workdir: str) -> list:
    """Random n=10 hypergraphs with 4 and 5 edges of size 2-3 (criterion-14 shape),
    relabelled by the seed."""
    n, per = (10, HOCHSTER_INSTANCES) if size == "full" else (6, 1)
    labels = [f"x{i + 1}" for i in range(n)]
    rng = random.Random(f"hochster-n10:{seed}")
    out = []
    for k in range(per):
        base = _antichain(random.Random(f"hochster-n10:base:{k}"), n, 4 + k % 2, 3)
        out.append(hyperinv.from_masks(labels, _relabel(rng, n, base)))
    return out


def _beta1_ok(h, table) -> bool:
    return all(table.entries.get((1, j), 0) == sum(1 for e in h.edges if e.bit_count() == j)
               for j in range(1, h.n + 1))


def run_hochster(inputs: list, jobs: int, workdir: str, clock: Clock) -> PassResult:
    """Betti table of each instance, then of its Alexander dual hypergraph;
    one segment, and one item, each."""
    rows = []
    clock.start()
    for k, h in enumerate(inputs):
        if k:
            clock.split()
        try:
            table = homological.betti_table(h)
        except Exception as exc:
            table = exc
        clock.split()
        try:
            delta = complexes.independence_complex(h)
            dual = homological.complex_to_hypergraph(homological.alexander_dual(delta))
            dual_table = homological.betti_table(dual)
        except Exception as exc:
            dual, dual_table = None, exc
        rows.append((h, table, dual, dual_table))
    clock.stop()
    outputs, failures = [], []
    for h, table, dual, dual_table in rows:
        for g, t, role in ((h, table, "primal"), (dual, dual_table, "dual")):
            if isinstance(t, Exception):
                outputs.append(None)
                failures.append(f"{role} Betti table raised {t!r}")
                continue
            outputs.append(json.dumps(t.to_json_obj(), sort_keys=True))
            if not _beta1_ok(g, t):
                failures.append(f"{role}: beta_1j differs from the edge-size counts")
        if not isinstance(table, Exception) and not isinstance(dual_table, Exception):
            if table.pd != dual_table.reg + 1:  # Terai: pd(H) = reg(dual) + 1
                failures.append(f"Terai duality fails: pd={table.pd} reg(dual)={dual_table.reg}")
    return PassResult(clock.segments, len(outputs), outputs, failures,
                      [s * 1e3 for s in clock.segments])


# ---------------------------------------------------------------------------
# invariants-combinatorial


INVARIANT_FILES = 60
REPORTS_PER_SEGMENT = 10  # about half a second


def invariants_inputs(seed: int, size: str, workdir: str) -> list:
    """Files of instances at n=9 with 10-12 edges of size 2..3 or 2..4,
    relabelled by the seed.  The edge count and size cap cycle with the
    item index."""
    n, per = (9, INVARIANT_FILES) if size == "full" else (6, 3)
    labels = [f"v{i + 1}" for i in range(n)]
    rng = random.Random(f"invariants-combinatorial:{seed}")
    out = []
    for i in range(per):
        base_rng = random.Random(f"invariants-combinatorial:base:{i}")
        if size == "full":
            base = _antichain(base_rng, n, 10 + i % 3, 3 + (i // 3) % 2)
        else:
            base = _antichain(base_rng, n, 4, 3)
        edges = _relabel(rng, n, base)
        obj = {"vertices": labels,
               "edges": [[labels[j] for j in range(n) if e >> j & 1] for e in edges]}
        path = os.path.join(workdir, f"instance-{i}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out.append(path)
    return out


def run_invariants(paths: list, jobs: int, workdir: str, clock: Clock) -> PassResult:
    """``hyperinv invariants --skip-homology`` through ``cli.main``, one report
    per file, REPORTS_PER_SEGMENT reports per segment."""
    outs, item_ms = [], []
    clock.start()
    for i, path in enumerate(paths):
        if i and i % REPORTS_PER_SEGMENT == 0:
            clock.split()
        out, err = io.StringIO(), io.StringIO()
        t = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["invariants", path, "--skip-homology"])
        except (Exception, SystemExit) as exc:
            rc = repr(exc)
        item_ms.append((perf_counter() - t) * 1e3)
        outs.append((rc, out.getvalue(), err.getvalue()))
    clock.stop()
    outputs, failures = [], []
    for path, (rc, text, err) in zip(paths, outs):
        outputs.append(text if rc == 0 else None)
        if rc != 0:
            failures.append(f"{os.path.basename(path)}: exit {rc}: {err.strip()[-200:]}")
    return PassResult(clock.segments, len(outputs), outputs, failures, item_ms)


# ---------------------------------------------------------------------------
# registry


# name -> (build(seed, size, workdir) -> inputs, run(inputs, jobs, workdir, clock) -> PassResult)
WORKLOADS = {
    "verify-defaults": (verify_defaults_inputs, run_verify),
    "verify-sharded": (verify_sharded_inputs, run_verify),
    "hochster-n10": (hochster_inputs, run_hochster),
    "invariants-combinatorial": (invariants_inputs, run_invariants),
}


def memo_sizes() -> dict:
    """Sizes of the module-global memos that survive across calls in one process."""
    def size(mod, attr):
        memo = getattr(mod, attr, None)
        return len(memo) if memo is not None else 0

    return {"homological.homology_memo_entries": size(homological, "_SUBGRAPH_HOMOLOGY_MEMO"),
            "complexes.vd_memo_entries": size(complexes, "_VD_MEMO")}
