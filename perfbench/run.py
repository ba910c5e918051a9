"""hyperinv benchmark: four workloads, end-to-end timings, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, metrics by name and unit
    python3 perfbench/run.py --self-check            # every workload at minimal size

Workloads (why each was chosen is in BENCHMARK.json):

- verify-defaults: ``run_suite`` for all 13 suites on their default families, jobs=1.
- verify-sharded: ``run_suite`` at jobs=2 on the n=8 theorem-reg and n=7
  corollary-codis acceptance streams; the only user of the process pool.
- hochster-n10: ``betti_table`` of random n=10 hypergraphs and of their
  Alexander duals (Terai round trip); homology-bound.
- invariants-combinatorial: ``hyperinv invariants --skip-homology`` through
  ``cli.main`` on instance files at n=9; no homology at all.

Measured runs (``--trace 0``) repeat identical passes until ``--seconds``
is used up.  Each pass is a fresh interpreter (child.py), because the
memos in ``complexes`` and ``homological`` survive across calls in a
process.

Times are given in reference seconds.  The speed of a small shared machine
swings by up to 60% within seconds to minutes, often within one pass,
which no number of passes averages away.  So every pass times a fixed
calibration kernel (child.py) just before its timed region, between the
region's segments (one suite, Betti table or ten reports each) and just
after it, and each segment is scaled by CAL_REF_S over the mean of the
kernel's times on either side of it.  A reference second is a second on
a machine where one rep of the kernel takes CAL_REF_S.  The kernel shares
no code with hyperinv, so a change to the program moves these times in
full.  On a 2-core x86-64 cloud VM, five verify-defaults runs whose
unscaled wall_s spread by 24% (IQR over median) spread by 0.8% scaled,
and hochster-n10 passes over five minutes went from a 17% to a 4% spread.

The exception is the pool of verify-sharded: it keeps both cores busy,
and a kernel on one core does not track its speed (scaling doubled its
spread between passes), so its wall_s and items_per_s stay in plain
seconds.  Its set-up runs on one core and is scaled like the others.
Reported values:

- setup_s: from spawning a pass's interpreter until hyperinv is imported
  and the inputs are built; median over at least MIN_SETUPS start-ups.
- wall_s: median over passes of the timed region.
- items_per_s: median over passes of items completed over the timed
  region.  An item is one instance checked (verify-*), one Betti table
  (hochster-n10) or one report (invariants-combinatorial).
- peak_rss_mb: median over passes of the largest resident set of the pass
  process or of any of its pool workers.

Item latency percentiles, failed_ratio, the unscaled wall time and the run
record (seed, nproc, Python version, commit, source digest, jobs) are
printed on the line before the result.  The traced run (``--trace 1``)
runs TRACE_PAIRS pairs of an untraced and a traced pass, all serial, and
reports per-layer call counts, self times (unscaled), memo sizes and the
instance funnel of the first traced pass, and the tracing overhead over
all pairs.  A run exits 1 if any item failed; a result is printed only
when every pass ran.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "hyperinv")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
DIGEST_EVERY_SEED = ("hochster-n10",)  # Betti tables do not depend on vertex labels

JOBS = {"verify-defaults": 1, "verify-sharded": 2, "hochster-n10": 1, "invariants-combinatorial": 1}
ITEM_TIMED = ("hochster-n10", "invariants-combinatorial")  # workloads that time each item
RECORD_METRICS = (("item_p50_ms", "ms"), ("item_p90_ms", "ms"), ("failed_ratio", "ratio"),
                  ("raw_wall_s", "s"))
CAL_REF_S = 0.050  # one rep of the calibration kernel, in seconds
MIN_SETUPS = 9
TRACE_PAIRS = 3  # a single pair's overhead ratio read anywhere from 0.7 to 1.3
SETUP_SPAWN_S = 0.4  # rough cost of one set-up-only pass, to budget the run
CHILD_TIMEOUT_S = 150

# Spans each workload was chosen to exercise: the traced self-check
# requires at least one call of each, so a wrapper that a rebind missed
# cannot read as a layer that was not used.
EXERCISED = {
    "verify-defaults": ("suites.run_suite", "suites.check", "generators.stream",
                        "complexes.vertex_decomposable", "homological.betti_table",
                        "bouquets.bouquet_invariants", "matchings.matching_invariants",
                        "hypergraph.maximal_independent_sets", "decomposition.theorem_main_report"),
    "verify-sharded": ("suites.run_suite", "suites.check", "generators.stream",
                       "complexes.vertex_decomposable", "hypergraph.find_cycle"),
    "hochster-n10": ("homological.betti_table", "homological.alexander_dual",
                     "homological.complex_to_hypergraph", "complexes.independence_complex"),
    "invariants-combinatorial": ("cli.cmd_invariants", "bouquets.bouquet_invariants",
                                 "hypergraph.maximal_independent_sets",
                                 "hypergraph.minimal_vertex_covers", "hypergraph.find_cycle",
                                 "matchings.matching_invariants",
                                 "decomposition.theorem_main_report"),
}


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


_child_ids = itertools.count(1)


def spawn(workload: str, seed: int, size: str, jobs: int,
          trace: int = 0, setup_only: bool = False) -> tuple[dict, float]:
    """Run one child pass; return its JSON line and its spawn time."""
    workdir = os.path.join(WORK, f"{os.getpid()}-{next(_child_ids)}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--jobs", str(jobs),
           "--trace", str(trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and any pool workers it started
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), t_spawn


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def check_pass(res: dict, workload: str, seed: int, size: str, digests: dict) -> list:
    """Failure reasons of one pass: its own checks plus the seed-0 digests."""
    failures = list(res["failures"])
    if size == "full" and (seed == DEFAULT_SEED or workload in DIGEST_EVERY_SEED):
        expected, got = digests[workload], res["outputs"]
        if len(got) != len(expected):
            failures.append(f"{len(got)} outputs, digest has {len(expected)}")
        failures += [f"item {i}: output differs from the recorded digest"
                     for i, (a, b) in enumerate(zip(got, expected)) if a is not None and a != b]
    return failures


def percentile_record(samples: list) -> dict:
    """p50 always; p90 only with at least ten samples beyond it."""
    if not samples:
        return {}
    rec = {"item_samples": len(samples), "item_p50_ms": statistics.median(samples)}
    if len(samples) >= 2:
        p90 = statistics.quantiles(samples, n=10)[-1]
        if sum(1 for s in samples if s > p90) >= 10:
            rec["item_p90_ms"] = p90
    return rec


def commit_hash() -> str | None:
    """HEAD of the checkout; None outside a git repository or without git."""
    # look no higher than the checkout, and read no configuration outside it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PKG)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC_PKG, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_record(workload: str, seed: int, trace: int, jobs: int, items: int,
               failures: list, **extra) -> dict:
    """What a run was (to match parent and change runs) and how its items fared."""
    failed = min(items, len(failures))
    record = dict({"workload": workload, "seed": seed, "trace": trace, "jobs": jobs,
                   "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                   "commit": commit_hash(), "source_digest": source_digest(),
                   "items": items, "failed": failed, "failed_ratio": failed / max(items, 1)},
                  **extra)
    if failures:
        record["failures"] = failures[:20]
    return record


def ref_wall(res: dict, jobs: int) -> float:
    """A pass's timed region in reference seconds: each segment scaled by
    the kernel's speed on either side of it.  A pool's region stays in
    plain seconds."""
    if jobs > 1:
        return res["wall_s"]
    p = res["cal_points"]
    return sum(seg * 2 * CAL_REF_S / (p[i] + p[i + 1]) for i, seg in enumerate(res["segments"]))


def measure(workload: str, seed: int, seconds: float, size: str, digests: dict) -> tuple[dict, dict]:
    """Untraced passes until the time is used; end-to-end values and the record."""
    jobs = JOBS[workload]
    start = time.monotonic()
    passes, setups, failures, item_ms = [], [], [], []
    while True:
        res, t_spawn = spawn(workload, seed, size, jobs)
        res["span_s"] = time.monotonic() - t_spawn
        res["ref_wall_s"] = ref_wall(res, jobs)
        setups.append((res["ready"] - t_spawn) * CAL_REF_S / res["cal_points"][0])
        failures += check_pass(res, workload, seed, size, digests)
        item_ms += [ms * res["ref_wall_s"] / res["wall_s"] for ms in res["item_ms"]]
        passes.append(res)
        per_pass = statistics.median(p["span_s"] for p in passes)
        setups_left = max(0, MIN_SETUPS - len(passes)) * SETUP_SPAWN_S
        if time.monotonic() - start + per_pass / 2 + setups_left >= seconds:
            break
    while len(setups) < MIN_SETUPS:
        res, t_spawn = spawn(workload, seed, size, jobs, setup_only=True)
        setups.append((res["ready"] - t_spawn) * CAL_REF_S / res["cal_points"][0])
    items = sum(p["items"] for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["ref_wall_s"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["ref_wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }
    return values, run_record(workload, seed, 0, jobs, items, failures, passes=len(passes),
                              raw_wall_s=statistics.median(p["wall_s"] for p in passes),
                              pass_walls_s=[p["wall_s"] for p in passes],
                              cal_ms=[statistics.median(p["cal_points"]) * 1e3 for p in passes],
                              setup_samples=len(setups), **percentile_record(item_ms))


def trace_run(workload: str, seed: int, size: str, digests: dict) -> tuple[dict, dict]:
    """TRACE_PAIRS pairs of an untraced and a traced serial pass; per-layer values."""
    import tracing

    pairs = [(spawn(workload, seed, size, 1)[0], spawn(workload, seed, size, 1, trace=1)[0])
             for _ in range(TRACE_PAIRS)]
    passes = [res for pair in pairs for res in pair]
    failures = []
    for res in passes:
        res["ref_wall_s"] = ref_wall(res, 1)
        failures += check_pass(res, workload, seed, size, digests)
    values = tracing.layer_values(pairs)
    return values, run_record(workload, seed, 1, 1, sum(res["items"] for res in passes),
                              failures, suites=pairs[0][1]["info"].get("suites", []))


def result_line(spec: dict, values: dict, record: dict, trace: int) -> dict:
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"{record['workload']}: no value for {missing}")
    return {"correct": record["failed"] == 0, "attempted": max(1, record["items"]),
            "failed": record["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metrics}}


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int,
            size: str = "full") -> tuple[dict, dict]:
    """Result line and run record of one run; the record is printed first."""
    digests = load_digests()
    if trace:
        values, record = trace_run(workload, seed, size, digests)
    else:
        values, record = measure(workload, seed, seconds, size, digests)
    print(json.dumps({"record": record}, sort_keys=True))
    return result_line(spec, values, record, trace), record


def spec_workloads(spec: dict) -> list:
    return [w["name"] for w in spec["workloads"]]


def _require(ok: bool, what) -> None:
    if not ok:
        raise BenchError(f"self-check failed: {what}")


def self_check(spec: dict) -> None:
    """Every workload at minimal size: metric names, units and values, the
    record fields, and the per-layer facts each workload was chosen for."""
    for w in spec_workloads(spec):
        for trace in (0, 1):
            line, record = run_one(spec, w, DEFAULT_SEED, 1, trace, size="min")
            want = spec["per_layer"] if trace else spec["end_to_end"]
            _require(set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys())
            _require(line["correct"] and line["failed"] == 0, (w, trace, record))
            _require(list(line["metrics"]) == [m["name"] for m in want], (w, trace))
            for m in want:
                got = line["metrics"][m["name"]]
                _require(got["unit"] == m["unit"], (w, m["name"], got))
                _require(isinstance(got["value"], (int, float)), (w, m["name"], got))
                _require(trace or got["value"] > 0, (w, m["name"], got))
            _require("failed_ratio" in record and "source_digest" in record, (w, record))
            if not trace and w in ITEM_TIMED:
                _require("item_p50_ms" in record, (w, "item_p50_ms"))
            if trace:
                v = {k: m["value"] for k, m in line["metrics"].items()}
                if w == "hochster-n10":
                    _require(v["homological.betti_table.self_s"] > v["trace.wall_s"] / 2, (w, v))
                if w == "invariants-combinatorial":
                    _require(v["homological.betti_table.calls"] == 0, (w, v))
                if w.startswith("verify-"):
                    _require(v["generators.raw_draws"] > 0 and v["generators.stream.self_s"] > 0, (w, v))
                for span in EXERCISED[w]:
                    _require(v[f"{span}.calls"] > 0, (w, span, "never called"))
            print(f"self-check {w} trace={trace}: ok", file=sys.stderr)
    # Without the program's sources the benchmark must fail, and print no result.
    bare = os.path.join(WORK, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", w,
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        _require(proc.returncode != 0 and '"metrics"' not in proc.stdout, proc)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("self-check: bare checkout fails without a result: ok", file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print(f"error: hyperinv sources not found under {os.path.dirname(SRC_PKG)}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = spec_workloads(spec)
    try:
        if args.self_check:
            self_check(spec)
            return 0
        if args.workload != "all":
            if args.workload not in names:
                print(f"error: unknown workload {args.workload!r}; have {names}", file=sys.stderr)
                return 2
            line, _ = run_one(spec, args.workload, args.seed, seconds, args.trace)
            print(json.dumps(line, sort_keys=True))
            return 0 if line["correct"] else 1
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in names:
            line, record = run_one(spec, w, args.seed, seconds, args.trace)
            for name, m in line["metrics"].items():
                print(f"{w:26s} {name:44s} {m['value']:>14.6g} {m['unit']}")
                total["metrics"][f"{w}/{name}"] = m
            # reported, not gated: item latency exists on two workloads only,
            # failed_ratio is 0 on a correct program, and raw_wall_s is
            # wall_s before scaling
            for name, unit in RECORD_METRICS:
                if name in record:
                    print(f"{w:26s} {name:44s} {record[name]:>14.6g} {unit}")
            total["correct"] = total["correct"] and line["correct"]
            total["attempted"] += line["attempted"]
            total["failed"] += line["failed"]
        print(json.dumps(total, sort_keys=True))
        return 0 if total["correct"] else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
