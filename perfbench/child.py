"""One pass of one workload in a fresh interpreter (started by run.py).

The module-global memos of hyperinv survive across calls in a process, so
every pass starts cold in its own interpreter.  The pass builds its inputs,
reports when set-up ended, runs the timed region with a calibration
kernel timed before, between the segments of, and after it, checks the
outputs outside the timed region, and prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --jobs J
        --workdir DIR [--size full|min] [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The calibration kernel: a fixed pure-Python job in the style of the
# program (bitmask backtracking, dicts of frozensets, GF(2) elimination,
# small-int calls, tuple sorting) that shares no code with hyperinv.  Every
# pass times CAL_REPS reps of it just before and just after its timed
# region, and one rep between two segments of the region (workloads.Clock);
# run.py scales each segment by the kernel's speed on either side of it.
# One rep takes 35-60 ms on a 2-core x86-64 cloud VM, as fast as the
# machine is at that moment.
CAL_N = 29
CAL_REPS = 2


def _cal_graph() -> list[int]:
    rng = random.Random(20130523)
    adj = [0] * CAL_N
    for a in range(CAL_N):
        for b in range(a + 1, CAL_N):
            if rng.random() < 0.2:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


def _lowest_bit(m: int) -> int:
    return (m & -m).bit_length()


def _cal_kernel(adj: list[int]) -> int:
    """Maximal independent sets of a fixed graph, their size histogram and
    the GF(2) rank of their incidence vectors; then a loop of small calls,
    dict updates and tuple sorting."""
    sets = []

    def extend(chosen, cand, excl):
        if not cand and not excl:
            sets.append(chosen)
            return
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            extend(chosen | bit, cand & ~adj[v] & ~bit, excl & ~adj[v] & ~bit)
            cand &= ~bit
            excl |= bit

    extend(0, (1 << CAL_N) - 1, 0)
    sizes: dict[int, int] = {}
    for m in sets:
        key = frozenset(i for i in range(CAL_N) if m >> i & 1)
        sizes[len(key)] = sizes.get(len(key), 0) + 1
    pivots: dict[int, int] = {}
    for row in sorted(sets):
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    acc = 0
    for m in range(1, 40_000):
        acc += _lowest_bit(m) ^ (m >> 3 & 5)
    counts: dict[int, int] = {}
    for i in range(50_000):
        k = i * 7919 % 509
        counts[k] = counts.get(k, 0) + 1
    for r in range(10):  # short lists, so that the kernel adds nothing to peak_rss_mb
        acc += len(sorted((i & 7, i >> 3 & 7, i % 11) for i in range(r, 20_000, 10)
                          if i & 7 < i >> 3 & 7))
    return len(sets) + len(pivots) + len(sizes) + acc + len(counts)


def calibrate(adj: list[int], reps: int) -> list[float]:
    """Seconds of each of ``reps`` runs of the calibration kernel.

    The collector is off, so that the kernel's time does not depend on how
    many objects the program keeps alive.
    """
    times = []
    gc.disable()
    try:
        for _ in range(reps):
            t = time.perf_counter()
            _cal_kernel(adj)
            times.append(time.perf_counter() - t)
    finally:
        gc.enable()
    return times


def _import_hyperinv():
    sys.path.insert(0, SRC)
    import hyperinv

    if not os.path.abspath(hyperinv.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hyperinv imported from {hyperinv.__file__}, not {SRC}")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "min"), default="full")
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    _import_hyperinv()
    import workloads  # after hyperinv: it imports the package at module level

    build, run = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    try:
        inputs = build(args.seed, args.size, args.workdir)
        ready = time.monotonic()
        adj = _cal_graph()
        calibrate(adj, 1)  # warm-up: the first rep in a fresh interpreter runs slow
        # kernel seconds at the start and end of the region and between segments
        points = [statistics.median(calibrate(adj, CAL_REPS))]
        if args.setup_only:
            print(json.dumps({"ready": ready, "cal_points": points}))
            return 0

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        clock = workloads.Clock(lambda: points.extend(calibrate(adj, 1)))
        res = run(inputs, args.jobs, args.workdir, clock)
        points.append(statistics.median(calibrate(adj, CAL_REPS)))
        out = {
            "ready": ready,
            "cal_points": points,
            "segments": res.segments,
            "wall_s": sum(res.segments),
            "items": res.items,
            "outputs": [workloads.sha(o) if o is not None else None for o in res.outputs],
            "failures": res.failures,
            "item_ms": res.item_ms,
            "info": res.info,
            "rss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        }
        if tracer is not None:
            # snapshot first: the funnel below calls wrapped filters
            out["spans"] = {k: list(v) for k, v in tracer.stats.items()}
            out["counters"] = dict(tracer.counters, **workloads.memo_sizes())
            # outside the timed region, so it adds nothing to wall_s; the
            # other workloads draw no streams and report an empty funnel
            verify = args.workload.startswith("verify-")
            out["counters"].update(workloads.verify_funnel(inputs if verify else []))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
