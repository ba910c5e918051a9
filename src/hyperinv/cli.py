"""Command-line front end.

Three commands: ``invariants`` computes every invariant of one instance,
``check`` evaluates a single pinned statement on one instance, and
``verify`` runs a statement suite over a whole instance family.

Exit codes: 0 success / no counterexample, 1 counterexample found,
2 input error, 3 search or size cap exceeded (partial report emitted).
Reports go to standard output as JSON with stable key order; a short
human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .bouquets import bouquet_invariants
from .complexes import dimension, independence_complex
from .decomposition import is_codismantlable, theorem_main_report
from .errors import HyperinvError, SearchLimitExceeded, SizeLimitExceeded
from .generators import FamilySpec, family_from_json
from .homological import betti_table, parse_field
from .hypergraph import (
    Hypergraph,
    c2_free,
    find_cycle,
    from_json,
    minimal_vertex_covers,
    three_cycle_edge_condition,
    uniformity_profile,
)
from .matchings import matching_invariants
from .suites import SUITES, check_instance, run_suite

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_CAP = 3

_HOMOLOGY_SUITES = {"prop-mh", "theorem-reg", "theorem-pd", "theorem-final",
                    "recursion-pd", "recursion-reg"}


def _load_instance(path: str) -> Hypergraph:
    try:
        with open(path) as fh:
            return from_json(fh.read())
    except OSError as exc:
        raise HyperinvError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise HyperinvError(f"malformed instance file {path}: {exc}") from exc


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _guarded(fn, *args, **kwargs):
    """Run a computation; (value, None) or (omission marker, reason)."""
    try:
        return fn(*args, **kwargs), None
    except (SizeLimitExceeded, SearchLimitExceeded) as exc:
        return {"omitted": str(exc)}, str(exc)


def cmd_invariants(args) -> int:
    h = _load_instance(args.path)
    field = parse_field(args.field)
    capped = False
    report: dict = {"instance": h.to_json_obj()}

    c5, c5_err = _guarded(find_cycle, h, 5, cycle_limit=max(args.cycle_limit, 5))
    report["structure"] = {
        "c2_free": c2_free(h),
        "c5_free": (c5 is None) if c5_err is None else c5,
        "three_cycle_condition": three_cycle_edge_condition(h),
        "uniformity": uniformity_profile(h) if h.edges else None,
    }
    capped = capped or c5_err is not None

    minv, err = _guarded(matching_invariants, h, edge_cap=args.edge_cap)
    capped = capped or err is not None
    if err is None:
        report["matchings"] = {
            "c": minv.c,
            "c_prime": minv.c_prime,
            "m": minv.m,
            "witnesses": {k: w.as_labels(h) for k, w in minv.witnesses.items()},
        }
    else:
        report["matchings"] = minv

    binv, err = _guarded(bouquet_invariants, h, edge_cap=min(args.edge_cap, 12))
    capped = capped or err is not None
    if err is None:
        report["bouquets"] = {
            "d": binv.d,
            "d_prime": binv.d_prime,
            "witnesses": {k: w.to_json_obj(h) for k, w in binv.witnesses.items()},
        }
    else:
        report["bouquets"] = binv

    delta = independence_complex(h)
    dim = dimension(delta)
    report["complex"] = {"kind": delta.kind, "dim": dim}

    covers = minimal_vertex_covers(h)
    report["covers"] = {
        "bigheight": covers.bigheight,
        "minimal_covers": covers.as_labels(h),
    }

    if args.skip_homology:
        report["homology"] = {"omitted": "skipped by flag"}
    else:
        table, err = _guarded(betti_table, h, field)
        capped = capped or err is not None
        report["homology"] = table.to_json_obj() if err is None else table

    classes, err = _guarded(theorem_main_report, h)
    capped = capped or err is not None
    report["vertex_classification"] = classes.to_json_obj() if err is None else classes
    order, err = _guarded(is_codismantlable, h)
    capped = capped or err is not None
    if err is None:
        report["codismantlable"] = {"order": list(order.order)} if order else None
    else:
        report["codismantlable"] = order

    checklist = {}
    for name in sorted(SUITES):
        if args.skip_homology and name in _HOMOLOGY_SUITES:
            checklist[name] = {"omitted": "homology skipped"}
            continue
        res, err = _guarded(check_instance, name, h)
        capped = capped or err is not None
        checklist[name] = res.to_json_obj() if err is None else res
    report["theorems"] = checklist

    _emit(report)
    summary = []
    if isinstance(report["matchings"], dict) and "c" in report["matchings"]:
        summary.append(
            f"c={report['matchings']['c']} c'={report['matchings']['c_prime']} m={report['matchings']['m']}"
        )
    if isinstance(report["homology"], dict) and "reg" in report["homology"]:
        summary.append(f"reg={report['homology']['reg']} pd={report['homology']['pd']}")
    print(f"invariants of {args.path}: " + "; ".join(summary), file=sys.stderr)
    return EXIT_CAP if capped else EXIT_OK


def cmd_check(args) -> int:
    h = _load_instance(args.path)
    try:
        res = check_instance(args.theorem, h)
    except (SizeLimitExceeded, SearchLimitExceeded) as exc:
        _emit({"omitted": str(exc)})
        return EXIT_CAP
    _emit(res.to_json_obj())
    verdict = "hypotheses not satisfied" if not res.hypotheses_hold else (
        "holds" if res.conclusion_holds else "VIOLATED"
    )
    print(f"{args.theorem} on {args.path}: {verdict}", file=sys.stderr)
    if res.hypotheses_hold and res.conclusion_holds is False:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _parse_families(text: Optional[str]) -> Optional[list[FamilySpec]]:
    if text is None:
        return None
    obj = json.loads(text)
    if isinstance(obj, list):
        return [family_from_json(json.dumps(o)) for o in obj]
    return [family_from_json(text)]


def cmd_verify(args) -> int:
    families = _parse_families(args.family)
    report = run_suite(
        args.suite,
        families=families,
        jobs=args.jobs,
        self_test=args.self_test,
        out_dir=args.out_dir,
    )
    obj = report.to_json_obj()
    _emit(obj)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(
        f"suite {args.suite}: {report.instances_tested} instances, "
        f"{report.hypotheses_passed} met hypotheses, "
        f"{len(report.counterexamples)} counterexamples "
        f"({report.elapsed:.2f}s)",
        file=sys.stderr,
    )
    for path in report.counterexample_files:
        print(f"counterexample written: {path}", file=sys.stderr)
    return report.exit_status


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hyperinv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="compute all invariants of one instance")
    inv.add_argument("path")
    inv.add_argument("--field", default="q", help="coefficient field: q, f2, f<p>")
    inv.add_argument("--skip-homology", action="store_true")
    inv.add_argument("--edge-cap", type=int, default=20)
    inv.add_argument("--cycle-limit", type=int, default=7)
    inv.set_defaults(fn=cmd_invariants)

    chk = sub.add_parser("check", help="check one pinned statement on one instance")
    chk.add_argument("path")
    chk.add_argument("--theorem", required=True)
    chk.set_defaults(fn=cmd_check)

    ver = sub.add_parser("verify", help="run a verification suite over a family")
    ver.add_argument("suite")
    ver.add_argument("--family", help="family spec JSON (object or list of objects)")
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--out", help="also write the report JSON to this file")
    ver.add_argument("--out-dir", help="directory for counterexample files")
    ver.add_argument("--self-test", action="store_true",
                     help="plant a comparator fault; the run must fail")
    ver.set_defaults(fn=cmd_verify)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HyperinvError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
