"""Command-line front end.

Three commands: ``invariants`` computes every invariant of one instance,
``check`` evaluates a single pinned statement on one instance, and
``verify`` runs a statement suite over a whole instance family.

Exit codes: 0 success / no counterexample, 1 counterexample found,
2 input error or an unwritable output file, 3 search or size cap exceeded
(partial report emitted), 4 internal error (traceback on standard error).
Reports go to standard output as JSON with stable key order; a short
human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from typing import Optional

from .complexes import dimension
from .decomposition import theorem_main_report
from .errors import HyperinvError, SearchLimitExceeded
from .generators import FamilySpec, family_from_json
from .homological import parse_field
from .hypergraph import Hypergraph, c2_free, from_json, uniformity_profile
from .profile import profile_of
from .suites import SUITES, check_instance, run_suite, write_json

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

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


def cmd_invariants(args) -> int:
    h = _load_instance(args.path)
    field = parse_field(args.field)
    # Every invariant is read from the instance's profile, which the suite
    # checks below share.
    p = profile_of(h)
    report: dict = {"instance": h.to_json_obj()}

    report["structure"] = {
        "c2_free": c2_free(h),
        **p.hypotheses,
        "uniformity": uniformity_profile(h) if h.edges else None,
    }
    capped = isinstance(p.hypotheses["c5_free"], dict)  # the C5 search hit its cap

    def guarded(section: dict, key: str, compute) -> None:
        """``section[key] = compute()``, or an omission marker on a cap hit."""
        nonlocal capped
        try:
            section[key] = compute()
        except SearchLimitExceeded as exc:
            section[key] = {"omitted": str(exc)}
            capped = True

    def matchings() -> dict:
        minv = p.matchings
        witnesses = {k: w.as_labels(h) for k, w in minv.witnesses.items()}
        return {"c": minv.c, "c_prime": minv.c_prime, "m": minv.m, "witnesses": witnesses}

    def bouquets() -> dict:
        binv = p.bouquets
        witnesses = {k: w.to_json_obj(h) for k, w in binv.witnesses.items()}
        return {"d": binv.d, "d_prime": binv.d_prime, "witnesses": witnesses}

    guarded(report, "matchings", matchings)
    guarded(report, "bouquets", bouquets)
    guarded(report, "complex", lambda: {"kind": p.complex.kind, "dim": dimension(p.complex)})
    guarded(report, "covers",
            lambda: {"bigheight": p.covers.bigheight, "minimal_covers": p.covers.as_labels(h)})
    if args.skip_homology:
        report["homology"] = {"omitted": "skipped by flag"}
    else:
        guarded(report, "homology", lambda: p.betti(field).to_json_obj())
    guarded(report, "vertex_classification", lambda: theorem_main_report(h).to_json_obj())
    guarded(report, "codismantlable",
            lambda: {"order": list(p.codismantle_order.order)} if p.codismantle_order else None)

    checklist = report["theorems"] = {}
    for name in sorted(SUITES):
        if args.skip_homology and SUITES[name].homology:
            checklist[name] = {"omitted": "homology skipped"}
        else:
            guarded(checklist, name, lambda: check_instance(name, h).to_json_obj())

    _emit(report)
    m, hom = report["matchings"], report["homology"]
    summary = [f"c={m['c']} c'={m['c_prime']} m={m['m']}"] if "c" in m else []
    if "reg" in hom:
        summary.append(f"reg={hom['reg']} pd={hom['pd']}")
    print(f"invariants of {args.path}: " + "; ".join(summary), file=sys.stderr)
    return EXIT_CAP if capped else EXIT_OK


def cmd_check(args) -> int:
    h = _load_instance(args.path)
    try:
        res = check_instance(args.theorem, h)
    except SearchLimitExceeded as exc:
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
        write_json(args.out, obj)
    print(
        f"suite {args.suite}: {report.instances_tested} instances, "
        f"{report.hypotheses_passed} met hypotheses, "
        f"{len(report.counterexamples)} counterexamples, {len(report.omitted)} omitted "
        f"({report.elapsed:.2f}s)",
        file=sys.stderr,
    )
    for path in report.counterexample_files:
        print(f"counterexample written: {path}", file=sys.stderr)
    return report.exit_status


@functools.cache  # built once per process, on the first ``main`` call
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hyperinv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariants", help="compute all invariants of one instance")
    inv.add_argument("path")
    inv.add_argument("--field", default="q", help="coefficient field: q, f2, f<p>")
    inv.add_argument("--skip-homology", action="store_true")
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
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (HyperinvError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
