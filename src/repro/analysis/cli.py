"""``python -m repro.analysis`` — the analysis command line.

Four subcommands::

    python -m repro.analysis lint [paths...] [--json] [--select IDS]
                                  [--fix]
    python -m repro.analysis verify [paths...] [--json] [--sizes N,M]
    python -m repro.analysis conformance [names...] [--json]
    python -m repro.analysis rules

``lint`` runs the per-module AST pattern rules; ``verify`` runs the
flow-sensitive verifier (symbolic comm graph + crypto taint,
MPI1xx/CRY1xx); ``conformance`` diffs the verifier's predicted comm
graph against recorded golden traces.  All exit 0 when clean, 1 when
findings (or divergence) were reported, 2 on usage errors.

Default lint paths cover the tree the repo promises to keep clean
(``src/repro`` and ``examples``); default verify paths are the
rank-program trees (:data:`repro.analysis.dataflow.VERIFY_PATHS`).
Every finding fails the run; a deliberate exception is suppressed at
its line with a ``# lint-ok: ID`` comment.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.findings import all_rules
from repro.analysis.linter import lint_paths

DEFAULT_PATHS = ("src/repro", "examples")


def _emit_findings(findings, args, *, extra: dict | None = None) -> int:
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    if args.json:
        payload = {
            "findings": [f.to_dict() for f in findings],
            "counts": {"error": errors, "warning": warnings},
        }
        if extra:
            payload.update(extra)
        print(json.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding.format(with_hint=not args.no_hints))
        if findings:
            print(f"\n{len(findings)} finding(s): {errors} error(s), "
                  f"{warnings} warning(s)")
        else:
            print("clean: no findings")
    return 1 if findings else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    selected = None
    if args.select:
        selected = {part.strip() for chunk in args.select
                    for part in chunk.split(",") if part.strip()}
        known = {r.id for r in all_rules()}
        unknown = selected - known
        if unknown:
            print(f"unknown rule ids: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    paths = args.paths or list(DEFAULT_PATHS)
    if args.fix:
        from repro.analysis.autofix import fix_paths

        fixed = fix_paths(paths)
        for filename in sorted(fixed):
            print(f"fixed {filename}: {fixed[filename]} rewrite(s)")
        if not args.json and fixed:
            print(f"{sum(fixed.values())} fix(es) in {len(fixed)} "
                  f"file(s); re-linting")
    return _emit_findings(lint_paths(paths, rules=selected), args)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.dataflow import DEFAULT_SIZES, VERIFY_PATHS, \
        verify_paths

    sizes = DEFAULT_SIZES
    if args.sizes:
        try:
            sizes = tuple(sorted({int(part) for part in
                                  args.sizes.split(",") if part.strip()}))
        except ValueError:
            print(f"bad --sizes {args.sizes!r} (want e.g. 2,4)",
                  file=sys.stderr)
            return 2
        if not sizes or any(n < 2 for n in sizes):
            print("--sizes wants world sizes >= 2", file=sys.stderr)
            return 2
    paths = args.paths or list(VERIFY_PATHS)
    result = verify_paths(paths, sizes=sizes)
    extra = {
        "programs": len(result.graphs),
        "notes": result.notes,
    }
    code = _emit_findings(result.findings, args, extra=extra)
    if not args.json and result.notes:
        for note in result.notes:
            print(f"note: {note}")
    return code


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.analysis.conformance import check_golden
    from repro.experiments.goldens import GOLDEN_RUNS

    names = sorted(args.names or GOLDEN_RUNS)
    reports = []
    for name in names:
        try:
            reports.append(check_golden(name))
        except KeyError:
            print(f"unknown golden {name!r} (goldens: "
                  f"{', '.join(sorted(GOLDEN_RUNS))})", file=sys.stderr)
            return 2
    ok = all(r.ok for r in reports)
    if args.json:
        print(json.dumps({
            "ok": ok,
            "goldens": [{
                "name": r.name,
                "nranks": r.nranks,
                "ok": r.ok,
                "unexplained_dynamic": [list(t) for t in
                                        r.unexplained_dynamic],
                "unrealized_static": [list(t) for t in
                                      r.unrealized_static],
                "internal_matches": r.internal_matches,
                "collective_agreement": r.collective_agreement,
            } for r in reports],
        }, indent=2))
    else:
        print("\n".join(r.format() for r in reports))
    return 0 if ok else 1


def _cmd_rules(args: argparse.Namespace) -> int:
    rules = all_rules()
    if args.json:
        print(json.dumps({"rules": [
            {"id": r.id, "title": r.title, "severity": r.severity,
             "scope": r.scope, "summary": r.summary, "hint": r.hint,
             "grounding": r.grounding} for r in rules
        ]}, indent=2))
        return 0
    for r in rules:
        engine = "verify" if r.scope == "program" else "lint"
        print(f"{r.id} [{r.severity}/{engine}] {r.title}")
        print(f"    {r.summary}")
    print(f"\n{len(rules)} rules; suppress with '# lint-ok: ID' on the "
          "line (or the comment line above), '# lint-ok-file: ID' for "
          "a file")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static misuse analysis for simulated-MPI programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="lint Python files or trees")
    lint.add_argument("paths", nargs="*",
                      help=f"files or directories (default: "
                           f"{' '.join(DEFAULT_PATHS)})")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable findings on stdout")
    lint.add_argument("--select", action="append", default=[],
                      metavar="IDS",
                      help="comma-separated rule ids to run (default all)")
    lint.add_argument("--fix", action="store_true",
                      help="apply mechanical fixes (MPI002, DET002) in "
                           "place before linting")
    lint.add_argument("--no-hints", action="store_true",
                      help="omit fix hints from text output")
    lint.set_defaults(fn=_cmd_lint)

    verify = sub.add_parser(
        "verify",
        help="flow-sensitive comm-graph + taint verification")
    verify.add_argument("paths", nargs="*",
                        help="files or directories (default: the "
                             "rank-program trees)")
    verify.add_argument("--json", action="store_true",
                        help="machine-readable findings on stdout")
    verify.add_argument("--sizes", metavar="N,M",
                        help="world sizes to verify at (default 2,4; "
                             "a '# verify-sizes:' pragma in a module "
                             "overrides this)")
    verify.add_argument("--no-hints", action="store_true",
                        help="omit fix hints from text output")
    verify.set_defaults(fn=_cmd_verify)

    conf = sub.add_parser(
        "conformance",
        help="diff predicted comm graphs against recorded golden traces")
    conf.add_argument("names", nargs="*",
                      help="golden names (default: every golden)")
    conf.add_argument("--json", action="store_true")
    conf.set_defaults(fn=_cmd_conformance)

    rules = sub.add_parser("rules", help="print the rule catalog")
    rules.add_argument("--json", action="store_true")
    rules.set_defaults(fn=_cmd_rules)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
