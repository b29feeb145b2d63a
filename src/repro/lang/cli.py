"""Command-line policy tooling: ``python -m repro.lang.cli <command>``.

Commands:

* ``lint <paths...>`` — run the full static-analysis framework
  (:mod:`repro.lang.passes`) and report diagnostics with stable
  ``OASxxx`` codes and source positions.  ``--format`` selects human
  text (caret excerpts), JSON, or SARIF 2.1.0 output; ``--select`` /
  ``--ignore`` filter by code; ``--strict`` makes warnings fail the
  build.  Exit status 1 on any error (or warning with ``--strict``).
* ``check <paths...>`` — another name for ``lint``: the same parser,
  options and output.
* ``verify <paths...>`` — whole-universe symbolic verification
  (:mod:`repro.lang.verify`): compile every policy into one
  cross-service rule graph and check privilege-flow properties
  (``--property``, repeatable; defaults to ``no-escalation`` and
  ``revocation-sound``).  ``--assume-revoked REF`` re-checks the
  post-revocation universe; refuted properties are reported as OAS1xx
  diagnostics with witness derivation trees.
* ``format <file>`` — print the canonical pretty-printed form (useful for
  normalising policies before review/diff).
* ``graph <paths...>`` — print the cross-service role dependency edges
  of the verifier's rule graph.
* ``reach <paths...>`` — print reachable and unreachable roles, from the
  same closure OAS004 and ``verify`` read.
* ``trace`` / ``metrics`` — observability demos (``repro.obs``): run a
  Fig. 5 revocation cascade under the tracing pipeline and print the
  causal trace tree / exported metric families.  Also reachable as
  ``python -m repro trace`` etc.

Exit status convention (lint/verify): 0 clean, 1 findings, 2 usage or
internal error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from ..core.exceptions import PolicyError
from .diagnostics import (
    Diagnostic,
    filter_diagnostics,
    render_excerpt,
    render_json,
    render_sarif,
    render_text,
)
from .loader import discover_policy_files, load_unit
from ..policy.parser import ParseError, parse_document
from ..policy.printer import format_document
from .passes import run_passes
from .universe import PolicyUniverse
from .verify import PropertyError, build_graph, run_fixpoint, verify_universe

__all__ = ["main"]


def _print_source_error(error: Exception) -> None:
    """Report a parse/compile failure with position and caret excerpt."""
    path = getattr(error, "path", None)
    line = getattr(error, "line", 0)
    column = getattr(error, "column", 0)
    message = getattr(error, "bare_message", None) or str(error)
    if path and line:
        print(f"{path}:{line}:{column}: error: {message}", file=sys.stderr)
    elif path:
        print(f"{path}: error: {message}", file=sys.stderr)
    else:
        print(f"error: {error}", file=sys.stderr)
        return
    if line:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                excerpt = render_excerpt(handle.read(), line, column)
        except OSError:
            excerpt = ""
        if excerpt:
            print(excerpt, file=sys.stderr)


class _UsageError(Exception):
    """A CLI usage problem already reported to stderr (exit status 2)."""


def _load_lint_units(paths: List[str]):
    """Discover, parse and deduplicate policy files for lint/verify.

    Returns ``(files, universe, diagnostics)`` where ``diagnostics`` holds
    the OAS000 findings for unparsable or duplicated files; the universe's
    ``sources`` keep an unparsable file's text too, so its finding is
    reported with a caret excerpt.  Raises
    :class:`_UsageError` (after printing) for empty path sets and I/O
    failures.
    """
    files: List[str] = []
    for path in paths:
        files.extend(discover_policy_files(path))
    if not files:
        print("error: no .oasis policy files found", file=sys.stderr)
        raise _UsageError

    units = []
    unparsed = {}
    diagnostics: List[Diagnostic] = []
    seen_services = {}
    for path in files:
        try:
            try:
                unit = load_unit(path, allow_unresolved=True)
            except (ParseError, PolicyError) as error:
                diagnostics.append(_parse_diagnostic(path, error))
                with open(path, "r", encoding="utf-8") as handle:
                    unparsed[path] = handle.read()
                continue
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            raise _UsageError from error
        if unit.service in seen_services:
            diagnostics.append(Diagnostic(
                "OAS000",
                f"service {unit.service} already defined by "
                f"{seen_services[unit.service]}",
                subject=str(unit.service), file=path))
            continue
        seen_services[unit.service] = path
        units.append(unit)
    universe = PolicyUniverse.from_units(units)
    universe.sources.update(unparsed)
    return files, universe, diagnostics


def _report(diagnostics: List[Diagnostic], universe: PolicyUniverse,
            args: argparse.Namespace, clean_message: str,
            tool_name: str) -> int:
    """Filter, render and turn diagnostics into an exit status."""
    try:
        diagnostics = filter_diagnostics(diagnostics, universe.sources,
                                         select=args.select,
                                         ignore=args.ignore)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(diagnostics))
    elif args.format == "sarif":
        print(render_sarif(diagnostics, tool_name=tool_name))
    else:
        report = render_text(diagnostics, universe.sources)
        if report:
            print(report)
        else:
            print(clean_message)

    worst = {d.severity for d in diagnostics}
    if "error" in worst:
        return 1
    if "warning" in worst and args.strict:
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    try:
        files, universe, diagnostics = _load_lint_units(args.paths)
    except _UsageError:
        return 2
    diagnostics.extend(run_passes(universe))
    return _report(diagnostics, universe, args,
                   f"lint: clean ({len(files)} file(s), "
                   f"{len(universe.files)} service(s))",
                   tool_name="oasis-policy-lint")


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        files, universe, diagnostics = _load_lint_units(args.paths)
    except _UsageError:
        return 2
    try:
        report = verify_universe(
            universe, args.property or (),
            assume_revoked=args.assume_revoked or (),
            max_delegation_depth=args.max_delegation_depth)
    except PropertyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    diagnostics.extend(report.diagnostics)
    clean = (f"verify: ok ({len(files)} file(s), "
             f"{len(report.graph.services)} service(s), "
             f"{len(report.properties)} propert"
             f"{'y' if len(report.properties) == 1 else 'ies'}, "
             f"{len(report.graph.atoms)} atoms, "
             f"{len(report.graph.edges)} rules, "
             f"{report.iterations} fixpoint iterations)")
    return _report(diagnostics, universe, args, clean,
                   tool_name="oasis-policy-verify")


def _parse_diagnostic(path: str, error: Exception) -> Diagnostic:
    from ..core.rules import SourceSpan

    line = getattr(error, "line", 0)
    column = getattr(error, "column", 0)
    span = SourceSpan(line, column, line, column + 1) if line else None
    message = getattr(error, "bare_message", None) or str(error)
    return Diagnostic("OAS000", message, subject=path, file=path, span=span)


def _cmd_format(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            document = parse_document(handle.read())
    except ParseError as error:
        error.path = args.file
        _print_source_error(error)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    output = format_document(document)
    if args.write:
        with open(args.file, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return 0


def _run_report(paths: List[str],
                report: Callable[[PolicyUniverse], None]) -> int:
    """Load ``paths`` as ``lint`` does and print ``report``; an unparsable
    or duplicated file is an OAS000 finding instead (exit 1)."""
    try:
        _, universe, diagnostics = _load_lint_units(paths)
    except _UsageError:
        return 2
    if diagnostics:
        print(render_text(diagnostics, universe.sources))
        return 1
    report(universe)
    return 0


def _print_graph(universe: PolicyUniverse) -> None:
    for prereq, dependent in build_graph(universe).role_edges():
        print(f"{prereq} -> {dependent}")


def _print_reach(universe: PolicyUniverse) -> None:
    closure = run_fixpoint(build_graph(universe))
    for role in universe.all_roles():
        marker = "reachable  " if closure.role_reachable(role) \
            else "UNREACHABLE"
        print(f"{marker}  {role}")


def _cmd_graph(args: argparse.Namespace) -> int:
    return _run_report(args.paths, _print_graph)


def _cmd_reach(args: argparse.Namespace) -> int:
    return _run_report(args.paths, _print_reach)


def _cmd_trace(args: argparse.Namespace) -> int:
    # Lazy: repro.obs.cli builds runtime worlds; plain policy tooling
    # should not import the whole runtime stack.
    from ..obs.cli import cmd_trace
    return cmd_trace(args)


def _cmd_metrics(args: argparse.Namespace) -> int:
    from ..obs.cli import cmd_metrics
    return cmd_metrics(args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lang.cli",
        description="OASIS policy tooling: lint (alias check), verify, "
                    "format, graph, reach — plus observability demos "
                    "(trace, metrics)")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser(
        "lint", aliases=["check"],
        help="static analysis with OASxxx diagnostics")
    lint.add_argument("paths", nargs="+")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="report format")
    lint.add_argument("--strict", action="store_true",
                      help="warnings also fail the build")
    lint.add_argument("--select", action="append", metavar="CODES",
                      help="only report these codes (comma-separated "
                           "OASxxx or slug names); repeatable")
    lint.add_argument("--ignore", action="append", metavar="CODES",
                      help="drop these codes; repeatable")
    lint.set_defaults(func=_cmd_lint)

    verify = sub.add_parser(
        "verify", help="whole-universe symbolic verification (OAS1xx)")
    verify.add_argument("paths", nargs="+")
    verify.add_argument("--property", action="append", metavar="PROP",
                        help="property to check: can-reach(CLASS, REF), "
                             "cannot-reach(CLASS, REF), no-escalation, "
                             "revocation-sound, delegation-depth<=K; "
                             "repeatable (default: no-escalation and "
                             "revocation-sound)")
    verify.add_argument("--assume-revoked", action="append", metavar="REF",
                        help="re-check reachability assuming this "
                             "credential (role/appointment reference) is "
                             "revoked; repeatable")
    verify.add_argument("--max-delegation-depth", type=int, metavar="K",
                        help="bound on appointment (delegation) steps to "
                             "any privilege")
    verify.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    verify.add_argument("--strict", action="store_true",
                        help="warnings also fail the build")
    verify.add_argument("--select", action="append", metavar="CODES",
                        help="only report these codes; repeatable")
    verify.add_argument("--ignore", action="append", metavar="CODES",
                        help="drop these codes; repeatable")
    verify.set_defaults(func=_cmd_verify)

    fmt = sub.add_parser("format", help="canonical pretty-print")
    fmt.add_argument("file")
    fmt.add_argument("--write", action="store_true",
                     help="rewrite the file in place")
    fmt.set_defaults(func=_cmd_format)

    graph = sub.add_parser("graph", help="print role dependency edges")
    graph.add_argument("paths", nargs="+")
    graph.set_defaults(func=_cmd_graph)

    reach = sub.add_parser("reach", help="reachability report")
    reach.add_argument("paths", nargs="+")
    reach.set_defaults(func=_cmd_reach)

    trace = sub.add_parser(
        "trace", help="run a demo revocation cascade under the tracing "
                      "pipeline and print its causal trace tree")
    trace.add_argument("--depth", type=int, default=16,
                       help="cascade chain depth (default 16, as Fig. 5)")
    trace.add_argument("--format", choices=("text", "json"),
                       default="text", help="rendering")
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="run demo scenarios and export the collected "
                        "metric families")
    metrics.add_argument("--depth", type=int, default=16,
                         help="cascade chain depth (default 16)")
    metrics.add_argument("--format", choices=("prometheus", "json"),
                         default="prometheus", help="export format")
    metrics.set_defaults(func=_cmd_metrics)

    # ``serve`` hosts services over TCP (repro.netd).  The subparser is
    # registered by the netd package; the import is local so the policy
    # tooling path stays importable without the runtime stack.
    from ..netd.cli import add_serve_parser
    add_serve_parser(sub)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as error:  # tool bug, not a finding: exit 2, not 1
        print(f"internal error: {type(error).__name__}: {error}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
