"""Diagnostics engine for policy static analysis.

The paper's policy-management thread ([1]) calls consistent deployment of
evolving cross-service policy "essential ... for any large-scale
deployment"; OASIS has no central role administration, so the deployment
pipeline is where consistency must be enforced.  This module gives the
analysis passes (:mod:`repro.lang.passes`) the machinery a CI gate needs:

* stable diagnostic codes (``OAS001``...) with default severities, so
  pipelines can select/ignore/baseline findings without string-matching
  messages;
* source spans (:class:`~repro.core.rules.SourceSpan`) threaded from the
  lexer through the compiler, so every finding points at the policy text
  a reviewer edits;
* inline suppression via ``# oasis: ignore[OASxxx]`` pragmas;
* pluggable reporters — human text with caret excerpts, JSON, and SARIF
  2.1.0 for code-scanning upload.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..core.rules import SourceSpan

__all__ = [
    "CodeInfo",
    "CODES",
    "CODES_BY_NAME",
    "Diagnostic",
    "RelatedLocation",
    "SEVERITY_ORDER",
    "collect_suppressions",
    "diagnostic_payload",
    "filter_diagnostics",
    "is_suppressed",
    "render_excerpt",
    "render_json",
    "render_sarif",
    "render_text",
]

SEVERITY_ORDER = {"error": 0, "warning": 1, "info": 2}


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    code: str        # "OAS001"
    name: str        # kebab-case slug, e.g. "range-restriction"
    severity: str    # default severity: "error" | "warning" | "info"
    summary: str     # one-line description for reporters / docs


_CODE_TABLE: Tuple[CodeInfo, ...] = (
    CodeInfo("OAS000", "parse-error", "error",
             "the policy file could not be parsed or compiled"),
    CodeInfo("OAS001", "range-restriction", "warning",
             "a head variable is not bound by any credential condition in "
             "the rule body"),
    CodeInfo("OAS002", "unknown-role", "error",
             "a prerequisite role is not defined by the service it names"),
    CodeInfo("OAS003", "unissuable-appointment", "error",
             "no appointment rule of the named issuer can issue the "
             "required certificate"),
    CodeInfo("OAS004", "unreachable-role", "error",
             "no combination of reachable roles and issuable appointments "
             "satisfies any activation rule for the role"),
    CodeInfo("OAS005", "prerequisite-cycle", "error",
             "mutually prerequisite roles can never be activated"),
    CodeInfo("OAS006", "passive-dependency", "warning",
             "a credential condition outside the membership rule survives "
             "revocation of that credential"),
    CodeInfo("OAS007", "revocation-gap", "warning",
             "a membership prerequisite itself holds a credential only "
             "passively, so revocation does not cascade through it"),
    CodeInfo("OAS008", "duplicate-rule", "warning",
             "a rule is identical to an earlier rule for the same target"),
    CodeInfo("OAS009", "shadowed-rule", "warning",
             "a rule's conditions are a strict superset of another rule "
             "for the same target, so it can never grant anything new"),
    CodeInfo("OAS010", "arity-mismatch", "error",
             "a cross-service reference uses a role or appointment with "
             "the wrong number of parameters"),
    CodeInfo("OAS011", "type-mismatch", "warning",
             "a role or appointment parameter is used with conflicting "
             "constant types across rules"),
    CodeInfo("OAS012", "privilege-less-role", "info",
             "the role gates no method, appointment or other role"),
    # OAS1xx: whole-universe verification (repro.lang.verify) — properties
    # of the cross-service privilege-flow fixpoint, not of single rules.
    CodeInfo("OAS100", "property-refuted", "error",
             "a verification property stated over the policy universe "
             "does not hold"),
    CodeInfo("OAS101", "privilege-escalation", "error",
             "a principal class reaches a privilege no direct rule grants "
             "it, via an appointment chain crossing services"),
    CodeInfo("OAS102", "revocation-unsound", "warning",
             "a credential edge on a derivation path to a privilege is "
             "not covered by a membership condition, so revocation does "
             "not provably collapse the path"),
    CodeInfo("OAS103", "delegation-depth", "warning",
             "a privilege requires more delegation (appointment) steps "
             "than the stated bound allows"),
    CodeInfo("OAS104", "revocation-survivor", "info",
             "a privilege remains reachable after the assumed revocation, "
             "through passive conditions on the revoked credential"),
)

CODES: Dict[str, CodeInfo] = {info.code: info for info in _CODE_TABLE}
CODES_BY_NAME: Dict[str, CodeInfo] = {info.name: info
                                      for info in _CODE_TABLE}


@dataclass(frozen=True)
class RelatedLocation:
    """A secondary source location attached to a finding — e.g. one rule
    edge of a witness derivation tree."""

    message: str
    file: Optional[str] = None
    span: Optional[SourceSpan] = None


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding, anchored to policy source."""

    code: str                               # "OASxxx"
    message: str
    subject: str = ""                       # role / rule / service concerned
    severity: str = ""                      # defaults to the code's severity
    file: Optional[str] = None
    span: Optional[SourceSpan] = None
    notes: str = ""                         # multi-line detail (witness tree)
    related: Tuple[RelatedLocation, ...] = ()

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if not self.severity:
            object.__setattr__(self, "severity", CODES[self.code].severity)
        elif self.severity not in SEVERITY_ORDER:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def name(self) -> str:
        """The code's kebab-case slug, as the JSON report carries it and
        ``--select`` / ``--ignore`` accept it."""
        return CODES[self.code].name

    @property
    def location(self) -> str:
        parts = [self.file or "<policy>"]
        if self.span is not None:
            parts.append(f"{self.span.line}:{self.span.column}")
        return ":".join(parts)

    def __str__(self) -> str:
        subject = f" {self.subject}:" if self.subject else ""
        return (f"{self.location}: {self.severity}[{self.code}]"
                f"{subject} {self.message}")

    def sort_key(self) -> Tuple:
        span = self.span or SourceSpan(0, 0, 0, 0)
        return (SEVERITY_ORDER[self.severity], self.code, self.file or "",
                span.line, span.column, self.subject, self.message)


# -- inline suppression -------------------------------------------------------

_PRAGMA = re.compile(
    r"#\s*oasis:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s-]*)\])?")


def collect_suppressions(text: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> codes suppressed there.

    ``# oasis: ignore[OAS006]`` at the end of a line suppresses the listed
    codes for findings on that line; with no bracket it suppresses every
    code.  A pragma on a comment-only line applies to the *next* line
    (matching the usual linter idiom for statements too long to annotate
    in place).  The empty frozenset means "suppress everything".
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match is None:
            continue
        listed = match.group("codes")
        if listed is None:
            codes: FrozenSet[str] = frozenset()
        else:
            codes = frozenset(code.strip().upper()
                              for code in listed.split(",") if code.strip())
        target = lineno + 1 if line.strip().startswith("#") else lineno
        suppressions[target] = suppressions.get(target, frozenset()) | codes
        if not codes:
            suppressions[target] = frozenset()
    return suppressions


def is_suppressed(diagnostic: Diagnostic,
                  suppressions: Mapping[int, FrozenSet[str]]) -> bool:
    if diagnostic.span is None:
        return False
    codes = suppressions.get(diagnostic.span.line)
    if codes is None:
        return False
    return not codes or diagnostic.code in codes


def filter_diagnostics(diagnostics: Iterable[Diagnostic],
                       sources: Mapping[str, str],
                       select: Optional[Iterable[str]] = None,
                       ignore: Optional[Iterable[str]] = None,
                       ) -> List[Diagnostic]:
    """Apply inline suppressions and ``--select``/``--ignore`` filters.

    ``sources`` maps file path -> policy text (for pragma scanning);
    ``select``/``ignore`` take codes (``OAS006``) or slugs
    (``passive-dependency``), case-insensitively.
    """
    selected = _normalise_codes(select)
    ignored = _normalise_codes(ignore) or frozenset()
    by_file: Dict[str, Dict[int, FrozenSet[str]]] = {
        path: collect_suppressions(text) for path, text in sources.items()}
    kept = []
    for diagnostic in diagnostics:
        if selected is not None and diagnostic.code not in selected:
            continue
        if diagnostic.code in ignored:
            continue
        suppressions = by_file.get(diagnostic.file or "", {})
        if is_suppressed(diagnostic, suppressions):
            continue
        kept.append(diagnostic)
    return sorted(kept, key=Diagnostic.sort_key)


def _normalise_codes(codes: Optional[Iterable[str]]
                     ) -> Optional[FrozenSet[str]]:
    if codes is None:
        return None
    result = set()
    for raw in codes:
        for item in str(raw).split(","):
            item = item.strip()
            if not item:
                continue
            if item.upper() in CODES:
                result.add(item.upper())
            elif item.lower() in CODES_BY_NAME:
                result.add(CODES_BY_NAME[item.lower()].code)
            else:
                raise ValueError(f"unknown diagnostic code {item!r}")
    return frozenset(result) if result else None


# -- reporters ---------------------------------------------------------------

def render_excerpt(text: str, line: int, column: int,
                   end_line: Optional[int] = None,
                   end_column: Optional[int] = None,
                   indent: str = "    ") -> str:
    """The offending source line with a caret (or underline) beneath it."""
    lines = text.splitlines()
    if not 1 <= line <= len(lines):
        return ""
    source_line = lines[line - 1].replace("\t", " ")
    column = max(1, min(column, len(source_line) + 1))
    width = 1
    if end_column is not None and (end_line is None or end_line == line):
        width = max(1, min(end_column, len(source_line) + 1) - column)
    return (f"{indent}{source_line}\n"
            f"{indent}{' ' * (column - 1)}{'^' * width}")


def render_text(diagnostics: Iterable[Diagnostic],
                sources: Optional[Mapping[str, str]] = None) -> str:
    """Human-readable report: one header line per finding, plus a caret
    excerpt when the finding has a span and its source is available."""
    sources = sources or {}
    blocks = []
    for diagnostic in diagnostics:
        block = str(diagnostic)
        text = sources.get(diagnostic.file or "")
        if text and diagnostic.span is not None:
            span = diagnostic.span
            excerpt = render_excerpt(text, span.line, span.column,
                                     span.end_line, span.end_column)
            if excerpt:
                block += "\n" + excerpt
        if diagnostic.notes:
            block += "\n" + "\n".join(
                f"    | {line}" for line in diagnostic.notes.splitlines())
        blocks.append(block)
    return "\n".join(blocks)


def diagnostic_payload(diagnostic: Diagnostic) -> Dict[str, object]:
    """The JSON-reporter entry for one diagnostic."""
    entry: Dict[str, object] = {
        "code": diagnostic.code,
        "name": diagnostic.name,
        "severity": diagnostic.severity,
        "subject": diagnostic.subject,
        "message": diagnostic.message,
        "file": diagnostic.file,
    }
    if diagnostic.span is not None:
        entry["line"] = diagnostic.span.line
        entry["column"] = diagnostic.span.column
        entry["end_line"] = diagnostic.span.end_line
        entry["end_column"] = diagnostic.span.end_column
    if diagnostic.notes:
        entry["notes"] = diagnostic.notes
    if diagnostic.related:
        entry["related"] = [{
            "message": rel.message,
            "file": rel.file,
            "line": rel.span.line if rel.span else None,
            "column": rel.span.column if rel.span else None,
        } for rel in diagnostic.related]
    return entry


def render_json(diagnostics: Iterable[Diagnostic]) -> str:
    """Machine-readable JSON: ``{"version": 1, "diagnostics": [...]}``."""
    entries = [diagnostic_payload(d) for d in diagnostics]
    return json.dumps({"version": 1, "diagnostics": entries}, indent=2)


_SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                     "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def _sarif_region(span: SourceSpan) -> Dict[str, int]:
    # SARIF 2.1.0 requires line/column properties >= 1; parse errors can
    # carry column 0 ("unknown"), which must be clamped, not emitted.
    start_line = max(1, span.line)
    start_column = max(1, span.column)
    return {
        "startLine": start_line,
        "startColumn": start_column,
        "endLine": max(start_line, span.end_line),
        "endColumn": max(1, span.end_column),
    }


def _sarif_location(file: Optional[str], span: Optional[SourceSpan]
                    ) -> Dict[str, object]:
    location: Dict[str, object] = {
        "artifactLocation": {"uri": file or "<policy>"}}
    if span is not None:
        location["region"] = _sarif_region(span)
    return location


def render_sarif(diagnostics: Iterable[Diagnostic],
                 tool_version: str = "1.0.0",
                 tool_name: str = "oasis-policy-lint") -> str:
    """A SARIF 2.1.0 log, suitable for GitHub code-scanning upload."""
    rule_order = [info.code for info in _CODE_TABLE]
    rules = [{
        "id": info.code,
        "name": _pascal(info.name),
        "shortDescription": {"text": info.summary},
        "defaultConfiguration": {"level": _SARIF_LEVELS[info.severity]},
    } for info in _CODE_TABLE]
    results = []
    for diagnostic in diagnostics:
        text = (f"{diagnostic.subject}: " if diagnostic.subject
                else "") + diagnostic.message
        if diagnostic.notes:
            text += "\n" + diagnostic.notes
        result: Dict[str, object] = {
            "ruleId": diagnostic.code,
            "ruleIndex": rule_order.index(diagnostic.code),
            "level": _SARIF_LEVELS[diagnostic.severity],
            "message": {"text": text},
        }
        if diagnostic.file is not None:
            result["locations"] = [{
                "physicalLocation": _sarif_location(diagnostic.file,
                                                    diagnostic.span)}]
        if diagnostic.related:
            result["relatedLocations"] = [{
                "physicalLocation": _sarif_location(rel.file, rel.span),
                "message": {"text": rel.message},
            } for rel in diagnostic.related]
        results.append(result)
    log = {
        "$schema": _SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "version": tool_version,
                "informationUri":
                    "https://example.org/oasis-repro/policy-analysis",
                "rules": rules,
            }},
            "results": results,
        }],
    }
    return json.dumps(log, indent=2)


def _pascal(slug: str) -> str:
    return "".join(part.capitalize() for part in slug.split("-"))
