"""Verification properties over the whole-universe fixpoint.

The property layer turns the closure computed by
:mod:`repro.lang.verify.fixpoint` into answers to the questions the
paper says must be decidable before deployment:

``can-reach(CLASS, TARGET)`` / ``cannot-reach(CLASS, TARGET)``
    Reachability of a role, appointment or privilege from an abstract
    principal class (``anyone``, or credentials joined with ``+``).
    Refutations are reported as **OAS100**.

``no-escalation``
    No privilege is reachable *only* through an appointment
    (delegation) chain crossing two or more services — i.e. no class
    reaches a privilege that no direct activation path grants it.
    Violations are **OAS101**.

``revocation-sound``
    Every credential edge on every derivation path to a privilege is
    covered by a membership condition, so the Fig. 5 runtime cascade
    provably collapses the path when any credential on it is revoked.
    Only *activation* edges count: authorization and appointment rules
    are point-in-time checks, re-evaluated at use.  Holes are **OAS102**.

``delegation-depth<=K``
    No privilege needs more than K appointment steps.  Violations are
    **OAS103**.

``--assume-revoked REF`` re-runs reachability in the post-revocation
universe and additionally reports privileges that *survive* the
revocation through passive conditions (**OAS104**).

Every refuted property carries a minimal witness derivation tree
(:mod:`repro.lang.verify.witness`) in the diagnostic's notes, and the
witness's rule edges as related locations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..diagnostics import Diagnostic, RelatedLocation
from ..universe import PolicyUniverse
from .fixpoint import FlowResult, run_fixpoint
from .graph import Atom, PolicyGraph, RuleEdge, build_graph
from .witness import (
    Witness,
    chain_depth,
    find_path_through,
    render,
    services_of,
    uses_appointment_edge,
    witness_for,
)

__all__ = [
    "Property",
    "PropertyError",
    "VerificationReport",
    "parse_class",
    "parse_property",
    "parse_ref",
    "verify_universe",
]

DEFAULT_PROPERTIES = ("no-escalation", "revocation-sound")


class PropertyError(ValueError):
    """A property or credential reference could not be parsed/resolved."""


@dataclass(frozen=True)
class Property:
    """One parsed verification property."""

    kind: str                  # "can-reach" | "cannot-reach" |
    #                            "no-escalation" | "revocation-sound" |
    #                            "delegation-depth"
    source: str                # the property as written
    subjects: FrozenSet[Atom] = frozenset()   # principal class ("anyone"=∅)
    target: Optional[Atom] = None
    bound: Optional[int] = None


@dataclass
class VerificationReport:
    """Outcome of one whole-universe verification run."""

    graph: PolicyGraph
    closure: FlowResult
    properties: Tuple[str, ...]
    revoked: FrozenSet[Atom] = frozenset()
    diagnostics: List[Diagnostic] = field(default_factory=list)
    iterations: int = 0        # fixpoint iterations across all closures
    fixpoint_runs: int = 0


# -- reference / property parsing --------------------------------------------

def _split_ref(rest: str, original: str) -> Tuple[str, str, Optional[int]]:
    if ":" not in rest:
        raise PropertyError(
            f"malformed reference {original!r}: expected "
            "'domain/service:name'")
    service, name = rest.rsplit(":", 1)
    arity: Optional[int] = None
    if "/" in name:
        name, _, arity_text = name.rpartition("/")
        if not arity_text.isdigit():
            raise PropertyError(
                f"malformed arity in reference {original!r}")
        arity = int(arity_text)
    if not service or not name:
        raise PropertyError(f"malformed reference {original!r}")
    return service, name, arity


def _resolve(graph: PolicyGraph, kinds: Sequence[str], service: str,
             name: str, arity: Optional[int], original: str) -> Atom:
    for kind in kinds:
        matches = sorted(
            atom for atom in graph.atoms
            if atom.kind == kind and str(atom.service) == service
            and atom.name == name
            and (arity is None or atom.arity == arity))
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            choices = ", ".join(f"{a.name}/{a.arity}" for a in matches)
            raise PropertyError(
                f"ambiguous reference {original!r}: qualify the arity "
                f"({choices})")
    raise PropertyError(
        f"unknown {' or '.join(kinds)} reference {original!r} "
        "in this universe")


def parse_ref(text: str, graph: PolicyGraph) -> Atom:
    """Resolve a credential/privilege reference against the universe.

    Forms: ``role domain/service:name``,
    ``appointment domain/service:name[/arity]``,
    ``domain/service.method`` (privilege), and bare
    ``domain/service:name`` (resolved as role, then appointment).
    """
    original = text
    text = text.strip()
    if text.startswith("role "):
        service, name, arity = _split_ref(text[5:].strip(), original)
        return _resolve(graph, ("role",), service, name, arity, original)
    if text.startswith("appointment "):
        service, name, arity = _split_ref(text[12:].strip(), original)
        return _resolve(graph, ("appointment",), service, name, arity,
                        original)
    if ":" in text:
        service, name, arity = _split_ref(text, original)
        return _resolve(graph, ("role", "appointment"), service, name,
                        arity, original)
    if "." in text:
        service, _, method = text.rpartition(".")
        return _resolve(graph, ("privilege",), service, method, None,
                        original)
    raise PropertyError(f"malformed reference {original!r}")


def parse_class(text: str, graph: PolicyGraph) -> FrozenSet[Atom]:
    """Parse a principal-class spec: ``anyone`` or refs joined by ``+``."""
    text = text.strip()
    if text == "anyone":
        return frozenset()
    parts = [part.strip() for part in text.split("+")]
    if not all(parts):
        raise PropertyError(f"malformed principal class {text!r}")
    return frozenset(parse_ref(part, graph) for part in parts)


_REACH = re.compile(r"^(can-reach|cannot-reach)\s*\(\s*(.+)\s*,"
                    r"\s*([^,]+?)\s*\)$")
_DEPTH = re.compile(r"^delegation-depth\s*<=\s*(\d+)$")


def parse_property(text: str, graph: PolicyGraph) -> Property:
    """Parse one ``--property`` argument."""
    source = text.strip()
    if source == "no-escalation":
        return Property("no-escalation", source)
    if source == "revocation-sound":
        return Property("revocation-sound", source)
    match = _DEPTH.match(source)
    if match:
        return Property("delegation-depth", source,
                        bound=int(match.group(1)))
    match = _REACH.match(source)
    if match:
        subjects = parse_class(match.group(2), graph)
        target = parse_ref(match.group(3), graph)
        return Property(match.group(1), source, subjects=subjects,
                        target=target)
    raise PropertyError(
        f"unrecognised property {source!r}: expected can-reach(...), "
        "cannot-reach(...), no-escalation, revocation-sound or "
        "delegation-depth<=K")


def _describe_class(subjects: FrozenSet[Atom], graph: PolicyGraph) -> str:
    if not subjects:
        return "anyone"
    return " + ".join(graph.signature(atom) for atom in sorted(subjects))


# -- witness plumbing --------------------------------------------------------

def _related_locations(witness: Witness) -> Tuple[RelatedLocation, ...]:
    related: List[RelatedLocation] = []

    def walk(node: Witness) -> None:
        if node.edge is not None:
            related.append(RelatedLocation(
                message=f"{node.edge.kind} rule: {node.edge.rule_text}",
                file=node.edge.file, span=node.edge.origin))
        for child in node.children:
            walk(child)

    walk(witness)
    return tuple(related)


def _witnessed(code: str, message: str, subject: str,
               witness: Witness, edge: Optional[RuleEdge]) -> Diagnostic:
    return Diagnostic(
        code=code, message=message, subject=subject,
        file=edge.file if edge is not None else None,
        span=edge.origin if edge is not None else None,
        notes=render(witness), related=_related_locations(witness))


# -- property checks ---------------------------------------------------------

def _check_reach(prop: Property, graph: PolicyGraph, closure: FlowResult,
                 revoked: FrozenSet[Atom],
                 diagnostics: List[Diagnostic]) -> None:
    assert prop.target is not None
    reached = closure.derivable(prop.target)
    who = _describe_class(prop.subjects, graph)
    suffix = ""
    if revoked:
        refs = ", ".join(str(atom) for atom in sorted(revoked))
        suffix = f" (assuming revocation of {refs})"
    if prop.kind == "can-reach" and not reached:
        diagnostics.append(Diagnostic(
            code="OAS100", subject=prop.source,
            message=(f"refuted: {who} cannot reach "
                     f"{prop.target}{suffix}"),
            file=graph.files.get(prop.target.service)))
    elif prop.kind == "cannot-reach" and reached:
        witness = witness_for(closure, prop.target)
        edge = closure.best.get(prop.target)
        diagnostic = _witnessed(
            "OAS100",
            f"refuted: {who} reaches {prop.target}{suffix}",
            prop.source, witness, edge)
        if diagnostic.file is None:
            diagnostic = Diagnostic(
                code=diagnostic.code, message=diagnostic.message,
                subject=diagnostic.subject,
                file=graph.files.get(prop.target.service),
                notes=diagnostic.notes, related=diagnostic.related)
        diagnostics.append(diagnostic)


def _check_no_escalation(graph: PolicyGraph, full: FlowResult,
                         base: FlowResult,
                         diagnostics: List[Diagnostic]) -> None:
    for privilege in graph.privileges():
        if not full.derivable(privilege) or base.derivable(privilege):
            continue
        witness = witness_for(full, privilege)
        services = services_of(witness)
        if len(services) < 2 or not uses_appointment_edge(witness):
            continue
        names = ", ".join(sorted(str(s) for s in services))
        edge = full.best.get(privilege)
        diagnostics.append(_witnessed(
            "OAS101",
            (f"reachable only through an appointment chain crossing "
             f"{len(services)} services ({names}); no direct "
             "activation path grants it"),
            str(privilege), witness, edge))


def _support_edges(graph: PolicyGraph, full: FlowResult,
                   root: Atom) -> List[RuleEdge]:
    """Every rule edge on some viable derivation path below ``root``."""
    seen: Set[Atom] = {root}
    stack = [root]
    edges: List[RuleEdge] = []
    while stack:
        atom = stack.pop()
        for edge in graph.edges_by_target.get(atom, ()):
            if not full.edge_viable(edge):
                continue
            edges.append(edge)
            for condition in edge.conditions:
                if condition.atom not in seen:
                    seen.add(condition.atom)
                    stack.append(condition.atom)
    return edges


def _check_revocation_sound(graph: PolicyGraph, full: FlowResult,
                            diagnostics: List[Diagnostic]) -> None:
    holes: Dict[Tuple[int, int], Tuple[RuleEdge, int, List[Atom]]] = {}
    for privilege in graph.privileges():
        if not full.derivable(privilege):
            continue
        for edge in _support_edges(graph, full, privilege):
            if edge.kind != "activation":
                continue
            for position, condition in enumerate(edge.conditions):
                if condition.membership:
                    continue
                key = (edge.index, position)
                if key not in holes:
                    holes[key] = (edge, position, [])
                holes[key][2].append(privilege)
    for key in sorted(holes):
        edge, position, privileges = holes[key]
        condition = edge.conditions[position]
        first = min(privileges)
        pins = find_path_through(full, first, edge)
        notes = ""
        related: Tuple[RelatedLocation, ...] = ()
        if pins is not None:
            witness = witness_for(full, first, pins)
            notes = render(witness)
            related = _related_locations(witness)
        names = ", ".join(str(p) for p in sorted(set(privileges)))
        diagnostics.append(Diagnostic(
            code="OAS102", subject=str(edge.target),
            message=(f"credential condition '{condition.label}' on the "
                     f"activation rule for {edge.target} is outside the "
                     f"membership rule, so revoking {condition.atom} "
                     f"does not collapse the derivation of {names}"),
            file=edge.file, span=condition.origin or edge.origin,
            notes=notes, related=related))


def _check_delegation_depth(graph: PolicyGraph, full: FlowResult,
                            bound: int,
                            diagnostics: List[Diagnostic]) -> None:
    for privilege in graph.privileges():
        if not full.derivable(privilege):
            continue
        depth = full.depth.get(privilege, 0)
        if depth <= bound:
            continue
        witness = witness_for(full, privilege)
        edge = full.best.get(privilege)
        diagnostics.append(_witnessed(
            "OAS103",
            (f"requires {depth} delegation (appointment) steps; the "
             f"stated bound is {bound} (shortest witness uses "
             f"{chain_depth(witness)})"),
            str(privilege), witness, edge))


def _check_survivors(graph: PolicyGraph, surviving: FlowResult,
                     strict: FlowResult, revoked: FrozenSet[Atom],
                     diagnostics: List[Diagnostic]) -> None:
    refs = ", ".join(str(atom) for atom in sorted(revoked))
    for privilege in graph.privileges():
        if not surviving.derivable(privilege):
            continue
        if strict.derivable(privilege):
            continue  # reachable without leaning on pre-revocation state
        witness = witness_for(surviving, privilege)
        edge = surviving.best.get(privilege)
        diagnostics.append(_witnessed(
            "OAS104",
            (f"still reachable after revocation of {refs}: passive "
             "conditions keep credentials issued before the revocation "
             "usable"),
            str(privilege), witness, edge))


# -- the runner --------------------------------------------------------------

def verify_universe(
    universe: PolicyUniverse,
    properties: Sequence[str] = (),
    *,
    assume_revoked: Sequence[str] = (),
    max_delegation_depth: Optional[int] = None,
) -> VerificationReport:
    """Compile the universe, run the fixpoint, check every property.

    With no explicit ``properties``, the default battery runs:
    ``no-escalation`` and ``revocation-sound`` (plus the depth check
    when ``max_delegation_depth`` is given, and the revocation-survivor
    check when ``assume_revoked`` is given).

    Raises :class:`PropertyError` for unparsable properties or
    references — a usage error, distinct from refuted properties.
    """
    graph = build_graph(universe)
    full = run_fixpoint(graph)
    report = VerificationReport(
        graph=graph, closure=full, properties=(),
        iterations=full.iterations, fixpoint_runs=1)

    revoked = frozenset(parse_ref(ref, graph) for ref in assume_revoked)
    report.revoked = revoked

    parsed = [parse_property(text, graph) for text in properties]
    if not parsed:
        parsed = [Property(kind, kind) for kind in DEFAULT_PROPERTIES]
    if max_delegation_depth is not None and not any(
            prop.kind == "delegation-depth" for prop in parsed):
        parsed.append(Property(
            "delegation-depth",
            f"delegation-depth<={max_delegation_depth}",
            bound=max_delegation_depth))
    report.properties = tuple(prop.source for prop in parsed)

    def closure_for(subjects: FrozenSet[Atom]) -> FlowResult:
        pre = run_fixpoint(graph, subjects)
        report.iterations += pre.iterations
        report.fixpoint_runs += 1
        if not revoked:
            return pre
        post = run_fixpoint(graph, subjects, revoked=revoked,
                            survivors=set(pre.cost))
        report.iterations += post.iterations
        report.fixpoint_runs += 1
        return post

    base: Optional[FlowResult] = None
    for prop in parsed:
        if prop.kind in ("can-reach", "cannot-reach"):
            closure = full if not (prop.subjects or revoked) \
                else closure_for(prop.subjects)
            _check_reach(prop, graph, closure, revoked,
                         report.diagnostics)
        elif prop.kind == "no-escalation":
            if base is None:
                base = run_fixpoint(graph, use_appointment_rules=False)
                report.iterations += base.iterations
                report.fixpoint_runs += 1
            _check_no_escalation(graph, full, base, report.diagnostics)
        elif prop.kind == "revocation-sound":
            _check_revocation_sound(graph, full, report.diagnostics)
        elif prop.kind == "delegation-depth":
            assert prop.bound is not None
            _check_delegation_depth(graph, full, prop.bound,
                                    report.diagnostics)

    if revoked:
        surviving = run_fixpoint(graph, revoked=revoked,
                                 survivors=set(full.cost))
        strict = run_fixpoint(graph, revoked=revoked)
        report.iterations += surviving.iterations + strict.iterations
        report.fixpoint_runs += 2
        _check_survivors(graph, surviving, strict, revoked,
                         report.diagnostics)

    report.diagnostics.sort(key=Diagnostic.sort_key)
    return report
