"""OAS011 — cross-service parameter type inference and mismatch detection.

OASIS role parameters are untyped terms; the schema of a parametrised
role like ``treating_doctor(doc, pat)`` lives only in convention.  This
pass infers a type per (role, parameter position) — and per appointment
parameter position — from every *constant* the universe's rules supply
at that position, and flags positions used with conflicting constant
types (a string in one service's rule, a number in another's).  Variables
contribute no evidence; a position never constrained by a constant stays
unknown and is not reported.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ...core.rules import (
    AppointmentCondition,
    PrerequisiteRole,
)
from ...core.terms import Var
from ..diagnostics import Diagnostic
from ..universe import PolicyUniverse
from ..verify.graph import _type_name

__all__ = ["run"]


def run(universe: PolicyUniverse) -> Iterator[Diagnostic]:
    # (kind, identity..., position) -> first-seen type and example
    observations: Dict[Tuple, Dict[str, Tuple[object, str]]] = {}
    diagnostics: List[Diagnostic] = []

    def observe(key: Tuple, what: str, parameters, subject: str,
                file: Optional[str], span) -> None:
        for position, term in enumerate(parameters):
            if isinstance(term, Var):
                continue
            type_name = _type_name(term)
            if type_name is None:
                continue
            seen = observations.setdefault(key + (position,), {})
            if type_name in seen:
                continue
            if seen:
                other_type, (other_value, other_subject) = \
                    next(iter(seen.items()))
                diagnostics.append(Diagnostic(
                    "OAS011",
                    f"parameter {position + 1} of {what} is used as "
                    f"{type_name} ({term!r}) here but as {other_type} "
                    f"({other_value!r}) by {other_subject}",
                    subject=subject, file=file, span=span))
            seen[type_name] = (term, subject)

    def observe_body(rule, subject: str, path: Optional[str]) -> None:
        for condition in rule.conditions:
            if isinstance(condition, PrerequisiteRole):
                role = condition.template.role_name
                observe(("role", role), str(role),
                        condition.template.parameters,
                        subject, path, condition.origin)
            elif isinstance(condition, AppointmentCondition):
                observe(("appointment", condition.issuer, condition.name),
                        f"appointment {condition.issuer}:{condition.name}",
                        condition.parameters,
                        subject, path, condition.origin)

    for service, target, rule in universe.activation_rules():
        path = universe.file_of(service)
        observe(("role", target), str(target), rule.target.parameters,
                str(target), path, rule.origin)
        observe_body(rule, str(target), path)
    for service, method, rule in universe.authorization_rules():
        observe_body(rule, f"{service}:{method}()",
                     universe.file_of(service))
    for service, name, rule in universe.appointment_rules():
        path = universe.file_of(service)
        subject = f"appointment {service}:{name}"
        observe(("appointment", service, name), subject, rule.parameters,
                subject, path, rule.origin)
        observe_body(rule, subject, path)

    return iter(diagnostics)
