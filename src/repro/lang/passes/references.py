"""OAS002/OAS003/OAS010 — dangling cross-service references.

OASIS has no global schema: a rule may name any ``domain/service:role``
or appointment kind, and nothing at compile time guarantees the foreign
service defines it.  When the named service *is* part of the analysed
universe, the reference can be checked exactly:

* OAS002 — the prerequisite role is not defined by that service;
* OAS003 — no appointment rule of the issuer can issue the certificate;
* OAS010 — the role/appointment exists but is used with the wrong arity
  (parameterised roles, Sect. 2's ``treating_doctor(doc, pat)``).

References to services outside the universe are left alone — their
arities are "the foreign service's business", checked at presentation
time by unification.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from ...core.rules import AppointmentCondition, PrerequisiteRole
from ...core.types import ServiceId
from ..diagnostics import Diagnostic
from ..universe import PolicyUniverse

__all__ = ["run"]


def run(universe: PolicyUniverse) -> Iterator[Diagnostic]:
    services = set(universe.services)
    arities = universe.role_arities()
    issuable: Dict[Tuple[ServiceId, str], Set[int]] = {}
    for issuer, name, rule in universe.appointment_rules():
        issuable.setdefault((issuer, name), set()).add(len(rule.parameters))

    for service, subject, rule in universe.all_rules():
        path = universe.file_of(service)
        for condition in rule.conditions:
            if isinstance(condition, PrerequisiteRole):
                role = condition.template.role_name
                if role.service not in services:
                    continue
                used = condition.template.arity
                if role not in arities:
                    yield Diagnostic(
                        "OAS002",
                        f"prerequisite {role} is not defined by "
                        f"{role.service}",
                        subject=subject, file=path, span=condition.origin)
                elif arities[role] != used:
                    yield Diagnostic(
                        "OAS010",
                        f"prerequisite {role} used with {used} "
                        f"parameter(s), declared with arity "
                        f"{arities[role]}",
                        subject=subject, file=path, span=condition.origin)
            elif isinstance(condition, AppointmentCondition):
                if condition.issuer not in services:
                    continue
                key = (condition.issuer, condition.name)
                used = len(condition.parameters)
                if key not in issuable:
                    yield Diagnostic(
                        "OAS003",
                        f"no appointment rule issues "
                        f"{condition.issuer}:{condition.name}/{used}",
                        subject=subject, file=path, span=condition.origin)
                elif used not in issuable[key]:
                    declared = ", ".join(
                        str(a) for a in sorted(issuable[key]))
                    yield Diagnostic(
                        "OAS010",
                        f"appointment {condition.issuer}:{condition.name} "
                        f"used with {used} parameter(s), issued with "
                        f"arity {declared}",
                        subject=subject, file=path, span=condition.origin)
