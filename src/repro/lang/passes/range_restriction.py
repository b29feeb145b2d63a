"""OAS001 — range restriction: head variables a rule body never binds.

A Horn-clause activation rule grounds its head parameters by unifying
body conditions against presented credentials.  Environmental constraints
cannot *bind* variables (the engine evaluates them against an already
ground substitution), so a head variable appearing in no credential
condition stays unbound: the engine then demands it in the activation
request (:class:`~repro.core.exceptions.ActivationDenied` otherwise).
That is the documented idiom for *empty* bodies (initial roles), but in a
conditional rule it is almost always an authorship slip — hence a
warning, not an error.
"""

from __future__ import annotations

from typing import Iterator

from ...core.rules import AppointmentCondition, PrerequisiteRole
from ..diagnostics import Diagnostic
from ..universe import PolicyUniverse

__all__ = ["run"]


def run(universe: PolicyUniverse) -> Iterator[Diagnostic]:
    for service, target, rule in universe.activation_rules():
        if not rule.conditions:
            continue        # initial-role idiom: parameters supplied at
            #                 activation time by design
        bound = set()
        for condition in rule.conditions:
            if isinstance(condition, (PrerequisiteRole,
                                      AppointmentCondition)):
                bound |= condition.variables()
        unbound = sorted(v.name for v in rule.head_variables() - bound)
        if unbound:
            names = ", ".join(unbound)
            yield Diagnostic(
                "OAS001",
                f"head variable(s) {names} are bound by no credential "
                f"condition in the body; every activation request must "
                f"supply them explicitly",
                subject=str(target), file=universe.file_of(service),
                span=rule.origin)
