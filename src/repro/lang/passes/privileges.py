"""OAS012 — roles that gate nothing.

A role that appears in no authorization rule, appoints nothing and is
prerequisite to no other role confers no privilege: activating it costs
credential checks and an RMC issue for no effect.  Informational — such
roles are sometimes placeholders for policy still being rolled out — but
at the paper's "large-scale deployment" size they are dead weight worth
surfacing.
"""

from __future__ import annotations

from typing import Iterator, Set

from ...core.rules import PrerequisiteRole
from ...core.types import RoleName
from ..diagnostics import Diagnostic
from ..universe import PolicyUniverse

__all__ = ["run"]


def run(universe: PolicyUniverse) -> Iterator[Diagnostic]:
    gating: Set[RoleName] = {
        condition.template.role_name
        for _, _, rule in universe.all_rules()
        for condition in rule.conditions
        if isinstance(condition, PrerequisiteRole)}

    anchors = {}
    for _, target, rule in universe.activation_rules():
        anchors.setdefault(target, rule)
    for role in universe.all_roles():
        if role in gating:
            continue
        rule = anchors.get(role)
        yield Diagnostic(
            "OAS012",
            "role gates no method, appointment or other role",
            subject=str(role), file=universe.file_of(role.service),
            span=rule.origin if rule is not None else None)
