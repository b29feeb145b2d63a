"""OAS004/OAS005 — unreachable roles and prerequisite cycles.

Reads the one closure the verifier calls ``full``:
``run_fixpoint(build_graph(universe))`` with no assumptions (constraints
assumed satisfiable, credentials of services outside the universe
assumed obtainable, an in-universe appointment available only when one of
its appointment rules is itself derivable).  It over-approximates what
the runtime can grant, so an *unreachable* verdict is sound: no
principal, under any environment, can activate the role — and because
``verify`` and ``cli reach`` read the same closure, OAS004 on role R
holds exactly when ``cannot-reach(anyone, R)`` does.  Cycles are reported
separately because they have a distinct fix (break the cycle) from plain
unreachability (add an activation path).
"""

from __future__ import annotations

from typing import Dict, Iterator

from ...core.rules import ActivationRule
from ...core.types import RoleName
from ..diagnostics import Diagnostic
from ..universe import PolicyUniverse
from ..verify import build_graph, run_fixpoint

__all__ = ["run"]


def run(universe: PolicyUniverse) -> Iterator[Diagnostic]:
    graph = build_graph(universe)
    closure = run_fixpoint(graph)
    anchor: Dict[RoleName, ActivationRule] = {}
    for _, target, rule in universe.activation_rules():
        anchor.setdefault(target, rule)

    for role in universe.all_roles():
        if closure.role_reachable(role):
            continue
        rule = anchor.get(role)
        yield Diagnostic(
            "OAS004",
            "no combination of reachable roles and issuable "
            "appointments satisfies any activation rule",
            subject=str(role), file=universe.file_of(role.service),
            span=rule.origin if rule is not None else None)

    for cycle in graph.role_cycles():
        names = " -> ".join(str(role) for role in cycle)
        rule = anchor.get(cycle[0])
        yield Diagnostic(
            "OAS005",
            "mutually prerequisite roles can never be activated",
            subject=names, file=universe.file_of(cycle[0].service),
            span=rule.origin if rule is not None else None)
