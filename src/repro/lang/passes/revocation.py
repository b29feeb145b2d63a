"""OAS006/OAS007 — the active-security revocation dataflow.

The paper's central mechanism is that role membership is *continuously*
conditioned on the membership rule: "the membership rule of a role
indicates which of the role activation conditions must remain true while
the role is active" (Abstract), and revocation cascades along the Fig. 1
dependency graph (Fig. 5).  Two things can silently break that cascade:

* OAS006 (*passive dependency*) — a credential condition left outside
  the membership rule: the role simply survives revocation of that
  credential.  Sometimes intended; usually a policy bug.
* OAS007 (*revocation gap*) — the transitive version, computed as a
  dataflow over membership edges: role ``R`` membership-depends on
  prerequisite ``S``, but some activation rule of ``S`` (or of a role
  further up the membership chain) holds a credential only passively.
  Revoking that credential deactivates nothing, so the cascade the
  author of ``R`` relied on never reaches ``R``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ...core.rules import (
    AppointmentCondition,
    Condition,
    PrerequisiteRole,
)
from ...core.types import RoleName
from ..diagnostics import Diagnostic
from ..universe import PolicyUniverse

__all__ = ["run"]


def _describe(condition: Condition) -> str:
    if isinstance(condition, PrerequisiteRole):
        return str(condition.template)
    assert isinstance(condition, AppointmentCondition)
    return f"appointment {condition.issuer}:{condition.name}"


def run(universe: PolicyUniverse) -> Iterator[Diagnostic]:
    # Per role: its passive credential conditions (description + the role
    # it names, when it names one), and the membership edges R -> S (S a
    # membership prerequisite of R).
    passive: Dict[RoleName, List[Tuple[str, Optional[RoleName]]]] = {}
    membership_edges: Dict[RoleName,
                           List[Tuple[RoleName, PrerequisiteRole]]] = {}

    for service, target, rule in universe.activation_rules():
        path = universe.file_of(service)
        for condition in rule.conditions:
            if not isinstance(condition, (PrerequisiteRole,
                                          AppointmentCondition)):
                continue
            if not condition.membership:
                what = _describe(condition)
                named = (condition.template.role_name
                         if isinstance(condition, PrerequisiteRole)
                         else None)
                passive.setdefault(target, []).append((what, named))
                yield Diagnostic(
                    "OAS006",
                    f"condition {what} is not in the membership rule: "
                    f"revoking that credential will NOT deactivate "
                    f"{target.name}",
                    subject=str(target), file=path, span=condition.origin)
            elif isinstance(condition, PrerequisiteRole):
                membership_edges.setdefault(target, []).append(
                    (condition.template.role_name, condition))

    # Dataflow: walk membership edges from each role; any ancestor with a
    # passive credential breaks the cascade for the roles below it.
    for start in sorted(membership_edges, key=str):
        visited: Set[RoleName] = {start}
        reported: Set[Tuple[RoleName, str]] = set()
        # (ancestor role, the membership condition of `start` that leads
        # towards it — where the finding is anchored)
        frontier: List[Tuple[RoleName, PrerequisiteRole]] = list(
            membership_edges[start])
        while frontier:
            ancestor, via = frontier.pop(0)
            if ancestor in visited:
                continue
            visited.add(ancestor)
            for what, named in passive.get(ancestor, ()):
                # A passive reference back to `start` itself is already
                # covered by OAS006 on the ancestor; a gap "to itself" is
                # meaningless.
                if named == start or (ancestor, what) in reported:
                    continue
                reported.add((ancestor, what))
                yield Diagnostic(
                    "OAS007",
                    f"membership of {start.name} depends on {ancestor}, "
                    f"but {ancestor.name} holds {what} only passively — "
                    f"revoking it will not cascade to {start.name}",
                    subject=str(start),
                    file=universe.file_of(start.service),
                    span=via.origin)
            for upstream, _ in membership_edges.get(ancestor, ()):
                frontier.append((upstream, via))
