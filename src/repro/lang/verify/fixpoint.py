"""Least-fixpoint privilege-flow analysis over the policy graph.

A Datalog-style bottom-up evaluation: starting from leaf assumptions
(the principal classes named in a property, plus credentials from
outside the universe), rule edges fire whenever all their credential
conditions are derivable, until no atom changes.  On top of bare
derivability the relaxation tracks, per atom:

* ``cost`` — the size of the cheapest derivation (number of tree nodes).
  Costs decrease monotonically and every rule edge adds at least 1, so
  the iteration terminates and the minimal-witness recursion in
  :mod:`repro.lang.verify.witness` is well founded (each child's cost is
  strictly below its parent's).
* ``depth`` — the minimum number of appointment edges on any derivation,
  i.e. how many delegation steps the principal class needs.  This is the
  quantity bounded by the ``delegation-depth<=K`` property.

Revocation is modelled statically: ``revoked`` atoms cannot be derived,
edges with a *membership* condition on a revoked atom are disabled (the
Fig. 5 cascade collapses them), while a *passive* condition on a revoked
atom survives only if the atom was derivable before revocation
(``survivors`` — the pre-revocation closure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from ...core.types import RoleName
from .graph import Atom, PolicyGraph, RuleEdge

__all__ = ["FlowResult", "run_fixpoint"]

#: How an atom became derivable.
RULE = "rule"          # via a rule edge (see FlowResult.best)
ASSUMED = "assumed"    # named leaf assumption of the query
EXTERNAL = "external"  # issued by a service outside the universe
PASSIVE = "passive"    # revoked, but held before revocation (survivor)


@dataclass
class FlowResult:
    """Closure of one fixpoint run, with provenance for witnesses."""

    graph: PolicyGraph
    assumptions: FrozenSet[Atom]
    use_appointment_rules: bool
    revoked: FrozenSet[Atom]
    survivors: FrozenSet[Atom]
    cost: Dict[Atom, int] = field(default_factory=dict)
    reason: Dict[Atom, str] = field(default_factory=dict)
    best: Dict[Atom, RuleEdge] = field(default_factory=dict)
    depth: Dict[Atom, int] = field(default_factory=dict)
    iterations: int = 0

    def derivable(self, atom: Atom) -> bool:
        return atom in self.cost

    def role_reachable(self, role: RoleName) -> bool:
        """Whether ``role``, declared by an analysed service, is
        derivable — what OAS004 and ``cli reach`` report."""
        return self.graph.defined_roles[role] in self.cost

    def condition_holds(self, atom: Atom, membership: bool) -> bool:
        """Whether an edge condition on ``atom`` is satisfied in this
        closure, honouring the static revocation model."""
        if atom in self.revoked:
            return not membership and atom in self.survivors
        return atom in self.cost

    def condition_cost(self, atom: Atom, membership: bool) -> int:
        if atom in self.revoked and not membership:
            return 1  # survivor leaf: the credential predates revocation
        return self.cost[atom]

    def edge_enabled(self, edge: RuleEdge) -> bool:
        if edge.target in self.revoked:
            return False
        if edge.kind == "appointment" and not self.use_appointment_rules:
            return False
        return True

    def edge_viable(self, edge: RuleEdge) -> bool:
        """Enabled and every credential condition satisfied."""
        return self.edge_enabled(edge) and all(
            self.condition_holds(c.atom, c.membership)
            for c in edge.conditions)


def run_fixpoint(
    graph: PolicyGraph,
    assumptions: FrozenSet[Atom] = frozenset(),
    *,
    use_appointment_rules: bool = True,
    revoked: FrozenSet[Atom] = frozenset(),
    survivors: Optional[Set[Atom]] = None,
) -> FlowResult:
    """Run the least-fixpoint analysis and return the closure.

    ``assumptions`` are the atoms the queried principal class is assumed
    to hold already.  ``use_appointment_rules=False`` removes every
    appointment rule from the graph — the *base* closure used by the
    escalation check (what is reachable without any delegation being
    exercised).  ``revoked``/``survivors`` implement ``--assume-revoked``
    as described in the module docstring.
    """
    result = FlowResult(
        graph=graph,
        assumptions=assumptions,
        use_appointment_rules=use_appointment_rules,
        revoked=revoked,
        survivors=frozenset(survivors or ()),
    )
    for atom in sorted(assumptions):
        if atom in revoked:
            continue
        result.cost[atom] = 1
        result.reason[atom] = ASSUMED
        result.depth[atom] = 0
    for atom in sorted(graph.external):
        if atom in revoked or atom in result.cost:
            continue
        result.cost[atom] = 1
        result.reason[atom] = EXTERNAL
        result.depth[atom] = 0

    changed = True
    while changed:
        changed = False
        result.iterations += 1
        for edge in graph.edges:
            if not result.edge_enabled(edge):
                continue
            cost = 1
            depth = 1 if edge.kind == "appointment" else 0
            satisfiable = True
            for condition in edge.conditions:
                if not result.condition_holds(condition.atom,
                                              condition.membership):
                    satisfiable = False
                    break
                cost += result.condition_cost(condition.atom,
                                              condition.membership)
                child_depth = result.depth.get(condition.atom, 0)
                depth = max(depth,
                            child_depth
                            + (1 if edge.kind == "appointment" else 0))
            if not satisfiable:
                continue
            target = edge.target
            known = result.cost.get(target)
            if known is None or cost < known or (
                    cost == known
                    and result.reason.get(target) == RULE
                    and edge.index < result.best[target].index):
                # Ties resolve to the lowest edge index (deterministic),
                # and never displace a leaf reason (cost-1 assumptions).
                if known is None or cost < known or known > 1:
                    result.cost[target] = cost
                    result.reason[target] = RULE
                    result.best[target] = edge
                    changed = True
            if target in result.cost:
                known_depth = result.depth.get(target)
                if known_depth is None or depth < known_depth:
                    result.depth[target] = depth
                    changed = True
    return result
