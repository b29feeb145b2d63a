"""Ground model checking: exact reachability for a concrete principal.

The symbolic fixpoint of :mod:`repro.lang.verify.fixpoint` answers
*schema-level* questions ("could anyone ever reach role R?") by
over-approximating.  This module asks a different question of the same
:class:`~repro.lang.universe.PolicyUniverse` — the *instance-level* one
the paper's examples turn on — "given the credentials this principal actually holds, can they ever
read Joe Bloggs' record?" — exactly, by exhaustive exploration of the
ground state space the companion formal model ([17]) defines:

* the state is the set of ground roles the principal has activated;
* transitions are rule applications: a rule fires when its credential
  conditions unify with held RMCs/appointments and its environmental
  constraints hold in the supplied evaluation context;
* the state space is finite because parameters only flow from the finite
  endowment and the finite set of seeded initial activations.

Because constraints are evaluated against a *fixed* context, the verdict
is exact for that environment snapshot; pass ``ignore_constraints=True``
for the optimistic over-approximation instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Set, Tuple

from ...core.constraints import EvaluationContext
from ...core.credentials import (
    AppointmentCertificate,
    CredentialRef,
    RoleMembershipCertificate,
)
from ...core.engine import PresentedCredential, RuleEngine
from ...core.rules import ActivationRule, ConstraintCondition
from ...core.terms import Term
from ...core.types import Role, RoleName, ServiceId
from ..universe import PolicyUniverse

__all__ = ["Endowment", "GroundReachability", "ReachabilityResult"]

_serial = [0]


def _fake_ref(service: ServiceId) -> CredentialRef:
    _serial[0] += 1
    return CredentialRef(service, 1_000_000 + _serial[0])


def _rmc_fact(role: Role) -> PresentedCredential:
    """A credential *fact* for the checker: unsigned, never validated."""
    certificate = RoleMembershipCertificate(
        issuer=role.service, role=role, ref=_fake_ref(role.service),
        issued_at=0.0)
    return PresentedCredential(certificate)


@dataclass(frozen=True)
class Endowment:
    """What the principal brings to the analysis.

    ``appointments`` — ground appointment facts ``(issuer, name, params)``
    the principal holds or could obtain;
    ``initial_activations`` — ground initial-role activations to seed the
    session (e.g. ``Role(login:logged_in_user, ("fred-smith",))``): the
    checker assumes these succeed (their own rules are still checked).
    """

    appointments: Tuple[Tuple[ServiceId, str, Tuple[Term, ...]], ...] = ()
    initial_activations: Tuple[Role, ...] = ()

    def credentials(self) -> List[PresentedCredential]:
        creds = []
        for issuer, name, params in self.appointments:
            certificate = AppointmentCertificate(
                issuer=issuer, name=name, parameters=tuple(params),
                ref=_fake_ref(issuer), issued_at=0.0)
            creds.append(PresentedCredential(certificate))
        return creds


@dataclass
class ReachabilityResult:
    """Everything the endowment can reach."""

    roles: Set[Role]
    iterations: int

    def holds(self, role: Role) -> bool:
        return role in self.roles

    def roles_named(self, role_name: RoleName) -> List[Role]:
        return sorted((role for role in self.roles
                       if role.role_name == role_name), key=str)


class GroundReachability:
    """Exact ground reachability over a policy universe."""

    def __init__(self, universe: PolicyUniverse,
                 context: Optional[EvaluationContext] = None,
                 ignore_constraints: bool = False) -> None:
        self.universe = universe
        self.context = context or EvaluationContext()
        self.ignore_constraints = ignore_constraints
        self._engine = RuleEngine(self.context)

    def _rules(self) -> List[Tuple[RoleName, ActivationRule,
                                   ActivationRule]]:
        """Every activation rule of the universe, as ``(target, rule,
        candidate)``: the candidate is what gets matched — the rule
        itself, or the rule without its constraints when they are being
        ignored."""
        rules = []
        for _, target, rule in self.universe.activation_rules():
            candidate = rule
            if self.ignore_constraints:
                candidate = replace(rule, conditions=tuple(
                    condition for condition in rule.conditions
                    if not isinstance(condition, ConstraintCondition)))
            rules.append((target, rule, candidate))
        return rules

    def explore(self, endowment: Endowment) -> ReachabilityResult:
        """Least fixpoint of rule application from the endowment."""
        rules = self._rules()
        appointment_creds = endowment.credentials()

        # Seed: attempt each declared initial activation through its own
        # rules (so an impossible seed contributes nothing).
        held: Set[Role] = set()
        for role in endowment.initial_activations:
            for target, _, candidate in rules:
                if target != role.role_name:
                    continue
                matches = self._engine.enumerate_activations(
                    candidate, appointment_creds,
                    requested_parameters=list(role.parameters))
                if any(r == role for _, r in matches):
                    held.add(role)
                    break

        iterations = 0
        changed = True
        while changed:
            iterations += 1
            changed = False
            credentials = appointment_creds + [_rmc_fact(role)
                                               for role in held]
            for _, rule, candidate in rules:
                if candidate.is_initial and not rule.conditions:
                    # Unconditional initial roles need explicit
                    # seeding: their parameters are request-chosen.
                    continue
                for _match, role in self._engine.enumerate_activations(
                        candidate, credentials):
                    if role is not None and role not in held:
                        held.add(role)
                        changed = True
        return ReachabilityResult(roles=held, iterations=iterations)

    def can_reach(self, endowment: Endowment, target: Role) -> bool:
        """Can the endowment ever activate exactly ``target``?"""
        return self.explore(endowment).holds(target)
