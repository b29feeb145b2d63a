"""Per-service policy: role definitions and the rules that govern them.

"Services name their client roles and enforce policy for role activation
and service invocation, expressed in terms of their own and other services'
roles" (Sect. 1).  A :class:`ServicePolicy` therefore belongs to exactly one
service and contains:

* the roles the service *defines* (name + arity),
* activation rules for those roles,
* authorization rules for the service's methods,
* appointment rules saying which roles may issue which appointments.

Each rule is checked as it is added (it must target a declared role of
this service, with the declared arity).  Whole-policy analysis — orphan
and unreachable roles, prerequisite cycles, cross-service flows — is the
lint and verifier stack in :mod:`repro.lang`, which reads these tables.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .exceptions import PolicyError, UnknownRole
from .rules import ActivationRule, AppointmentRule, AuthorizationRule
from .types import RoleName, ServiceId

__all__ = ["ServicePolicy"]


class ServicePolicy:
    """The complete access-control policy of one OASIS service."""

    def __init__(self, service: ServiceId) -> None:
        self.service = service
        self._role_arity: Dict[str, int] = {}
        # Each target's rules as one tuple, replaced (never mutated) when a
        # rule is added: the hot paths get the stored tuple without a copy,
        # and a decision cached against the old tuple misses by identity.
        self._activation_rules: Dict[str, Tuple[ActivationRule, ...]] = {}
        self._authorization_rules: Dict[
            str, Tuple[AuthorizationRule, ...]] = {}
        self._appointment_rules: Dict[str, Tuple[AppointmentRule, ...]] = {}

    # -- role definitions ----------------------------------------------------
    def define_role(self, name: str, arity: int = 0) -> RoleName:
        """Declare a role this service defines; returns its qualified name."""
        if not name:
            raise PolicyError("role name must be non-empty")
        if arity < 0:
            raise PolicyError("role arity must be non-negative")
        existing = self._role_arity.get(name)
        if existing is not None and existing != arity:
            raise PolicyError(
                f"role {name!r} already defined with arity {existing}")
        self._role_arity[name] = arity
        return RoleName(self.service, name)

    def defines_role(self, name: str) -> bool:
        return name in self._role_arity

    def role_arity(self, name: str) -> int:
        try:
            return self._role_arity[name]
        except KeyError:
            raise UnknownRole(
                f"service {self.service} defines no role {name!r}") from None

    @property
    def role_names(self) -> List[str]:
        return sorted(self._role_arity)

    # -- rules ---------------------------------------------------------------
    def add_activation_rule(self, rule: ActivationRule) -> None:
        """Add an activation rule; its target must be a role of this service."""
        target = rule.target.role_name
        if target.service != self.service:
            raise PolicyError(
                f"activation rule targets {target}, which is not defined by "
                f"{self.service} — services control only their own roles")
        if not self.defines_role(target.name):
            raise UnknownRole(f"role {target.name!r} not defined; call "
                              f"define_role first")
        if rule.target.arity != self.role_arity(target.name):
            raise PolicyError(
                f"rule for {target.name!r} has arity {rule.target.arity}, "
                f"role declared with arity {self.role_arity(target.name)}")
        rules = self._activation_rules
        rules[target.name] = rules.get(target.name, ()) + (rule,)

    def add_authorization_rule(self, rule: AuthorizationRule) -> None:
        rules = self._authorization_rules
        rules[rule.method] = rules.get(rule.method, ()) + (rule,)

    def add_appointment_rule(self, rule: AppointmentRule) -> None:
        rules = self._appointment_rules
        rules[rule.name] = rules.get(rule.name, ()) + (rule,)

    def activation_rules_for(self, role_name: str
                             ) -> Tuple[ActivationRule, ...]:
        rules = self._activation_rules.get(role_name)
        if rules is None:
            if not self.defines_role(role_name):
                raise UnknownRole(
                    f"service {self.service} defines no role {role_name!r}")
            return ()
        return rules

    def authorization_rules_for(self, method: str
                                ) -> Tuple[AuthorizationRule, ...]:
        return self._authorization_rules.get(method, ())

    def appointment_rules_for(self, name: str) -> Tuple[AppointmentRule, ...]:
        return self._appointment_rules.get(name, ())

    @property
    def guarded_methods(self) -> List[str]:
        return sorted(self._authorization_rules)

    @property
    def appointment_names(self) -> List[str]:
        return sorted(self._appointment_rules)
