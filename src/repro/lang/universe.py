"""The policy universe: every service policy under analysis, in one place.

The paper's policy-management thread ([1]) calls consistent deployment of
evolving policy "essential ... for any large-scale deployment".  Since
OASIS has no central role administration, consistency questions are
*cross-service*: can anyone ever reach role R?  does revoking credential C
actually deactivate the roles that were granted because of it?

:class:`PolicyUniverse` is the one container every analysis reads: the
lint passes (:mod:`repro.lang.passes`), the symbolic verifier
(:mod:`repro.lang.verify`, which compiles it into *the* rule graph) and
the ground explorer (:mod:`repro.lang.verify.ground`).  It holds the
:class:`ServicePolicy` of each analysed service, the source attribution
findings are reported against, and the only rule walkers of the package.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..core.policy import ServicePolicy
from ..core.rules import (
    ActivationRule,
    AppointmentRule,
    AuthorizationRule,
)
from ..core.types import RoleName, ServiceId

__all__ = ["PolicyUniverse"]


class PolicyUniverse:
    """All service policies of a deployment, for cross-service analysis.

    ``files`` maps each analysed service to the path of the policy file
    that defined it; ``sources`` maps paths to raw policy text.  Both are
    empty for programmatically-built universes — analyses must tolerate
    missing files and ``None`` spans.
    """

    def __init__(self, policies: Iterable[ServicePolicy] = (),
                 files: Optional[Mapping[ServiceId, str]] = None,
                 sources: Optional[Mapping[str, str]] = None) -> None:
        self._policies: Dict[ServiceId, ServicePolicy] = {}
        self.files: Dict[ServiceId, str] = dict(files or {})
        self.sources: Dict[str, str] = dict(sources or {})
        for policy in policies:
            self.add(policy)

    @classmethod
    def from_units(cls, units) -> "PolicyUniverse":
        """Build a universe from loader :class:`~repro.lang.loader.PolicyUnit`
        records, keeping each service's file and text attached."""
        return cls((unit.policy for unit in units),
                   files={unit.service: unit.path for unit in units},
                   sources={unit.path: unit.text for unit in units})

    def add(self, policy: ServicePolicy) -> None:
        if policy.service in self._policies:
            raise ValueError(f"policy for {policy.service} already added")
        self._policies[policy.service] = policy

    @property
    def services(self) -> List[ServiceId]:
        return sorted(self._policies)

    def file_of(self, service: ServiceId) -> Optional[str]:
        return self.files.get(service)

    def role_arities(self) -> Dict[RoleName, int]:
        """Every role an analysed service declares, with its arity."""
        return {RoleName(service, name): policy.role_arity(name)
                for service, policy in self.policies()
                for name in policy.role_names}

    def all_roles(self) -> List[RoleName]:
        return sorted(self.role_arities(), key=str)

    # -- rule iteration ------------------------------------------------------
    def policies(self) -> Iterator[Tuple[ServiceId, ServicePolicy]]:
        for service in self.services:
            yield service, self._policies[service]

    def activation_rules(self) -> Iterator[Tuple[ServiceId, RoleName,
                                                 ActivationRule]]:
        for service, policy in self.policies():
            for name in policy.role_names:
                for rule in policy.activation_rules_for(name):
                    yield service, RoleName(service, name), rule

    def authorization_rules(self) -> Iterator[Tuple[ServiceId, str,
                                                    AuthorizationRule]]:
        for service, policy in self.policies():
            for method in policy.guarded_methods:
                for rule in policy.authorization_rules_for(method):
                    yield service, method, rule

    def appointment_rules(self) -> Iterator[Tuple[ServiceId, str,
                                                  AppointmentRule]]:
        for service, policy in self.policies():
            for name in policy.appointment_names:
                for rule in policy.appointment_rules_for(name):
                    yield service, name, rule

    def all_rules(self) -> Iterator[Tuple[ServiceId, str, object]]:
        """Every rule with a human-readable subject string."""
        for service, target, rule in self.activation_rules():
            yield service, str(target), rule
        for service, method, rule in self.authorization_rules():
            yield service, f"{service}:{method}()", rule
        for service, name, rule in self.appointment_rules():
            yield service, f"appointment {service}:{name}", rule

    # -- lint --------------------------------------------------------------
    def diagnose(self) -> List:
        """Deployment-review findings as
        :class:`~repro.lang.diagnostics.Diagnostic` objects: every
        registered pass of :mod:`repro.lang.passes` run over this universe.
        Spans are present when the policies were compiled from source
        (e.g. via :mod:`repro.lang.loader`); programmatically built rules
        simply have no provenance.
        """
        from .passes import run_passes

        return run_passes(self)
