"""Oracle for :class:`repro.core.engine.RuleEngine`.

The matchers below are the seed's per-credential kind/name/arity checks;
the engine replaced them with :class:`CredentialIndex` bucket keys.
"""

from typing import Iterator, List, Optional, Sequence

from repro.core.constraints import EvaluationContext
from repro.core.credentials import (
    AppointmentCertificate,
    RoleMembershipCertificate,
)
from repro.core.engine import (
    CredentialIndex,
    MatchedCondition,
    PresentedCredential,
    RuleEngine,
    RuleMatch,
)
from repro.core.rules import (
    AppointmentCondition,
    Condition,
    ConstraintCondition,
    PrerequisiteRole,
)
from repro.core.terms import Substitution, unify_sequences


def matches_prerequisite(credential: PresentedCredential,
                         condition: PrerequisiteRole) -> bool:
    certificate = credential.certificate
    if not isinstance(certificate, RoleMembershipCertificate):
        return False
    role = certificate.role
    return (role.role_name == condition.template.role_name
            and role.arity == condition.template.arity)


def matches_appointment(credential: PresentedCredential,
                        condition: AppointmentCondition) -> bool:
    certificate = credential.certificate
    if not isinstance(certificate, AppointmentCertificate):
        return False
    return (certificate.issuer == condition.issuer
            and certificate.name == condition.name
            and len(certificate.parameters) == len(condition.parameters))


class NaiveRuleEngine(RuleEngine):
    """The seed engine's solver: linear scan over all credentials per
    condition, list slicing per step, conditions in canonical order
    (credential conditions in rule order, then constraints)."""

    def _solve(self, rule, subst: Substitution,
               credentials: Sequence[PresentedCredential],
               context: EvaluationContext,
               index: Optional[CredentialIndex] = None
               ) -> Iterator[RuleMatch]:
        credential_conditions, constraint_conditions = \
            rule.condition_partition
        return self._solve_naive(
            credential_conditions + constraint_conditions, subst,
            credentials, context, [])

    def _solve_naive(self, conditions: Sequence[Condition],
                     subst: Substitution,
                     credentials: Sequence[PresentedCredential],
                     context: EvaluationContext,
                     matched: List[MatchedCondition]) -> Iterator[RuleMatch]:
        if not conditions:
            yield RuleMatch(substitution=subst, matched=tuple(matched))
            return
        condition, rest = conditions[0], conditions[1:]

        if isinstance(condition, ConstraintCondition):
            if condition.constraint.evaluate(subst, context):
                matched.append(MatchedCondition(condition, None))
                yield from self._solve_naive(rest, subst, credentials,
                                             context, matched)
                matched.pop()
            return

        for credential in credentials:
            if isinstance(condition, PrerequisiteRole):
                if not matches_prerequisite(credential, condition):
                    continue
                pattern = condition.template.parameters
            else:
                assert isinstance(condition, AppointmentCondition)
                if not matches_appointment(credential, condition):
                    continue
                pattern = condition.parameters
            extended = unify_sequences(pattern, credential.parameter_values,
                                       subst)
            if extended is None:
                continue
            matched.append(MatchedCondition(condition, credential))
            yield from self._solve_naive(rest, extended, credentials,
                                         context, matched)
            matched.pop()
