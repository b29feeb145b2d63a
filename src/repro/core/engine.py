"""Rule evaluation: matching presented credentials against Horn clauses.

The engine answers one question: *given a rule and a set of already
validated credentials, is there a way to satisfy the rule's body, and under
what parameter binding?*  It is deliberately independent of certificate
cryptography and networking — the service layer validates certificates
(signatures, callbacks, expiry) first and hands the engine plain
credential *facts*.

Evaluation is backtracking search.  Credential conditions are choice
points: each presented credential with the right name and arity is a
candidate, and unification against the condition's parameter terms prunes
candidates and binds rule variables.  Environmental constraints are
evaluated once their variables are bound; the engine evaluates all
credential conditions before any constraint, so a rule author never has to
think about condition order (the logic is conjunctive, so this reordering
is sound).

The result of a successful evaluation is a :class:`RuleMatch`, which records
the binding plus *which credential satisfied which condition*.  The service
layer reads the membership-flagged rows out of the match to wire up the
revocation dependencies of Fig. 5.

A failed evaluation is explained by the same solver: the ``explain_*``
methods find the deepest prefix of the body, in canonical order, that it
can satisfy, and report the condition after that prefix as the failing one
(a :class:`ConditionFailure`).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .constraints import EvaluationContext
from .credentials import AppointmentCertificate, CredentialRef, RoleMembershipCertificate
from .exceptions import ActivationDenied, PolicyError
from .rules import (
    ActivationRule,
    AppointmentRule,
    AuthorizationRule,
    Condition,
    ConstraintCondition,
)
from .terms import (
    DATACLASS_SLOTS,
    EMPTY_SUBSTITUTION,
    Substitution,
    Term,
    is_ground,
    unify,
    unify_sequences,
    variables_in,
)
from .types import Role

__all__ = ["PresentedCredential", "RuleMatch", "MatchedCondition",
           "ConditionFailure", "CredentialIndex", "RuleEngine"]

@dataclass(frozen=True)
class ConditionFailure:
    """Why a rule body could not be satisfied (see ``explain_*``).

    ``kind`` is one of the failure kinds documented in
    :mod:`repro.obs.explain`; ``condition`` is the first condition (in
    canonical order) that fails under every solution of the conditions
    before it, None for rule-level failures (``head-mismatch``,
    ``unbound-parameters``).
    """

    kind: str
    condition: Optional[Condition]
    detail: str

Certificate = Union[RoleMembershipCertificate, AppointmentCertificate]


@dataclass(unsafe_hash=True, **DATACLASS_SLOTS)
class PresentedCredential:
    """A validated credential fact, as seen by the engine.

    Exactly one of the two certificate shapes, already past signature and
    callback validation.  ``ref`` is the credential's CRR — the handle the
    membership monitor subscribes on.

    Built once per presented certificate per request, so construction
    is kept cheap: the derived fields are plain assignments, not the
    ``object.__setattr__`` calls a frozen dataclass makes.  Nothing
    assigns to an instance after construction (equality and the hash
    read only ``certificate``).
    """

    certificate: Certificate
    #: Bucket key mirroring the condition-side keys in
    #: :mod:`repro.core.rules`: equal keys ⇔ the credential has the kind,
    #: name and arity the condition needs.
    index_key: Tuple = field(init=False, repr=False, compare=False)
    parameter_values: Tuple[Term, ...] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self) -> None:
        certificate = self.certificate
        if isinstance(certificate, RoleMembershipCertificate):
            role = certificate.role
            self.index_key = ("rmc", role.role_name, len(role.parameters))
            self.parameter_values = role.parameters
        else:
            self.index_key = ("appointment", certificate.issuer,
                              certificate.name, len(certificate.parameters))
            self.parameter_values = certificate.parameters

    @property
    def ref(self) -> CredentialRef:
        return self.certificate.ref


@dataclass(frozen=True)
class MatchedCondition:
    """One satisfied rule condition and the credential that satisfied it
    (None for constraints)."""

    condition: Condition
    credential: Optional[PresentedCredential]

    @property
    def in_membership_rule(self) -> bool:
        return self.condition.membership


@dataclass(frozen=True)
class RuleMatch:
    """A successful rule evaluation."""

    substitution: Substitution
    matched: Tuple[MatchedCondition, ...]

    def membership_credential_refs(self) -> Tuple[CredentialRef, ...]:
        """CRRs of credentials satisfying membership-flagged conditions —
        the revocation dependencies of the new credential."""
        refs = []
        for row in self.matched:
            if row.in_membership_rule and row.credential is not None:
                refs.append(row.credential.ref)
        return tuple(refs)

    def membership_constraints(self) -> Tuple[ConstraintCondition, ...]:
        """Membership-flagged constraints, for periodic / DB-triggered
        re-evaluation under this match's substitution."""
        return tuple(row.condition for row in self.matched
                     if row.in_membership_rule
                     and isinstance(row.condition, ConstraintCondition))

    def credentials_used(self) -> Tuple[PresentedCredential, ...]:
        return tuple(row.credential for row in self.matched
                     if row.credential is not None)


class CredentialIndex:
    """Presented credentials bucketed by ``(kind, name, arity)``.

    Built once per presented-credential set (one pass) and shared across
    every rule tried for a request, it replaces the per-condition linear
    scan over all credentials with a single dict lookup.  Bucket keys mirror
    the condition-side :attr:`index_key` properties, so the candidates of a
    condition are exactly the credentials passing its kind/name/arity
    checks — unification against the condition pattern remains the only
    per-candidate work.
    """

    __slots__ = ("credentials", "_buckets")

    _EMPTY: Tuple[PresentedCredential, ...] = ()

    def __init__(self, credentials: Sequence[PresentedCredential]) -> None:
        self.credentials = tuple(credentials)
        buckets: Dict[Tuple, List[PresentedCredential]] = {}
        for credential in self.credentials:
            key = credential.index_key
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [credential]
            else:
                bucket.append(credential)
        self._buckets = buckets

    def candidates(self, condition: Condition
                   ) -> Sequence[PresentedCredential]:
        """Credentials that can possibly satisfy ``condition``."""
        return self._buckets.get(condition.index_key, self._EMPTY)


class RuleEngine:
    """Evaluates activation, authorization and appointment rules.

    The solver routes candidate selection through a
    :class:`CredentialIndex` and orders credential conditions most
    selective first (fewest candidates) to prune backtracking early.  The
    seed's scan-and-slice solver lives on as the differential suites'
    oracle (``tests/reference/``), which overrides :meth:`_solve`; both
    produce the same solutions with identically ordered matched rows.
    The ``explain_*`` methods run the same solver over canonical-order
    prefixes of the body, so a denial is explained by the search that
    decided it.
    """

    def __init__(self, context: EvaluationContext) -> None:
        self.context = context

    # -- public entry points -------------------------------------------------
    def match_activation(self, rule: ActivationRule,
                         requested_parameters: Optional[Sequence[Term]],
                         credentials: Sequence[PresentedCredential],
                         context: Optional[EvaluationContext] = None,
                         index: Optional[CredentialIndex] = None,
                         ) -> Optional[Tuple[RuleMatch, Role]]:
        """Try to satisfy an activation rule.

        ``requested_parameters`` (when given) must have the rule's arity;
        ground values pin the corresponding role parameters, while None
        entries leave them to be bound by credentials.  Returns the match
        and the ground target role, or None when the rule cannot be
        satisfied.  Raises :class:`ActivationDenied` if the body is
        satisfiable but leaves a role parameter unbound — the caller must
        then supply it explicitly.
        """
        context = context or self.context
        unbound_error: Optional[ActivationDenied] = None
        for match, role in self.enumerate_activations(
                rule, credentials, context, requested_parameters, index):
            if role is None:
                unbound_error = ActivationDenied(
                    f"rule for {rule.target.role_name} satisfied but "
                    f"leaves parameters unbound; supply them in the "
                    f"activation request")
                continue
            return match, role
        if unbound_error is not None:
            raise unbound_error
        return None

    def enumerate_activations(self, rule: ActivationRule,
                              credentials: Sequence[PresentedCredential],
                              context: Optional[EvaluationContext] = None,
                              requested_parameters:
                              Optional[Sequence[Term]] = None,
                              index: Optional[CredentialIndex] = None,
                              ) -> Iterator[Tuple[RuleMatch,
                                                  Optional[Role]]]:
        """Yield every satisfying match of an activation rule.

        Each item is ``(match, role)``; ``role`` is None when the body is
        satisfiable but leaves head parameters unbound.  Used by the model
        checker (:mod:`repro.lang.verify.ground`) to enumerate all ground
        roles a credential endowment can reach, and by
        :meth:`match_activation` which takes the first ground solution.
        """
        context = context or self.context
        subst = self._bind_head(rule.target.parameters,
                                requested_parameters)
        if subst is None:
            return
        for match in self._solve(rule, subst, credentials, context, index):
            parameters = match.substitution.apply(rule.target.parameters)
            if is_ground(parameters):
                yield match, Role(rule.target.role_name, parameters)
            else:
                yield match, None

    def match_authorization(self, rule: AuthorizationRule,
                            arguments: Sequence[Term],
                            credentials: Sequence[PresentedCredential],
                            context: Optional[EvaluationContext] = None,
                            index: Optional[CredentialIndex] = None,
                            ) -> Optional[RuleMatch]:
        """Try to satisfy an authorization rule for a ground argument list."""
        context = context or self.context
        if len(arguments) != len(rule.parameters):
            return None
        for argument in arguments:
            if not is_ground(argument):
                raise PolicyError(
                    f"invocation argument {argument!r} is not ground")
        subst = unify_sequences(rule.parameters, arguments)
        if subst is None:
            return None
        for match in self._solve(rule, subst, credentials, context, index):
            return match
        return None

    def match_appointment(self, rule: AppointmentRule,
                          requested_parameters: Sequence[Term],
                          credentials: Sequence[PresentedCredential],
                          context: Optional[EvaluationContext] = None,
                          index: Optional[CredentialIndex] = None,
                          ) -> Optional[RuleMatch]:
        """Try to satisfy an appointment-issuing rule.

        Appointment parameters are supplied by the appointer (they describe
        the appointee and the appointment's scope), so all must be ground
        after unification with the request.
        """
        context = context or self.context
        if len(requested_parameters) != len(rule.parameters):
            return None
        subst = unify_sequences(rule.parameters, requested_parameters)
        if subst is None:
            return None
        for match in self._solve(rule, subst, credentials, context, index):
            parameters = match.substitution.apply(rule.parameters)
            if not is_ground(parameters):
                raise PolicyError(
                    f"appointment {rule.name} parameters {parameters!r} not "
                    f"fully specified by request and credentials")
            return match
        return None

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _bind_head(head: Tuple[Term, ...],
                   requested: Optional[Sequence[Term]]
                   ) -> Optional[Substitution]:
        if requested is None:
            return EMPTY_SUBSTITUTION
        if len(requested) != len(head):
            return None
        subst: Optional[Substitution] = EMPTY_SUBSTITUTION
        for head_term, requested_term in zip(head, requested):
            if requested_term is None:
                continue  # parameter left for credentials to bind
            if not is_ground(requested_term):
                raise PolicyError(
                    f"requested parameter {requested_term!r} is not ground")
            subst = unify(head_term, requested_term, subst)
            if subst is None:
                return None
        return subst

    def _solve(self, rule: Union[ActivationRule, AuthorizationRule,
                                 AppointmentRule],
               subst: Substitution,
               credentials: Sequence[PresentedCredential],
               context: EvaluationContext,
               index: Optional[CredentialIndex] = None
               ) -> Iterator[RuleMatch]:
        # Credential conditions before constraints so constraint variables
        # are bound; sound because the body is a conjunction.  The split is
        # cached on the (immutable) rule.
        credential_conditions, constraint_conditions = rule.condition_partition
        if index is None:
            index = CredentialIndex(credentials)
        # Matched rows are emitted in this canonical order (credential
        # conditions in rule order, then constraints) regardless of the
        # solve order below, so matches equal the reference solver's.
        canonical = credential_conditions + constraint_conditions
        if len(credential_conditions) > 1:
            # Most selective condition first: fewest candidate credentials.
            # Stable sort keeps rule order among equally selective ones.
            ordered = (*sorted(credential_conditions,
                               key=lambda c: len(index.candidates(c))),
                       *constraint_conditions)
        else:
            ordered = canonical
        return self._solve_indexed(ordered, canonical, subst, index, context)

    def _solve_indexed(self, ordered: Sequence[Condition],
                       canonical: Sequence[Condition], subst: Substitution,
                       index: CredentialIndex, context: EvaluationContext
                       ) -> Iterator[RuleMatch]:
        total = len(ordered)
        if ordered is canonical:
            slots_for: Sequence[int] = range(total)
        else:
            # Map each condition occurrence in solve order to its slot in
            # the canonical output order (id-based; duplicates pair up
            # positionally).
            slot_queues: Dict[int, deque] = defaultdict(deque)
            for position, condition in enumerate(canonical):
                slot_queues[id(condition)].append(position)
            slots_for = [slot_queues[id(c)].popleft() for c in ordered]
        slots: List[Optional[MatchedCondition]] = [None] * total

        def solve(at: int, subst: Substitution) -> Iterator[RuleMatch]:
            if at == total:
                yield RuleMatch(substitution=subst, matched=tuple(slots))
                return
            condition = ordered[at]
            slot = slots_for[at]
            if isinstance(condition, ConstraintCondition):
                if condition.constraint.evaluate(subst, context):
                    slots[slot] = MatchedCondition(condition, None)
                    yield from solve(at + 1, subst)
                return
            pattern = condition.pattern
            for credential in index.candidates(condition):
                extended = unify_sequences(
                    pattern, credential.parameter_values, subst)
                if extended is None:
                    continue
                slots[slot] = MatchedCondition(condition, credential)
                yield from solve(at + 1, extended)

        return solve(0, subst)

    # -- explanation (repro.obs decision explainers) -------------------------
    #
    # The explain_* methods answer "why did this rule NOT match?" with the
    # first condition, in CANONICAL order (credential conditions in rule
    # order, then constraints), that fails under every solution of the
    # conditions before it.  Each prefix is solved in canonical order,
    # without the selectivity sort, so the failing condition and its
    # bindings are those a canonical depth-first search first dies at,
    # whatever solve order the decision used.  The service calls them only
    # with a repro.obs pipeline enabled.

    @staticmethod
    def _bindings_detail(condition: Condition, subst: Substitution) -> str:
        names = sorted(condition.variables(), key=lambda v: v.name)
        if not names:
            return "no variables"
        pairs = ", ".join(f"{v.name}={subst.apply(v)!r}" for v in names)
        return f"bindings: {{{pairs}}}"

    def _explain(self, rule: Union[ActivationRule, AuthorizationRule,
                                   AppointmentRule],
                 head: Optional[Tuple[Term, ...]], subst: Substitution,
                 credentials: Sequence[PresentedCredential],
                 context: EvaluationContext) -> Optional[ConditionFailure]:
        """Why the body fails: the condition after the deepest canonical
        prefix the solver can satisfy, or None when the body is
        satisfiable.  With a ``head``, solutions leaving it non-ground do
        not count (mirroring :meth:`match_activation`'s unbound-parameter
        error)."""
        credential_conditions, constraint_conditions = rule.condition_partition
        canonical = credential_conditions + constraint_conditions
        index = CredentialIndex(credentials)
        # The first solution of the prefix solved so far, and the rest.
        bindings: Substitution = subst
        solutions: Iterator[RuleMatch] = iter(())
        for depth, condition in enumerate(canonical, 1):
            prefix = canonical[:depth]
            solutions = self._solve_indexed(prefix, prefix, subst, index,
                                            context)
            first = next(solutions, None)
            if first is None:
                return self._condition_failure(condition, bindings, index)
            bindings = first.substitution
        if head is None or is_ground(bindings.apply(head)) or any(
                is_ground(match.substitution.apply(head))
                for match in solutions):
            return None
        unbound = sorted({v.name for p in bindings.apply(head)
                          for v in variables_in(p)})
        return ConditionFailure(
            "unbound-parameters", None,
            f"body satisfiable but role parameters "
            f"{{{', '.join(unbound)}}} remain unbound; "
            f"supply them in the request")

    def _condition_failure(self, condition: Condition, subst: Substitution,
                           index: CredentialIndex) -> ConditionFailure:
        """Why ``condition`` fails under ``subst``, the first solution of
        the conditions before it."""
        if isinstance(condition, ConstraintCondition):
            return ConditionFailure(
                "constraint", condition,
                f"constraint evaluated false; "
                f"{self._bindings_detail(condition, subst)}")
        candidates = index.candidates(condition)
        if not candidates:
            return ConditionFailure(
                "no-candidates", condition,
                "no presented credential has the required "
                "kind/name/arity — credential missing")
        return ConditionFailure(
            "unification", condition,
            f"{len(candidates)} credential(s) of the right kind "
            f"presented, but none unify; "
            f"{self._bindings_detail(condition, subst)}")

    def explain_activation(self, rule: ActivationRule,
                           requested_parameters: Optional[Sequence[Term]],
                           credentials: Sequence[PresentedCredential],
                           context: Optional[EvaluationContext] = None,
                           ) -> Optional[ConditionFailure]:
        """Why :meth:`match_activation` failed for ``rule`` — or None if it
        would in fact succeed (the rule is not the reason for a denial)."""
        context = context or self.context
        subst = self._bind_head(rule.target.parameters, requested_parameters)
        if subst is None:
            return ConditionFailure(
                "head-mismatch", None,
                f"requested parameters {tuple(requested_parameters or ())!r}"
                f" do not unify with rule head {rule.target}")
        return self._explain(rule, rule.target.parameters, subst,
                             credentials, context)

    def explain_authorization(self, rule: AuthorizationRule,
                              arguments: Sequence[Term],
                              credentials: Sequence[PresentedCredential],
                              context: Optional[EvaluationContext] = None,
                              ) -> Optional[ConditionFailure]:
        """Why :meth:`match_authorization` failed, or None if it would
        succeed."""
        context = context or self.context
        if len(arguments) != len(rule.parameters):
            return ConditionFailure(
                "head-mismatch", None,
                f"method takes {len(rule.parameters)} argument(s), "
                f"{len(arguments)} given")
        subst = unify_sequences(rule.parameters, arguments)
        if subst is None:
            return ConditionFailure(
                "head-mismatch", None,
                f"arguments {tuple(arguments)!r} do not unify with rule "
                f"parameters {rule.parameters!r}")
        return self._explain(rule, None, subst, credentials, context)

    def explain_appointment(self, rule: AppointmentRule,
                            requested_parameters: Sequence[Term],
                            credentials: Sequence[PresentedCredential],
                            context: Optional[EvaluationContext] = None,
                            ) -> Optional[ConditionFailure]:
        """Why :meth:`match_appointment` failed, or None if it would
        succeed."""
        context = context or self.context
        if len(requested_parameters) != len(rule.parameters):
            return ConditionFailure(
                "head-mismatch", None,
                f"appointment takes {len(rule.parameters)} parameter(s), "
                f"{len(requested_parameters)} given")
        subst = unify_sequences(rule.parameters, requested_parameters)
        if subst is None:
            return ConditionFailure(
                "head-mismatch", None,
                f"parameters {tuple(requested_parameters)!r} do not unify "
                f"with rule parameters {rule.parameters!r}")
        return self._explain(rule, None, subst, credentials, context)
