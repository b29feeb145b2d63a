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
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs import runtime as _obs_runtime
from .constraints import EvaluationContext
from .credentials import AppointmentCertificate, CredentialRef, RoleMembershipCertificate
from .exceptions import ActivationDenied, PolicyError
from .rules import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    Condition,
    ConstraintCondition,
    PrerequisiteRole,
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

#: Buckets for the unification-step histogram (steps per activation match).
STEP_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


@dataclass(frozen=True)
class ConditionFailure:
    """Why a rule body could not be satisfied (see ``explain_*``).

    ``kind`` is one of the failure kinds documented in
    :mod:`repro.obs.explain`; ``condition`` is the deepest condition (in
    canonical order) at which the search frontier died, None for
    rule-level failures (``head-mismatch``, ``unbound-parameters``).
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
    #: :mod:`repro.core.rules`: equal keys ⇔ the kind/name/arity checks of
    #: :meth:`matches_prerequisite` / :meth:`matches_appointment` pass.
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

    @property
    def is_rmc(self) -> bool:
        return isinstance(self.certificate, RoleMembershipCertificate)

    @property
    def is_appointment(self) -> bool:
        return isinstance(self.certificate, AppointmentCertificate)

    def matches_prerequisite(self, condition: PrerequisiteRole) -> bool:
        if not self.is_rmc:
            return False
        role = self.certificate.role
        return (role.role_name == condition.template.role_name
                and role.arity == condition.template.arity)

    def matches_appointment(self, condition: AppointmentCondition) -> bool:
        if not self.is_appointment:
            return False
        cert = self.certificate
        return (cert.issuer == condition.issuer
                and cert.name == condition.name
                and len(cert.parameters) == len(condition.parameters))

    def parameters(self) -> Tuple[Term, ...]:
        return self.parameter_values


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
    """

    def __init__(self, context: EvaluationContext) -> None:
        self.context = context
        # Last (credentials, index) pair for callers that pass the same
        # endowment repeatedly without a prebuilt index.  Only tuples are
        # memoized: the strong reference keeps the identity check valid and
        # a tuple's contents cannot change under us.
        self._index_memo: Optional[Tuple[Sequence[PresentedCredential],
                                         CredentialIndex]] = None
        # Observability snapshot (see repro.obs.runtime): None keeps every
        # hot path on a single attribute-load-plus-branch guard.  When a
        # pipeline is installed, activation matches count unification
        # steps into this histogram.
        self._obs = _obs_runtime.pipeline()
        self._step_counter: Optional[List[int]] = None
        if self._obs is not None:
            self._steps_histogram = self._obs.metrics.histogram(
                "oasis_unification_steps", STEP_BUCKETS,
                help_text="unification attempts + constraint evaluations "
                          "per activation match")

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
        obs = self._obs
        if obs is not None:
            # Arm the step counter for the duration so the solver's
            # counting closure is selected (see :meth:`_solve_indexed`).
            steps = [0]
            self._step_counter = steps
        try:
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
        finally:
            if obs is not None:
                self._step_counter = None
                self._steps_histogram.observe(steps[0])

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
            memo = self._index_memo
            if memo is not None and memo[0] is credentials:
                index = memo[1]
            else:
                index = CredentialIndex(credentials)
                if type(credentials) is tuple:
                    self._index_memo = (credentials, index)
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

        # Two variants of the inner search, selected ONCE per call: the
        # pristine closure when no step counter is armed (the common,
        # benchmark-guarded case — zero per-step instrumentation cost) and
        # a counting twin when an observed match is in flight.  A per-step
        # ``if counter`` inside one shared closure would cost several
        # percent on the ~9µs FIG1 engine op; selecting the closure up
        # front costs one attribute load for the whole solve.
        counter = self._step_counter
        if counter is None:
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
        else:
            def solve(at: int, subst: Substitution) -> Iterator[RuleMatch]:
                if at == total:
                    yield RuleMatch(substitution=subst, matched=tuple(slots))
                    return
                condition = ordered[at]
                slot = slots_for[at]
                if isinstance(condition, ConstraintCondition):
                    counter[0] += 1
                    if condition.constraint.evaluate(subst, context):
                        slots[slot] = MatchedCondition(condition, None)
                        yield from solve(at + 1, subst)
                    return
                pattern = condition.pattern
                for credential in index.candidates(condition):
                    counter[0] += 1
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
    # deepest failing condition in CANONICAL order (credential conditions
    # in rule order, then constraints).  They run their own dedicated
    # probe, independent of the solve-order heuristics, so the engine and
    # the reference solver explain identically by construction — the
    # property the differential tests assert.  They only run on denial
    # paths, so their cost is irrelevant to the hot path.

    @staticmethod
    def _bindings_detail(condition: Condition, subst: Substitution) -> str:
        names = sorted(condition.variables(), key=lambda v: v.name)
        if not names:
            return "no variables"
        pairs = ", ".join(f"{v.name}={subst.apply(v)!r}" for v in names)
        return f"bindings: {{{pairs}}}"

    def _probe(self, conditions: Sequence[Condition], head: Tuple[Term, ...],
               subst: Substitution,
               credentials: Sequence[PresentedCredential],
               context: EvaluationContext,
               require_ground_head: bool,
               ) -> Tuple[Optional[Substitution],
                          Optional[ConditionFailure]]:
        """Canonical-order satisfiability probe tracking the deepest
        failure frontier.  Returns ``(solution, None)`` on success or
        ``(None, failure)`` where ``failure`` is the deepest point the
        search died — the most specific explanation of the denial.  With
        ``require_ground_head``, solutions leaving ``head`` non-ground are
        rejected at maximal depth (mirroring :meth:`match_activation`'s
        preference for unbound-parameter errors over plain no-match)."""
        total = len(conditions)
        best: List[Optional[ConditionFailure]] = [None]
        best_at = [-1]

        def note(at: int, kind: str, condition: Optional[Condition],
                 detail: str) -> None:
            if at > best_at[0]:
                best_at[0] = at
                best[0] = ConditionFailure(kind, condition, detail)

        def walk(at: int, subst: Substitution) -> Optional[Substitution]:
            if at == total:
                if require_ground_head:
                    parameters = subst.apply(head)
                    if not is_ground(parameters):
                        unbound = sorted({v.name for p in parameters
                                          for v in variables_in(p)})
                        note(total, "unbound-parameters", None,
                             f"body satisfiable but role parameters "
                             f"{{{', '.join(unbound)}}} remain unbound; "
                             f"supply them in the request")
                        return None
                return subst
            condition = conditions[at]
            if isinstance(condition, ConstraintCondition):
                if condition.constraint.evaluate(subst, context):
                    return walk(at + 1, subst)
                note(at, "constraint", condition,
                     f"constraint evaluated false; "
                     f"{self._bindings_detail(condition, subst)}")
                return None
            key = condition.index_key
            candidates = [credential for credential in credentials
                          if credential.index_key == key]
            if not candidates:
                note(at, "no-candidates", condition,
                     "no presented credential has the required "
                     "kind/name/arity — credential missing")
                return None
            unified_any = False
            for credential in candidates:
                extended = unify_sequences(
                    condition.pattern, credential.parameter_values, subst)
                if extended is None:
                    continue
                unified_any = True
                solution = walk(at + 1, extended)
                if solution is not None:
                    return solution
            if not unified_any:
                note(at, "unification", condition,
                     f"{len(candidates)} credential(s) of the right kind "
                     f"presented, but none unify; "
                     f"{self._bindings_detail(condition, subst)}")
            return None

        solution = walk(0, subst)
        if solution is not None:
            return solution, None
        return None, best[0]

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
        credential_conditions, constraint_conditions = rule.condition_partition
        _, failure = self._probe(
            credential_conditions + constraint_conditions,
            rule.target.parameters, subst, tuple(credentials), context,
            require_ground_head=True)
        return failure

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
        credential_conditions, constraint_conditions = rule.condition_partition
        _, failure = self._probe(
            credential_conditions + constraint_conditions, rule.parameters,
            subst, tuple(credentials), context, require_ground_head=False)
        return failure
