"""Oracle for the ``explain_*`` methods of
:class:`repro.core.engine.RuleEngine`.

:class:`ProbeRuleEngine` explains a denial with its own search: a
canonical-order depth-first probe that keeps the deepest point at which
the search died.  The engine instead solves canonical prefixes of the body
with its one solver; both must name the same condition, kind and detail.
"""

from typing import List, Optional, Sequence, Tuple

from repro.core.constraints import EvaluationContext
from repro.core.engine import ConditionFailure, PresentedCredential, RuleEngine
from repro.core.rules import (
    ActivationRule,
    AuthorizationRule,
    Condition,
    ConstraintCondition,
)
from repro.core.terms import (
    Substitution,
    Term,
    is_ground,
    unify_sequences,
    variables_in,
)


class ProbeRuleEngine(RuleEngine):
    """Explains denials with the canonical depth-first probe."""

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
