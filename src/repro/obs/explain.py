"""Decision explainers: why access was (not) granted.

"It is vital that doctors who access patient records may be identified
individually" (Sect. 2) — but an audit line saying *denied* is not an
explanation.  With the observability pipeline on, each activation,
invocation and validation-failure :class:`~repro.core.access_log.AccessRecord`
carries the full shape of its decision in ``attempts``: which rules were
tried, in what order, and — for denials — exactly which condition failed
and *how* (no matching credential presented, credentials present but none
unify, environmental constraint false, head parameters left unbound,
presented credential revoked/expired/forged).

A :class:`RuleAttempt` is plain data (no imports from :mod:`repro.core`)
whose fields are pre-rendered strings.  The failing condition comes from
the engine's one solver (see ``RuleEngine.explain_*``): it solves
prefixes of the rule body in canonical order and names the condition
after the deepest prefix it can satisfy.  The decision itself may solve
in another order, so the engine and the reference solver in
``tests/reference/`` explain identically — a property the differential
tests pin down, beside a canonical depth-first probe kept there as the
explanations' oracle.

Failure kinds (``RuleAttempt.failure_kind``):

``no-rule``
    The policy defines no rule for the requested role/method/appointment.
``no-candidates``
    No presented credential has the kind/name/arity the condition needs —
    a credential is *missing*.
``unification``
    Candidates exist but none unifies with the condition's parameter
    pattern under the bindings accumulated so far (wrong parameters).
``constraint``
    An environmental constraint evaluated false under the bindings.
``unbound-parameters``
    The body is satisfiable but leaves head parameters unbound; the
    caller must supply them explicitly.
``head-mismatch``
    The requested parameters do not unify with the rule head (wrong
    arity or conflicting ground values).
``credential-invalid``
    A presented certificate failed validation before any rule ran
    (revoked, expired, bad signature, unreachable issuer).
``unknown``
    The rule failed but matched when it was explained: a constraint that
    reads the clock, a database or a predicate changed in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["RuleAttempt"]


@dataclass(frozen=True)
class RuleAttempt:
    """One rule tried during a decision, with its outcome."""

    rule: str                              # rendered rule text
    outcome: str                           # "matched" | "failed"
    failure_kind: Optional[str] = None     # see module docstring
    failed_condition: Optional[str] = None  # rendered condition text
    detail: Optional[str] = None           # bindings / constraint values

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"rule": self.rule, "outcome": self.outcome}
        if self.failure_kind is not None:
            out["failure_kind"] = self.failure_kind
        if self.failed_condition is not None:
            out["failed_condition"] = self.failed_condition
        if self.detail is not None:
            out["detail"] = self.detail
        return out
