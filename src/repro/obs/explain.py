"""Decision explainers: structured records of why access was (not) granted.

"It is vital that doctors who access patient records may be identified
individually" (Sect. 2) — but an audit line saying *denied* is not an
explanation.  A :class:`Decision` captures the full shape of one
access-control outcome: which rules were tried, in what order, and — for
denials — exactly which condition failed and *how* (no matching
credential presented, credentials present but none unify, environmental
constraint false, head parameters left unbound, presented credential
revoked/expired/forged).

Decisions are plain data (no imports from :mod:`repro.core`); the engine
and service layers build them via :class:`RuleAttempt` rows whose fields
are pre-rendered strings.  The failing condition comes from the engine's
one solver (see ``RuleEngine.explain_*``): it solves prefixes of the rule
body in canonical order and names the condition after the deepest prefix
it can satisfy.  The decision itself may solve in another order, so the
engine and the reference solver in ``tests/reference/`` explain
identically — a property the differential tests pin down, beside a
canonical depth-first probe kept there as the explanations' oracle.

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

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .ring import RecordRing

__all__ = ["RuleAttempt", "Decision", "DecisionLog"]


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


@dataclass(frozen=True)
class Decision:
    """One explained access-control outcome.

    ``kind`` mirrors the access-log vocabulary (``activation``,
    ``invocation``, ``appointment``, ``revocation``, ``validation``);
    ``outcome`` is ``granted`` / ``denied`` / ``revoked``.  ``subject`` is
    the role, method, appointment name, or credential ref the decision is
    about.  ``trace_id`` joins the decision to the causal trace active
    when it was made (and through it to :class:`AccessRecord` rows, which
    carry the same id).
    """

    timestamp: float
    kind: str
    outcome: str
    service: str
    principal: str
    subject: str
    rule_attempts: Tuple[RuleAttempt, ...] = ()
    reason: Optional[str] = None
    trace_id: Optional[str] = None
    detail: Tuple[Tuple[str, Any], ...] = field(default=())

    @property
    def failing_attempt(self) -> Optional[RuleAttempt]:
        """The last failed attempt — for a denial, *the* explanation."""
        for attempt in reversed(self.rule_attempts):
            if attempt.outcome == "failed":
                return attempt
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "timestamp": self.timestamp,
            "kind": self.kind,
            "outcome": self.outcome,
            "service": self.service,
            "principal": self.principal,
            "subject": self.subject,
            "reason": self.reason,
            "trace_id": self.trace_id,
            "detail": dict(self.detail),
            "rule_attempts": [a.to_dict() for a in self.rule_attempts],
        }

    def render_text(self) -> str:
        """Multi-line human rendering (the ``repro trace`` text format)."""
        head = (f"[{self.timestamp:.3f}] {self.kind} {self.outcome}: "
                f"{self.principal} -> {self.service}:{self.subject}")
        lines = [head]
        if self.trace_id:
            lines.append(f"  trace: {self.trace_id}")
        if self.reason:
            lines.append(f"  reason: {self.reason}")
        for key, value in self.detail:
            lines.append(f"  {key}: {value}")
        for attempt in self.rule_attempts:
            lines.append(f"  rule {attempt.rule}")
            lines.append(f"    -> {attempt.outcome}"
                         + (f" ({attempt.failure_kind})"
                            if attempt.failure_kind else ""))
            if attempt.failed_condition:
                lines.append(
                    f"    failing condition: {attempt.failed_condition}")
            if attempt.detail:
                lines.append(f"    {attempt.detail}")
        return "\n".join(lines)


class DecisionLog(RecordRing):
    """Capacity-bounded store of decisions with half-open ``[since,
    until)`` time queries, like every :class:`~repro.obs.ring.RecordRing`.
    """

    def __init__(self, capacity: Optional[int] = 10_000) -> None:
        super().__init__(capacity)

    record = RecordRing.append

    def query(self, kind: Optional[str] = None,
              outcome: Optional[str] = None,
              service: Optional[str] = None,
              principal: Optional[str] = None,
              subject: Optional[str] = None,
              trace_id: Optional[str] = None,
              since: Optional[float] = None,
              until: Optional[float] = None) -> List[Decision]:
        """Decisions matching every given filter, in record order."""
        return self.select(since, until, kind=kind, outcome=outcome,
                           service=service, principal=principal,
                           subject=subject, trace_id=trace_id)

    def denials(self) -> List[Decision]:
        return [d for d in self if d.outcome == "denied"]
