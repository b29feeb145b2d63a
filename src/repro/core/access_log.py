"""Per-service access audit log.

The paper requires auditability throughout: the national EHR service
records "the identity of the original requester ... for audit" (Sect. 3),
and "it is vital that doctors who access patient records may be identified
individually" (Sect. 2).  An :class:`AccessLog` attached to an
:class:`~repro.core.service.OasisService` records every security-relevant
event — activations, invocations, appointment issues, revocations and the
corresponding denials — as immutable :class:`AccessRecord` entries that can
be filtered by principal, kind or time window.  With the observability
pipeline on, an activation, invocation, appointment or validation record
also explains itself: its ``attempts`` are the rules tried and, for a
denial, the condition that failed and how (:mod:`repro.obs.explain`).
Every refusal leaves one record; its reason is the refusal's text.  The
log is a :class:`~repro.obs.ring.RecordRing`, the bounded store every
retained record in the package shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..obs.explain import RuleAttempt
from ..obs.ring import RecordRing
from .terms import DATACLASS_SLOTS

__all__ = ["AccessRecord", "AccessLog"]


class AccessKind:
    """Record kinds, as string constants."""

    ACTIVATION = "activation"
    ACTIVATION_DENIED = "activation-denied"
    INVOCATION = "invocation"
    INVOCATION_DENIED = "invocation-denied"
    APPOINTMENT = "appointment"
    APPOINTMENT_DENIED = "appointment-denied"
    REVOCATION = "revocation"
    VALIDATION_FAILED = "validation-failed"

    ALL = (ACTIVATION, ACTIVATION_DENIED, INVOCATION, INVOCATION_DENIED,
           APPOINTMENT, APPOINTMENT_DENIED, REVOCATION, VALIDATION_FAILED)


def _check_kind(kind: str) -> None:
    if kind not in AccessKind.ALL:
        raise ValueError(f"unknown access record kind {kind!r}")


@dataclass(frozen=True, **DATACLASS_SLOTS)
class AccessRecord:
    """One audited access-control decision."""

    timestamp: float
    kind: str
    principal: str          # requesting principal (or original requester)
    subject: str            # role name / method / appointment / CRR
    detail: Tuple[Any, ...] = ()
    reason: Optional[str] = None
    #: Causal trace this record belongs to, when the observability
    #: pipeline (:mod:`repro.obs`) was active; None otherwise.  Lets an
    #: auditor jump from an audit line to the full span tree.
    trace_id: Optional[str] = None
    #: The rules tried, in order, when the pipeline was active: the last
    #: failed one explains a denial, a ``matched`` one names the rule
    #: that granted.  Always ``()`` with the pipeline off.
    attempts: Tuple[RuleAttempt, ...] = ()

    def __str__(self) -> str:
        parts = [f"t={self.timestamp:.3f}", self.kind, self.principal,
                 self.subject]
        if self.detail:
            parts.append(repr(self.detail))
        if self.reason:
            parts.append(f"({self.reason})")
        return " ".join(parts)


class AccessLog(RecordRing):
    """An append-only log of access records with simple querying.

    ``capacity`` bounds memory (deployments would spill to stable storage
    instead); :meth:`stats` counts what was discarded.  The default stays
    unbounded.
    """

    __slots__ = ()

    def record(self, timestamp: float, kind: str, principal: str,
               subject: str, detail: Tuple[Any, ...] = (),
               reason: Optional[str] = None,
               trace_id: Optional[str] = None,
               attempts: Tuple[RuleAttempt, ...] = ()) -> None:
        _check_kind(kind)
        self.append(AccessRecord(timestamp, kind, principal, subject,
                                 detail, reason, trace_id, attempts))

    # -- querying --------------------------------------------------------------
    def query(self, kind: Optional[str] = None,
              principal: Optional[str] = None,
              subject: Optional[str] = None,
              since: Optional[float] = None,
              until: Optional[float] = None,
              trace_id: Optional[str] = None) -> List[AccessRecord]:
        """All records matching every given filter; the time window is
        half-open, ``[since, until)`` (see :meth:`RecordRing.select`).  A
        ``kind`` outside :attr:`AccessKind.ALL` raises ``ValueError``."""
        if kind is not None:
            _check_kind(kind)
        return self.select(since, until, kind=kind, principal=principal,
                           subject=subject, trace_id=trace_id)

    def denials(self) -> List[AccessRecord]:
        return [record for record in self
                if record.kind.endswith("denied")
                or record.kind == AccessKind.VALIDATION_FAILED]

    def principals_seen(self) -> List[str]:
        return sorted({record.principal for record in self})
