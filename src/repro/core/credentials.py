"""Certificates and credential records (Fig. 4 and Sect. 4 of the paper).

Two certificate kinds exist in OASIS:

* :class:`RoleMembershipCertificate` (RMC) — returned on successful role
  activation, valid only within the issuing session, *principal-specific*:
  the principal id enters the signature but is not a visible field, so a
  stolen RMC cannot be used without also forging the id (Sect. 4.1).
* :class:`AppointmentCertificate` — potentially long-lived credential
  (qualification, employment, membership) whose lifetime is independent of
  any session.  It may be bound to a persistent principal id or a public
  key, or be anonymous (the genetic-clinic membership card of Sect. 5).

Both carry a *credential record reference* (CRR, :class:`CredentialRef`)
"allow[ing] the issuer and the CR to be located" for callback validation.
The issuer keeps a :class:`CredentialRecord` per certificate "including its
current validity"; revocation flips the record and is pushed over the
credential's event channel (Fig. 5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..crypto.hmac_sig import (FieldValue, ServiceSecret, sign_fields,
                               verify_fields)
from .exceptions import CredentialError, SignatureInvalid
from .terms import DATACLASS_SLOTS, Term, is_ground
from .types import PrincipalId, Role, RoleName, ServiceId

__all__ = [
    "CredentialRef",
    "RoleMembershipCertificate",
    "AppointmentCertificate",
    "CredentialRecord",
    "CredentialStatus",
    "CredentialRefAllocator",
    "encode_parameters",
    "same_certificate",
]


def encode_parameters(parameters: Tuple[Term, ...]) -> Tuple[FieldValue, ...]:
    """Re-check that parameters are ground and signable, pass them through."""
    for param in parameters:
        if not is_ground(param):
            raise CredentialError(f"certificate parameter {param!r} not ground")
    return tuple(parameters)  # ground terms are valid field values


@dataclass(frozen=True, order=True, **DATACLASS_SLOTS)
class CredentialRef:
    """The CRR of Fig. 4: locates the issuing service and the CR.

    ``serial`` is unique per issuer; the triple is globally unique without
    any central allocation, in keeping with the paper's decentralisation.

    The string form and the hash are both computed eagerly at construction
    (rather than lazily into ``__dict__``): refs key event channels, caches
    and the dependency maps consulted on every activation and revocation,
    and the slotted layout leaves no instance dict to memoize into.  A
    scale world holds one ref per credential, so the slot layout — three
    machine words instead of a dict — is where the memory goes.
    """

    service: ServiceId
    serial: int
    qualified: str = field(default="", init=False, repr=False, compare=False)
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "qualified",
                           f"{self.service}#{self.serial}")
        object.__setattr__(self, "_hash", hash((self.service, self.serial)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor so the derived fields are
        # recomputed (and the nested ServiceId re-interned) on unpickle.
        return (CredentialRef, (self.service, self.serial))

    def __str__(self) -> str:
        return self.qualified

    def as_field(self) -> str:
        return self.qualified


# The field sequences entering the signatures.  Their order is part of
# the wire format and must never change; ``issue`` signs them before the
# certificate exists, ``protected_fields`` rebuilds them to verify.
def _rmc_fields(role: Role, ref: CredentialRef, issued_at: float,
                bound_key: Optional[str]) -> Tuple[FieldValue, ...]:
    return ("rmc", str(role.role_name), encode_parameters(role.parameters),
            ref.as_field(), issued_at, bound_key)


def _appointment_fields(name: str, parameters: Tuple[Term, ...],
                        ref: CredentialRef, issued_at: float,
                        expires_at: Optional[float],
                        holder: Optional[str]) -> Tuple[FieldValue, ...]:
    return ("appointment", name, encode_parameters(parameters),
            ref.as_field(), issued_at, expires_at, holder)


@dataclass(frozen=True, **DATACLASS_SLOTS)
class RoleMembershipCertificate:
    """An RMC per Fig. 4.

    ``bound_key`` optionally carries the fingerprint of a public session key
    (Sect. 4.1 "Integration with PKC") which the service may challenge at
    any time.  The signature covers the protected fields *and* the principal
    id, which is deliberately not stored in the certificate.
    """

    issuer: ServiceId
    role: Role
    ref: CredentialRef
    issued_at: float
    bound_key: Optional[str] = None
    signature: bytes = field(default=b"", repr=False)
    #: Memoised wire form (:func:`repro.core.wire.certificate_text`).
    wire_text: Optional[str] = field(default=None, init=False, repr=False,
                                     compare=False)

    def protected_fields(self) -> Tuple[FieldValue, ...]:
        """The field sequence entering the signature."""
        return _rmc_fields(self.role, self.ref, self.issued_at,
                           self.bound_key)

    @classmethod
    def issue(cls, secret: ServiceSecret, issuer: ServiceId, role: Role,
              ref: CredentialRef, principal: PrincipalId, issued_at: float,
              bound_key: Optional[str] = None) -> "RoleMembershipCertificate":
        """Sign and return an RMC for ``principal``."""
        signature = sign_fields(secret, principal.value, _rmc_fields(
            role, ref, issued_at, bound_key))
        return cls(issuer, role, ref, issued_at, bound_key, signature)

    def verify(self, secret: ServiceSecret, principal: PrincipalId) -> None:
        """Raise :class:`SignatureInvalid` unless the signature checks out
        for this ``principal`` — theft shows up as a wrong principal here."""
        if not verify_fields(secret, principal.value,
                             self.protected_fields(), self.signature):
            raise SignatureInvalid(
                f"RMC {self.ref} signature invalid for principal {principal}")

    @property
    def role_name(self) -> RoleName:
        return self.role.role_name


@dataclass(frozen=True, **DATACLASS_SLOTS)
class AppointmentCertificate:
    """A long-lived (or transient) appointment certificate.

    ``holder`` distinguishes the three binding modes of Sect. 4.1/5:

    * a persistent principal id (string form) — principal-specific;
    * a public-key fingerprint prefixed ``"key:"`` — key-bound, checkable by
      challenge-response;
    * ``None`` — anonymous (proof of membership without identity).

    ``secret_generation`` records which generation of the issuer's secret
    signed the certificate, so rotation ("re-issued, encrypted with a new
    server secret") makes stale certificates detectable.
    """

    issuer: ServiceId
    name: str
    parameters: Tuple[Term, ...]
    ref: CredentialRef
    issued_at: float
    expires_at: Optional[float] = None
    holder: Optional[str] = None
    secret_generation: int = 0
    signature: bytes = field(default=b"", repr=False)
    #: Memoised wire form (:func:`repro.core.wire.certificate_text`).
    wire_text: Optional[str] = field(default=None, init=False, repr=False,
                                     compare=False)

    def protected_fields(self) -> Tuple[FieldValue, ...]:
        """The field sequence entering the signature."""
        return _appointment_fields(self.name, self.parameters, self.ref,
                                   self.issued_at, self.expires_at,
                                   self.holder)

    @classmethod
    def issue(cls, secret: ServiceSecret, issuer: ServiceId, name: str,
              parameters: Tuple[Term, ...], ref: CredentialRef,
              issued_at: float, expires_at: Optional[float] = None,
              holder: Optional[str] = None) -> "AppointmentCertificate":
        # Anonymous certificates MAC the empty principal id.
        signature = sign_fields(secret, holder or "", _appointment_fields(
            name, parameters, ref, issued_at, expires_at, holder))
        return cls(issuer, name, parameters, ref, issued_at, expires_at,
                   holder, secret.generation, signature)

    def verify(self, secret: ServiceSecret,
               presented_holder: Optional[str] = None) -> None:
        """Verify signature and holder binding.

        For a holder-bound certificate the presenter must claim the matching
        holder identity; anonymous certificates verify for any presenter.
        """
        if self.secret_generation != secret.generation:
            raise SignatureInvalid(
                f"appointment {self.ref} signed under secret generation "
                f"{self.secret_generation}, issuer now at {secret.generation} "
                f"(certificate must be re-issued)")
        if self.holder is not None and presented_holder != self.holder:
            raise SignatureInvalid(
                f"appointment {self.ref} is bound to holder {self.holder!r}")
        if not verify_fields(secret, self.holder or "",
                             self.protected_fields(), self.signature):
            raise SignatureInvalid(
                f"appointment {self.ref} signature invalid")

    def is_expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    def reissued(self, secret: ServiceSecret,
                 issued_at: float) -> "AppointmentCertificate":
        """Re-sign under a (rotated) secret — Sect. 4.1's mitigation for the
        greater theft exposure of long-lived certificates."""
        return AppointmentCertificate.issue(
            secret, self.issuer, self.name, self.parameters, self.ref,
            issued_at, self.expires_at, self.holder)


def same_certificate(held: Any, presented: Any) -> bool:
    """Whether a cache entry holding ``held``, the certificate it
    validated, covers ``presented``: the same object or an equal copy (a
    decoded one is equal, not identical).  A copy with any field changed
    (same ref and signature) is a different certificate: it must go back
    to its issuer."""
    return held is presented or held == presented


class CredentialStatus:
    """Status values of a credential record."""

    ACTIVE = "active"
    REVOKED = "revoked"


@dataclass(**DATACLASS_SLOTS)
class CredentialRecord:
    """Issuer-side record of a certificate's current validity (the CR).

    ``membership_dependencies`` lists the CRRs of credentials that appear in
    the *membership rule* of the activation that produced this credential:
    when any of them is revoked, this credential must be revoked too —
    that is the dependency edge of Fig. 1/Fig. 5 along which cascades run.
    """

    ref: CredentialRef
    kind: str  # "rmc" | "appointment"
    principal: Optional[PrincipalId]
    issued_at: float
    status: str = CredentialStatus.ACTIVE
    revoked_reason: Optional[str] = None
    revoked_at: Optional[float] = None
    membership_dependencies: Tuple[CredentialRef, ...] = ()
    session_id: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.status == CredentialStatus.ACTIVE

    def revoke(self, reason: str, at: float) -> bool:
        """Mark revoked; returns False when already revoked (idempotent)."""
        if not self.active:
            return False
        self.status = CredentialStatus.REVOKED
        self.revoked_reason = reason
        self.revoked_at = at
        return True


class CredentialRefAllocator:
    """Allocates per-service unique CRRs."""

    __slots__ = ("_service", "_counter", "_next_serial")

    def __init__(self, service: ServiceId) -> None:
        self._service = service
        self._next_serial = 1
        self._counter = itertools.count(1)

    @property
    def service(self) -> ServiceId:
        """The service this allocator mints refs for."""
        return self._service

    def next(self) -> CredentialRef:
        serial = next(self._counter)
        self._next_serial = serial + 1
        return CredentialRef(self._service, serial)

    def advance_past(self, serial: int) -> None:
        """Ensure future allocations start strictly after ``serial``.

        A resumed service advances past both the highest serial found in
        its record store and the durably-reserved watermark, so CRRs never
        collide with certificates issued before the restart — including
        ones whose (write-behind) records were lost with the process.
        """
        if serial + 1 > self._next_serial:
            self._next_serial = serial + 1
            self._counter = itertools.count(self._next_serial)

    def next_many(self, count: int) -> List[CredentialRef]:
        """Allocate ``count`` consecutive refs in one call (bulk issuance)."""
        service = self._service
        counter = self._counter
        refs = [CredentialRef(service, next(counter)) for _ in range(count)]
        if refs:
            self._next_serial = refs[-1].serial + 1
        return refs
