"""OASIS sessions: trees of active roles rooted at an initial role.

"An OASIS session typically starts from the activation of an initial role,
such as authenticated, logged in user ... Active roles therefore form trees
of role dependencies rooted on initial roles.  If a single initial role is
deactivated, for example the user logs out, all the active roles dependent
on it collapse and that session terminates." (Sect. 4)

The *mechanism* of collapse is distributed — each service revokes a
credential when a membership dependency dies (see
:class:`~repro.core.service.OasisService`).  This module provides the
*client-side* view: a :class:`Session` collects the RMCs a principal has
accumulated, presents them automatically on further activations and
invocations, and exposes the dependency tree for inspection.  A
:class:`Principal` bundles the identity, session key pair and wallet of
appointment certificates a user carries between sessions.
"""

from __future__ import annotations

import itertools
import secrets
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..crypto.keys import KeyPair, generate_keypair
from ..events import CREDENTIAL_REVOKED, Event, Subscription
from ..obs import runtime as _obs_runtime
from .credentials import AppointmentCertificate, CredentialRef, RoleMembershipCertificate
from .exceptions import SessionError
from .service import OasisService, Presentation
from .terms import Term
from .types import PrincipalId, Role

__all__ = ["Principal", "Session"]

#: Callback invoked as ``handler(rmc, reason)`` when a held role dies.
DeactivationHandler = Any

_SESSION_COUNTER = itertools.count(1)


class Principal:
    """A user or computational entity: identity, key pair, wallet.

    The wallet holds long-lived appointment certificates ("academic and
    professional qualification or membership of an organisation"); these
    survive across sessions, unlike RMCs.  Slotted: a scale world holds one
    of these per principal — a million-strong population.
    """

    __slots__ = ("id", "keypair", "_wallet")

    def __init__(self, principal_id: str,
                 keypair: Optional[KeyPair] = None) -> None:
        self.id = PrincipalId(principal_id)
        self.keypair = keypair
        self._wallet: List[AppointmentCertificate] = []

    def with_keys(self, bits: int = 512) -> "Principal":
        """Equip this principal with a fresh key pair (Sect. 4.1 PKC)."""
        self.keypair = generate_keypair(bits)
        return self

    @property
    def key_fingerprint(self) -> Optional[str]:
        if self.keypair is None:
            return None
        return self.keypair.fingerprint()

    def store_appointment(self, certificate: AppointmentCertificate) -> None:
        self._wallet.append(certificate)

    def appointments(self, name: Optional[str] = None
                     ) -> List[AppointmentCertificate]:
        if name is None:
            return list(self._wallet)
        return [cert for cert in self._wallet if cert.name == name]

    def drop_appointment(self, ref: CredentialRef) -> bool:
        before = len(self._wallet)
        self._wallet = [c for c in self._wallet if c.ref != ref]
        return len(self._wallet) != before

    def start_session(self, service: OasisService, role_name: str,
                      parameters: Optional[Sequence[Term]] = None,
                      use_appointments: Sequence[AppointmentCertificate] = (),
                      environment: Optional[Dict[str, Any]] = None,
                      ) -> "Session":
        """Begin an OASIS session by activating an initial role."""
        session = Session(self)
        session.activate(service, role_name, parameters,
                         use_appointments=use_appointments,
                         environment=environment)
        return session

    def __repr__(self) -> str:
        return f"Principal({self.id})"


class Session:
    """A live OASIS session for one principal.

    The first successful :meth:`activate` establishes the session root; all
    later activations automatically present the session's active RMCs as
    prerequisite-role credentials.  :meth:`logout` deactivates the root at
    its issuing service, and the distributed cascade collapses the rest —
    :meth:`active_roles` checks back with issuers, so it reflects the
    post-cascade state immediately.

    Slotted: scale workloads keep ~100k sessions live at once.
    """

    __slots__ = ("principal", "session_id", "_rmcs", "_history", "_issuers",
                 "_root_ref", "_terminated", "_deactivation_handlers",
                 "_watch_subs", "_obs")

    def __init__(self, principal: Principal) -> None:
        self.principal = principal
        self.session_id = (f"session-{next(_SESSION_COUNTER)}-"
                           f"{secrets.token_hex(4)}")
        # ``_rmcs`` holds the *live* view (dead refs are pruned so
        # presentations stop round-tripping ``is_active`` for long-dead
        # credentials); ``_history`` keeps every RMC ever acquired.
        self._rmcs: Dict[CredentialRef, RoleMembershipCertificate] = {}
        self._history: List[RoleMembershipCertificate] = []
        self._issuers: Dict[CredentialRef, OasisService] = {}
        self._root_ref: Optional[CredentialRef] = None
        self._terminated = False
        self._deactivation_handlers: List[DeactivationHandler] = []
        self._watch_subs: Dict[CredentialRef, Subscription] = {}
        self._obs = _obs_runtime.pipeline()

    # -- properties ----------------------------------------------------------
    @property
    def terminated(self) -> bool:
        return self._terminated

    @property
    def root_rmc(self) -> Optional[RoleMembershipCertificate]:
        if self._root_ref is None:
            return None
        return self._rmcs.get(self._root_ref)

    # -- operations ----------------------------------------------------------
    def activate(self, service: OasisService, role_name: str,
                 parameters: Optional[Sequence[Term]] = None,
                 use_appointments: Sequence[AppointmentCertificate] = (),
                 environment: Optional[Dict[str, Any]] = None,
                 ) -> RoleMembershipCertificate:
        """Activate a role at ``service``, presenting held credentials.

        All of the session's currently active RMCs are presented, plus any
        explicitly supplied appointment certificates (holder-bound ones are
        presented under this principal's id).
        """
        if self._obs is None:
            return self._activate_inner(service, role_name, parameters,
                                        use_appointments, environment)
        span = self._obs.tracer.start_span(
            "session.activate", timestamp=service.clock(),
            session=self.session_id, principal=self.principal.id.value,
            service=str(service.id), role=role_name)
        try:
            return self._activate_inner(service, role_name, parameters,
                                        use_appointments, environment)
        except Exception as failure:
            span.error(str(failure))
            raise
        finally:
            span.finish(service.clock())

    def _activate_inner(self, service: OasisService, role_name: str,
                        parameters: Optional[Sequence[Term]],
                        use_appointments: Sequence[AppointmentCertificate],
                        environment: Optional[Dict[str, Any]],
                        ) -> RoleMembershipCertificate:
        self._ensure_live()
        presentations = self._presentations(use_appointments)
        bound_key = self.principal.key_fingerprint
        rmc = service.activate_role(
            self.principal.id, role_name, parameters,
            credentials=presentations,
            environment=environment, session_id=self.session_id,
            bound_key=bound_key)
        self._rmcs[rmc.ref] = rmc
        self._history.append(rmc)
        self._issuers[rmc.ref] = service
        if self._root_ref is None:
            self._root_ref = rmc.ref
        if self._deactivation_handlers:
            self._watch_rmc(rmc, service)
        return rmc

    def on_deactivation(self, handler: DeactivationHandler) -> None:
        """Register ``handler(rmc, reason)`` to run whenever a held role is
        deactivated — by this session, by the issuer, or by a cascade.

        The active middleware makes this push-based: the session subscribes
        to the revocation channels of its RMCs, so the user learns of a
        collapse (e.g. a retracted registration) without polling.
        """
        self._ensure_live()
        self._deactivation_handlers.append(handler)
        if len(self._deactivation_handlers) == 1:
            for ref, rmc in self._rmcs.items():
                issuer = self._issuers[ref]
                if issuer.is_active(ref):
                    self._watch_rmc(rmc, issuer)

    def _watch_rmc(self, rmc: RoleMembershipCertificate,
                   issuer: OasisService) -> None:
        if rmc.ref in self._watch_subs:
            return
        self._watch_subs[rmc.ref] = issuer.broker.subscribe(
            CREDENTIAL_REVOKED,
            lambda event, r=rmc: self._on_revoked(r, event),
            credential_ref=str(rmc.ref))

    def _on_revoked(self, rmc: RoleMembershipCertificate,
                    event: Event) -> None:
        sub = self._watch_subs.pop(rmc.ref, None)
        if sub is not None:
            sub.cancel()
        self._discard(rmc.ref)
        for handler in list(self._deactivation_handlers):
            handler(rmc, event.get("reason"))

    def _discard(self, ref: CredentialRef) -> None:
        """Forget a dead credential: drop the live entry and its watch.

        The root RMC stays in the live map so :attr:`root_rmc` and
        :meth:`logout` keep working after an issuer-side revocation.
        """
        if ref != self._root_ref:
            self._rmcs.pop(ref, None)
        sub = self._watch_subs.pop(ref, None)
        if sub is not None:
            sub.cancel()

    def _release_watches(self) -> None:
        """Cancel every remaining watch subscription (session over).

        Without this, roles that did not depend on the root — and so
        survive its deactivation — would keep their revocation
        subscriptions alive on the broker forever.
        """
        for sub in self._watch_subs.values():
            sub.cancel()
        self._watch_subs.clear()

    def invoke(self, service: OasisService, method: str,
               arguments: Sequence[Term] = (),
               use_appointments: Sequence[AppointmentCertificate] = (),
               environment: Optional[Dict[str, Any]] = None) -> Any:
        """Invoke a guarded method, presenting held credentials."""
        self._ensure_live()
        return service.invoke(self.principal.id, method, arguments,
                              credentials=self._presentations(use_appointments),
                              environment=environment)

    def issue_appointment(self, service: OasisService, name: str,
                          parameters: Sequence[Term],
                          holder: Optional[str] = None,
                          expires_at: Optional[float] = None,
                          environment: Optional[Dict[str, Any]] = None,
                          ) -> AppointmentCertificate:
        """Issue an appointment at ``service`` using this session's roles."""
        self._ensure_live()
        return service.issue_appointment(
            self.principal.id, name, parameters,
            credentials=self._presentations(()),
            holder=holder, expires_at=expires_at, environment=environment)

    def deactivate(self, rmc: RoleMembershipCertificate,
                   reason: str = "deactivated by principal") -> bool:
        """Deactivate one held role; dependants collapse via the cascade."""
        self._ensure_live()
        issuer = self._issuers.get(rmc.ref)
        if issuer is None:
            raise SessionError(f"RMC {rmc.ref} is not held by this session")
        revoked = issuer.deactivate_role(rmc, reason)
        if rmc.ref == self._root_ref:
            self._terminated = True
            self._release_watches()
        return revoked

    def logout(self) -> None:
        """Deactivate the initial role; the whole session collapses."""
        self._ensure_live()
        if self._root_ref is None:
            self._terminated = True
            return
        root = self._rmcs[self._root_ref]
        self.deactivate(root, reason="logout")

    # -- inspection ----------------------------------------------------------
    def held_rmcs(self) -> List[RoleMembershipCertificate]:
        """All RMCs ever acquired in this session (including dead ones)."""
        return list(self._history)

    def active_rmcs(self) -> List[RoleMembershipCertificate]:
        """RMCs whose credential records are still active at their issuers.

        Self-pruning: a credential its issuer reports dead is checked once
        more at most — it is dropped from the live map here, so repeated
        presentations do not keep round-tripping ``is_active`` for it.
        """
        active = []
        dead = []
        for ref, rmc in self._rmcs.items():
            if self._issuers[ref].is_active(ref):
                active.append(rmc)
            else:
                dead.append(ref)
        for ref in dead:
            self._discard(ref)
        return active

    def active_roles(self) -> List[Role]:
        return [rmc.role for rmc in self.active_rmcs()]

    def holds_role(self, role: Role) -> bool:
        return any(rmc.role == role for rmc in self.active_rmcs())

    def dependency_edges(self) -> List[Tuple[CredentialRef, CredentialRef]]:
        """Edges (dependency -> dependent) of this session's role tree,
        read back from the issuers' credential records."""
        edges = []
        for ref, issuer in self._issuers.items():
            record = issuer.credential_record(ref)
            if record is None:
                continue
            for dependency in record.membership_dependencies:
                if dependency in self._rmcs:
                    edges.append((dependency, ref))
        return edges

    # -- internals -----------------------------------------------------------
    def _presentations(self,
                       use_appointments: Sequence[AppointmentCertificate],
                       ) -> List[Presentation]:
        presentations = [Presentation(rmc) for rmc in self.active_rmcs()]
        for certificate in use_appointments:
            presentations.append(
                Presentation(certificate, holder=certificate.holder))
        return presentations

    def _ensure_live(self) -> None:
        if self._terminated:
            raise SessionError(f"{self.session_id} has terminated")
