"""The wire form of the service operations — defined once.

A hosted :class:`~repro.core.service.OasisService` is reached through
its :class:`~repro.netd.server.OasisServer` (a shard worker,
:mod:`repro.shard.worker`, is one) by a small dict message
``{"op": <name>, ...fields}`` whose certificates are
:func:`~repro.core.wire.certificate_text` strings and whose CRRs are
:func:`~repro.core.state.ref_payload` dicts.  This module is the single
definition of that vocabulary:

* the **encoders** a caller builds the fields with
  (:func:`presentation_payload`, :func:`activation_payload`) — shared by
  :class:`~repro.netd.client.OasisClient` and
  :class:`~repro.shard.router.ShardRouter`;
* :class:`ServiceOps`, the **decode-and-dispatch host** over a
  ``{key: OasisService}`` mapping that ``OasisServer._execute`` calls:
  ``activate``, ``activate_bulk``,
  ``invoke``, ``appoint``, ``revoke``, ``is_active``, ``record``,
  ``audit``, ``sessions``, ``spans``, ``handler``, ``checkpoint``.

What is not a service op stays with the server — ``validate_many`` /
``stats`` / ``auth.*`` and the lock-free ops — and what only a shard has
with its subclass: ``issue_bulk`` / ``bus.cascade``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..core import wire
from ..core.access_log import AccessRecord
from ..core.credentials import CredentialRef
from ..core.service import ActivationRequest, OasisService, Presentation
from ..core.state import ref_from_payload, ref_payload
from ..core.types import PrincipalId
from ..obs.runtime import Observability

__all__ = ["ServiceOps", "presentation_payload", "presentation_payloads",
           "activation_payload"]


# -- encoders (caller side) ----------------------------------------------------

def presentation_payload(credential: Any) -> Dict[str, Any]:
    """A presented credential as its wire dict (bare certificates are
    wrapped in a default :class:`Presentation` first)."""
    if not isinstance(credential, Presentation):
        credential = Presentation(credential)
    payload: Dict[str, Any] = {
        "cert": wire.certificate_text(credential.certificate)}
    if credential.holder is not None:
        payload["holder"] = credential.holder
    if credential.on_behalf_of is not None:
        payload["on_behalf_of"] = credential.on_behalf_of
    return payload


def presentation_payloads(credentials: Sequence[Any]) -> List[Dict[str, Any]]:
    return [presentation_payload(credential) for credential in credentials]


def activation_payload(principal: str, role: str,
                       parameters: Optional[Sequence[Any]] = None,
                       credentials: Sequence[Any] = (),
                       environment: Optional[Dict[str, Any]] = None,
                       session: Optional[str] = None) -> Dict[str, Any]:
    """One activation request as its wire dict — the ``request`` field
    of ``activate`` and each entry of ``activate_bulk``'s ``requests``."""
    request: Dict[str, Any] = {"principal": principal, "role": role}
    if parameters is not None:
        request["parameters"] = list(parameters)
    if credentials:
        request["credentials"] = presentation_payloads(credentials)
    if environment is not None:
        request["environment"] = environment
    if session is not None:
        request["session"] = session
    return request


# -- decode and dispatch (hosting side) ----------------------------------------

class ServiceOps:
    """Executes the shared ops against the services one host holds.

    ``host`` names the hosting node or worker in error messages.
    """

    def __init__(self, host: str, services: Mapping[str, OasisService],
                 handlers: Mapping[str, Callable[[Any], Any]],
                 pipeline: Optional[Observability] = None) -> None:
        self.host = host
        self.services = services
        self.handlers = handlers
        self.pipeline = pipeline
        self._by_id = {service.id: service for service in services.values()}

    def service(self, key: str) -> OasisService:
        try:
            return self.services[key]
        except KeyError:
            raise KeyError(f"{self.host} hosts no service keyed "
                           f"{key!r}") from None

    def _service_for_ref(self, ref: CredentialRef) -> OasisService:
        try:
            return self._by_id[ref.service]
        except KeyError:
            raise KeyError(f"{self.host} hosts no service "
                           f"{ref.service}") from None

    @staticmethod
    def _presentations(payloads: Sequence[Mapping[str, Any]]
                       ) -> List[Presentation]:
        return [Presentation(wire.certificate_from_text(entry["cert"]),
                             holder=entry.get("holder"),
                             on_behalf_of=entry.get("on_behalf_of"))
                for entry in payloads]

    def _activation_request(self, payload: Mapping[str, Any]
                            ) -> ActivationRequest:
        parameters = payload.get("parameters")
        return ActivationRequest(
            principal=PrincipalId(payload["principal"]),
            role_name=payload["role"],
            parameters=None if parameters is None else list(parameters),
            credentials=self._presentations(payload.get("credentials", ())),
            environment=payload.get("environment"),
            session_id=payload.get("session"))

    def execute(self, op: Any, message: Mapping[str, Any]) -> Any:
        """Run one shared op; ``ValueError`` for any other name."""
        if op == "activate":
            service = self.service(message["service"])
            request = self._activation_request(message["request"])
            certificate = service.activate_role(
                request.principal, request.role_name, request.parameters,
                request.credentials, environment=request.environment,
                session_id=request.session_id)
            return {"cert": wire.certificate_text(certificate)}
        if op == "activate_bulk":
            service = self.service(message["service"])
            requests = [self._activation_request(payload)
                        for payload in message["requests"]]
            certificates = service.activate_roles_bulk(requests)
            return {"certs": [wire.certificate_text(certificate)
                              for certificate in certificates]}
        if op == "invoke":
            service = self.service(message["service"])
            result = service.invoke(
                PrincipalId(message["principal"]), message["method"],
                list(message.get("arguments", ())),
                credentials=self._presentations(
                    message.get("credentials", ())))
            return {"result": result}
        if op == "appoint":
            service = self.service(message["service"])
            certificate = service.issue_appointment(
                PrincipalId(message["appointer"]), message["name"],
                list(message.get("parameters", ())),
                credentials=self._presentations(
                    message.get("credentials", ())),
                holder=message.get("holder"),
                expires_at=message.get("expires_at"))
            return {"cert": wire.certificate_text(certificate)}
        if op == "revoke":
            ref = ref_from_payload(message["ref"])
            service = self._service_for_ref(ref)
            return {"revoked": service.revoke(ref, message.get("reason",
                                                               "revoked"))}
        if op == "is_active":
            ref = ref_from_payload(message["ref"])
            return {"active": self._service_for_ref(ref).is_active(ref)}
        if op == "record":
            return self._op_record(message)
        if op == "audit":
            return self._op_audit(message)
        if op == "sessions":
            service = self.service(message["service"])
            return {"sessions": sorted(service.live_sessions())}
        if op == "spans":
            if self.pipeline is None:
                return {"spans": []}
            spans = self.pipeline.tracer.spans(message.get("trace_id"),
                                               message.get("name"))
            return {"spans": [span.to_dict() for span in spans]}
        if op == "handler":
            handler = self.handlers.get(message["name"])
            if handler is None:
                raise KeyError(f"{self.host} has no handler "
                               f"{message['name']!r}")
            return {"result": handler(message.get("payload"))}
        if op == "checkpoint":
            for service in self.services.values():
                service.checkpoint()
            return {}
        raise ValueError(f"unknown op {op!r}")

    def _op_record(self, message: Mapping[str, Any]) -> Any:
        ref = ref_from_payload(message["ref"])
        record = self._service_for_ref(ref).credential_record(ref)
        if record is None:
            return {"found": False}
        return {"found": True, "status": record.status,
                "reason": record.revoked_reason,
                "session": record.session_id,
                "principal": (record.principal.value
                              if record.principal is not None else None),
                "dependencies": [ref_payload(dep) for dep
                                 in record.membership_dependencies]}

    def _op_audit(self, message: Mapping[str, Any]) -> Any:
        """The service's access records as rows: timestamp, kind,
        principal, subject, reason, trace id and the rule attempts that
        explain the decision (``RuleAttempt.to_dict()``; empty unless
        the service was built under a pipeline)."""
        service = self.service(message["service"])
        kind = message.get("kind")
        records: List[AccessRecord] = (service.access_log.query(kind=kind)
                                       if kind is not None
                                       else list(service.access_log))
        return {"records": [[entry.timestamp, entry.kind, entry.principal,
                             entry.subject, entry.reason, entry.trace_id,
                             [attempt.to_dict()
                              for attempt in entry.attempts]]
                            for entry in records]}
