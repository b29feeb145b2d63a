"""Transport adapter for the callback-validation protocol (Sect. 4).

The state core refactor makes :class:`~repro.core.service.OasisService`
transport-agnostic: the service owns the *logical* protocol (check the
certificate against the credential record, fail closed) while this adapter
owns the *wire* concerns — endpoint naming, registration against a
network, and the remote call itself.  Swapping the simulated network for a
real transport (ROADMAP item 1) means implementing this adapter's three
verbs over sockets; the service does not change.

The adapter deliberately raises the transport's own
:class:`~repro.net.sim.NetworkError` on failure rather than an
access-control exception: translating "issuer unreachable" into "treat the
credential as invalid for this request" is a *policy* decision (fail
closed) that belongs to the service, not the transport.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

__all__ = ["VALIDATE_ENDPOINT", "endpoint_name", "ValidationTransport"]

#: Network endpoint suffix under which services expose callback validation.
VALIDATE_ENDPOINT = "oasis.validate"


def endpoint_name(service: Any) -> str:
    """The endpoint a service's validation handler is registered under."""
    return f"{VALIDATE_ENDPOINT}/{service.name}"


class ValidationTransport:
    """Binds one service's validation endpoint to a network.

    ``network`` is anything with the :class:`~repro.net.sim.SimNetwork`
    surface (``register``/``unregister``/``has_endpoint``/``call_many``).
    """

    __slots__ = ("network",)

    def __init__(self, network: Any) -> None:
        self.network = network

    def bind(self, service_id: Any,
             handler: Callable[..., Any]) -> None:
        """Expose ``handler`` as ``service_id``'s validation endpoint.

        The simulated network treats a duplicate registration as an
        error, so a resumed service must clear the crashed instance's
        stale registration first — ``OasisService.resume`` calls
        :meth:`unbind` before constructing the service that binds here.
        """
        self.network.register(service_id.domain, endpoint_name(service_id),
                              handler)

    def unbind(self, service_id: Any) -> None:
        """Drop ``service_id``'s registration; a no-op when absent."""
        self.network.unregister(service_id.domain, endpoint_name(service_id))

    def reaches(self, issuer: Any) -> bool:
        """Whether ``issuer`` exposes a validation endpoint on this
        network (otherwise callers fall back to the in-process registry)."""
        return self.network.has_endpoint(issuer.domain,
                                         endpoint_name(issuer))

    def validate_many(self, caller: Any,
                      requests: Sequence[Tuple[Any, Any, str, Any]]
                      ) -> List[Any]:
        """The callback validations of one request, each ``(issuer,
        certificate, principal_value, holder)``: one outcome per request,
        in order — the issuer's verdict, or the exception raised for it
        (``NetworkError`` on transport failure, whatever the issuer's
        handler raises on an invalid credential).  How many messages that
        takes is the network's business: the simulated network sends one
        round trip per certificate, the socket network one RPC per
        issuing peer."""
        return self.network.call_many(caller.domain, [
            (issuer.domain, endpoint_name(issuer),
             (certificate, principal_value, holder))
            for issuer, certificate, principal_value, holder in requests])
