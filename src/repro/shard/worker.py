"""Shard worker: a served node hosting one partition of the universe.

A worker is an ordinary ``repro serve`` process started with
``--shard I/N`` (:func:`repro.netd.deploy.serve_node` builds it): it
holds a *full replica of the policy world* — the world factory rebuilds
every service's rules and methods locally — but only *its partition of
the security state*.  :class:`~repro.netd.worlds.NodeContext` gives each
service a :class:`~repro.shard.partition.ShardedRefAllocator`, so every
credential record a worker holds has a ref that hashes to its own shard,
and a ``{shard}``-templated store.  Everything a served node does — the
frame protocol, the service lock, the boot-time checkpoint, resume from
the store, the typed error replies — a worker does because it *is* one;
any :class:`~repro.netd.client.OasisClient` can talk to it, so its port
is trusted-local (docs/scaling.md).

:class:`ShardWorker` adds what only a shard has:

* four ops in front of the table of :mod:`repro.netd.ops` —
  ``issue_bulk`` (trusted bulk issuance with explicit dependencies),
  ``bus.cascade`` / ``bus.link`` (cross-shard messages routed by the
  coordinator) and ``live_count``;
* the table's ``issued`` hook, which registers this shard with the
  owners of a new credential's foreign membership dependencies;
* the **outbox**: a worker never talks to its siblings.  Outgoing
  cross-shard messages (link registrations, coalesced cascade batches)
  accumulate on its :class:`~repro.shard.bus.CrossShardBus` and, drained
  under the service lock, ride the reply of the op that queued them as
  ``value["outbox"]``; the coordinator routes them (see
  :mod:`repro.shard.router`).  The key is absent when nothing was
  queued, so an ordinary client sees ordinary replies.  A message
  leaves the queue only in a reply it fits — item lists split across
  replies, ``value["more"]`` says something is left — and an op that
  *fails* leaves its forwards queued: the router fetches either rest
  with empty ``bus.link`` calls before it returns or re-raises.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Sequence

from ..core import wire
from ..core.credentials import CredentialRef
from ..core.service import OasisService
from ..core.state import ref_from_payload
from ..core.types import PrincipalId, Role, RoleName
from ..netd.protocol import body_size, take_fitting
from ..netd.server import OasisServer
from .bus import ShardBroker
from .partition import shard_of_ref

__all__ = ["ShardWorker"]

#: Frame bytes kept for the envelope around an outbox: the reply's, and
#: the request's the router forwards a message in.
_ENVELOPE = 256


class ShardWorker(OasisServer):
    """An :class:`~repro.netd.server.OasisServer` for one shard; takes
    the same arguments, with a :class:`ShardBroker` as ``broker``."""

    def __init__(self, node: str, services: Mapping[str, OasisService], *,
                 broker: ShardBroker, **kwargs: Any) -> None:
        super().__init__(node, services, broker=broker, **kwargs)
        self.bus = broker.bus
        #: Drained bus messages no reply has carried yet.
        self._pending: Deque[Dict[str, Any]] = deque()

    def serve_until_shutdown(self) -> None:
        """Until ``shutdown``, or until the process that started this one
        is gone: no worker outlives its coordinator, SIGKILLed or not."""
        parent = os.getppid()
        while os.getppid() == parent \
                and not self.shutdown_requested.wait(1.0):
            pass
        self.close()

    # -- operations ---------------------------------------------------------
    def _execute(self, conn: Any, frame: Mapping[str, Any], op: Any) -> Any:
        """The shard-only ops, else the served node's; then what the bus
        queued joins the reply (still under the service lock)."""
        if op == "issue_bulk":
            value = self._op_issue_bulk(frame)
        elif op == "live_count":
            value = {"counts": {key: len(service.active_credentials())
                                for key, service in self.services.items()}}
        elif op == "bus.cascade":
            value = {"delivered":
                     self.broker.deliver_remote(frame["events"])}
        elif op == "bus.link":
            value = {"registered": self.bus.register_remote_links(
                (ref, int(shard)) for ref, shard in frame["links"])}
        else:
            value = super()._execute(conn, frame, op)
        self._pending.extend(self.bus.drain())
        if self._pending:
            # As much as fits next to the value (encoded here as well, to
            # know its size); the router asks for the rest.
            value["outbox"] = take_fitting(
                self._pending, self.max_frame - _ENVELOPE - body_size(value),
                lambda message: "events" if message["kind"] == "cascade"
                else "links")
            if self._pending:
                value["more"] = True
        return value

    def _op_issue_bulk(self, message: Mapping[str, Any]) -> Any:
        service = self._ops.service(message["service"])
        entries = []
        all_deps: List[CredentialRef] = []
        for entry in message["entries"]:
            dependencies = tuple(ref_from_payload(dep)
                                 for dep in entry.get("dependencies", ()))
            all_deps.extend(dependencies)
            entries.append((PrincipalId(entry["principal"]),
                            Role(RoleName(service.id, entry["role"]),
                                 tuple(entry.get("parameters", ()))),
                            dependencies, entry.get("session")))
        certificates = service.issue_rmcs_bulk(entries)
        self.link_dependencies(all_deps)
        return {"certs": [wire.certificate_text(certificate)
                          for certificate in certificates]}

    # -- cross-shard dependency edges ---------------------------------------
    def link_dependencies(self,
                          dependencies: Sequence[CredentialRef]) -> None:
        """Register this shard as a dependent holder with each foreign
        dependency's owner (no-op for locally owned deps)."""
        for dep in dependencies:
            owner = shard_of_ref(dep, self.bus.shards)
            if owner != self.bus.shard:
                self.bus.link_dependency(dep.qualified, owner)

    def _issued(self, service: OasisService, certificate: Any) -> None:
        """The ``issued`` hook of the shared op table: register this
        shard with the owners of the new credential's foreign
        membership dependencies."""
        record = service.credential_record(certificate.ref)
        if record is not None and record.membership_dependencies:
            self.link_dependencies(record.membership_dependencies)

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["shard"] = self.bus.shard
        # ``revocations`` already includes the cascaded ones;
        # ``cascade_revocations`` is the subset, not an addend.
        stats["revocations"] = sum(
            snapshot.get("revocations", 0)
            for snapshot in stats["services"].values())
        stats["events_published"] = stats["broker"].get("published_count", 0)
        stats["bus"] = self.bus.stats()
        return stats
