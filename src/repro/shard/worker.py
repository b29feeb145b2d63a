"""Shard worker: a served node hosting one partition of the universe.

A worker is an ordinary ``repro serve`` process started with
``--shard I/N`` (:func:`repro.netd.deploy.serve_node` builds it): it
holds a *full replica of the policy world* — the world factory rebuilds
every service's rules and methods locally — but only *its partition of
the security state*.  :class:`~repro.netd.worlds.NodeContext` gives each
service a :class:`~repro.shard.partition.ShardedRefAllocator`, so every
credential record a worker holds has a ref that hashes to its own shard,
and, under a router with a state directory, a ``w<i>`` directory of its
own.  Everything a served node does — the
frame protocol, the service lock, the boot-time checkpoint, resume from
the store, the typed error replies — a worker does because it *is* one;
any :class:`~repro.netd.client.OasisClient` can talk to it, so its port
is trusted-local (docs/scaling.md).

:class:`ShardWorker` adds what only a shard has:

* two ops in front of the table of :mod:`repro.netd.ops` —
  ``issue_bulk`` (trusted bulk issuance with explicit dependencies) and
  ``bus.cascade`` (a batch another shard minted, routed by the
  coordinator: published here stamped ``net_origin``, so each hosted
  service's reverse-dependency index decides what it revokes);
* the **outbox**: a worker never talks to its siblings.  An
  :class:`Outbox` taps the broker and queues every event minted here;
  what one op queued rides that op's reply as ``value["outbox"]`` and
  the coordinator hands it to every other shard (see
  :mod:`repro.shard.router`).  The key is absent when nothing was
  queued, so an ordinary client sees ordinary replies.  A batch leaves
  the queue only in a reply it fits — it splits across replies,
  ``value["more"]`` says something is left — and an op that *fails*
  leaves its events queued: the router fetches either rest with empty
  ``bus.cascade`` calls before it returns or re-raises.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Deque, Dict, List, Mapping

from ..core import wire
from ..core.service import OasisService
from ..core.state import ref_from_payload
from ..core.types import PrincipalId, Role, RoleName
from ..events import Event, EventBroker
from ..netd.events import NET_ORIGIN
from ..netd.protocol import body_size, take_fitting
from ..netd.server import OasisServer

__all__ = ["Outbox", "ShardWorker"]

#: Frame bytes kept for the envelope around an outbox: the reply's, and
#: the request's the router forwards a batch in.
_ENVELOPE = 256


class Outbox:
    """Every event minted on shard ``shard`` of ``shards``, queued for
    the others.

    ``serve_node`` taps the broker with it before the world is built, so
    the cascades a resumed service replays at boot are queued too and
    ride the worker's first reply.  An event carrying ``net_origin``
    came from another shard and is never queued again: only a shard's
    own consequences travel, which is what ends every cascade.  A lone
    shard has no one to tell and queues nothing.
    """

    def __init__(self, broker: EventBroker, shard: int, shards: int) -> None:
        self.broker = broker
        self.shard = shard
        self.minted: List[Mapping[str, Any]] = []
        if shards > 1:
            broker.add_tap(self._tap)

    def _tap(self, event: Event) -> None:
        if event.get(NET_ORIGIN) is None:
            try:
                self.minted.append(event.to_payload())
            except TypeError:
                # Not JSON-native: process-local by construction, as for
                # :class:`~repro.netd.events.EventPump`.
                pass


class ShardWorker(OasisServer):
    """An :class:`~repro.netd.server.OasisServer` for one shard; takes
    the same arguments, with the :class:`Outbox` in place of the broker.
    The outbox is the broker's one tap here: the server attaches no
    event pump, since nothing subscribes to a shard's pushes."""

    def __init__(self, node: str, services: Mapping[str, OasisService], *,
                 outbox: Outbox, **kwargs: Any) -> None:
        super().__init__(node, services, **kwargs)
        self.outbox = outbox
        #: Batches no reply has carried yet.
        self._pending: Deque[Dict[str, Any]] = deque()
        self.batches_sent = self.events_sent = 0
        self.batches_received = self.events_received = 0

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
        """The shard-only ops, else the served node's; then what was
        minted joins the reply (still under the service lock)."""
        if op == "issue_bulk":
            value = self._op_issue_bulk(frame)
        elif op == "bus.cascade":
            value = {"delivered": self._op_cascade(frame)}
        else:
            value = super()._execute(conn, frame, op)
        minted = self.outbox.minted
        if minted:
            self.outbox.minted = []
            self._pending.append({"origin": self.node, "events": minted})
            self.batches_sent += 1
            self.events_sent += len(minted)
        if self._pending:
            # As much as fits next to the value (encoded here as well, to
            # know its size); the router asks for the rest.
            value["outbox"] = take_fitting(
                self._pending, self.max_frame - _ENVELOPE - body_size(value),
                lambda _batch: "events")
            if self._pending:
                value["more"] = True
        return value

    def _op_cascade(self, frame: Mapping[str, Any]) -> int:
        if not frame["events"]:  # the router fetching the rest of an outbox
            return 0
        # Built stamped, one object per event: what an Outbox queued
        # carries no ``net_origin`` of its own.
        stamp = (NET_ORIGIN, frame["origin"])
        events = [Event(payload["topic"],
                        (*map(tuple, payload["attributes"]), stamp),
                        payload["timestamp"])
                  for payload in frame["events"]]
        self.batches_received += 1
        self.events_received += len(events)
        return self.outbox.broker.publish_batch(events)

    def _op_issue_bulk(self, message: Mapping[str, Any]) -> Any:
        service = self._ops.service(message["service"])
        certificates = service.issue_rmcs_bulk([
            (PrincipalId(entry["principal"]),
             Role(RoleName(service.id, entry["role"]),
                  tuple(entry.get("parameters", ()))),
             tuple(ref_from_payload(dep)
                   for dep in entry.get("dependencies", ())),
             entry.get("session"))
            for entry in message["entries"]])
        return {"certs": [wire.certificate_text(certificate)
                          for certificate in certificates]}

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["shard"] = self.outbox.shard
        # ``revocations`` already includes the cascaded ones;
        # ``cascade_revocations`` is the subset, not an addend.
        stats["revocations"] = sum(
            snapshot.get("revocations", 0)
            for snapshot in stats["services"].values())
        stats["broker"] = self.outbox.broker.stats()
        stats["events_published"] = stats["broker"].get("published_count", 0)
        stats["bus"] = {"batches_sent": self.batches_sent,
                        "events_sent": self.events_sent,
                        "batches_received": self.batches_received,
                        "events_received": self.events_received}
        return stats
