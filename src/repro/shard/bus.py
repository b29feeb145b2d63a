"""Cross-shard event routing: remote dependency links + forwarding broker.

A revocation cascade is local until a Fig. 5 dependency edge crosses a
shard boundary: a credential issued on shard B depends on one owned by
shard A.  The protocol mirrors the in-process design (one event channel
per credential record) at shard granularity:

* **link registration** — when B issues a credential with a foreign
  dependency, it queues a ``link`` message to the owner shard A.  A's
  :class:`CrossShardBus` records ``ref -> {B}``; this is the cross-shard
  analogue of the issuer-side event channel subscription.
* **cascade forwarding** — when A's broker publishes a collapsed
  subtree's coalesced ``CREDENTIAL_REVOKED`` batch (PR 3 semantics), the
  :class:`ShardBroker` hands the batch to the bus, which selects the
  events whose refs have remote links and queues **one coalesced
  ``cascade`` message per target shard** — one cross-shard hop per
  publish, however many credentials died.  Events travel as
  :meth:`~repro.events.messages.Event.to_payload` dicts, so the span
  context (``trace_id``/``span_id``) attached by the observability layer
  rides along and the receiving worker parents its cascade spans under
  the remote revocation — ``obs`` stitches the multi-worker cascade into
  one trace tree.
* **delivery** — the receiving worker injects the batch through
  :meth:`ShardBroker.deliver_remote`, which publishes on the *base*
  broker only: injected events are never re-forwarded, so two shards can
  hold links onto each other without ping-pong.  Cascades the delivery
  *triggers* publish through the subclass and do forward — multi-hop
  chains settle hop by hop.

Exactly-once collapse does not depend on the bus being exactly-once:
``CredentialRecord.revoke`` is idempotent and a worker only flips records
it owns, so a duplicate or stale forwarded event finds no active
dependents and dies out (same argument as the in-process diamond
convergence in tests/core/test_cascade_graphs.py).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Set, Tuple

from ..events.broker import EventBroker
from ..events.messages import CREDENTIAL_REVOKED, Event

__all__ = ["CrossShardBus", "ShardBroker"]


class CrossShardBus:
    """One worker's endpoint of the cross-shard revocation bus.

    Holds the remote-link registry for credentials this shard owns and an
    outbox of coalesced messages for other shards.  The transport is
    deliberately not here: the worker drains the outbox into its RPC
    replies and the coordinator routes each message to the target worker
    (see :mod:`repro.shard.router`), so delivery order per link is the
    order the coordinator reads them off the worker's replies.
    """

    def __init__(self, shard: int, shards: int) -> None:
        self.shard = shard
        self.shards = shards
        #: ref.qualified -> shards holding dependents of that credential.
        self._remote_links: Dict[str, Set[int]] = {}
        self._outbox: List[Dict[str, Any]] = []
        self.links_registered = 0
        self.batches_sent = 0
        self.batches_received = 0
        self.events_sent = 0
        self.events_received = 0

    # -- issuance side ------------------------------------------------------
    def link_dependency(self, dep_ref_qualified: str,
                        owner_shard: int) -> None:
        """Queue a link registration to a foreign dependency's owner."""
        if owner_shard == self.shard:
            return
        self._outbox.append({"kind": "link", "to": owner_shard,
                             "links": [[dep_ref_qualified, self.shard]]})

    # -- owner side ---------------------------------------------------------
    def register_remote_links(self,
                              links: Iterable[Tuple[str, int]]) -> int:
        """Record that foreign shards hold dependents of local credentials."""
        count = 0
        for ref, holder_shard in links:
            self._remote_links.setdefault(ref, set()).add(holder_shard)
            count += 1
        self.links_registered += count
        return count

    def forward(self, events: Iterable[Event]) -> None:
        """Queue remote-linked events, one coalesced message per shard.

        Called by :class:`ShardBroker` on every publish.  A
        ``CREDENTIAL_REVOKED`` event is terminal for its channel, so its
        links are dropped after forwarding; other linked topics (e.g.
        ``credential.reissued``) keep theirs.
        """
        per_shard: Dict[int, List[Mapping[str, Any]]] = {}
        for event in events:
            ref = event.get("credential_ref")
            if ref is None:
                continue
            targets = self._remote_links.get(ref)
            if not targets:
                continue
            if event.topic == CREDENTIAL_REVOKED:
                del self._remote_links[ref]
            payload = event.to_payload()
            for target in targets:
                per_shard.setdefault(target, []).append(payload)
        for target, payloads in sorted(per_shard.items()):
            self._outbox.append({"kind": "cascade", "to": target,
                                 "events": payloads})
            self.batches_sent += 1
            self.events_sent += len(payloads)

    # -- transport glue -----------------------------------------------------
    def drain(self) -> List[Dict[str, Any]]:
        """Take the queued outgoing messages (coalescing link messages
        that target the same shard)."""
        out, self._outbox = self._outbox, []
        merged: List[Dict[str, Any]] = []
        link_index: Dict[int, Dict[str, Any]] = {}
        for message in out:
            if message["kind"] == "link":
                existing = link_index.get(message["to"])
                if existing is not None:
                    existing["links"].extend(message["links"])
                    continue
                link_index[message["to"]] = message
            merged.append(message)
        return merged

    def remote_link_count(self) -> int:
        return sum(len(holders) for holders in self._remote_links.values())

    def stats(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "remote_links": self.remote_link_count(),
            "links_registered": self.links_registered,
            "batches_sent": self.batches_sent,
            "batches_received": self.batches_received,
            "events_sent": self.events_sent,
            "events_received": self.events_received,
        }


class ShardBroker(EventBroker):
    """An :class:`EventBroker` whose publishes also cross shard boundaries.

    Locally it is the ordinary indexed broker — services subscribe,
    cascades collapse, delivery order is FIFO.  Additionally every
    published event is offered to the :class:`CrossShardBus` for
    forwarding to shards that registered dependent links.
    """

    def __init__(self, bus: CrossShardBus, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.bus = bus

    def publish(self, event: Event) -> int:
        self.bus.forward((event,))
        return super().publish(event)

    def publish_batch(self, events: Iterable[Event]) -> int:
        batch = list(events)
        self.bus.forward(batch)
        return super().publish_batch(batch)

    def deliver_remote(self, payloads: Iterable[Mapping[str, Any]]) -> int:
        """Publish a forwarded batch locally without re-forwarding it."""
        events = [Event.from_payload(payload) for payload in payloads]
        self.bus.batches_received += 1
        self.bus.events_received += len(events)
        return EventBroker.publish_batch(self, events)
