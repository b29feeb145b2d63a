"""Which cascade of a broker drain syncs, and when its markers are written.

A drain that a journalled cascade of this process starts covers the hops
it causes: they journal write-behind, committing nothing.  A drain that starts elsewhere
(a remote batch, a bare publish) covers nothing.  In both, a
``cascade-done`` marker is written only once every event of the drain
has been delivered.
"""

from repro.core import (
    OasisService,
    Presentation,
    PrincipalId,
    ServiceRegistry,
)
from repro.core.state import ServiceStateCodec
from repro.db import MemoryRecordStore
from repro.events import CREDENTIAL_REVOKED, Event, EventBroker

from test_power_cut import chain_policies


def build_chain(depth=3):
    broker, registry = EventBroker(), ServiceRegistry()
    services = [OasisService(policy, broker, registry,
                             store=MemoryRecordStore(ServiceStateCodec()))
                for policy in chain_policies(depth)]
    pid = PrincipalId("p0")
    chain = [services[0].activate_role(pid, "role", ["p0"])]
    for service in services[1:]:
        chain.append(service.activate_role(pid, "role", None,
                                           [Presentation(chain[-1])]))
    return broker, services, chain


def done_markers(service):
    return [entry["cascade_seq"] for _, entry in service.store.log_entries()
            if entry["op"] == "cascade-done"]


def fsyncs(services):
    return [service.store.durable_commits for service in services]


def test_no_marker_is_written_before_its_events_are_delivered():
    """A nested hop's publish only queues its events; its marker must
    wait for their delivery, not follow the queueing call."""
    broker, services, chain = build_chain()
    early = []

    def tap(event):
        for service in services:
            if done_markers(service):
                early.append((event.get("credential_ref"), str(service.id)))

    broker.add_tap(tap)
    assert services[0].revoke(chain[0].ref, "logout")
    assert early == []
    assert all(len(done_markers(service)) == 1 for service in services)


def test_a_drain_started_elsewhere_covers_nothing():
    """An event published from outside any cascade (as a remote batch
    is) starts the drain: every cascade in it syncs its own entry, and
    the markers follow the drain's end."""
    broker, services, chain = build_chain()
    before = fsyncs(services)
    broker.publish(Event.make(CREDENTIAL_REVOKED,
                              credential_ref=chain[0].ref.qualified,
                              reason="remote logout"))
    paid = [after - count for after, count in zip(fsyncs(services), before)]
    assert paid == [0, 1, 1]
    assert not services[1].is_active(chain[1].ref)
    assert not services[2].is_active(chain[2].ref)
    assert [len(done_markers(service)) for service in services] == [0, 1, 1]


def test_a_local_revoke_pays_one_fsync():
    broker, services, chain = build_chain()
    before = fsyncs(services)
    assert services[0].revoke(chain[0].ref, "logout")
    paid = [after - count for after, count in zip(fsyncs(services), before)]
    assert paid == [1, 0, 0]
