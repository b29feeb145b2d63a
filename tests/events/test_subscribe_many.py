"""Differential tests: ``subscribe_many`` vs a loop of ``subscribe``.

Bulk issuance registers one revocation watch per credential; the batch
path amortizes the per-subscription setup but must keep the semantics of
the one-at-a-time path bit for bit — same registration order, same index
bucketing, same residual filtering, same cancellation behavior.
"""

import pytest

from repro.events import Event, EventBroker

from tests.reference import ScanBroker

TOPIC = "credential.revoked"


def shapes(count):
    """A mix of the filter shapes the service actually registers."""
    entries = []
    for index in range(count):
        if index % 4 == 0:
            attrs = {"credential_ref": f"svc#{index}"}  # index-key only
        elif index % 4 == 1:
            attrs = {"credential_ref": f"svc#{index}",
                     "reason": "logout"}                # key + residual
        elif index % 4 == 2:
            attrs = {"reason": "logout"}                # non-key filter
        else:
            attrs = {}                                  # wildcard
        entries.append(attrs)
    return entries


def deliveries(broker, count=12):
    """Register ``count`` mixed-shape watches, publish a probe stream,
    and return the (subscriber, event) delivery sequence."""
    seen = []
    subs = []
    for index, attrs in enumerate(shapes(count)):
        handler = (lambda event, index=index:
                   seen.append((index, event.get("credential_ref"))))
        subs.append((handler, attrs))
    yield_subs = broker.subscribe_many(TOPIC, subs) \
        if getattr(broker, "_use_batch", False) else \
        [broker.subscribe(TOPIC, handler, **attrs)
         for handler, attrs in subs]
    for index in range(count):
        broker.publish(Event.make(TOPIC, credential_ref=f"svc#{index}",
                                  reason="logout" if index % 2 else "expiry"))
    return seen, yield_subs


def batch_broker(broker_cls=EventBroker):
    broker = broker_cls()
    broker._use_batch = True
    return broker


class TestSubscribeManyDifferential:
    @pytest.mark.parametrize("indexed", [True, False])
    def test_delivery_identical_to_subscribe_loop(self, indexed):
        broker_cls = EventBroker if indexed else ScanBroker
        bulk_seen, _ = deliveries(batch_broker(broker_cls))
        loop_seen, _ = deliveries(broker_cls())
        assert bulk_seen == loop_seen
        assert bulk_seen  # the probe stream actually matched something

    def test_stats_identical(self):
        bulk = batch_broker()
        loop = EventBroker()
        deliveries(bulk)
        deliveries(loop)
        assert bulk.stats() == loop.stats()

    def test_registration_order_preserved(self):
        broker = EventBroker()
        order = []
        subs = broker.subscribe_many(TOPIC, [
            (lambda e: order.append("first"), {"credential_ref": "svc#1"}),
            (lambda e: order.append("second"), {}),
            (lambda e: order.append("third"), {"credential_ref": "svc#1"}),
        ])
        assert len(subs) == 3
        broker.publish(Event.make(TOPIC, credential_ref="svc#1"))
        assert order == ["first", "second", "third"]

    def test_cancel_returned_subscriptions(self):
        broker = EventBroker()
        seen = []
        subs = broker.subscribe_many(TOPIC, [
            (lambda e: seen.append("a"), {"credential_ref": "svc#1"}),
            (lambda e: seen.append("b"), {"credential_ref": "svc#1"}),
        ])
        subs[0].cancel()
        broker.publish(Event.make(TOPIC, credential_ref="svc#1"))
        assert seen == ["b"]
        assert broker.subscriber_count(TOPIC) == 1

    def test_residual_filter_still_applies(self):
        broker = EventBroker()
        seen = []
        broker.subscribe_many(TOPIC, [
            (lambda e: seen.append(e.get("reason")),
             {"credential_ref": "svc#1", "reason": "logout"}),
        ])
        broker.publish(Event.make(TOPIC, credential_ref="svc#1",
                                  reason="expiry"))  # bucket hit, residual miss
        broker.publish(Event.make(TOPIC, credential_ref="svc#1",
                                  reason="logout"))
        assert seen == ["logout"]

    def test_empty_batch_returns_empty(self):
        broker = EventBroker()
        assert broker.subscribe_many(TOPIC, []) == []
        assert broker.subscriber_count() == 0

    def test_empty_topic_raises(self):
        with pytest.raises(ValueError):
            EventBroker().subscribe_many("", [(lambda e: None, {})])
