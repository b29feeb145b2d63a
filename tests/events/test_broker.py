"""Tests for the pub/sub event broker."""

import pytest

from repro.events import Event, EventBroker
from repro.events.broker import DEFAULT_INDEX_KEY


@pytest.fixture
def broker():
    return EventBroker()


class TestEvent:
    def test_attributes_normalised(self):
        a = Event.make("t", x=1, y=2)
        b = Event("t", (("y", 2), ("x", 1)))
        assert a == b

    def test_get(self):
        event = Event.make("t", x=1)
        assert event.get("x") == 1
        assert event.get("missing", "dflt") == "dflt"

    def test_empty_topic_rejected(self):
        with pytest.raises(ValueError):
            Event.make("")

    def test_hashable(self):
        assert len({Event.make("t", x=1), Event.make("t", x=1)}) == 1


class TestSubscribe:
    def test_delivery(self, broker):
        seen = []
        broker.subscribe("t", seen.append)
        broker.publish(Event.make("t", n=1))
        assert len(seen) == 1

    def test_topic_isolation(self, broker):
        seen = []
        broker.subscribe("a", seen.append)
        broker.publish(Event.make("b"))
        assert seen == []

    def test_multiple_subscribers(self, broker):
        counts = [0, 0]

        broker.subscribe("t", lambda e: counts.__setitem__(0, counts[0] + 1))
        broker.subscribe("t", lambda e: counts.__setitem__(1, counts[1] + 1))
        delivered = broker.publish(Event.make("t"))
        assert counts == [1, 1]
        assert delivered == 2

    def test_cancel(self, broker):
        seen = []
        sub = broker.subscribe("t", seen.append)
        sub.cancel()
        broker.publish(Event.make("t"))
        assert seen == []
        assert not sub.active
        sub.cancel()  # idempotent

    def test_subscriber_count(self, broker):
        broker.subscribe("a", lambda e: None)
        sub = broker.subscribe("b", lambda e: None)
        assert broker.subscriber_count() == 2
        assert broker.subscriber_count("a") == 1
        sub.cancel()
        assert broker.subscriber_count("b") == 0

    def test_empty_topic_rejected(self, broker):
        with pytest.raises(ValueError):
            broker.subscribe("", lambda e: None)


class TestNestedPublish:
    def test_handler_publishing_more_events(self, broker):
        """Cascades: a handler publishes; delivery stays FIFO and completes."""
        order = []

        def first_handler(event):
            order.append("first")
            broker.publish(Event.make("second"))

        broker.subscribe("first", first_handler)
        broker.subscribe("second", lambda e: order.append("second"))
        broker.publish(Event.make("first"))
        assert order == ["first", "second"]

    def test_chain_of_cascading_topics(self, broker):
        seen = []
        for index in range(5):
            def handler(event, i=index):
                seen.append(i)
                if i + 1 < 5:
                    broker.publish(Event.make(f"hop-{i + 1}"))

            broker.subscribe(f"hop-{index}", handler)
        broker.publish(Event.make("hop-0"))
        assert seen == [0, 1, 2, 3, 4]

    def test_subscribe_during_delivery_takes_effect_next_publish(self, broker):
        seen = []

        def handler(event):
            broker.subscribe("t", seen.append)

        broker.subscribe("t", handler)
        broker.publish(Event.make("t"))
        assert seen == []  # late subscriber missed the in-flight event
        broker.publish(Event.make("t"))
        assert len(seen) == 1

    def test_cancel_during_delivery(self, broker):
        seen = []
        subs = {}

        def canceller(event):
            subs["victim"].cancel()

        broker.subscribe("t", canceller)
        subs["victim"] = broker.subscribe("t", seen.append)
        broker.publish(Event.make("t"))
        # Cancellation takes effect immediately: the victim must not see
        # the in-flight event (it was cancelled before its turn) nor any
        # later one — no notifications after cancel, ever.
        broker.publish(Event.make("t"))
        assert seen == []


class TestCounters:
    def test_published_and_delivered(self, broker):
        broker.subscribe("t", lambda e: None)
        broker.subscribe("t", lambda e: None)
        broker.publish(Event.make("t"))
        broker.publish(Event.make("untopic"))
        assert broker.published_count == 2
        assert broker.delivered_count == 2


class TestPublishBatch:
    def test_batch_delivers_in_order(self, broker):
        seen = []
        broker.subscribe("t", lambda e: seen.append(e.get("n")))
        delivered = broker.publish_batch(
            [Event.make("t", n=1), Event.make("t", n=2), Event.make("t", n=3)])
        assert seen == [1, 2, 3]
        assert delivered == 3
        assert broker.published_count == 3

    def test_empty_batch_is_noop(self, broker):
        assert broker.publish_batch([]) == 0
        assert broker.published_count == 0

    def test_transitive_deliveries_not_in_return_value(self, broker):
        broker.subscribe("a", lambda e: broker.publish(Event.make("b")))
        broker.subscribe("b", lambda e: None)
        delivered = broker.publish_batch([Event.make("a")])
        assert delivered == 1  # the nested "b" delivery is transitive
        assert broker.delivered_count == 2

    def test_batch_inside_delivery_is_queued_fifo(self, broker):
        order = []

        def handler(event):
            order.append("first")
            broker.publish_batch([Event.make("second"),
                                  Event.make("third")])

        broker.subscribe("first", handler)
        broker.subscribe("second", lambda e: order.append("second"))
        broker.subscribe("third", lambda e: order.append("third"))
        broker.publish(Event.make("first"))
        assert order == ["first", "second", "third"]

    def test_events_left_by_a_raise_are_delivered_but_not_counted(
            self, broker):
        """A handler raised with a nested publish still queued: the next
        publish delivers that leftover first, in order, but returns only
        the deliveries of the events it appended itself."""
        order = []

        def failing(event):
            broker.publish(Event.make("left", n=event.get("n")))
            raise RuntimeError("handler failed")

        broker.subscribe("fail", failing)
        broker.subscribe("left", lambda e: order.append(("left", e.get("n"))))
        broker.subscribe("left", lambda e: order.append(("again", e.get("n"))))
        broker.subscribe("own", lambda e: order.append(("own", e.get("n"))))
        with pytest.raises(RuntimeError):
            broker.publish(Event.make("fail", n=1))
        assert broker.publish(Event.make("quiet")) == 0
        assert order == [("left", 1), ("again", 1)]
        with pytest.raises(RuntimeError):
            broker.publish(Event.make("fail", n=2))
        assert broker.publish_batch(
            [Event.make("quiet"), Event.make("own", n=3)]) == 1
        assert order[2:] == [("left", 2), ("again", 2), ("own", 3)]


class TestIndexedDispatch:
    def test_default_is_indexed_on_credential_ref(self, broker):
        assert broker.stats()["index_key"] == DEFAULT_INDEX_KEY \
            == "credential_ref"
        broker.subscribe("t", lambda e: None, credential_ref="r")
        assert broker.stats()["index_buckets"]["t"]["buckets"] == 1

    def test_credential_and_issuer_keys_share_one_index(self, broker):
        broker.subscribe("t", lambda e: None, credential_ref="dom/svc#1")
        scoped = broker.subscribe_issuers("t", lambda e: None, ["dom/svc"])
        scoped.attend("dom/other")
        assert broker.stats()["index_buckets"]["t"] == {
            "buckets": 3, "subscriptions": 3, "largest": 1}
        scoped.cancel()
        assert broker.stats()["index_buckets"]["t"]["buckets"] == 1

    def test_bucket_and_wildcard_merge_preserves_order(self, broker):
        order = []
        broker.subscribe("t", lambda e: order.append("indexed-1"),
                         credential_ref="r")
        broker.subscribe("t", lambda e: order.append("wild"))
        broker.subscribe("t", lambda e: order.append("indexed-2"),
                         credential_ref="r")
        broker.publish(Event.make("t", credential_ref="r"))
        assert order == ["indexed-1", "wild", "indexed-2"]


class TestStats:
    def test_per_topic_counters(self, broker):
        broker.subscribe("t", lambda e: None)
        broker.publish(Event.make("t"))
        broker.publish(Event.make("t"))
        broker.publish(Event.make("quiet"))
        stats = broker.stats()
        assert stats["published_count"] == 3
        assert stats["delivered_count"] == 2
        assert stats["topics"]["t"] == {"published": 2, "delivered": 2}
        assert stats["topics"]["quiet"] == {"published": 1, "delivered": 0}

    def test_index_bucket_sizes(self, broker):
        broker.subscribe("t", lambda e: None, credential_ref="a")
        broker.subscribe("t", lambda e: None, credential_ref="a")
        broker.subscribe("t", lambda e: None, credential_ref="b")
        wild = broker.subscribe("t", lambda e: None)
        stats = broker.stats()
        assert stats["subscriptions"] == 4
        assert stats["wildcard_subscriptions"] == 1
        assert stats["index_buckets"]["t"] == {
            "buckets": 2, "subscriptions": 3, "largest": 2}
        wild.cancel()
        assert broker.stats()["wildcard_subscriptions"] == 0

    def test_buckets_shrink_on_cancel(self, broker):
        sub = broker.subscribe("t", lambda e: None, credential_ref="a")
        assert broker.stats()["index_buckets"]["t"]["buckets"] == 1
        sub.cancel()
        assert broker.stats()["index_buckets"] == {}
        assert broker.subscriber_count() == 0
