"""Differential tests: indexed dispatch vs the naive linear scan.

``EventBroker`` keys each subscription under every channel key it
hears (a credential's CRR string, or an issuer) and merges the event's
CRR and issuer buckets with the topic's wildcard subscriptions at
delivery time; ``tests.reference.ScanBroker`` scans every subscription
in registration order.  These tests drive
randomized publish/subscribe/cancel scripts through both and assert
delivery is *identical*: same handler invocations, same order, same
per-publish delivery counts, same broker counters.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import Event, EventBroker

from tests.conftest import examples
from tests.reference import ScanBroker

TOPICS = ["credential.revoked", "credential.heartbeat", "app.custom"]
REFS = [f"dom:svc#{serial}" for serial in range(8)]
OTHER_REFS = [f"dom/other#{serial}" for serial in range(4)]
ISSUERS = ["dom:svc", "dom/other", "dom/none"]
REASONS = ["logout", "cascade", None]


def make_broker(indexed: bool) -> EventBroker:
    return EventBroker() if indexed else ScanBroker()


def run_script(broker: EventBroker, seed: int, steps: int = 500,
               scoped: bool = False):
    """Drive one deterministic random script; return everything observable.
    ``scoped`` also draws issuer-scoped subscriptions (and widens them)
    and publishes the refs of a second issuer."""
    rng = random.Random(seed)
    refs = REFS + OTHER_REFS if scoped else REFS
    log = []
    live_subs = {}
    issuer_scoped = set()
    counter = [0]

    def make_handler(sub_id):
        return lambda event: log.append(
            (sub_id, event.topic, event.attributes))

    returned = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.40 or not live_subs:
            sub_id = counter[0]
            counter[0] += 1
            if scoped and rng.random() < 0.3:
                live_subs[sub_id] = broker.subscribe_issuers(
                    rng.choice(TOPICS), make_handler(sub_id),
                    rng.sample(ISSUERS, rng.randint(0, 2)))
                issuer_scoped.add(sub_id)
                continue
            filters = {}
            if rng.random() < 0.55:
                filters["credential_ref"] = rng.choice(refs)
            live_subs[sub_id] = broker.subscribe(
                rng.choice(TOPICS), make_handler(sub_id), **filters)
        elif roll < 0.55:
            sub_id = rng.choice(sorted(live_subs))
            live_subs.pop(sub_id).cancel()
        elif scoped and roll < 0.65:
            sub_id = rng.choice(sorted(live_subs))
            if sub_id in issuer_scoped:
                live_subs[sub_id].attend(rng.choice(ISSUERS))
        else:
            attrs = {}
            if rng.random() < 0.80:
                attrs["credential_ref"] = rng.choice(refs)
            reason = rng.choice(REASONS)
            if reason is not None:
                attrs["reason"] = reason
            returned.append(
                broker.publish(Event.make(rng.choice(TOPICS), **attrs)))
    return {
        "log": log,
        "returned": returned,
        "published": broker.published_count,
        "delivered": broker.delivered_count,
        "subscriber_count": broker.subscriber_count(),
    }


@pytest.mark.parametrize("seed", range(12))
def test_randomized_scripts_deliver_identically(seed):
    indexed = run_script(EventBroker(), seed)
    naive = run_script(ScanBroker(), seed)
    assert indexed == naive


@pytest.mark.parametrize("seed", range(12))
def test_scoped_scripts_deliver_identically(seed):
    """Issuer-scoped subscriptions, widened while events flow, deliver in
    registration order beside the bucketed and wildcard ones."""
    indexed = run_script(EventBroker(), seed, scoped=True)
    assert indexed == run_script(ScanBroker(), seed, scoped=True)
    assert indexed["log"]


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=examples(10), deadline=None)
def test_drawn_scripts_deliver_identically(seed):
    """The seeded scripts above, from seeds Hypothesis draws (many more of
    them under the ci profile)."""
    assert run_script(EventBroker(), seed) == run_script(ScanBroker(), seed)


@pytest.mark.parametrize("indexed", [True, False])
def test_nested_publish_order_matches(indexed):
    """Handlers that publish (cascades) keep FIFO order on both paths."""
    broker = make_broker(indexed)
    order = []

    def fanout(event):
        ref = event.get("credential_ref")
        order.append(("hit", ref))
        serial = int(ref.split("#")[1])
        if serial < 4:
            broker.publish(Event.make("t", credential_ref=f"s#{serial + 1}"))

    for serial in range(5):
        broker.subscribe("t", fanout, credential_ref=f"s#{serial}")
    broker.subscribe("t", lambda e: order.append(("wild", e.get("credential_ref"))))

    broker.publish(Event.make("t", credential_ref="s#0"))
    assert order == [("hit", "s#0"), ("wild", "s#0"),
                     ("hit", "s#1"), ("wild", "s#1"),
                     ("hit", "s#2"), ("wild", "s#2"),
                     ("hit", "s#3"), ("wild", "s#3"),
                     ("hit", "s#4"), ("wild", "s#4")]


@pytest.mark.parametrize("indexed", [True, False])
def test_cancel_during_delivery_matches(indexed):
    broker = make_broker(indexed)
    seen = []
    subs = {}

    def canceller(event):
        subs["victim"].cancel()

    broker.subscribe("t", canceller, credential_ref="r")
    subs["victim"] = broker.subscribe("t", seen.append, credential_ref="r")
    broker.publish(Event.make("t", credential_ref="r"))
    broker.publish(Event.make("t", credential_ref="r"))
    assert seen == []


@pytest.mark.parametrize("indexed", [True, False])
def test_a_subscription_hears_an_event_once(indexed):
    """A subscription keyed by a credential and by its issuer both sits
    in two buckets an event probes; it is still delivered once."""
    broker = make_broker(indexed)
    seen = []
    widened = broker.subscribe("t", lambda e: seen.append("crr"),
                               credential_ref="dom/svc#1")
    widened.attend("dom/svc")
    broker.subscribe_issuers("t", lambda e: seen.append("both"),
                             ["dom/svc", "dom/svc#1"])
    broker.subscribe("t", lambda e: seen.append("wild"))
    assert broker.publish(Event.make("t", credential_ref="dom/svc#1")) == 3
    assert broker.publish(Event.make("t", credential_ref="dom/svc#2")) == 3
    assert seen == ["crr", "both", "wild"] * 2


def test_event_without_index_key_skips_buckets():
    """Indexed subscriptions cannot match an event lacking the key, so
    only wildcard subscriptions are consulted — and outcomes agree."""
    for indexed in (True, False):
        broker = make_broker(indexed)
        seen = []
        broker.subscribe("t", lambda e: seen.append("indexed"),
                         credential_ref="r")
        broker.subscribe("t", lambda e: seen.append("wild"))
        delivered = broker.publish(Event.make("t", other="x"))
        assert seen == ["wild"]
        assert delivered == 1
