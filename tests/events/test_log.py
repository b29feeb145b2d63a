"""Tests for broker taps and the event log."""

import pytest

from repro.events import CREDENTIAL_REVOKED, Event, EventBroker, EventLog


@pytest.fixture
def broker():
    return EventBroker()


class TestTap:
    def test_tap_sees_all_topics(self, broker):
        seen = []
        broker.add_tap(seen.append)
        broker.publish(Event.make("a"))
        broker.publish(Event.make("b", x=1))
        assert [event.topic for event in seen] == ["a", "b"]

    def test_tap_sees_undelivered_events(self, broker):
        """Taps observe events even with zero subscribers."""
        seen = []
        broker.add_tap(seen.append)
        broker.publish(Event.make("nobody-listens"))
        assert len(seen) == 1

    def test_untap(self, broker):
        seen = []
        remove = broker.add_tap(seen.append)
        remove()
        broker.publish(Event.make("a"))
        assert seen == []
        remove()  # idempotent

    def test_tap_runs_after_subscribers(self, broker):
        order = []
        broker.subscribe("a", lambda e: order.append("sub"))
        broker.add_tap(lambda e: order.append("tap"))
        broker.publish(Event.make("a"))
        assert order == ["sub", "tap"]

    def test_tap_sees_an_event_whose_subscriber_raised(self, broker):
        def fail(event):
            raise RuntimeError("subscriber failed")

        seen = []
        broker.subscribe("a", fail)
        broker.add_tap(seen.append)
        with pytest.raises(RuntimeError):
            broker.publish(Event.make("a"))
        assert [event.topic for event in seen] == ["a"]


class TestEventLog:
    def test_records_in_order(self, broker):
        log = EventLog(broker)
        broker.publish(Event.make("a", n=1))
        broker.publish(Event.make("b", n=2))
        assert len(log) == 2
        assert log.topics() == ["a", "b"]

    def test_filtering(self, broker):
        log = EventLog(broker)
        broker.publish(Event.make("t", timestamp=1.0, key="x"))
        broker.publish(Event.make("t", timestamp=2.0, key="y"))
        broker.publish(Event.make("u", timestamp=3.0, key="x"))
        assert len(log.events(topic="t")) == 2
        assert len(log.events(key="x")) == 2
        assert len(log.events(since=2.0)) == 2
        assert len(log.events(topic="t", key="x")) == 1

    def test_filter_on_none_attribute(self, broker):
        """An attribute filter of ``None`` matches, it does not switch the
        filter off: events whose attribute is None or absent."""
        log = EventLog(broker)
        broker.publish(Event.make("t", n=0, key=None))
        broker.publish(Event.make("t", n=1, key="x"))
        broker.publish(Event.make("t", n=2))
        assert [event.get("n") for event in log.events(key=None)] == [0, 2]

    def test_capacity(self, broker):
        log = EventLog(broker, capacity=2)
        for index in range(5):
            broker.publish(Event.make("t", n=index))
        assert len(log) == 2
        assert log.discarded == 3
        assert [event.get("n") for event in log.events()] == [3, 4]

    def test_invalid_capacity(self, broker):
        with pytest.raises(ValueError):
            EventLog(broker, capacity=0)

    def test_close_stops_recording(self, broker):
        log = EventLog(broker)
        broker.publish(Event.make("a"))
        log.close()
        broker.publish(Event.make("b"))
        assert len(log) == 1
        assert log.closed
        log.close()  # idempotent

    def test_replay(self, broker):
        log = EventLog(broker)
        for index in range(4):
            broker.publish(Event.make("t", n=index, parity=index % 2))
        seen = []
        count = log.replay(seen.append, topic="t", parity=0)
        assert count == 2
        assert [event.get("n") for event in seen] == [0, 2]

    def test_captures_revocation_cascade(self, hospital, deployment):
        """The log doubles as a middleware audit trail: a cascade leaves a
        complete, ordered record of every revocation event."""
        log = EventLog(deployment.broker)
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        hospital.login.revoke(session.root_rmc.ref, "forced logout")
        revocations = log.events(topic=CREDENTIAL_REVOKED)
        refs = [event.get("credential_ref") for event in revocations]
        assert str(session.root_rmc.ref) in refs
        assert str(treating.ref) in refs
        # root revocation precedes the dependent's
        assert refs.index(str(session.root_rmc.ref)) \
            < refs.index(str(treating.ref))
