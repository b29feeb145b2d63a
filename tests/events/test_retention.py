"""Bounded retention, one contract for every retained log.

A million-principal world churns sessions continuously; an unbounded
audit trail is the slow memory leak that kills a long-running node.  The
access log, the event log and the tracer all keep
their records in one :class:`~repro.obs.ring.RecordRing`, so they share
one set of retention tests: the same eviction order, the same counters,
the same ``[since, until)`` window over what is still retained.  Each
``Test*Retention`` class below only says how to build and fill its log.
"""

import pytest

from repro.core.access_log import AccessKind, AccessLog
from repro.events import Event, EventBroker, EventLog
from repro.obs import Tracer

TOPIC = "credential.revoked"


class RetentionContract:
    """Retention properties every log holds; ``fill`` stores record
    ``index`` at timestamp ``float(index)``, and ``key`` recovers
    ``index`` from a retained record."""

    #: What ``capacity`` the constructor defaults to.
    default_capacity = None

    def make(self, **kwargs):
        raise NotImplementedError

    def fill(self, log, count, start=0):
        raise NotImplementedError

    def key(self, record):
        raise NotImplementedError

    def retained(self, log):
        return list(log)

    def test_unbounded_by_default(self):
        assert self.make().stats()["capacity"] == self.default_capacity
        log = self.make(capacity=None)
        self.fill(log, 50)
        assert len(log) == 50
        assert log.stats() == {"size": 50, "capacity": None,
                               "recorded": 50, "discarded": 0}

    def test_ring_evicts_oldest(self):
        log = self.make(capacity=10)
        self.fill(log, 25)
        assert len(log) == 10
        assert [self.key(record) for record in self.retained(log)] \
            == list(range(15, 25))

    def test_counters_track_evictions(self):
        log = self.make(capacity=10)
        self.fill(log, 8)
        assert (log.recorded, log.discarded) == (8, 0)
        self.fill(log, 7, start=8)
        assert (log.recorded, log.discarded) == (15, 5)
        assert log.stats() == {"size": 10, "capacity": 10,
                               "recorded": 15, "discarded": 5}

    def test_invalid_capacity_raises(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                self.make(capacity=capacity)


class WindowContract(RetentionContract):
    """For the timestamped logs: ``window(log, since, until)`` is the
    log's own time-window query."""

    def window(self, log, since=None, until=None):
        raise NotImplementedError

    def test_query_sees_only_retained_window(self):
        log = self.make(capacity=5)
        self.fill(log, 12)
        # Records 0-6 were evicted; time-window queries reflect that.
        assert self.window(log, since=0.0, until=7.0) == []
        assert len(self.window(log, since=7.0)) == 5
        # Half-open: ``since`` is in, ``until`` is out.
        assert [self.key(record)
                for record in self.window(log, since=8.0, until=10.0)] \
            == [8, 9]


class TestAccessLogRetention(WindowContract):
    def make(self, **kwargs):
        return AccessLog(**kwargs)

    def fill(self, log, count, start=0):
        for index in range(start, start + count):
            log.record(float(index), AccessKind.INVOCATION,
                       f"p{index}", "records/read")

    def key(self, record):
        return int(record.principal[1:])

    def window(self, log, since=None, until=None):
        return log.query(since=since, until=until)


class TestEventLogRetention(WindowContract):
    def make(self, **kwargs):
        self.broker = EventBroker()
        return EventLog(self.broker, **kwargs)

    def fill(self, log, count, start=0):
        for index in range(start, start + count):
            self.broker.publish(Event.make(TOPIC, timestamp=float(index),
                                           credential_ref=f"svc#{index}"))

    def key(self, event):
        return int(event.get("credential_ref").split("#")[1])

    def window(self, log, since=None, until=None):
        return log.events(since=since, until=until)

    def test_replay_sees_only_retained(self):
        log = self.make(capacity=3)
        self.fill(log, 5)
        replayed = []
        log.replay(lambda event: replayed.append(self.key(event)))
        assert replayed == [2, 3, 4]


class TestTracerRetention(RetentionContract):
    default_capacity = 100_000

    def make(self, **kwargs):
        return Tracer(**kwargs)

    def fill(self, log, count, start=0):
        for index in range(start, start + count):
            log.start_span(f"op{index}", float(index), activate=False)

    def key(self, span):
        return int(span.name[2:])

    def retained(self, tracer):
        return tracer.spans()
