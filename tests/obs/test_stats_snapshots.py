"""Satellite regressions: snapshot defensiveness, audit trace ids, and
half-open time-window filtering across both logs."""

from repro.core import Principal
from repro.core.access_log import AccessKind, AccessLog
from repro.domains import Deployment
from repro.events import CREDENTIAL_REVOKED, EventBroker, EventLog
from repro.events.messages import Event
from repro.obs.runtime import observed
from repro.scenarios import build_hospital


class TestSnapshotsAreDefensive:
    """Callers may mutate returned snapshots without corrupting the live
    counters — a regression guard for ``vars(stats)``-style leaks."""

    def test_service_stats_snapshot_is_a_copy(self, hospital):
        Principal("alice").start_session(hospital.login, "logged_in_user",
                                         ["alice"])
        snapshot = hospital.login.stats.snapshot()
        issued = snapshot["rmcs_issued"]
        snapshot["rmcs_issued"] = 999_999
        snapshot["invented_key"] = True
        assert hospital.login.stats.rmcs_issued == issued
        assert hospital.login.stats.snapshot()["rmcs_issued"] == issued
        assert "invented_key" not in hospital.login.stats.snapshot()

    def test_broker_stats_is_a_copy(self, hospital, deployment):
        deployment.broker.publish(Event("x", timestamp=0.0))
        stats = deployment.broker.stats()
        published = stats["published_count"]
        stats["published_count"] = -1
        stats["topics"].clear()
        fresh = deployment.broker.stats()
        assert fresh["published_count"] == published
        assert fresh["topics"] != {}

    def test_broker_stats_reports_dispatch_mode(self):
        stats = EventBroker().stats()
        assert stats["index_key"] == "credential_ref"
        assert "indexed" not in stats


class TestAuditTraceIds:
    def test_audit_records_carry_the_active_trace_id(self):
        """With the pipeline enabled, every audit record written inside a
        span carries that span's trace id, so an auditor can jump from an
        audit line to the causal tree (and back via query)."""
        with observed() as obs:
            hospital = build_hospital(Deployment(use_network=False))
            alice = Principal("alice")
            session = alice.start_session(hospital.login, "logged_in_user",
                                          ["alice"])
            hospital.login.revoke(session.root_rmc.ref, "logout")
        activation_trace = obs.tracer.spans(name="activate_role")[0].trace_id
        revoke_trace = obs.tracer.spans(name="revoke")[0].trace_id
        log = hospital.login.access_log
        (activation,) = log.query(kind=AccessKind.ACTIVATION)
        (revocation,) = log.query(kind=AccessKind.REVOCATION)
        assert activation.trace_id == activation_trace
        assert revocation.trace_id == revoke_trace
        assert log.query(trace_id=revoke_trace) == [revocation]

    def test_audit_trace_id_none_when_disabled(self, hospital):
        Principal("alice").start_session(hospital.login, "logged_in_user",
                                         ["alice"])
        (activation,) = hospital.login.access_log.query(
            kind=AccessKind.ACTIVATION)
        assert activation.trace_id is None


class TestHalfOpenWindows:
    """``[since, until)``: consecutive windows partition a log exactly."""

    def test_access_log_window_boundaries(self):
        log = AccessLog()
        for timestamp in (1.0, 2.0, 3.0):
            log.record(timestamp, AccessKind.ACTIVATION, "p", "r")
        assert [r.timestamp for r in log.query(since=2.0)] == [2.0, 3.0]
        assert [r.timestamp for r in log.query(until=2.0)] == [1.0]
        assert [r.timestamp for r in log.query(since=2.0, until=3.0)] \
            == [2.0]

    def test_consecutive_windows_partition_the_log(self):
        log = AccessLog()
        for timestamp in (0.0, 1.0, 1.5, 2.0, 3.0):
            log.record(timestamp, AccessKind.ACTIVATION, "p", "r")
        windows = [log.query(since=a, until=b)
                   for a, b in ((0.0, 1.5), (1.5, 3.0), (3.0, 4.0))]
        recovered = [r.timestamp for window in windows for r in window]
        assert recovered == [0.0, 1.0, 1.5, 2.0, 3.0]

    def test_event_log_window_matches_access_log_semantics(self):
        broker = EventBroker()
        log = EventLog(broker)
        for timestamp in (1.0, 2.0, 3.0):
            broker.publish(Event(CREDENTIAL_REVOKED, timestamp=timestamp))
        window = log.events(CREDENTIAL_REVOKED, since=1.0, until=2.0)
        assert [event.timestamp for event in window] == [1.0]
