"""Tests for the per-service access audit log."""

import pytest

from repro.core import (
    AccessKind,
    AccessLog,
    AccessRecord,
    ActivationDenied,
    AppointmentDenied,
    InvocationDenied,
    Principal,
    PrincipalId,
    UnknownMethod,
    UnknownRole,
)


class TestAccessLogUnit:
    def test_append_and_iterate(self):
        log = AccessLog()
        log.record(1.0, AccessKind.ACTIVATION, "alice", "role")
        assert len(log) == 1
        assert list(log)[0].principal == "alice"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AccessLog().record(0.0, "weird", "p", "s")

    def test_capacity_discards_oldest(self):
        log = AccessLog(capacity=3)
        for index in range(5):
            log.record(float(index), AccessKind.INVOCATION, f"p{index}",
                       "m")
        assert len(log) == 3
        assert log.discarded == 2
        assert [record.principal for record in log] == ["p2", "p3", "p4"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AccessLog(capacity=0)

    def test_query_filters(self):
        log = AccessLog()
        log.record(1.0, AccessKind.ACTIVATION, "alice", "doctor")
        log.record(2.0, AccessKind.INVOCATION, "alice", "read")
        log.record(3.0, AccessKind.INVOCATION, "bob", "read")
        assert len(log.query(principal="alice")) == 2
        assert len(log.query(kind=AccessKind.INVOCATION)) == 2
        assert len(log.query(subject="read", principal="bob")) == 1
        assert len(log.query(since=2.0)) == 2
        assert len(log.query(until=2.0)) == 1
        assert len(log.query(since=1.5, until=2.5)) == 1

    def test_denials_and_principals(self):
        log = AccessLog()
        log.record(1.0, AccessKind.ACTIVATION, "alice", "doctor")
        log.record(2.0, AccessKind.INVOCATION_DENIED, "bob", "read")
        log.record(3.0, AccessKind.VALIDATION_FAILED, "eve", "ref")
        assert len(log.denials()) == 2
        assert log.principals_seen() == ["alice", "bob", "eve"]

    def test_record_str(self):
        record = AccessRecord(1.5, AccessKind.INVOCATION, "alice", "read",
                              ("p1",), "ok")
        text = str(record)
        assert "alice" in text and "read" in text and "(ok)" in text


class TestServiceAuditing:
    def test_activation_logged(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        records = hospital.records.access_log.query(
            kind=AccessKind.ACTIVATION, principal="d1")
        assert len(records) == 1
        assert records[0].detail == ("d1", "p1")

    def test_denial_logged_with_reason(self, hospital):
        _ = hospital  # fixture
        principal = Principal("d1")
        session = principal.start_session(hospital.login,
                                          "logged_in_user", ["d1"])
        with pytest.raises(ActivationDenied):
            session.activate(hospital.records, "treating_doctor",
                             ["d1", "p1"])
        denials = hospital.records.access_log.query(
            kind=AccessKind.ACTIVATION_DENIED)
        assert len(denials) == 1
        assert denials[0].reason

    def test_invocation_and_denial_logged(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        session.invoke(hospital.records, "read_record", ["p1"])
        with pytest.raises(InvocationDenied):
            session.invoke(hospital.records, "read_record", ["p2"])
        log = hospital.records.access_log
        assert len(log.query(kind=AccessKind.INVOCATION,
                             subject="read_record")) == 1
        assert log.query(kind=AccessKind.INVOCATION)[0].detail == ("p1",)
        assert len(log.query(kind=AccessKind.INVOCATION_DENIED)) == 1

    def test_appointment_logged_with_holder(self, hospital):
        hospital.admit_doctor("d1", "p1")  # issues 'allocated'
        records = hospital.admin.access_log.query(
            kind=AccessKind.APPOINTMENT, subject="allocated")
        assert len(records) == 1
        assert "holder='d1'" in records[0].reason

    def test_revocation_logged(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        certificate = doctor.appointments()[0]
        hospital.admin.revoke(certificate.ref, "reallocated")
        revocations = hospital.admin.access_log.query(
            kind=AccessKind.REVOCATION)
        assert any(r.reason == "reallocated" for r in revocations)

    def test_validation_failure_logged(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        hospital.login.revoke(session.root_rmc.ref, "forced")
        from repro.core import CredentialRevoked, Presentation

        with pytest.raises(CredentialRevoked):
            hospital.records.activate_role(
                doctor.id, "treating_doctor", None,
                [Presentation(session.root_rmc)])
        failures = hospital.records.access_log.query(
            kind=AccessKind.VALIDATION_FAILED)
        assert len(failures) == 1

    def test_refusals_of_unknown_names_logged(self, hospital):
        """An undefined role, method or appointment is a refusal like any
        other: its exception is unchanged and the log holds its record."""
        who = PrincipalId("d1")
        refusals = [
            (UnknownRole, AccessKind.ACTIVATION_DENIED, "surgeon",
             lambda: hospital.records.activate_role(who, "surgeon")),
            (UnknownMethod, AccessKind.INVOCATION_DENIED, "burn_record",
             lambda: hospital.records.invoke(who, "burn_record", ["p1"])),
            (AppointmentDenied, AccessKind.APPOINTMENT_DENIED, "knighted",
             lambda: hospital.admin.issue_appointment(who, "knighted", [])),
        ]
        for exception, kind, subject, attempt in refusals:
            with pytest.raises(exception) as raised:
                attempt()
            service = hospital.admin if subject == "knighted" \
                else hospital.records
            (record,) = service.access_log.query(kind=kind)
            assert (record.principal, record.subject, record.reason) \
                == ("d1", subject, str(raised.value))

    def test_doctors_identified_individually(self, hospital):
        """Sect. 2: 'it is vital that doctors who access patient records
        may be identified individually.'"""
        for index in range(3):
            doctor = hospital.admit_doctor(f"d{index}", f"p{index}")
            session = doctor.start_session(hospital.login,
                                           "logged_in_user", [f"d{index}"])
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=doctor.appointments())
            session.invoke(hospital.records, "read_record", [f"p{index}"])
        accesses = hospital.records.access_log.query(
            kind=AccessKind.INVOCATION, subject="read_record")
        assert [record.principal for record in accesses] \
            == ["d0", "d1", "d2"]
