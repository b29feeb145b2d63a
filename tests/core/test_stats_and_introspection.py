"""Tests for service statistics and introspection helpers."""

import pytest

from repro.core import Principal, ServiceStats


class TestServiceStats:
    def test_reset_zeroes_every_counter(self):
        stats = ServiceStats()
        stats.rmcs_issued = 5
        stats.cache_hits = 3
        stats.heartbeats_sent = 7
        stats.reset()
        assert all(value == 0 for value in vars(stats).values())

    def test_counters_move_during_activity(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        session.invoke(hospital.records, "read_record", ["p1"])
        stats = hospital.records.stats
        assert stats.rmcs_issued == 1
        assert stats.invocations == 1
        assert stats.callbacks_made >= 1
        assert hospital.login.stats.callbacks_served >= 1
        assert hospital.admin.stats.appointments_issued == 1


class TestIntrospection:
    def test_active_credentials_listing(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        active = hospital.login.active_credentials()
        assert any(record.ref == session.root_rmc.ref
                   for record in active)
        hospital.login.revoke(session.root_rmc.ref)
        assert all(record.ref != session.root_rmc.ref
                   for record in hospital.login.active_credentials())

    def test_credential_record_lookup(self, hospital):
        session = Principal("u").start_session(hospital.login,
                                               "logged_in_user", ["u"])
        record = hospital.login.credential_record(session.root_rmc.ref)
        assert record is not None
        assert record.kind == "rmc"
        from repro.core import CredentialRef

        assert hospital.login.credential_record(
            CredentialRef(hospital.login.id, 414243)) is None

    def test_validation_cache_size_tracks(self, hospital):
        assert hospital.records.validation_cache_size == 0
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        assert hospital.records.validation_cache_size >= 1

    def test_registry_listing(self, hospital, deployment):
        services = deployment.registry.all_services()
        names = {service.id.name for service in services}
        assert {"login", "admin", "records"} <= names
        assert hospital.login.id in deployment.registry

    def test_duplicate_service_registration_rejected(self, hospital,
                                                     deployment):
        with pytest.raises(ValueError):
            deployment.registry.register(hospital.login)
