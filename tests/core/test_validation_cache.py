"""Tests for callback validation, caching and ECR invalidation (Sect. 4)."""

import pytest

from repro.core import ActivationDenied, CredentialRevoked, Principal


def activate_doctor(hospital, doctor_id="d1", patient_id="p1"):
    doctor = hospital.admit_doctor(doctor_id, patient_id)
    session = doctor.start_session(hospital.login, "logged_in_user",
                                   [doctor_id])
    rmc = session.activate(hospital.records, "treating_doctor",
                           use_appointments=doctor.appointments())
    return doctor, session, rmc


class TestCallbacks:
    def test_foreign_credentials_validated_by_callback(self, hospital):
        before_served = hospital.login.stats.callbacks_served
        activate_doctor(hospital)
        # records called back to login (RMC) at least once
        assert hospital.login.stats.callbacks_served > before_served

    def test_local_credentials_validated_locally(self, hospital):
        doctor, session, rmc = activate_doctor(hospital)
        before = hospital.records.stats.validations_local
        session.invoke(hospital.records, "read_record", ["p1"])
        assert hospital.records.stats.validations_local > before


class TestValidationCache:
    def test_repeat_presentations_hit_cache(self, hospital):
        doctor, session, rmc = activate_doctor(hospital)
        made_before = hospital.records.stats.callbacks_made
        hits_before = hospital.records.stats.cache_hits
        for _ in range(5):
            session.invoke(hospital.records, "read_record", ["p1"])
        assert hospital.records.stats.callbacks_made == made_before
        assert hospital.records.stats.cache_hits >= hits_before + 5

    def test_no_cache_mode_always_calls_back(self, hospital_nocache):
        hospital = hospital_nocache
        doctor, session, rmc = activate_doctor(hospital)
        made_before = hospital.records.stats.callbacks_made
        for _ in range(3):
            session.invoke(hospital.records, "read_record", ["p1"])
        # login RMC revalidated each time (the appointment is not
        # presented by session.invoke, so at least 3 callbacks)
        assert hospital.records.stats.callbacks_made >= made_before + 3
        assert hospital.records.validation_cache_size == 0

    def test_revocation_event_invalidates_cache(self, hospital):
        """The ECR proxy of Fig. 5: revocation at the issuer drops the
        holder's cached validation immediately."""
        doctor, session, rmc = activate_doctor(hospital)
        assert hospital.records.validation_cache_size > 0
        invalidations_before = hospital.records.stats.cache_invalidations
        hospital.login.revoke(session.root_rmc.ref, "forced")
        assert hospital.records.stats.cache_invalidations \
            > invalidations_before

    def test_stale_cache_cannot_resurrect_revoked_credential(self, hospital):
        doctor, session, rmc = activate_doctor(hospital)
        hospital.login.revoke(session.root_rmc.ref, "forced")
        # Even with caching on, presenting the dead login RMC fails: the
        # cache entry was dropped, forcing a fresh callback.
        from repro.core import Presentation

        with pytest.raises((CredentialRevoked, ActivationDenied)):
            hospital.records.activate_role(
                doctor.id, "treating_doctor", None,
                [Presentation(session.root_rmc)]
                + [Presentation(c, holder=c.holder)
                   for c in doctor.appointments()])

    def test_cached_appointment_expiry_still_checked(self, hospital,
                                                     deployment):
        """Caching must not outlive the certificate's own expiry."""
        from repro.core import CredentialExpired, Presentation, Principal

        admin = Principal("adm")
        admin_session = admin.start_session(hospital.login,
                                            "logged_in_user", ["adm"])
        admin_session.activate(hospital.admin, "administrator", ["adm"])
        certificate = admin_session.issue_appointment(
            hospital.admin, "allocated", ["d1", "p1"], holder="d1",
            expires_at=deployment.clock.now() + 100.0)
        hospital.db.insert("registered", doctor="d1", patient="p1")
        doctor = Principal("d1")
        doctor.store_appointment(certificate)
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=[certificate])  # caches it
        deployment.clock.advance(200.0)
        with pytest.raises(CredentialExpired):
            hospital.records.activate_role(
                doctor.id, "treating_doctor", None,
                [Presentation(session.root_rmc),
                 Presentation(certificate, holder="d1")])

    def test_secret_rotation_drops_cached_validations(self, hospital):
        """Rotation publishes CREDENTIAL_REISSUED: holders must drop their
        cached validations, otherwise old-secret certificates would keep
        working until the next cold callback."""
        doctor, session, rmc = activate_doctor(hospital)
        certificate = doctor.appointments()[0]
        from repro.core import CredentialInvalid, Presentation

        records = hospital.records
        invalidations = records.stats.cache_invalidations
        hospital.admin.rotate_secret()
        # Dropped by the re-issue event while the record stays active.
        assert records.stats.cache_invalidations == invalidations + 1
        assert hospital.admin.is_active(certificate.ref)
        callbacks = records.stats.callbacks_made
        with pytest.raises(CredentialInvalid):
            records.activate_role(
                doctor.id, "treating_doctor", None,
                [Presentation(session.root_rmc),
                 Presentation(certificate, holder="d1")])
        assert records.stats.callbacks_made > callbacks

    def test_rotation_does_not_cascade_revoke(self, hospital):
        """Re-issue events differ from revocation: roles already activated
        under the old certificate stay active (their CR is intact)."""
        doctor, session, rmc = activate_doctor(hospital)
        hospital.admin.rotate_secret()
        assert hospital.records.is_active(rmc.ref)

    def test_rmc_issuer_rotation_drops_cached_validations(self, hospital):
        """Rotation re-issues RMCs too: once login rotates, records calls
        back on the old login RMC and is refused, as login refuses it."""
        from repro.core import Presentation, SignatureInvalid

        doctor, session, rmc = activate_doctor(hospital)
        records = hospital.records
        hospital.login.rotate_secret()
        assert hospital.login.is_active(session.root_rmc.ref)
        assert records.is_active(rmc.ref)  # re-issue never cascades
        callbacks = records.stats.callbacks_made
        with pytest.raises(SignatureInvalid):
            records.activate_role(
                doctor.id, "treating_doctor", None,
                [Presentation(session.root_rmc),
                 Presentation(doctor.appointments()[0], holder="d1")])
        assert records.stats.callbacks_made == callbacks + 1

    def test_cache_is_per_presenter_binding(self, hospital):
        """A cached validation for principal A must not cover principal B
        presenting the same (stolen) certificate."""
        from repro.core import Presentation, SignatureInvalid

        doctor, session, rmc = activate_doctor(hospital)
        thief = Principal("thief")
        thief_session = thief.start_session(hospital.login,
                                            "logged_in_user", ["thief"])
        hospital.db.insert("registered", doctor="thief", patient="p1")
        with pytest.raises((SignatureInvalid, ActivationDenied)):
            hospital.records.activate_role(
                thief.id, "treating_doctor", None,
                [Presentation(thief_session.root_rmc),
                 Presentation(session.root_rmc),  # stolen login RMC
                 Presentation(doctor.appointments()[0], holder="d1")])
