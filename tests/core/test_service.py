"""Tests for the OASIS-secured service: Fig. 2 paths, validation, denial."""

import dataclasses

import pytest

from repro.core import (
    ActivationDenied,
    AppointmentDenied,
    CredentialExpired,
    CredentialInvalid,
    CredentialRevoked,
    InvocationDenied,
    Presentation,
    Principal,
    PrincipalId,
    Role,
    SignatureInvalid,
    UnknownMethod,
)


def login_session(hospital, uid):
    principal = Principal(uid)
    return principal, principal.start_session(
        hospital.login, "logged_in_user", [uid])


class TestRoleEntry:
    def test_initial_role_activation(self, hospital):
        _, session = login_session(hospital, "u1")
        rmc = session.root_rmc
        assert rmc.role.role_name.name == "logged_in_user"
        assert rmc.role.parameters == ("u1",)
        assert hospital.login.is_active(rmc.ref)

    def test_full_treating_doctor_chain(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        rmc = session.activate(hospital.records, "treating_doctor",
                               use_appointments=doctor.appointments())
        assert rmc.role.parameters == ("d1", "p1")

    def test_activation_denied_without_appointment(self, hospital):
        hospital.db.insert("registered", doctor="d1", patient="p1")
        _, session = login_session(hospital, "d1")
        with pytest.raises(ActivationDenied):
            session.activate(hospital.records, "treating_doctor",
                             ["d1", "p1"])

    def test_activation_denied_without_registration(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        hospital.db.delete("registered", doctor="d1", patient="p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        with pytest.raises(ActivationDenied):
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=doctor.appointments())

    def test_appointment_for_wrong_doctor_rejected(self, hospital):
        """d2 presents d1's allocation — the holder binding stops it."""
        doctor1 = hospital.admit_doctor("d1", "p1")
        hospital.db.insert("registered", doctor="d2", patient="p1")
        thief = Principal("d2")
        thief_session = thief.start_session(hospital.login,
                                            "logged_in_user", ["d2"])
        with pytest.raises(SignatureInvalid):
            thief_session.activate(
                hospital.records, "treating_doctor",
                use_appointments=doctor1.appointments())

    def test_unknown_role(self, hospital):
        from repro.core import UnknownRole

        _, session = login_session(hospital, "u1")
        with pytest.raises(UnknownRole):
            session.activate(hospital.records, "nurse")

    def test_denial_is_counted(self, hospital):
        _, session = login_session(hospital, "d1")
        before = hospital.records.stats.activations_denied
        with pytest.raises(ActivationDenied):
            session.activate(hospital.records, "treating_doctor",
                             ["d1", "p1"])
        assert hospital.records.stats.activations_denied == before + 1


class TestServiceUse:
    def test_authorized_invocation(self, hospital):
        hospital.ehr_store["p1"] = ["2019: appendectomy"]
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        assert session.invoke(hospital.records, "read_record", ["p1"]) \
            == ["2019: appendectomy"]

    def test_invocation_for_other_patient_denied(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        with pytest.raises(InvocationDenied):
            session.invoke(hospital.records, "read_record", ["p2"])

    def test_patient_exclusion_enforced(self, hospital):
        """The Patients' Charter scenario: the patient excludes the doctor
        individually even though the role would allow access."""
        hospital.ehr_store["joe-bloggs"] = ["2023: allergy noted"]
        doctor = hospital.admit_doctor("fred-smith", "joe-bloggs")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["fred-smith"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        assert session.invoke(hospital.records, "read_record",
                              ["joe-bloggs"]) == ["2023: allergy noted"]
        hospital.db.insert("excluded", patient="joe-bloggs",
                           doctor="fred-smith")
        with pytest.raises(InvocationDenied):
            session.invoke(hospital.records, "read_record", ["joe-bloggs"])

    def test_unknown_method(self, hospital):
        _, session = login_session(hospital, "u1")
        with pytest.raises(UnknownMethod):
            session.invoke(hospital.records, "delete_everything")

    def test_method_without_rule_is_denied(self, hospital):
        hospital.records.register_method("unguarded", lambda: "secret")
        _, session = login_session(hospital, "u1")
        with pytest.raises(InvocationDenied):
            session.invoke(hospital.records, "unguarded")

    def test_duplicate_method_registration_rejected(self, hospital):
        with pytest.raises(ValueError):
            hospital.records.register_method("read_record", lambda pat: "")

    def test_invocation_without_credentials_denied(self, hospital):
        with pytest.raises(InvocationDenied):
            hospital.records.invoke(PrincipalId("nobody"), "read_record",
                                    ["p1"])


class TestCredentialValidation:
    def test_revoked_rmc_rejected_on_presentation(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        root = session.root_rmc
        hospital.login.revoke(root.ref, "admin action")
        with pytest.raises((CredentialRevoked, ActivationDenied)):
            hospital.records.activate_role(
                doctor.id, "treating_doctor", None,
                [Presentation(root)] + [
                    Presentation(c, holder=c.holder)
                    for c in doctor.appointments()])

    def test_expired_appointment_rejected(self, hospital,
                                          deployment):
        doctor = hospital.admit_doctor("d1", "p1")
        admin_p = Principal("admin2")
        admin_session = admin_p.start_session(hospital.login,
                                              "logged_in_user", ["admin2"])
        admin_session.activate(hospital.admin, "administrator", ["admin2"])
        short_lived = admin_session.issue_appointment(
            hospital.admin, "allocated", ["d1", "p1"], holder="d1",
            expires_at=deployment.clock.now() + 10.0)
        deployment.clock.advance(11.0)
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        with pytest.raises(CredentialExpired):
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=[short_lived])

    def test_certificate_from_unknown_issuer(self, hospital):
        """Presenting a certificate whose issuer is not reachable fails."""
        from repro.core import AppointmentCertificate, CredentialRef, ServiceId
        from repro.crypto import ServiceSecret

        ghost = ServiceId("nowhere", "ghost")
        cert = AppointmentCertificate.issue(
            ServiceSecret.generate(), ghost, "allocated", ("d1", "p1"),
            CredentialRef(ghost, 1), 0.0, holder="d1")
        _, session = login_session(hospital, "d1")
        hospital.db.insert("registered", doctor="d1", patient="p1")
        with pytest.raises(CredentialInvalid):
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=[cert])

    def test_forged_appointment_rejected(self, hospital):
        """Same issuer id, wrong secret: forgery protection."""
        from repro.core import AppointmentCertificate, CredentialRef
        from repro.crypto import ServiceSecret

        forged = AppointmentCertificate.issue(
            ServiceSecret.generate(), hospital.admin.id, "allocated",
            ("d1", "p1"), CredentialRef(hospital.admin.id, 12345), 0.0,
            holder="d1")
        hospital.db.insert("registered", doctor="d1", patient="p1")
        _, session = login_session(hospital, "d1")
        with pytest.raises(CredentialInvalid):
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=[forged])

    def test_tampered_rmc_rejected(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        root = session.root_rmc
        tampered_role = Role(root.role.role_name, ("root-admin",))
        tampered = dataclasses.replace(root, role=tampered_role)
        with pytest.raises(SignatureInvalid):
            hospital.login._serve_validation(tampered, "d1", None)


class TestAppointmentIssuing:
    def test_appointer_need_not_hold_conferred_privileges(self, hospital):
        """The hospital administrator is not medically qualified: they can
        issue 'allocated' but cannot activate treating_doctor themselves."""
        hospital.db.insert("registered", doctor="admin-x", patient="p1")
        admin_p = Principal("admin-x")
        session = admin_p.start_session(hospital.login, "logged_in_user",
                                        ["admin-x"])
        session.activate(hospital.admin, "administrator", ["admin-x"])
        cert = session.issue_appointment(hospital.admin, "allocated",
                                         ["d9", "p9"], holder="d9")
        assert cert.name == "allocated"
        # ...but the administrator has no allocation appointment of their
        # own, so cannot enter treating_doctor.
        with pytest.raises(ActivationDenied):
            session.activate(hospital.records, "treating_doctor",
                             ["admin-x", "p1"])

    def test_non_administrator_cannot_appoint(self, hospital):
        _, session = login_session(hospital, "u1")
        with pytest.raises(AppointmentDenied):
            session.issue_appointment(hospital.admin, "allocated",
                                      ["d1", "p1"])

    def test_unknown_appointment_name(self, hospital):
        _, session = login_session(hospital, "u1")
        with pytest.raises(AppointmentDenied):
            session.issue_appointment(hospital.admin, "knighted", ["u1"])

    def test_appointment_survives_appointer_logout(self, hospital):
        """Appointment lifetime is independent of the appointer's session."""
        doctor = hospital.admit_doctor("d1", "p1")
        # admit_doctor's admin session is abandoned; certificate must remain
        # valid because appointments are not session-dependent.
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        rmc = session.activate(hospital.records, "treating_doctor",
                               use_appointments=doctor.appointments())
        assert rmc.role.parameters == ("d1", "p1")

    def test_appointment_revocable_by_issuer(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        certificate = doctor.appointments()[0]
        assert hospital.admin.revoke(certificate.ref, "reallocation")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        with pytest.raises(CredentialRevoked):
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=[certificate])


class TestSecretRotation:
    def test_rotation_invalidates_until_reissue(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        certificate = doctor.appointments()[0]
        hospital.admin.rotate_secret()
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        with pytest.raises(CredentialInvalid):
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=[certificate])
        fresh = hospital.admin.reissue_appointment(certificate)
        rmc = session.activate(hospital.records, "treating_doctor",
                               use_appointments=[fresh])
        assert rmc.role.parameters == ("d1", "p1")

    def test_reissue_of_revoked_appointment_refused(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        certificate = doctor.appointments()[0]
        hospital.admin.revoke(certificate.ref, "gone")
        with pytest.raises(CredentialRevoked):
            hospital.admin.reissue_appointment(certificate)
