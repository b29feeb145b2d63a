"""Consolidated threat-model tests: every attack path in one place.

Each test is an attack the architecture must stop, named for the
adversary's strategy.  Sect. 4.1 defines the threat classes (tampering,
forgery, theft); the rest arise from the distributed architecture itself
(confused deputies, parameter smuggling, replay across sessions).
"""

import dataclasses

import pytest

from repro.core import (
    ActivationDenied,
    AppointmentDenied,
    CredentialInvalid,
    CredentialRevoked,
    InvocationDenied,
    Presentation,
    Principal,
    Role,
    SignatureInvalid,
)
from repro.crypto import ServiceSecret


class TestCertificateAttacks:
    def test_parameter_upgrade_attack(self, hospital):
        """Mallory edits her treating_doctor RMC to name a different
        patient."""
        doctor = hospital.admit_doctor("mallory", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["mallory"])
        rmc = session.activate(hospital.records, "treating_doctor",
                               use_appointments=doctor.appointments())
        upgraded = dataclasses.replace(
            rmc, role=Role(rmc.role.role_name, ("mallory", "p-celebrity")))
        with pytest.raises(SignatureInvalid):
            hospital.records.invoke(
                doctor.id, "read_record", ["p-celebrity"],
                credentials=[Presentation(session.root_rmc),
                             Presentation(upgraded)])

    def test_self_issued_certificate(self, hospital):
        """Mallory runs her own 'admin service' with the right ServiceId
        but the wrong secret."""
        from repro.core import AppointmentCertificate, CredentialRef

        forged = AppointmentCertificate.issue(
            ServiceSecret.generate(), hospital.admin.id, "allocated",
            ("mallory", "p1"), CredentialRef(hospital.admin.id, 9999),
            0.0, holder="mallory")
        hospital.db.insert("registered", doctor="mallory", patient="p1")
        session = Principal("mallory").start_session(
            hospital.login, "logged_in_user", ["mallory"])
        with pytest.raises(CredentialInvalid):
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=[forged])

    def test_cross_session_rmc_replay(self, hospital):
        """An RMC from a logged-out session must stay dead forever."""
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        old_root = session.root_rmc
        session.logout()
        new_session = doctor.start_session(hospital.login,
                                           "logged_in_user", ["d1"])
        # Replaying the dead RMC alongside the live session fails.
        with pytest.raises((CredentialRevoked, ActivationDenied)):
            hospital.records.activate_role(
                doctor.id, "treating_doctor", None,
                [Presentation(old_root)]
                + [Presentation(c, holder=c.holder)
                   for c in doctor.appointments()])

    def test_certificate_issued_for_other_role_name(self, hospital):
        """An 'allocated' certificate cannot satisfy a differently-named
        condition even from the same issuer."""
        doctor = hospital.admit_doctor("d1", "p1")
        certificate = doctor.appointments()[0]
        renamed = dataclasses.replace(certificate, name="employed_as_head")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        with pytest.raises((CredentialInvalid, ActivationDenied)):
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=[renamed])


class TestDeputyAttacks:
    def test_confused_deputy_via_forwarding(self, hospital):
        """A service holding Alice's RMC cannot present it as acting for
        Bob: the on_behalf_of attestation is checked at the issuer."""
        alice_session = Principal("alice").start_session(
            hospital.login, "logged_in_user", ["alice"])
        deputy = Principal("deputy-service")
        with pytest.raises(SignatureInvalid):
            hospital.records.activate_role(
                deputy.id, "treating_doctor", ["bob", "p1"],
                [Presentation(alice_session.root_rmc,
                              on_behalf_of="bob")])

    def test_appointer_scope_cannot_be_widened(self, hospital):
        """The duty administrator can issue 'allocated' but cannot mint a
        different appointment kind."""
        admin = Principal("adm")
        session = admin.start_session(hospital.login, "logged_in_user",
                                      ["adm"])
        session.activate(hospital.admin, "administrator", ["adm"])
        with pytest.raises(AppointmentDenied):
            session.issue_appointment(hospital.admin,
                                      "chief_of_medicine", ["adm"])

    def test_privilege_escalation_via_argument_mismatch(self, hospital):
        """Invocation arguments must unify with credential parameters —
        a doctor cannot read another patient's record by swapping args."""
        doctor = hospital.admit_doctor("d1", "p1")
        other = hospital.admit_doctor("d2", "p2")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        with pytest.raises(InvocationDenied):
            session.invoke(hospital.records, "read_record", ["p2"])


class TestRevocationRaces:
    def test_no_grant_after_revocation_same_instant(self, hospital):
        """Revocation then immediate presentation: the cascade is
        synchronous, so there is no window."""
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        rmc = session.activate(hospital.records, "treating_doctor",
                               use_appointments=doctor.appointments())
        hospital.admin.revoke(doctor.appointments()[0].ref, "gone")
        with pytest.raises((CredentialRevoked, InvocationDenied)):
            session.invoke(hospital.records, "read_record", ["p1"])

    def test_reactivation_needs_fresh_conditions(self, hospital):
        """After a cascade, the dead credentials cannot bootstrap a new
        activation."""
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        hospital.admin.revoke(doctor.appointments()[0].ref, "gone")
        with pytest.raises((CredentialRevoked, ActivationDenied)):
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=doctor.appointments())


class TestAnonymityBoundaries:
    def test_anonymous_cert_grants_only_its_role(self, hospital):
        """An anonymous certificate for one purpose cannot leak into
        another rule requiring a holder-bound certificate of the same
        issuer."""
        admin = Principal("adm")
        session = admin.start_session(hospital.login, "logged_in_user",
                                      ["adm"])
        session.activate(hospital.admin, "administrator", ["adm"])
        anonymous = session.issue_appointment(
            hospital.admin, "allocated", ["dX", "pX"])  # anonymous
        hospital.db.insert("registered", doctor="dX", patient="pX")
        # An arbitrary bearer CAN use it (anonymity is bearer semantics)…
        bearer = Principal("bearer")
        bearer_session = bearer.start_session(hospital.login,
                                              "logged_in_user", ["bearer"])
        # …but only for the role whose parameters match the certificate:
        with pytest.raises(ActivationDenied):
            bearer_session.activate(hospital.records, "treating_doctor",
                                    ["bearer", "pX"],
                                    use_appointments=[anonymous])
