"""Integration tests: Sect. 4.1 — PKC, session keys, challenge-response.

The paper: "A public key of the activator of an initial role could be used
as the session key ... bound into the signature of every subsequent RMC
... The service can check that the activator has the corresponding private
key by using a challenge-response protocol, such as ISO/9798."
"""

import dataclasses

import pytest

from repro.core import Principal, SignatureInvalid
from repro.crypto import (
    ChallengeResponseClient,
    ChallengeResponseServer,
    generate_keypair,
)


class TestSessionKeyBinding:
    def test_session_key_bound_into_every_rmc(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        doctor.with_keys(bits=128)
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        fingerprint = doctor.key_fingerprint
        assert session.root_rmc.bound_key == fingerprint
        assert treating.bound_key == fingerprint

    def test_swapping_bound_key_breaks_signature(self, hospital):
        principal = Principal("alice").with_keys(bits=128)
        session = principal.start_session(hospital.login, "logged_in_user",
                                          ["alice"])
        attacker_keys = generate_keypair(bits=128)
        forged = dataclasses.replace(session.root_rmc,
                                     bound_key=attacker_keys.fingerprint())
        with pytest.raises(SignatureInvalid):
            hospital.login._serve_validation(forged, "alice", None)

    def test_challenge_response_proves_key_possession(self, hospital):
        """The service challenges the presenter of a key-bound RMC at any
        time; only the holder of the private key can answer."""
        principal = Principal("alice").with_keys(bits=256)
        session = principal.start_session(hospital.login, "logged_in_user",
                                          ["alice"])
        assert session.root_rmc.bound_key == principal.key_fingerprint

        server = ChallengeResponseServer()
        honest = ChallengeResponseClient(principal.keypair)
        issued = server.issue(honest.public_key)
        assert server.verify(issued.challenge_id, honest.respond(issued))

    def test_thief_without_private_key_fails_challenge(self, hospital):
        principal = Principal("alice").with_keys(bits=256)
        principal.start_session(hospital.login, "logged_in_user", ["alice"])
        server = ChallengeResponseServer()
        issued = server.issue(principal.keypair.public)
        thief = ChallengeResponseClient(generate_keypair(bits=256))
        try:
            response = thief.respond(issued)
        except ValueError:
            return  # could not even decrypt the challenge: rejected
        assert not server.verify(issued.challenge_id, response)

    def test_key_bound_appointment_certificate(self, hospital):
        """Appointments can be bound to a long-lived public key instead of
        a principal id; the key fingerprint travels as 'key:<fp>'."""
        doctor_keys = generate_keypair(bits=256)
        key_holder = f"key:{doctor_keys.fingerprint()}"

        admin = Principal("adm")
        admin_session = admin.start_session(hospital.login,
                                            "logged_in_user", ["adm"])
        admin_session.activate(hospital.admin, "administrator", ["adm"])
        certificate = admin_session.issue_appointment(
            hospital.admin, "allocated", ["d1", "p1"], holder=key_holder)
        hospital.db.insert("registered", doctor="d1", patient="p1")

        # The doctor proves key possession by challenge-response, after
        # which the service accepts the 'key:<fp>' holder claim.
        server = ChallengeResponseServer()
        client = ChallengeResponseClient(doctor_keys)
        issued = server.issue(client.public_key)
        assert server.verify(issued.challenge_id, client.respond(issued))

        doctor = Principal("d1")
        doctor.store_appointment(certificate)
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        rmc = session.activate(hospital.records, "treating_doctor",
                               use_appointments=[certificate])
        assert rmc.role.parameters == ("d1", "p1")

    def test_key_bound_appointment_with_wrong_key_claim_fails(self, hospital):
        doctor_keys = generate_keypair(bits=256)
        admin = Principal("adm")
        admin_session = admin.start_session(hospital.login,
                                            "logged_in_user", ["adm"])
        admin_session.activate(hospital.admin, "administrator", ["adm"])
        certificate = admin_session.issue_appointment(
            hospital.admin, "allocated", ["d1", "p1"],
            holder=f"key:{doctor_keys.fingerprint()}")
        hospital.db.insert("registered", doctor="d1", patient="p1")

        from repro.core import Presentation

        thief = Principal("d1")  # right principal name, wrong key
        session = thief.start_session(hospital.login, "logged_in_user",
                                      ["d1"])
        other_key = generate_keypair(bits=256)
        with pytest.raises(SignatureInvalid):
            hospital.records.activate_role(
                thief.id, "treating_doctor", None,
                [Presentation(session.root_rmc),
                 Presentation(certificate,
                              holder=f"key:{other_key.fingerprint()}")])
