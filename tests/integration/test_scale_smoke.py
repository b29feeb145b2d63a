"""Whole-system scale smoke test: many hospitals, doctors, cascades.

Not a micro-benchmark — a correctness check that global invariants hold
when the system is driven at (laptop) scale: 4 hospitals under one
national EHR domain, 10 doctors each, sessions built, records read
nationally, then a wave of revocations.
"""

import pytest

from repro.core import CredentialRevoked, InvocationDenied
from repro.domains import Deployment
from repro.scenarios import build_hospital, build_national_ehr

HOSPITALS = 4
DOCTORS_PER_HOSPITAL = 10


@pytest.fixture(scope="module")
def big_world():
    deployment = Deployment()
    hospitals = [build_hospital(deployment, f"hospital-{index}")
                 for index in range(HOSPITALS)]
    national = build_national_ehr(
        deployment, *[hospital.domain for hospital in hospitals])
    cast = []  # (hospital, doctor, session, treating_rmc)
    for h_index, hospital in enumerate(hospitals):
        for d_index in range(DOCTORS_PER_HOSPITAL):
            doctor_id = f"dr-{h_index}-{d_index}"
            patient_id = f"p-{h_index}-{d_index}"
            national.ehr_store[patient_id] = [f"history of {patient_id}"]
            doctor = hospital.admit_doctor(doctor_id, patient_id)
            session = hospital.treating_session(doctor)
            treating = [rmc for rmc in session.active_rmcs()
                        if rmc.role.role_name.name == "treating_doctor"][0]
            cast.append((hospital, doctor, session, treating))
    return deployment, hospitals, national, cast


class TestScale:
    def test_everyone_reads_their_own_patient(self, big_world):
        deployment, hospitals, national, cast = big_world
        for h_index, (hospital, doctor, session, treating) in \
                enumerate(cast):
            gateway = national.gateways[hospital.domain]
            patient_id = treating.role.parameters[1]
            copy = gateway.request_ehr(treating, doctor.id.value,
                                       patient_id)
            assert copy == [f"history of {patient_id}"]

    def test_nobody_reads_across_hospitals(self, big_world):
        deployment, hospitals, national, cast = big_world
        hospital_a, doctor_a, session_a, treating_a = cast[0]
        _, _, _, treating_b = cast[DOCTORS_PER_HOSPITAL]  # other hospital
        gateway_a = national.gateways[hospital_a.domain]
        foreign_patient = treating_b.role.parameters[1]
        with pytest.raises(InvocationDenied):
            gateway_a.request_ehr(treating_a, doctor_a.id.value,
                                  foreign_patient)

    def test_mass_revocation_wave(self, big_world):
        """Retract half the registrations at one hospital: exactly those
        roles die; everything else is untouched."""
        deployment, hospitals, national, cast = big_world
        victim_hospital = hospitals[1]
        victims = [entry for entry in cast
                   if entry[0] is victim_hospital][:5]
        survivors = [entry for entry in cast
                     if entry not in victims]
        for hospital, doctor, session, treating in victims:
            doctor_id, patient_id = treating.role.parameters
            hospital.db.delete("registered", doctor=doctor_id,
                               patient=patient_id)
        for hospital, doctor, session, treating in victims:
            assert not hospital.records.is_active(treating.ref)
        for hospital, doctor, session, treating in survivors:
            assert hospital.records.is_active(treating.ref)

    def test_national_refuses_the_revoked(self, big_world):
        deployment, hospitals, national, cast = big_world
        hospital, doctor, session, treating = cast[DOCTORS_PER_HOSPITAL]
        # this entry was revoked by the wave above (module-scoped fixture)
        gateway = national.gateways[hospital.domain]
        patient_id = treating.role.parameters[1]
        with pytest.raises((CredentialRevoked, InvocationDenied)):
            gateway.request_ehr(treating, doctor.id.value, patient_id)

    def test_audit_trails_complete(self, big_world):
        """Every successful national read was audited with the original
        requester's identity."""
        deployment, hospitals, national, cast = big_world
        from repro.core import AccessKind

        invocations = national.patient_records.access_log.query(
            kind=AccessKind.INVOCATION, subject="request_EHR")
        assert len(invocations) >= HOSPITALS * DOCTORS_PER_HOSPITAL

    def test_stats_are_consistent(self, big_world):
        deployment, hospitals, national, cast = big_world
        for hospital in hospitals:
            stats = hospital.records.stats
            assert stats.rmcs_issued >= DOCTORS_PER_HOSPITAL
            # every issue implied at least one validation somewhere
            assert stats.callbacks_made + stats.cache_hits > 0
