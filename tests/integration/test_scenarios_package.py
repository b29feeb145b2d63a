"""Tests for the reusable scenario builders (repro.scenarios)."""

import pytest

from repro.core import ActivationDenied, CredentialRevoked, InvocationDenied, Principal
from repro.domains import Deployment
from repro.scenarios import (
    build_clinic,
    build_galleries,
    build_hospital,
    build_national_ehr,
)


@pytest.fixture
def deployment():
    return Deployment()


class TestHospitalScenario:
    def test_admit_and_treat(self, deployment):
        hospital = build_hospital(deployment)
        hospital.ehr_store["p1"] = ["history"]
        doctor = hospital.admit_doctor("d1", "p1")
        session = hospital.treating_session(doctor)
        assert session.invoke(hospital.records, "read_record", ["p1"]) \
            == ["history"]

    def test_exclusion(self, deployment):
        hospital = build_hospital(deployment)
        doctor = hospital.admit_doctor("fred", "joe")
        session = hospital.treating_session(doctor)
        hospital.exclude_doctor("joe", "fred")
        with pytest.raises(InvocationDenied):
            session.invoke(hospital.records, "read_record", ["joe"])

    def test_allocation_expiry(self, deployment):
        hospital = build_hospital(deployment)
        hospital.register_patient("d1", "p1")
        certificate = hospital.allocate(
            "d1", "p1", expires_at=deployment.clock.now() + 10)
        doctor = Principal("d1")
        doctor.store_appointment(certificate)
        deployment.clock.advance(11)
        with pytest.raises(Exception):
            hospital.treating_session(doctor)

    def test_two_hospitals_coexist(self, deployment):
        a = build_hospital(deployment, "hospital-a")
        b = build_hospital(deployment, "hospital-b")
        doctor = a.admit_doctor("d1", "p1")
        session = a.treating_session(doctor)
        # The same doctor has no standing at hospital-b.
        with pytest.raises(ActivationDenied):
            b.treating_session(doctor)


class TestNationalEhr:
    def test_fig3_flow_via_builders(self, deployment):
        hospital = build_hospital(deployment)
        national = build_national_ehr(deployment, "hospital")
        national.ehr_store["p1"] = ["2019: appendectomy"]

        doctor = hospital.admit_doctor("dr-who", "p1")
        session = hospital.treating_session(doctor)
        treating_rmc = [rmc for rmc in session.active_rmcs()
                        if rmc.role.role_name.name == "treating_doctor"][0]
        gateway = national.gateways["hospital"]
        assert gateway.request_ehr(treating_rmc, "dr-who", "p1") \
            == ["2019: appendectomy"]
        gateway.append_to_ehr(treating_rmc, "dr-who", "p1", "2026: visit")
        assert "2026: visit" in national.ehr_store["p1"]

    def test_multiple_hospitals_accredited(self, deployment):
        hospitals = [build_hospital(deployment, f"hosp-{i}").domain
                     for i in range(3)]
        national = build_national_ehr(deployment, *hospitals)
        assert len(national.gateways) == 3

    def test_revoked_doctor_blocked_nationally(self, deployment):
        hospital = build_hospital(deployment)
        national = build_national_ehr(deployment, "hospital")
        doctor = hospital.admit_doctor("dr-who", "p1")
        session = hospital.treating_session(doctor)
        treating_rmc = [rmc for rmc in session.active_rmcs()
                        if rmc.role.role_name.name == "treating_doctor"][0]
        hospital.db.delete("registered", doctor="dr-who", patient="p1")
        gateway = national.gateways["hospital"]
        with pytest.raises((CredentialRevoked, InvocationDenied)):
            gateway.request_ehr(treating_rmc, "dr-who", "p1")


class TestGalleries:
    def test_card_works_everywhere(self, deployment):
        galleries = build_galleries(deployment)
        card = galleries.issue_card(expiry=1000.0)
        visitor = Principal("anon")
        for gallery in galleries.galleries.values():
            session = visitor.start_session(gallery, "friend",
                                            use_appointments=[card])
            assert "newsletter" in session.invoke(gallery, "newsletter")

    def test_cancellation_propagates(self, deployment):
        galleries = build_galleries(deployment)
        card = galleries.issue_card(expiry=1000.0)
        galleries.cancel_card(card)
        with pytest.raises(CredentialRevoked):
            Principal("anon").start_session(
                galleries.galleries["london"], "friend",
                use_appointments=[card])

    def test_custom_gallery_names(self, deployment):
        galleries = build_galleries(deployment, "modern", "britain")
        assert set(galleries.galleries) == {"modern", "britain"}


class TestClinic:
    def test_anonymous_test(self, deployment):
        clinic = build_clinic(deployment)
        card = clinic.enrol_member(expiry=365.0)
        assert card.holder is None
        member = Principal("anon")
        session = member.start_session(clinic.clinic, "paid_up_patient",
                                       use_appointments=[card])
        assert session.invoke(clinic.clinic, "take_genetic_test") \
            == "results sealed for patient"
        assert clinic.tests_performed == ["test"]

    def test_expired_membership(self, deployment):
        clinic = build_clinic(deployment)
        card = clinic.enrol_member(expiry=10.0)
        deployment.clock.advance(11.0)
        with pytest.raises(ActivationDenied):
            Principal("anon").start_session(
                clinic.clinic, "paid_up_patient", use_appointments=[card])
