"""Tests for service-level agreements (Sect. 3/5)."""

import pytest

from repro.core import (
    ActivationDenied,
    AppointmentCondition,
    BeforeDeadlineConstraint,
    ConstraintCondition,
    PolicyError,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.core.rules import ActivationRule
from repro.domains import Deployment, ServiceLevelAgreement, SlaTerm


@pytest.fixture
def world():
    """Hospital + research institute, not yet linked by any agreement."""
    deployment = Deployment()

    login_policy = ServicePolicy(ServiceId("hospital", "login"))
    logged_in = login_policy.define_role("logged_in_user", 1)
    login_policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    login = deployment.service(login_policy)

    admin_policy = ServicePolicy(ServiceId("hospital", "admin"))
    admin_role = admin_policy.define_role("administrator", 1)
    admin_policy.add_activation_rule(ActivationRule(
        RoleTemplate(admin_role, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("u"),)),
                          membership=True),)))
    from repro.core import AppointmentRule

    admin_policy.add_appointment_rule(AppointmentRule(
        "employed_as_doctor", (Var("d"), Var("h")),
        (PrerequisiteRole(RoleTemplate(admin_role, (Var("a"),))),)))
    admin = deployment.service(admin_policy)

    research_policy = ServicePolicy(ServiceId("institute", "lab"))
    guest = research_policy.define_role("guest", 0)
    research_policy.add_activation_rule(ActivationRule(RoleTemplate(guest)))
    lab = deployment.service(research_policy)
    return deployment, login, admin, lab


def issue_employment(login, admin, doctor_id):
    admin_principal = Principal("hr")
    session = admin_principal.start_session(login, "logged_in_user", ["hr"])
    session.activate(admin, "administrator", ["hr"])
    return session.issue_appointment(
        admin, "employed_as_doctor", [doctor_id, "addenbrookes"],
        holder=doctor_id)


class TestSlaConstruction:
    def test_needs_terms(self, world):
        _, login, admin, lab = world
        with pytest.raises(PolicyError):
            ServiceLevelAgreement(lab.id, admin.id, [])

    def test_term_issuer_must_match_agreement(self, world):
        _, login, admin, lab = world
        wrong_issuer = ServiceId("elsewhere", "admin")
        term = SlaTerm("visiting_doctor", (Var("d"),),
                       AppointmentCondition(wrong_issuer,
                                            "employed_as_doctor",
                                            (Var("d"), Var("h"))))
        with pytest.raises(PolicyError, match="issuing party"):
            ServiceLevelAgreement(lab.id, admin.id, [term])

    def test_empty_validity_window_rejected(self, world):
        _, login, admin, lab = world
        term = SlaTerm("visiting_doctor", (Var("d"),),
                       AppointmentCondition(admin.id, "employed_as_doctor",
                                            (Var("d"), Var("h"))))
        with pytest.raises(PolicyError, match="window"):
            ServiceLevelAgreement(lab.id, admin.id, [term],
                                  effective_from=10.0, effective_until=5.0)

    def test_effectiveness_window(self, world):
        _, login, admin, lab = world
        term = SlaTerm("visiting_doctor", (Var("d"),),
                       AppointmentCondition(admin.id, "employed_as_doctor",
                                            (Var("d"), Var("h"))))
        sla = ServiceLevelAgreement(lab.id, admin.id, [term],
                                    effective_from=10.0,
                                    effective_until=100.0)
        assert not sla.is_effective(5.0)
        assert sla.is_effective(50.0)
        assert not sla.is_effective(100.0)


class TestSlaInstallation:
    def make_sla(self, admin, lab):
        term = SlaTerm(
            "visiting_doctor", (Var("d"),),
            AppointmentCondition(admin.id, "employed_as_doctor",
                                 (Var("d"), Var("h")), membership=True))
        return ServiceLevelAgreement(
            lab.id, admin.id, [term],
            description="hospital doctors may visit the institute")

    def test_wrong_service_rejected(self, world):
        _, login, admin, lab = world
        sla = self.make_sla(admin, lab)
        with pytest.raises(PolicyError, match="cannot install"):
            sla.install(admin)

    def test_install_enables_visiting_role(self, world):
        """The Sect. 5 scenario: the home appointment certificate admits
        the doctor to visiting_doctor at the institute."""
        _, login, admin, lab = world
        sla = self.make_sla(admin, lab)
        assert not sla.installed
        sla.install(lab)
        assert sla.installed

        certificate = issue_employment(login, admin, "dr-jones")
        doctor = Principal("dr-jones")
        doctor.store_appointment(certificate)
        session = doctor.start_session(
            lab, "visiting_doctor",
            use_appointments=doctor.appointments())
        assert session.root_rmc.role.parameters == ("dr-jones",)

    def test_without_sla_activation_fails(self, world):
        _, login, admin, lab = world
        certificate = issue_employment(login, admin, "dr-jones")
        doctor = Principal("dr-jones")
        doctor.store_appointment(certificate)
        from repro.core import UnknownRole

        with pytest.raises((ActivationDenied, UnknownRole)):
            doctor.start_session(lab, "visiting_doctor",
                                 use_appointments=doctor.appointments())

    def test_home_revocation_collapses_visiting_role(self, world):
        """Membership-flagged foreign appointment: when the hospital
        revokes employment, the visiting role dies across domains."""
        _, login, admin, lab = world
        self.make_sla(admin, lab).install(lab)
        certificate = issue_employment(login, admin, "dr-jones")
        doctor = Principal("dr-jones")
        doctor.store_appointment(certificate)
        session = doctor.start_session(
            lab, "visiting_doctor", use_appointments=doctor.appointments())
        rmc = session.root_rmc
        assert lab.is_active(rmc.ref)
        admin.revoke(certificate.ref, "employment terminated")
        assert not lab.is_active(rmc.ref)

    def test_extra_conditions_apply(self, world):
        """The anonymity scenario shape: appointment + expiry constraint."""
        deployment, login, admin, lab = world
        term = SlaTerm(
            "visiting_doctor", (Var("d"),),
            AppointmentCondition(admin.id, "employed_as_doctor",
                                 (Var("d"), Var("h"))),
            extra_conditions=(ConstraintCondition(
                BeforeDeadlineConstraint(100.0)),))
        ServiceLevelAgreement(lab.id, admin.id, [term]).install(lab)
        certificate = issue_employment(login, admin, "dr-late")
        doctor = Principal("dr-late")
        doctor.store_appointment(certificate)
        deployment.clock.advance(200.0)  # past the deadline
        with pytest.raises(ActivationDenied):
            doctor.start_session(lab, "visiting_doctor",
                                 use_appointments=doctor.appointments())

    def test_validity_window_enforced_at_activation(self, world):
        """An agreement outside its effective window grants nothing, even
        though its rules sit in the policy."""
        deployment, login, admin, lab = world
        term = SlaTerm(
            "visiting_doctor", (Var("d"),),
            AppointmentCondition(admin.id, "employed_as_doctor",
                                 (Var("d"), Var("h")), membership=True))
        ServiceLevelAgreement(lab.id, admin.id, [term],
                              effective_from=100.0,
                              effective_until=200.0).install(lab)
        certificate = issue_employment(login, admin, "dr-early")
        doctor = Principal("dr-early")
        doctor.store_appointment(certificate)
        # Too early.
        with pytest.raises(ActivationDenied):
            doctor.start_session(lab, "visiting_doctor",
                                 use_appointments=doctor.appointments())
        # In the window.
        deployment.clock.advance(150.0)
        session = doctor.start_session(
            lab, "visiting_doctor", use_appointments=doctor.appointments())
        rmc = session.root_rmc
        assert lab.is_active(rmc.ref)
        # Expiry is membership-flagged: the sweep deactivates the role.
        deployment.clock.advance(100.0)  # now 250 > 200
        revoked = lab.recheck_membership()
        assert revoked == 1
        assert not lab.is_active(rmc.ref)
        # And no fresh activation succeeds.
        with pytest.raises(ActivationDenied):
            doctor.start_session(lab, "visiting_doctor",
                                 use_appointments=doctor.appointments())

    def test_reciprocal_agreement(self, world):
        _, login, admin, lab = world
        sla = self.make_sla(admin, lab)
        back_term = SlaTerm(
            "research_visitor", (Var("r"),),
            AppointmentCondition(lab.id, "research_medic", (Var("r"),)))
        reciprocal = sla.reciprocal([back_term])
        assert reciprocal.accepting == admin.id
        assert reciprocal.issuing == lab.id
        assert "reciprocal" in reciprocal.description

    def test_repr(self, world):
        _, login, admin, lab = world
        assert "1 terms" in repr(self.make_sla(admin, lab))
