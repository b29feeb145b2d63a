"""Integration tests: the Sect. 5 scenarios — mutually-aware domains.

Three scenarios from the paper, end to end:

* **visiting doctor** — reciprocal hospital/research-institute agreement on
  ``employed_as_doctor`` / ``research_medic`` appointment certificates;
* **group membership** (the Tate galleries) — a friend registered at one
  gallery receives friend privileges at the others, identity not needed;
* **anonymity** (the genetic clinic) — an anonymous insurance membership
  card admits the holder to ``paid_up_patient`` while unexpired, with the
  insurer learning nothing.
"""

import pytest

from repro.core import (
    ActivationDenied,
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    BeforeDeadlineConstraint,
    ConstraintCondition,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.domains import Deployment, ServiceLevelAgreement, SlaTerm


class TestVisitingDoctor:
    @pytest.fixture
    def world(self):
        deployment = Deployment()

        # hospital HR issues employed_as_doctor to qualified staff
        hr_policy = ServicePolicy(ServiceId("hospital", "hr"))
        officer = hr_policy.define_role("hr_officer", 0)
        hr_policy.add_activation_rule(ActivationRule(RoleTemplate(officer)))
        hr_policy.add_appointment_rule(AppointmentRule(
            "employed_as_doctor", (Var("d"), Var("h")),
            (PrerequisiteRole(RoleTemplate(officer)),)))
        hr = deployment.service(hr_policy)

        # institute lab: defines visiting_doctor once the SLA is installed,
        # and its own research_medic appointments
        lab_policy = ServicePolicy(ServiceId("institute", "lab"))
        director = lab_policy.define_role("director", 0)
        lab_policy.add_activation_rule(ActivationRule(RoleTemplate(director)))
        lab_policy.add_appointment_rule(AppointmentRule(
            "research_medic", (Var("r"),),
            (PrerequisiteRole(RoleTemplate(director)),)))
        lab_policy.add_authorization_rule(AuthorizationRule(
            "run_experiment", (),
            (PrerequisiteRole(RoleTemplate(
                lab_policy.define_role("visiting_doctor", 1),
                (Var("d"),))),)))
        lab = deployment.service(lab_policy)
        lab.register_method("run_experiment", lambda: "data")

        # hospital wards: accepts research_medic via the reciprocal side
        ward_policy = ServicePolicy(ServiceId("hospital", "wards"))
        ward = deployment.service(ward_policy)

        forward = ServiceLevelAgreement(
            lab.id, hr.id,
            [SlaTerm("visiting_doctor", (Var("d"),),
                     AppointmentCondition(hr.id, "employed_as_doctor",
                                          (Var("d"), Var("h")),
                                          membership=True))],
            description="hospital doctors visit the institute")
        forward.install(lab)
        backward = forward.reciprocal(
            [SlaTerm("visiting_researcher", (Var("r"),),
                     AppointmentCondition(lab.id, "research_medic",
                                          (Var("r"),), membership=True))])
        # reciprocal accepts at hr? The agreement's accepting party is the
        # hospital side; install at the ward service via a mirrored SLA.
        ward_sla = ServiceLevelAgreement(
            ward.id, lab.id, [
                SlaTerm("visiting_researcher", (Var("r"),),
                        AppointmentCondition(lab.id, "research_medic",
                                             (Var("r"),), membership=True))])
        ward_sla.install(ward)
        return deployment, hr, lab, ward, backward

    def test_doctor_visits_institute(self, world):
        _, hr, lab, _, _ = world
        hr_session = Principal("hr-1").start_session(hr, "hr_officer")
        employment = hr_session.issue_appointment(
            hr, "employed_as_doctor", ["dr-jones", "addenbrookes"],
            holder="dr-jones")
        doctor = Principal("dr-jones")
        doctor.store_appointment(employment)
        visit = doctor.start_session(lab, "visiting_doctor",
                                     use_appointments=[employment])
        assert visit.invoke(lab, "run_experiment") == "data"

    def test_visiting_role_exceeds_guest_but_requires_employment(self, world):
        _, hr, lab, _, _ = world
        stranger = Principal("walk-in")
        with pytest.raises(ActivationDenied):
            stranger.start_session(lab, "visiting_doctor", ["walk-in"])

    def test_reciprocal_direction(self, world):
        _, hr, lab, ward, _ = world
        director_session = Principal("director").start_session(lab,
                                                               "director")
        medic_cert = director_session.issue_appointment(
            lab, "research_medic", ["dr-curie"], holder="dr-curie")
        researcher = Principal("dr-curie")
        researcher.store_appointment(medic_cert)
        session = researcher.start_session(ward, "visiting_researcher",
                                           use_appointments=[medic_cert])
        assert session.root_rmc.role.parameters == ("dr-curie",)

    def test_employment_termination_ends_visit(self, world):
        """Check-back to the issuing service: when the hospital terminates
        employment, the institute's visiting role collapses."""
        _, hr, lab, _, _ = world
        hr_session = Principal("hr-1").start_session(hr, "hr_officer")
        employment = hr_session.issue_appointment(
            hr, "employed_as_doctor", ["dr-brief", "addenbrookes"],
            holder="dr-brief")
        doctor = Principal("dr-brief")
        doctor.store_appointment(employment)
        visit = doctor.start_session(lab, "visiting_doctor",
                                     use_appointments=[employment])
        rmc = visit.root_rmc
        hr.revoke(employment.ref, "employment terminated")
        assert not lab.is_active(rmc.ref)

    def test_reciprocal_metadata(self, world):
        _, _, _, _, backward = world
        assert "reciprocal" in backward.description


class TestGroupMembership:
    """The Tate galleries: membership at one gallery confers friend
    privileges at all, without needing the member's identity."""

    @pytest.fixture
    def galleries(self):
        deployment = Deployment()

        membership_policy = ServicePolicy(ServiceId("tate", "membership"))
        desk = membership_policy.define_role("membership_desk", 0)
        membership_policy.add_activation_rule(
            ActivationRule(RoleTemplate(desk)))
        membership_policy.add_appointment_rule(AppointmentRule(
            "friend_of_the_tate", (Var("expiry"),),
            (PrerequisiteRole(RoleTemplate(desk)),)))
        membership = deployment.service(membership_policy)

        def gallery(name):
            policy = ServicePolicy(ServiceId("tate", name))
            friend = policy.define_role("friend", 0)
            policy.add_activation_rule(ActivationRule(
                RoleTemplate(friend),
                (AppointmentCondition(membership.id, "friend_of_the_tate",
                                      (Var("e"),), membership=True),
                 ConstraintCondition(BeforeDeadlineConstraint(Var("e"))))))
            policy.add_authorization_rule(AuthorizationRule(
                "newsletter", (), (PrerequisiteRole(RoleTemplate(friend)),)))
            service = deployment.service(policy)
            service.register_method("newsletter",
                                    lambda n=name: f"{n} newsletter")
            return service

        return (deployment, membership, gallery("london"),
                gallery("st-ives"), gallery("liverpool"))

    def issue_card(self, membership, expiry=1000.0):
        desk_session = Principal("staff").start_session(membership,
                                                        "membership_desk")
        # Anonymous: no holder binding — "the identity of the principal is
        # not needed if proof of membership is securely provable".
        return desk_session.issue_appointment(
            membership, "friend_of_the_tate", [expiry])

    def test_one_card_admits_at_every_gallery(self, galleries):
        _, membership, london, st_ives, liverpool = galleries
        card = self.issue_card(membership)
        art_lover = Principal("anonymous-art-lover")
        for gallery in (london, st_ives, liverpool):
            session = art_lover.start_session(gallery, "friend",
                                              use_appointments=[card])
            assert "newsletter" in session.invoke(gallery, "newsletter")

    def test_card_is_transferable_because_anonymous(self, galleries):
        """Anonymous certificates have no holder binding; any bearer may
        use them (the physical-membership-card semantics)."""
        _, membership, london, _, _ = galleries
        card = self.issue_card(membership)
        bearer = Principal("someone-else")
        session = bearer.start_session(london, "friend",
                                       use_appointments=[card])
        assert session.root_rmc is not None

    def test_expired_card_rejected(self, galleries):
        deployment, membership, london, _, _ = galleries
        card = self.issue_card(membership, expiry=10.0)
        deployment.clock.advance(20.0)
        with pytest.raises(ActivationDenied):
            Principal("late").start_session(london, "friend",
                                            use_appointments=[card])

    def test_cancelled_membership_rejected_at_all_galleries(self, galleries):
        _, membership, london, st_ives, _ = galleries
        card = self.issue_card(membership)
        membership.revoke(card.ref, "membership cancelled")
        from repro.core import CredentialRevoked

        with pytest.raises(CredentialRevoked):
            Principal("x").start_session(st_ives, "friend",
                                         use_appointments=[card])


class TestAnonymousClinic:
    """The genetic-test scenario: the clinic verifies insurance membership
    without learning identity; the insurer never sees the test."""

    @pytest.fixture
    def clinic_world(self):
        deployment = Deployment()

        insurer_policy = ServicePolicy(ServiceId("insurer", "membership"))
        desk = insurer_policy.define_role("enrolment_desk", 0)
        insurer_policy.add_activation_rule(ActivationRule(RoleTemplate(desk)))
        insurer_policy.add_appointment_rule(AppointmentRule(
            "insured", (Var("expiry"),),
            (PrerequisiteRole(RoleTemplate(desk)),)))
        insurer_svc = deployment.service(insurer_policy)

        clinic_policy = ServicePolicy(ServiceId("clinic", "genetics"))
        patient = clinic_policy.define_role("paid_up_patient", 0)
        clinic_policy.add_activation_rule(ActivationRule(
            RoleTemplate(patient),
            (AppointmentCondition(insurer_svc.id, "insured", (Var("e"),),
                                  membership=True),
             ConstraintCondition(BeforeDeadlineConstraint(Var("e"))))))
        clinic_policy.add_authorization_rule(AuthorizationRule(
            "take_genetic_test", (),
            (PrerequisiteRole(RoleTemplate(patient)),)))
        clinic_svc = deployment.service(clinic_policy)
        clinic_svc.register_method("take_genetic_test",
                                   lambda: "sealed-result")
        return deployment, insurer_svc, clinic_svc

    def issue_card(self, insurer_svc, expiry):
        desk = Principal("insurer-desk").start_session(insurer_svc,
                                                       "enrolment_desk")
        return desk.issue_appointment(insurer_svc, "insured", [expiry])

    def test_member_takes_test_anonymously(self, clinic_world):
        deployment, insurer_svc, clinic_svc = clinic_world
        card = self.issue_card(insurer_svc, expiry=365.0)
        member = Principal("anonymous-member")
        session = member.start_session(clinic_svc, "paid_up_patient",
                                       use_appointments=[card])
        assert session.invoke(clinic_svc, "take_genetic_test") \
            == "sealed-result"

    def test_anonymity_certificate_carries_no_identity(self, clinic_world):
        _, insurer_svc, _ = clinic_world
        card = self.issue_card(insurer_svc, expiry=365.0)
        assert card.holder is None
        assert all("anonymous-member" not in str(p)
                   for p in card.parameters)

    def test_expired_membership_blocks_test(self, clinic_world):
        deployment, insurer_svc, clinic_svc = clinic_world
        card = self.issue_card(insurer_svc, expiry=30.0)
        deployment.clock.advance(31.0)
        with pytest.raises(ActivationDenied):
            Principal("late").start_session(clinic_svc, "paid_up_patient",
                                            use_appointments=[card])

    def test_insurer_validates_but_learns_only_validity(self, clinic_world):
        """The clinic's callback to the insurer (trusted third party)
        identifies only the certificate, not the test or the holder."""
        deployment, insurer_svc, clinic_svc = clinic_world
        card = self.issue_card(insurer_svc, expiry=365.0)
        served_before = insurer_svc.stats.callbacks_served
        Principal("anon").start_session(clinic_svc, "paid_up_patient",
                                        use_appointments=[card])
        assert insurer_svc.stats.callbacks_served == served_before + 1
