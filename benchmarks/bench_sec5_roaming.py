"""SEC5 — mutually-aware domains: roaming, group membership, anonymity.

Two workloads from Sect. 5 of the paper:

* **SEC5A, visiting doctor** — activation of ``visiting_doctor`` at the
  research institute on the strength of a home-domain appointment
  certificate, validated by cross-domain callback.  Measures cold vs warm
  (cached) activation and the network cost.
* **SEC5B, group membership + anonymity** — anonymous membership-card
  activation (the Tate friend / genetic clinic shape): throughput of
  anonymous appointment validation plus the expiry-constraint check.

Series in ``benchmarks/results/SEC5.txt``.
"""

import pytest

from repro.core import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    BeforeDeadlineConstraint,
    ConstraintCondition,
    Presentation,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.domains import Deployment, ServiceLevelAgreement, SlaTerm

from workloads import record_result


def build_roaming_world():
    deployment = Deployment()

    hr_policy = ServicePolicy(ServiceId("hospital", "hr"))
    officer = hr_policy.define_role("hr_officer", 0)
    hr_policy.add_activation_rule(ActivationRule(RoleTemplate(officer)))
    hr_policy.add_appointment_rule(AppointmentRule(
        "employed_as_doctor", (Var("d"), Var("h")),
        (PrerequisiteRole(RoleTemplate(officer)),)))
    hr = deployment.service(hr_policy)

    lab_policy = ServicePolicy(ServiceId("institute", "lab"))
    lab = deployment.service(lab_policy)
    ServiceLevelAgreement(
        lab.id, hr.id,
        [SlaTerm("visiting_doctor", (Var("d"),),
                 AppointmentCondition(hr.id, "employed_as_doctor",
                                      (Var("d"), Var("h")),
                                      membership=True))]).install(lab)

    hr_session = Principal("hr-officer").start_session(hr, "hr_officer")
    return deployment, hr, lab, hr_session


def issue_employment(hr_session, hr, doctor_id):
    return hr_session.issue_appointment(
        hr, "employed_as_doctor", [doctor_id, "addenbrookes"],
        holder=doctor_id)


def test_sec5a_visiting_doctor_activation_cold(benchmark):
    """First activation: cross-domain callback to validate the
    appointment.  Fresh certificate per round so the cache never helps."""
    deployment, hr, lab, hr_session = build_roaming_world()
    counter = [0]

    def setup():
        counter[0] += 1
        doctor_id = f"dr-{counter[0]}"
        certificate = issue_employment(hr_session, hr, doctor_id)
        doctor = Principal(doctor_id)
        return (doctor, certificate), {}

    def activate(doctor, certificate):
        lab.activate_role(
            doctor.id, "visiting_doctor", None,
            [Presentation(certificate, holder=certificate.holder)])

    benchmark.pedantic(activate, setup=setup, rounds=50, iterations=1)


def test_sec5a_visiting_doctor_activation_warm(benchmark):
    """Re-activation with the appointment's validation cached."""
    deployment, hr, lab, hr_session = build_roaming_world()
    certificate = issue_employment(hr_session, hr, "dr-warm")
    doctor = Principal("dr-warm")
    credentials = [Presentation(certificate, holder="dr-warm")]
    lab.activate_role(doctor.id, "visiting_doctor", None, credentials)

    benchmark(lambda: lab.activate_role(
        doctor.id, "visiting_doctor", None, credentials))


def build_gallery_world():
    deployment = Deployment()
    membership_policy = ServicePolicy(ServiceId("tate", "membership"))
    desk = membership_policy.define_role("membership_desk", 0)
    membership_policy.add_activation_rule(ActivationRule(RoleTemplate(desk)))
    membership_policy.add_appointment_rule(AppointmentRule(
        "friend_of_the_tate", (Var("expiry"),),
        (PrerequisiteRole(RoleTemplate(desk)),)))
    membership = deployment.service(membership_policy)

    gallery_policy = ServicePolicy(ServiceId("tate", "london"))
    friend = gallery_policy.define_role("friend", 0)
    gallery_policy.add_activation_rule(ActivationRule(
        RoleTemplate(friend),
        (AppointmentCondition(membership.id, "friend_of_the_tate",
                              (Var("e"),), membership=True),
         ConstraintCondition(BeforeDeadlineConstraint(Var("e"))))))
    gallery = deployment.service(gallery_policy)

    desk_session = Principal("staff").start_session(membership,
                                                    "membership_desk")
    card = desk_session.issue_appointment(membership,
                                          "friend_of_the_tate", [1e9])
    return deployment, membership, gallery, card


def test_sec5b_anonymous_membership_activation(benchmark):
    """Anonymous card -> friend role, with the expiry constraint."""
    deployment, membership, gallery, card = build_gallery_world()
    visitor = Principal("anonymous")
    credentials = [Presentation(card)]
    gallery.activate_role(visitor.id, "friend", None, credentials)  # warm

    benchmark(lambda: gallery.activate_role(visitor.id, "friend", None,
                                            credentials))


def test_sec5_series(benchmark):
    rows = ["SEC5: roaming and anonymity (Sect. 5)"]

    # SEC5A network cost: cold activation pays one inter-domain round
    # trip; warm pays none.
    deployment, hr, lab, hr_session = build_roaming_world()
    certificate = issue_employment(hr_session, hr, "dr-net")
    doctor = Principal("dr-net")
    credentials = [Presentation(certificate, holder="dr-net")]
    stats = deployment.network.stats
    stats.reset()
    t0 = deployment.clock.now()
    lab.activate_role(doctor.id, "visiting_doctor", None, credentials)
    cold = (deployment.clock.now() - t0, stats.messages)
    stats.reset()
    t0 = deployment.clock.now()
    lab.activate_role(doctor.id, "visiting_doctor", None, credentials)
    warm = (deployment.clock.now() - t0, stats.messages)
    rows.append("SEC5A visiting doctor   sim_latency_ms  messages")
    rows.append(f"cold (callback)         {1000 * cold[0]:14.1f}  "
                f"{cold[1]:8d}")
    rows.append(f"warm (ECR cache)        {1000 * warm[0]:14.1f}  "
                f"{warm[1]:8d}")

    # SEC5A revocation reach: employment revoked at home -> visiting role
    # dies at the institute (count the events it took).
    visit_ref = None
    for record in lab.active_credentials():
        visit_ref = record.ref
    events_before = deployment.broker.published_count
    hr.revoke(certificate.ref, "terminated")
    rows.append(f"revocation events to collapse visiting role: "
                f"{deployment.broker.published_count - events_before} "
                f"(role active after: {lab.is_active(visit_ref)})")

    # SEC5B anonymity: validation callbacks identify only the card.
    deployment, membership, gallery, card = build_gallery_world()
    visitor = Principal("anon")
    gallery.activate_role(visitor.id, "friend", None,
                          [Presentation(card)])
    rows.append("")
    rows.append(f"SEC5B anonymous card: holder={card.holder!r}, "
                f"issuer callbacks seen="
                f"{membership.stats.callbacks_served}")
    record_result("SEC5", rows)

    benchmark(lambda: gallery.activate_role(
        visitor.id, "friend", None, [Presentation(card)]))
