"""Sect. 5: a doctor works temporarily in a research institute.

Run:  python examples/visiting_doctor.py

The hospital and the research institute trust each other (subdomains of a
national healthcare domain).  Their service-level agreement says: the home
domain's ``employed_as_doctor`` appointment certificate is accepted as
proof of medical qualification, admitting the holder to the richer role
``visiting_doctor`` (not just ``guest``).  Validity is checked by callback
to the hospital, and termination of employment ends the visit instantly.
"""

from repro.core import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.domains import Deployment, ServiceLevelAgreement, SlaTerm


def main() -> None:
    deployment = Deployment()

    # Hospital HR: issues employed_as_doctor only after checking academic
    # and professional qualification (modelled by the hr_officer role).
    hr_policy = ServicePolicy(ServiceId("hospital", "hr"))
    officer = hr_policy.define_role("hr_officer", 0)
    hr_policy.add_activation_rule(ActivationRule(RoleTemplate(officer)))
    hr_policy.add_appointment_rule(AppointmentRule(
        "employed_as_doctor", (Var("d"), Var("hospital_id")),
        (PrerequisiteRole(RoleTemplate(officer)),)))
    hr = deployment.service(hr_policy)

    # Institute lab: guest role for anyone, richer access for visitors.
    lab_policy = ServicePolicy(ServiceId("research-institute", "lab"))
    guest = lab_policy.define_role("guest", 0)
    lab_policy.add_activation_rule(ActivationRule(RoleTemplate(guest)))
    lab_policy.add_authorization_rule(AuthorizationRule(
        "read_public_seminars", (),
        (PrerequisiteRole(RoleTemplate(guest)),)))
    lab_policy.add_authorization_rule(AuthorizationRule(
        "access_clinical_data", (),
        (PrerequisiteRole(RoleTemplate(
            lab_policy.define_role("visiting_doctor", 1), (Var("d"),))),)))
    lab = deployment.service(lab_policy)
    lab.register_method("read_public_seminars", lambda: "seminar list")
    lab.register_method("access_clinical_data", lambda: "clinical dataset")

    # The agreement, compiled into the institute's policy.
    agreement = ServiceLevelAgreement(
        lab.id, hr.id,
        [SlaTerm("visiting_doctor", (Var("d"),),
                 AppointmentCondition(hr.id, "employed_as_doctor",
                                      (Var("d"), Var("h")),
                                      membership=True))],
        description="hospital <-> institute reciprocal staff exchange")
    agreement.install(lab)
    print(f"installed: {agreement!r}")

    # Hospital HR employs Dr Jones.
    hr_session = Principal("hr-officer-1").start_session(hr, "hr_officer")
    employment = hr_session.issue_appointment(
        hr, "employed_as_doctor", ["dr-jones", "addenbrookes"],
        holder="dr-jones")
    print(f"hospital issued: employed_as_doctor{employment.parameters} "
          f"to {employment.holder}")

    # Dr Jones travels to the institute and enters visiting_doctor.
    doctor = Principal("dr-jones")
    doctor.store_appointment(employment)
    visit = doctor.start_session(lab, "visiting_doctor",
                                 use_appointments=[employment])
    print(f"at the institute, active as: {visit.root_rmc.role}")
    print(f"clinical data access: "
          f"{visit.invoke(lab, 'access_clinical_data')}")

    # A mere guest cannot reach clinical data.
    stranger = Principal("walk-in").start_session(lab, "guest")
    print(f"guest seminar access: "
          f"{stranger.invoke(lab, 'read_public_seminars')}")
    try:
        stranger.invoke(lab, "access_clinical_data")
    except Exception as denied:
        print(f"guest clinical access denied: {type(denied).__name__}")

    # The hospital terminates employment: the visit ends across domains.
    hr.revoke(employment.ref, "employment terminated")
    print(f"employment revoked; visiting role active? "
          f"{lab.is_active(visit.root_rmc.ref)}")


if __name__ == "__main__":
    main()
