"""Sect. 2: building delegation *from* appointment.

Run:  python examples/delegation_via_appointment.py

"If an application requires delegation then it can be built using
appointment.  The role of the delegator must be granted the privilege of
issuing appointment certificates, and a role must be established to hold
the privileges to be assigned.  Finally an activation rule must be defined
to ensure that the appointment certificate is presented in an appropriate
context."

Scenario: a duty doctor is called away and delegates cover to a colleague
for the rest of the shift.  The construction:

1. the ``duty_doctor`` role carries the right to issue the *transient*
   appointment ``stands_in_for(delegate, delegator)``;
2. the role ``covering_doctor(delegate, delegator)`` holds the delegated
   privileges;
3. its activation rule demands the appointment certificate *and* that the
   delegate is itself a logged-in clinician — context, not blanket
   transfer;
4. the appointment expires with the shift, and the delegator can revoke it
   early — both shown below.
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
from repro.domains import Deployment


def main() -> None:
    deployment = Deployment()

    login_policy = ServicePolicy(ServiceId("hospital", "login"))
    logged_in = login_policy.define_role("logged_in_user", 1)
    login_policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    login = deployment.service(login_policy)

    ward_policy = ServicePolicy(ServiceId("hospital", "ward"))
    duty = ward_policy.define_role("duty_doctor", 1)
    ward_policy.add_activation_rule(ActivationRule(
        RoleTemplate(duty, (Var("d"),)),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("d"),)),
                          membership=True),)))
    # (1) duty_doctor may issue the stands_in_for appointment, and only
    # for itself as delegator (the parameter join enforces it).
    ward_policy.add_appointment_rule(AppointmentRule(
        "stands_in_for", (Var("delegate"), Var("delegator")),
        (PrerequisiteRole(RoleTemplate(duty, (Var("delegator"),))),)))
    # (2)+(3) covering_doctor holds the privileges; activation demands the
    # certificate and a live clinician session.
    covering = ward_policy.define_role("covering_doctor", 2)
    ward_policy.add_activation_rule(ActivationRule(
        RoleTemplate(covering, (Var("delegate"), Var("delegator"))),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("delegate"),)),
                          membership=True),
         AppointmentCondition(ServiceId("hospital", "ward"), "stands_in_for",
                              (Var("delegate"), Var("delegator")),
                              membership=True))))
    ward_policy.add_authorization_rule(AuthorizationRule(
        "administer_medication", (Var("pat"),),
        (PrerequisiteRole(RoleTemplate(duty, (Var("d"),))),)))
    ward_policy.add_authorization_rule(AuthorizationRule(
        "administer_medication", (Var("pat"),),
        (PrerequisiteRole(RoleTemplate(covering,
                                       (Var("d"), Var("for")))),)))
    ward = deployment.service(ward_policy)
    ward.register_method("administer_medication",
                         lambda pat: f"medication given to {pat}")

    # Dr Day is on duty and is called away; she delegates to Dr Knight
    # until the end of the shift (expiry 8 hours from now).
    day = Principal("dr-day")
    day_session = day.start_session(login, "logged_in_user", ["dr-day"])
    day_session.activate(ward, "duty_doctor", ["dr-day"])
    shift_end = deployment.clock.now() + 8 * 3600
    cover_cert = day_session.issue_appointment(
        ward, "stands_in_for", ["dr-knight", "dr-day"],
        holder="dr-knight", expires_at=shift_end)
    print(f"delegation issued: stands_in_for{cover_cert.parameters}, "
          f"expires at t={cover_cert.expires_at}")

    # Dr Knight activates covering_doctor and works under it.
    knight = Principal("dr-knight")
    knight.store_appointment(cover_cert)
    knight_session = knight.start_session(login, "logged_in_user",
                                          ["dr-knight"])
    cover_rmc = knight_session.activate(ward, "covering_doctor",
                                        use_appointments=[cover_cert])
    print(f"delegate active as: {cover_rmc.role}")
    print(f"-> {knight_session.invoke(ward, 'administer_medication', ['p1'])}")

    # The delegator cannot be impersonated: Dr Night (not on duty) cannot
    # issue cover in Dr Day's name.
    night = Principal("dr-night")
    night_session = night.start_session(login, "logged_in_user",
                                        ["dr-night"])
    try:
        night_session.issue_appointment(
            ward, "stands_in_for", ["dr-night-friend", "dr-day"])
    except Exception as denied:
        print(f"forged delegation refused: {type(denied).__name__}")

    # Early revocation: Dr Day returns and revokes the cover; the
    # covering_doctor role collapses immediately (membership dependency).
    ward.revoke(cover_cert.ref, "delegator returned")
    print(f"after revocation, covering role active? "
          f"{ward.is_active(cover_rmc.ref)}")
    try:
        knight_session.invoke(ward, "administer_medication", ["p1"])
    except Exception as denied:
        print(f"delegate's access now refused: {type(denied).__name__}")


if __name__ == "__main__":
    main()
