"""The Fig. 3 scenario: an OASIS session with cross-domain EHR calls.

Run:  python examples/healthcare_ehr.py

A hospital domain and a national EHR domain.  A treating doctor's request
for a patient record travels: doctor -> hospital EHR gateway -> national
patient record management service, with each hop validated by callback and
recorded for audit, exactly as in the figure's paths 1-4.
"""

from repro.core import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    Presentation,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.domains import Deployment


def build_world():
    deployment = Deployment()

    # Hospital login: the session's initial role.
    login_policy = ServicePolicy(ServiceId("hospital", "login"))
    logged_in = login_policy.define_role("logged_in_user", 1)
    login_policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    login = deployment.service(login_policy)

    # Hospital admin: the screening nurse / administrator allocating
    # patients to doctors via appointment certificates.
    admin_policy = ServicePolicy(ServiceId("hospital", "admin"))
    administrator = admin_policy.define_role("administrator", 1)
    admin_policy.add_activation_rule(ActivationRule(
        RoleTemplate(administrator, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("u"),)),
                          membership=True),)))
    admin_policy.add_appointment_rule(AppointmentRule(
        "allocated", (Var("d"), Var("p")),
        (PrerequisiteRole(RoleTemplate(administrator, (Var("a"),))),)))
    admin = deployment.service(admin_policy)

    # Hospital records: treating_doctor(doc, pat).
    records_policy = ServicePolicy(ServiceId("hospital", "records"))
    treating = records_policy.define_role("treating_doctor", 2)
    records_policy.add_activation_rule(ActivationRule(
        RoleTemplate(treating, (Var("d"), Var("p"))),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("d"),)),
                          membership=True),
         AppointmentCondition(admin.id, "allocated", (Var("d"), Var("p")),
                              membership=True))))
    records = deployment.service(records_policy)

    # National registry accredits hospitals.
    registry_policy = ServicePolicy(ServiceId("national-ehr", "registry"))
    registrar = registry_policy.define_role("registrar", 0)
    registry_policy.add_activation_rule(ActivationRule(
        RoleTemplate(registrar)))
    registry_policy.add_appointment_rule(AppointmentRule(
        "accredited_hospital", (Var("h"),),
        (PrerequisiteRole(RoleTemplate(registrar)),)))
    registry = deployment.service(registry_policy)

    # National Patient Record Management Service (Fig. 3 right-hand box).
    national_policy = ServicePolicy(
        ServiceId("national-ehr", "patient-records"))
    hospital_role = national_policy.define_role("hospital", 1)
    national_policy.add_activation_rule(ActivationRule(
        RoleTemplate(hospital_role, (Var("h"),)),
        (AppointmentCondition(registry.id, "accredited_hospital",
                              (Var("h"),), membership=True),)))
    treating_foreign = RoleTemplate(
        records_policy.define_role("treating_doctor", 2),
        (Var("d"), Var("p")))
    for method, params in (("request_EHR", (Var("p"),)),
                           ("append_to_EHR", (Var("p"), Var("ref")))):
        national_policy.add_authorization_rule(AuthorizationRule(
            method, params,
            (PrerequisiteRole(RoleTemplate(hospital_role, (Var("h"),))),
             PrerequisiteRole(treating_foreign))))
    national_svc = deployment.service(national_policy)

    ehr_store = {"p1": ["2019: appendectomy", "2023: allergy noted"]}
    audit_trail = []
    national_svc.register_method(
        "request_EHR", lambda p: list(ehr_store.get(p, [])))
    national_svc.register_method(
        "append_to_EHR",
        lambda p, entry: ehr_store.setdefault(p, []).append(entry) or "done")

    return (deployment, login, admin, records, registry, national_svc,
            ehr_store, audit_trail)


def main() -> None:
    (deployment, login, admin, records, registry, national_svc,
     ehr_store, _) = build_world()

    # The national registrar accredits the hospital's EHR gateway.
    registrar_session = Principal("registrar").start_session(
        registry, "registrar")
    accreditation = registrar_session.issue_appointment(
        registry, "accredited_hospital", ["addenbrookes"],
        holder="hospital-gateway")
    gateway = Principal("hospital-gateway")
    gateway.store_appointment(accreditation)
    gateway_session = gateway.start_session(
        national_svc, "hospital", use_appointments=[accreditation])
    print(f"gateway active as: {gateway_session.root_rmc.role}")

    # A hospital administrator allocates patient p1 to Dr Who.
    admin_session = Principal("hospital-admin").start_session(
        login, "logged_in_user", ["hospital-admin"])
    admin_session.activate(admin, "administrator", ["hospital-admin"])
    allocation = admin_session.issue_appointment(
        admin, "allocated", ["dr-who", "p1"], holder="dr-who")

    # Dr Who logs in and activates treating_doctor(dr-who, p1).
    doctor = Principal("dr-who")
    doctor.store_appointment(allocation)
    doctor_session = doctor.start_session(login, "logged_in_user",
                                          ["dr-who"])
    treating_rmc = doctor_session.activate(records, "treating_doctor",
                                           use_appointments=[allocation])
    print(f"doctor active as:  {treating_rmc.role}")

    # Paths 1-2: request-EHR through the gateway.
    t0 = deployment.clock.now()
    copy = national_svc.invoke(
        gateway.id, "request_EHR", ["p1"],
        credentials=[Presentation(gateway_session.root_rmc),
                     Presentation(treating_rmc, on_behalf_of="dr-who")])
    print(f"request_EHR(p1) -> {copy}   "
          f"[{1000 * (deployment.clock.now() - t0):.1f} ms simulated]")

    # Paths 3-4: append the record of treatment.
    national_svc.invoke(
        gateway.id, "append_to_EHR", ["p1", "2026: treatment by dr-who"],
        credentials=[Presentation(gateway_session.root_rmc),
                     Presentation(treating_rmc, on_behalf_of="dr-who")])
    print(f"after append, national EHR for p1: {ehr_store['p1']}")

    # Active security across domains: the hospital ends the allocation.
    admin.revoke(allocation.ref, "patient discharged")
    print(f"allocation revoked; treating_doctor active? "
          f"{records.is_active(treating_rmc.ref)}")
    try:
        national_svc.invoke(
            gateway.id, "request_EHR", ["p1"],
            credentials=[Presentation(gateway_session.root_rmc),
                         Presentation(treating_rmc, on_behalf_of="dr-who")])
    except Exception as denied:
        print(f"national service now refuses: {type(denied).__name__}")


if __name__ == "__main__":
    main()
