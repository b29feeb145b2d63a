"""Integration test: the Fig. 3 cross-domain EHR session, end to end.

Cast (exactly the figure's):

* **hospital domain** — login service, admin service (allocations), and
  the *Hospital EHR Management Service* (the gateway);
* **national EHR domain** — a registry issuing ``accredited_hospital``
  appointments, and the *National Patient Record Management Service*.

Flow (the figure's paths 1-4):

1. a treating doctor asks the hospital gateway for the patient's EHR; the
   gateway invokes ``request_EHR`` at the national service, presenting its
   own ``hospital(hospital_id)`` RMC plus the doctor's
   ``treating_doctor(doctor_id, patient_id)`` RMC under the SLA forwarding
   protocol;
2. the national service validates both by callback, records the audit
   trail, and returns the EHR copy;
3/4. ``append_to_EHR`` adds the treatment record, audited the same way.
"""

import pytest

from repro.core import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    ConstraintCondition,
    DatabaseLookupConstraint,
    InvocationDenied,
    Presentation,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.db import Database
from repro.domains import Deployment


@pytest.fixture
def world():
    deployment = Deployment()

    db = Database("hospital/main")
    db.create_table("registered", ["doctor", "patient"])

    # -- hospital login -----------------------------------------------------
    login_policy = ServicePolicy(ServiceId("hospital", "login"))
    logged_in = login_policy.define_role("logged_in_user", 1)
    login_policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    login = deployment.service(login_policy)

    # -- hospital admin: allocations ------------------------------------------
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

    # -- hospital records: treating_doctor -------------------------------------
    records_policy = ServicePolicy(ServiceId("hospital", "records"))
    treating = records_policy.define_role("treating_doctor", 2)
    records_policy.add_activation_rule(ActivationRule(
        RoleTemplate(treating, (Var("d"), Var("p"))),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("d"),)),
                          membership=True),
         AppointmentCondition(admin.id, "allocated", (Var("d"), Var("p")),
                              membership=True),
         ConstraintCondition(DatabaseLookupConstraint.exists(
             "main", "registered", doctor=Var("d"), patient=Var("p")),
             membership=True))))
    records = deployment.service(records_policy, databases={"main": db})

    # -- national registry: accredits hospitals --------------------------------
    registry_policy = ServicePolicy(ServiceId("national-ehr", "registry"))
    registrar = registry_policy.define_role("registrar", 0)
    registry_policy.add_activation_rule(
        ActivationRule(RoleTemplate(registrar)))
    registry_policy.add_appointment_rule(AppointmentRule(
        "accredited_hospital", (Var("h"),),
        (PrerequisiteRole(RoleTemplate(registrar)),)))
    registry = deployment.service(registry_policy)

    # -- national patient record management service -----------------------------
    national_policy = ServicePolicy(
        ServiceId("national-ehr", "patient-records"))
    hospital_role = national_policy.define_role("hospital", 1)
    national_policy.add_activation_rule(ActivationRule(
        RoleTemplate(hospital_role, (Var("h"),)),
        (AppointmentCondition(registry.id, "accredited_hospital",
                              (Var("h"),), membership=True),)))
    national_policy.add_authorization_rule(AuthorizationRule(
        "request_EHR", (Var("p"),),
        (PrerequisiteRole(RoleTemplate(hospital_role, (Var("h"),))),
         PrerequisiteRole(RoleTemplate(
             records_policy.define_role("treating_doctor", 2),
             (Var("d"), Var("p")))))))
    national_policy.add_authorization_rule(AuthorizationRule(
        "append_to_EHR", (Var("p"), Var("ref")),
        (PrerequisiteRole(RoleTemplate(hospital_role, (Var("h"),))),
         PrerequisiteRole(RoleTemplate(
             records_policy.define_role("treating_doctor", 2),
             (Var("d"), Var("p")))))))
    national_svc = deployment.service(national_policy)

    ehr_store = {"p1": ["initial history"]}
    audit_log = []
    national_svc.register_method(
        "request_EHR", lambda p: list(ehr_store.get(p, [])))
    national_svc.register_method(
        "append_to_EHR",
        lambda p, ref: ehr_store.setdefault(p, []).append(ref) or "done")

    # -- accredit the hospital; set up the gateway principal --------------------
    registrar_principal = Principal("national-registrar")
    registrar_session = registrar_principal.start_session(
        registry, "registrar")
    accreditation = registrar_session.issue_appointment(
        registry, "accredited_hospital", ["addenbrookes"],
        holder="hospital-gateway")

    gateway = Principal("hospital-gateway")
    gateway.store_appointment(accreditation)
    gateway_session = gateway.start_session(
        national_svc, "hospital",
        use_appointments=gateway.appointments())

    return dict(deployment=deployment, login=login, admin=admin,
                records=records, national=national_svc, registry=registry,
                gateway=gateway, gateway_session=gateway_session,
                db=db, ehr_store=ehr_store)


def make_treating_doctor(world, doctor_id="dr-who", patient_id="p1"):
    world["db"].insert("registered", doctor=doctor_id, patient=patient_id)
    admin_principal = Principal("hospital-admin")
    session = admin_principal.start_session(world["login"],
                                            "logged_in_user",
                                            ["hospital-admin"])
    session.activate(world["admin"], "administrator", ["hospital-admin"])
    allocation = session.issue_appointment(
        world["admin"], "allocated", [doctor_id, patient_id],
        holder=doctor_id)
    doctor = Principal(doctor_id)
    doctor.store_appointment(allocation)
    doctor_session = doctor.start_session(world["login"], "logged_in_user",
                                          [doctor_id])
    rmc = doctor_session.activate(world["records"], "treating_doctor",
                                  use_appointments=[allocation])
    return doctor, doctor_session, rmc


def gateway_call(world, method, arguments, doctor_rmc, doctor_id):
    """The SLA forwarding protocol: the gateway presents its hospital RMC
    plus the doctor's RMC attesting the original requester."""
    gateway_rmc = world["gateway_session"].root_rmc
    return world["national"].invoke(
        world["gateway"].id, method, arguments,
        credentials=[
            Presentation(gateway_rmc),
            Presentation(doctor_rmc, on_behalf_of=doctor_id),
        ])


class TestFig3:
    def test_hospital_role_activated_via_accreditation(self, world):
        rmc = world["gateway_session"].root_rmc
        assert rmc.role.role_name.name == "hospital"
        assert rmc.role.parameters == ("addenbrookes",)

    def test_request_ehr_paths_1_and_2(self, world):
        doctor, _, rmc = make_treating_doctor(world)
        copy = gateway_call(world, "request_EHR", ["p1"], rmc, "dr-who")
        assert copy == ["initial history"]

    def test_append_to_ehr_paths_3_and_4(self, world):
        doctor, _, rmc = make_treating_doctor(world)
        result = gateway_call(world, "append_to_EHR",
                              ["p1", "treatment-record-77"], rmc, "dr-who")
        assert result == "done"
        assert "treatment-record-77" in world["ehr_store"]["p1"]

    def test_doctor_cannot_reach_other_patients_ehr(self, world):
        """The treating_doctor RMC is for p1; requesting p2 fails the
        parameter join in the authorization rule."""
        world["ehr_store"]["p2"] = ["someone else's record"]
        doctor, _, rmc = make_treating_doctor(world)
        with pytest.raises(InvocationDenied):
            gateway_call(world, "request_EHR", ["p2"], rmc, "dr-who")

    def test_without_hospital_rmc_denied(self, world):
        doctor, _, rmc = make_treating_doctor(world)
        with pytest.raises(InvocationDenied):
            world["national"].invoke(
                world["gateway"].id, "request_EHR", ["p1"],
                credentials=[Presentation(rmc, on_behalf_of="dr-who")])

    def test_forwarded_rmc_still_validated_at_hospital(self, world):
        """The gateway cannot forge the requester: claiming a different
        original requester fails validation back at the hospital."""
        from repro.core import SignatureInvalid

        doctor, _, rmc = make_treating_doctor(world)
        with pytest.raises(SignatureInvalid):
            gateway_call(world, "request_EHR", ["p1"], rmc, "dr-evil")

    def test_revoked_doctor_role_blocks_national_call(self, world):
        """Cross-domain active security: once the hospital deactivates
        treating_doctor, the national service refuses the forwarded RMC."""
        from repro.core import CredentialRevoked

        doctor, session, rmc = make_treating_doctor(world)
        assert gateway_call(world, "request_EHR", ["p1"], rmc, "dr-who")
        world["db"].delete("registered", doctor="dr-who", patient="p1")
        with pytest.raises((CredentialRevoked, InvocationDenied)):
            gateway_call(world, "request_EHR", ["p1"], rmc, "dr-who")

    def test_cross_domain_calls_cost_inter_domain_latency(self, world):
        doctor, _, rmc = make_treating_doctor(world)
        clock = world["deployment"].clock
        before = clock.now()
        gateway_call(world, "request_EHR", ["p1"], rmc, "dr-who")
        # At least one hospital-callback round trip (0.04 s inter-domain).
        assert clock.now() - before == pytest.approx(0.04, abs=1e-6)

    def test_accreditation_revocation_collapses_hospital_role(self, world):
        """The national registry withdraws accreditation: the hospital role
        (membership-flagged) dies, and with it all gateway access."""
        doctor, _, rmc = make_treating_doctor(world)
        gateway_rmc = world["gateway_session"].root_rmc
        accreditation_ref = world["gateway"].appointments()[0].ref
        world["registry"].revoke(accreditation_ref, "accreditation lapsed")
        assert not world["national"].is_active(gateway_rmc.ref)
        with pytest.raises((InvocationDenied, Exception)):
            gateway_call(world, "request_EHR", ["p1"], rmc, "dr-who")
