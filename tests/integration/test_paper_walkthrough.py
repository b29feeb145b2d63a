"""The executable abstract: the whole paper in one narrative test.

Follows the paper's own storyline section by section, asserting each
claim as it is made.  If this test passes, every headline statement of
the abstract holds in the implementation.
"""

import pytest

from repro.core import (
    ActivationDenied,
    AppointmentCondition,
    CredentialRevoked,
    InvocationDenied,
    Outcome,
    Presentation,
    Principal,
    ServiceId,
    SignatureInvalid,
    TrustPolicy,
    Var,
)
from repro.domains import (
    CivService,
    Deployment,
    RogueCivService,
    RovingEntity,
    ServiceLevelAgreement,
    SlaTerm,
    negotiate_encounter,
)
from repro.scenarios import build_hospital, build_national_ehr


def test_the_whole_paper():
    deployment = Deployment()
    hospital = build_hospital(deployment)
    national = build_national_ehr(deployment, "hospital")
    national.ehr_store["p1"] = ["initial history"]

    # --- Abstract: "role management is decentralised, roles are
    # parametrised" — each service defined its own roles; treating_doctor
    # carries (doctor, patient) parameters. ------------------------------
    assert hospital.records.policy.defines_role("treating_doctor")
    assert hospital.records.policy.role_arity("treating_doctor") == 2
    assert not hospital.login.policy.defines_role("treating_doctor")

    # --- Sect. 2: credential-based role activation.  An administrator
    # (not medically qualified!) issues the allocation appointment; the
    # doctor activates the parametrised role with it. --------------------
    doctor = hospital.admit_doctor("dr-who", "p1")
    session = hospital.treating_session(doctor)
    treating = next(rmc for rmc in session.active_rmcs()
                    if rmc.role.role_name.name == "treating_doctor")
    assert treating.role.parameters == ("dr-who", "p1")

    # "privileges are not delegated" — the administrator cannot activate
    # treating_doctor despite having issued the certificate for it.
    admin = Principal("duty-admin")
    admin_session = admin.start_session(hospital.login, "logged_in_user",
                                        ["duty-admin"])
    with pytest.raises(ActivationDenied):
        admin_session.activate(hospital.records, "treating_doctor",
                               ["duty-admin", "p1"])

    # --- Sect. 3: an OASIS session spans multiple domains (Fig. 3). ----
    gateway = national.gateways["hospital"]
    copy = gateway.request_ehr(treating, "dr-who", "p1")
    assert copy == ["initial history"]
    gateway.append_to_ehr(treating, "dr-who", "p1", "2026: treated")
    assert "2026: treated" in national.ehr_store["p1"]
    # ... and the original requester was recorded for audit.
    from repro.core import AccessKind

    audit = national.patient_records.access_log.query(
        kind=AccessKind.INVOCATION, subject="request_EHR")
    assert audit and audit[0].principal == "gateway-hospital"

    # --- Sect. 4: active security.  "A role is deactivated immediately
    # if any of the conditions of the membership rule ... become false."
    hospital.db.delete("registered", doctor="dr-who", patient="p1")
    assert not hospital.records.is_active(treating.ref)
    with pytest.raises((CredentialRevoked, InvocationDenied)):
        gateway.request_ehr(treating, "dr-who", "p1")

    # --- Sect. 4.1: certificates resist tampering/forgery/theft. -------
    thief = Principal("thief")
    thief_session = thief.start_session(hospital.login, "logged_in_user",
                                        ["thief"])
    with pytest.raises((SignatureInvalid, ActivationDenied)):
        hospital.records.activate_role(
            thief.id, "treating_doctor", None,
            [Presentation(thief_session.root_rmc),
             Presentation(session.root_rmc)])  # stolen RMC

    # --- Sect. 5: mutually-aware domains.  The institute accepts the
    # hospital's employment certificate for visiting_doctor. -------------
    from repro.core import ActivationRule, AppointmentRule, PrerequisiteRole, RoleTemplate, ServicePolicy

    hr_policy = ServicePolicy(ServiceId("hospital", "hr"))
    officer = hr_policy.define_role("hr_officer", 0)
    hr_policy.add_activation_rule(ActivationRule(RoleTemplate(officer)))
    hr_policy.add_appointment_rule(AppointmentRule(
        "employed_as_doctor", (Var("d"), Var("h")),
        (PrerequisiteRole(RoleTemplate(officer)),)))
    hr = deployment.service(hr_policy)
    lab = deployment.service(
        ServicePolicy(ServiceId("institute", "lab")))
    ServiceLevelAgreement(
        lab.id, hr.id,
        [SlaTerm("visiting_doctor", (Var("d"),),
                 AppointmentCondition(hr.id, "employed_as_doctor",
                                      (Var("d"), Var("h")),
                                      membership=True))]).install(lab)
    employment = Principal("hr-1").start_session(hr, "hr_officer") \
        .issue_appointment(hr, "employed_as_doctor",
                           ["dr-who", "addenbrookes"], holder="dr-who")
    doctor.store_appointment(employment)
    visit = doctor.start_session(lab, "visiting_doctor",
                                 use_appointments=[employment])
    assert visit.root_rmc.role.parameters == ("dr-who",)
    # Employment ends -> the visit ends, across domains.
    hr.revoke(employment.ref, "employment ended")
    assert not lab.is_active(visit.root_rmc.ref)

    # --- Sect. 6: audit certificates as a basis for trust between
    # mutually unknown parties, despite Byzantine behaviour. -------------
    civ = CivService("healthcare-uk", replicas=1)
    policy = TrustPolicy.with_weights({"healthcare-uk": 1.0,
                                       "shady": 0.05}, threshold=0.6)
    veteran = RovingEntity("veteran", policy, {"healthcare-uk": civ})
    for index in range(6):
        cert, _ = civ.certify_interaction(
            "veteran", f"partner-{index}", "job", Outcome.FULFILLED,
            Outcome.FULFILLED)
        veteran.record(cert)
    stranger = RovingEntity("stranger", policy, {"healthcare-uk": civ})
    assert stranger.assess(veteran).accept          # history earns trust
    assert not veteran.assess(stranger).accept      # no history, no trust
    rogue = RogueCivService("shady")
    con = RovingEntity("con", policy,
                       {"healthcare-uk": civ, "shady": rogue})
    for cert in rogue.fabricate_history("con", 50):
        con.record(cert)
    assessor = RovingEntity("assessor", policy,
                            {"healthcare-uk": civ, "shady": rogue})
    assert not assessor.assess(con).accept          # fabrication fails

    # And the CIV's availability claim: validation survives failover.
    civ.fail_node(0)
    assert civ.validate_audit(veteran.history.certificates()[0])
