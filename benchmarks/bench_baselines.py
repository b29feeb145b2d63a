"""BASE — OASIS vs ACL / flat RBAC / delegation (paper Sect. 1, 2, 7).

The paper's positioning claims, made measurable:

* "RBAC ... is scalable to large numbers of principals.  The detailed
  management of large numbers of access control lists ... is avoided" —
  administrative operations to deploy and maintain the treating-doctor
  policy as doctors x patients grow;
* "pure RBAC associates privileges only with roles, whereas applications
  often require more fine-grained access control.  Parametrised roles
  extend the functionality to meet this need" — RBAC0 needs one role per
  doctor-patient relationship; OASIS needs ONE rule plus data facts;
* offboarding: a departing doctor costs ACL one operation per object,
  RBAC0 one per role assignment, OASIS a single revocation event.

Series in ``benchmarks/results/BASE.txt``.
"""

import pytest

from repro.baselines import AclSystem, DelegationError, DelegationSystem, Rbac0System
from repro.core import Principal
from repro.domains import Deployment
from repro.scenarios import build_hospital

from workloads import record_result


def deploy_acl(doctors, patients_per_doctor):
    system = AclSystem()
    for d in range(doctors):
        for p in range(patients_per_doctor):
            obj = f"record-d{d}-p{p}"
            system.create_object(obj)
            system.grant(f"d{d}", obj, "read")
    return system


def deploy_rbac0(doctors, patients_per_doctor):
    system = Rbac0System()
    for d in range(doctors):
        for p in range(patients_per_doctor):
            role = f"treating-d{d}-p{p}"
            system.add_role(role)
            system.assign_user(f"d{d}", role)
            system.grant_permission(role, "read", f"record-d{d}-p{p}")
    return system


def deploy_oasis(doctors, patients_per_doctor):
    """One parametrised rule; relationships are data, not policy."""
    world = build_hospital(Deployment(use_network=False))
    data_ops = 0
    for d in range(doctors):
        for p in range(patients_per_doctor):
            world.db.insert("registered", doctor=f"d{d}",
                            patient=f"p-{d}-{p}")
            data_ops += 1
    return world, data_ops


def test_base_admin_cost_series(benchmark):
    rows = ["BASE: administrative cost to deploy the treating-doctor "
            "policy (doctors x patients)",
            "scale      ACL_admin_ops  RBAC0_admin_ops  RBAC0_roles  "
            "OASIS_policy_rules  OASIS_data_facts"]
    for doctors, patients in ((5, 5), (10, 10), (20, 20)):
        acl = deploy_acl(doctors, patients)
        rbac = deploy_rbac0(doctors, patients)
        world, data_ops = deploy_oasis(doctors, patients)
        # OASIS policy stays constant: one activation rule + one
        # authorization rule, regardless of scale.
        policy_rules = (
            len(world.records.policy.activation_rules_for(
                "treating_doctor"))
            + len(world.records.policy.authorization_rules_for(
                "read_record")))
        rows.append(f"{doctors:3d}x{patients:<3d}    "
                    f"{acl.admin_operations:13d}  "
                    f"{rbac.admin_operations:15d}  "
                    f"{rbac.role_count:11d}  "
                    f"{policy_rules:18d}  {data_ops:16d}")

    # Offboarding: one doctor with 50 patients departs.
    acl = deploy_acl(1, 50)
    rbac = deploy_rbac0(1, 50)
    world, _ = deploy_oasis(1, 50)
    acl_before = acl.admin_operations
    acl.revoke_principal_everywhere("d0")
    rbac_before = rbac.admin_operations
    rbac.remove_user("d0")
    rows.append("")
    rows.append("offboarding one doctor with 50 patients:")
    rows.append(f"ACL ops:   {acl.admin_operations - acl_before}")
    rows.append(f"RBAC0 ops: {rbac.admin_operations - rbac_before}")
    rows.append("OASIS ops: 1 (revoke the login/appointment credential; "
                "the cascade does the rest)")
    record_result("BASE", rows)

    benchmark(lambda: deploy_acl(5, 5))


def test_base_exception_expressiveness(benchmark):
    """'Fred Smith may not access my health record': one data fact in
    OASIS vs per-object surgery in ACL."""
    world = build_hospital(Deployment(use_network=False))
    world.ehr_store["joe-bloggs"] = ["2023: allergy noted"]
    doctor = world.admit_doctor("fred-smith", "joe-bloggs")
    session = doctor.start_session(world.login, "logged_in_user",
                                   ["fred-smith"])
    session.activate(world.records, "treating_doctor",
                     use_appointments=doctor.appointments())
    assert session.invoke(world.records, "read_record", ["joe-bloggs"])
    # The exception is one insert — policy untouched.
    world.db.insert("excluded", patient="joe-bloggs", doctor="fred-smith")
    with pytest.raises(Exception):
        session.invoke(world.records, "read_record", ["joe-bloggs"])

    benchmark(lambda: world.db.exists("excluded", patient="joe-bloggs",
                                      doctor="fred-smith"))


def test_base_check_latency_acl(benchmark):
    system = deploy_acl(20, 20)
    benchmark(lambda: system.check("d10", "record-d10-p10", "read"))


def test_base_check_latency_rbac0(benchmark):
    system = deploy_rbac0(20, 20)
    system.start_session("d10", {f"treating-d10-p{p}" for p in range(20)})
    benchmark(lambda: system.check("d10", "read", "record-d10-p10"))


def test_base_check_latency_oasis(benchmark):
    """OASIS pays more per check (signatures + rules) in exchange for the
    administrative scalability above — the honest trade-off."""
    from repro.core import Presentation

    world = build_hospital(Deployment(use_network=False))
    doctor = world.admit_doctor("d1", "p1")
    session = doctor.start_session(world.login, "logged_in_user", ["d1"])
    treating = session.activate(world.records, "treating_doctor",
                                use_appointments=doctor.appointments())
    credentials = [Presentation(session.root_rmc), Presentation(treating)]
    world.records.invoke(doctor.id, "read_record", ["p1"],
                         credentials=credentials)

    benchmark(lambda: world.records.invoke(
        doctor.id, "read_record", ["p1"], credentials=credentials))


def test_base_delegation_vs_appointment(benchmark):
    """RBDM0 forbids what appointment allows; measure the working path."""
    delegation = DelegationSystem()
    delegation.add_role("treating_doctor")
    with pytest.raises(DelegationError):
        delegation.delegate("administrator", "d1", "treating_doctor")

    world = build_hospital(Deployment(use_network=False))
    admin = Principal("administrator")
    admin_session = admin.start_session(world.login, "logged_in_user",
                                        ["administrator"])
    admin_session.activate(world.admin, "administrator",
                           ["administrator"])
    counter = [0]

    def appoint():
        counter[0] += 1
        return admin_session.issue_appointment(
            world.admin, "allocated", [f"d{counter[0]}", "p1"],
            holder=f"d{counter[0]}")

    benchmark(appoint)
