"""Policy files, static analysis and the deployment pipeline.

Run:  python examples/policy_tooling.py

The paper's policy-management thread ([1]) calls automatic deployment and
consistency checking "essential ... for any large-scale deployment".  This
example shows the full pipeline:

1. load the hospital's shipped ``.oasis`` policy files
   (src/repro/netd/policies/);
2. run the cross-service analysis: dependency graph, reachability, lint;
3. demonstrate the lint catching two realistic mistakes — a *passive
   dependency* (credential outside the membership rule, so revocation
   would not deactivate the role) and an appointment nobody can issue;
4. compile the checked policies into live services and run a request.
"""

import os

import repro
from repro.core import (
    ConstraintRegistry,
    DatabaseLookupConstraint,
    Principal,
)
from repro.db import Database
from repro.domains import Deployment
from repro.lang import PolicyUniverse, load_policies
from repro.lang.verify import build_graph, run_fixpoint
from repro.netd.worlds import POLICY_DIR
from repro.policy import parse_policy

# The hospital's policies as the package ships them: login and admin as
# the served EHR nodes run them, and records with its database lookups.
POLICY_FILES = [os.path.join(POLICY_DIR, name)
                for name in ("ehr/admin.oasis", "ehr/login.oasis",
                             "hospital/records.oasis")]


def main() -> None:
    # 1. Load and statically check the policy files.
    policies, universe = load_policies(POLICY_FILES,
                                       allow_unresolved=True)
    shipped = os.path.relpath(POLICY_DIR,
                              os.path.dirname(os.path.dirname(repro.__file__)))
    print(f"loaded {len(policies)} service policies from {shipped}")

    # 2. One rule graph, one fixpoint: every analysis reads these.
    graph = build_graph(universe)
    print("\nrole dependency graph:")
    for prereq, dependent in graph.role_edges():
        print(f"  {prereq} -> {dependent}")

    closure = run_fixpoint(graph)
    print("\nreachability:")
    for role in universe.all_roles():
        marker = "ok " if closure.role_reachable(role) else "UNREACHABLE"
        print(f"  {marker} {role}")

    print("\nlint findings:")
    findings = universe.diagnose()
    for finding in findings:
        print(f"  {finding}")
    if not findings:
        print("  (clean)")

    # 3. What the lint catches: a flawed satellite service.
    flawed = parse_policy("""
        service hospital/reporting
        role auditor(u)
        activate auditor(u) <-
            hospital/login:logged_in_user(u),
            appointment hospital/admin:audit_warrant(u)*
    """, allow_unresolved=True)
    flawed_universe = PolicyUniverse(
        list(policies.values()) + [flawed])
    print("\nlint on a flawed satellite policy:")
    for finding in flawed_universe.diagnose():
        if "reporting" in finding.subject or "auditor" in finding.subject:
            print(f"  {finding}")
    print("  -> the logged_in_user condition is passive (no *): logging "
          "out would NOT")
    print("     deactivate auditor; and no rule issues audit_warrant, so "
          "the role is dead.")

    # 4. Deploy the checked policies for real (constraints now resolved).
    registry = ConstraintRegistry()
    registry.register(
        "registered",
        lambda doc, pat: DatabaseLookupConstraint.exists(
            "main", "registered", doctor=doc, patient=pat))
    registry.register(
        "not_excluded",
        lambda pat, doc: DatabaseLookupConstraint.not_exists(
            "main", "excluded", patient=pat, doctor=doc))
    deployed, _ = load_policies(POLICY_FILES, registry=registry)

    deployment = Deployment()
    db = Database("hospital/main")
    db.create_table("registered", ["doctor", "patient"])
    db.create_table("excluded", ["patient", "doctor"])
    services = {}
    for service_id, policy in deployed.items():
        services[service_id.name] = deployment.service(
            policy, databases={"main": db})
    services["records"].register_method("read_record",
                                        lambda pat: f"EHR[{pat}]")

    db.insert("registered", doctor="d1", patient="p1")
    admin_session = Principal("amy").start_session(
        services["login"], "logged_in_user", ["amy"])
    admin_session.activate(services["admin"], "administrator", ["amy"])
    allocation = admin_session.issue_appointment(
        services["admin"], "allocated", ["d1", "p1"], holder="d1")
    doctor = Principal("d1")
    doctor.store_appointment(allocation)
    session = doctor.start_session(services["login"], "logged_in_user",
                                   ["d1"])
    session.activate(services["records"], "treating_doctor",
                     use_appointments=[allocation])
    print(f"\ndeployed from files and exercised: "
          f"{session.invoke(services['records'], 'read_record', ['p1'])}")


if __name__ == "__main__":
    main()
