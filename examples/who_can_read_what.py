"""Answering the paper's own question: may Fred Smith read Joe's record?

Run:  python examples/who_can_read_what.py

Sect. 2 motivates parametrised roles with the Patients' Charter: "doctors
may access the records of patients registered with them" but "'Fred
Smith' (although a doctor) 'may not access my health record'".  The
ground model checker answers such questions *before deployment*, exactly,
from the policy files plus a concrete credential endowment.
"""

import os

from repro.core import (
    ConstraintRegistry,
    DatabaseLookupConstraint,
    EvaluationContext,
    Role,
    RoleName,
    ServiceId,
)
from repro.db import Database
from repro.lang import Endowment, GroundReachability, load_policies
from repro.netd.worlds import POLICY_DIR

# The hospital's policies as the package ships them: login and admin as
# the served EHR nodes run them, and records with its database lookups.
POLICY_FILES = [os.path.join(POLICY_DIR, name)
                for name in ("ehr/admin.oasis", "ehr/login.oasis",
                             "hospital/records.oasis")]

LOGIN = ServiceId("hospital", "login")
ADMIN = ServiceId("hospital", "admin")
RECORDS = ServiceId("hospital", "records")


def main() -> None:
    registry = ConstraintRegistry()
    registry.register(
        "registered",
        lambda doc, pat: DatabaseLookupConstraint.exists(
            "main", "registered", doctor=doc, patient=pat))
    registry.register(
        "not_excluded",
        lambda pat, doc: DatabaseLookupConstraint.not_exists(
            "main", "excluded", patient=pat, doctor=doc))
    _, universe = load_policies(POLICY_FILES, registry=registry)

    # The environment snapshot the verdicts are exact for:
    db = Database("main")
    db.create_table("registered", ["doctor", "patient"])
    db.create_table("excluded", ["patient", "doctor"])
    db.insert("registered", doctor="fred-smith", patient="joe-bloggs")
    db.insert("registered", doctor="fred-smith", patient="ann-other")
    context = EvaluationContext(databases={"main": db})

    checker = GroundReachability(universe, context)
    fred = Endowment(
        appointments=((ADMIN, "allocated", ("fred-smith", "joe-bloggs")),
                      (ADMIN, "allocated", ("fred-smith", "ann-other"))),
        initial_activations=(
            Role(RoleName(LOGIN, "logged_in_user"), ("fred-smith",)),))

    result = checker.explore(fred)
    treating = RoleName(RECORDS, "treating_doctor")
    print("roles Fred Smith can ever activate (given his credentials):")
    for role in sorted(result.roles, key=str):
        print(f"  {role}")

    def may_treat(patient):
        return result.holds(Role(treating, ("fred-smith", patient)))

    print(f"\nmay Fred activate treating_doctor for joe-bloggs? "
          f"{may_treat('joe-bloggs')}")
    print(f"may Fred activate treating_doctor for someone-else? "
          f"{may_treat('someone-else')}")

    # Joe exercises the Patients' Charter: the exclusion applies at the
    # read_record *authorization* rule, so Fred keeps the role but loses
    # access to Joe's record — show it live.
    db.insert("excluded", patient="joe-bloggs", doctor="fred-smith")
    from repro.domains import Deployment
    from repro.scenarios import build_hospital

    deployment = Deployment()
    hospital = build_hospital(deployment)
    hospital.ehr_store["joe-bloggs"] = ["joe's history"]
    hospital.ehr_store["ann-other"] = ["ann's history"]
    fred_principal = hospital.admit_doctor("fred-smith", "joe-bloggs")
    hospital.register_patient("fred-smith", "ann-other")
    fred_principal.store_appointment(
        hospital.allocate("fred-smith", "ann-other"))
    session = hospital.treating_session(fred_principal)
    session.activate(hospital.records, "treating_doctor",
                     ["fred-smith", "ann-other"],
                     use_appointments=fred_principal.appointments())
    hospital.exclude_doctor("joe-bloggs", "fred-smith")
    print(f"\nlive system after Joe's exclusion:")
    print(f"  read ann-other:  "
          f"{session.invoke(hospital.records, 'read_record', ['ann-other'])}")
    try:
        session.invoke(hospital.records, "read_record", ["joe-bloggs"])
    except Exception as denied:
        print(f"  read joe-bloggs: DENIED ({type(denied).__name__}) — "
              f"the Charter exception holds")


if __name__ == "__main__":
    main()
