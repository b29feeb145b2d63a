"""Quickstart: define policy in the OASIS DSL, activate roles, see revocation.

Run:  python examples/quickstart.py

Builds the paper's running example (Sect. 2) in ~60 lines: a login service
with the initial role ``logged_in_user``, an admin service issuing
``allocated`` appointment certificates, and a records service whose
parametrised role ``treating_doctor(doc, pat)`` is guarded by a
registration database — then demonstrates activation, guarded invocation,
and the active-security cascade when a fact is retracted.
"""

from repro.core import (
    ActivationDenied,
    ConstraintRegistry,
    DatabaseLookupConstraint,
    Principal,
)
from repro.db import Database
from repro.domains import Deployment
from repro.policy import parse_policy


def main() -> None:
    deployment = Deployment()
    db = Database("hospital/main")
    db.create_table("registered", ["doctor", "patient"])

    # Named constraints referenced by `where ...` in policy text.
    registry = ConstraintRegistry()
    registry.register(
        "registered",
        lambda doc, pat: DatabaseLookupConstraint.exists(
            "main", "registered", doctor=doc, patient=pat))

    login = deployment.service(parse_policy("""
        service hospital/login
        role logged_in_user(uid)
        activate logged_in_user(uid)
    """, registry))

    admin = deployment.service(parse_policy("""
        service hospital/admin
        role administrator(uid)
        activate administrator(uid) <-
            hospital/login:logged_in_user(uid)*
        appoint allocated(doc, pat) <-
            administrator(a)
    """, registry))

    records = deployment.service(parse_policy("""
        service hospital/records
        role treating_doctor(doc, pat)
        activate treating_doctor(doc, pat) <-
            hospital/login:logged_in_user(doc)*,
            appointment hospital/admin:allocated(doc, pat)*,
            where registered(doc, pat)*
        authorize read_record(pat) <-
            treating_doctor(doc, pat)
    """, registry), databases={"main": db})
    records.register_method("read_record", lambda pat: f"EHR[{pat}]")

    # --- an administrator allocates patient p1 to doctor d1 ----------------
    db.insert("registered", doctor="d1", patient="p1")
    admin_session = Principal("admin-amy").start_session(
        login, "logged_in_user", ["admin-amy"])
    admin_session.activate(admin, "administrator", ["admin-amy"])
    allocation = admin_session.issue_appointment(
        admin, "allocated", ["d1", "p1"], holder="d1")
    print(f"appointment issued: {allocation.name}{allocation.parameters} "
          f"-> holder {allocation.holder}")

    # --- the doctor starts a session and activates treating_doctor ----------
    doctor = Principal("d1")
    doctor.store_appointment(allocation)
    session = doctor.start_session(login, "logged_in_user", ["d1"])
    rmc = session.activate(records, "treating_doctor",
                           use_appointments=[allocation])
    print(f"role activated: {rmc.role}")
    print(f"record read:   {session.invoke(records, 'read_record', ['p1'])}")

    # --- active security: retracting the registration collapses the role ---
    db.delete("registered", doctor="d1", patient="p1")
    print(f"after retraction, active roles: "
          f"{[str(role) for role in session.active_roles()]}")
    try:
        session.invoke(records, "read_record", ["p1"])
    except Exception as denied:
        print(f"further access denied: {type(denied).__name__}")

    # --- logging out collapses the whole session ----------------------------
    db.insert("registered", doctor="d1", patient="p1")
    session.activate(records, "treating_doctor",
                     use_appointments=[allocation])
    session.logout()
    print(f"after logout, active roles: {session.active_rmcs()}")


if __name__ == "__main__":
    main()
