"""A world only the netd suite needs: one records service whose
``treating_doctor`` role is granted by a care-registration lookup, plus a
``retract`` handler that deletes registrations.  A served node imports
its factory by name, so it lives in a module of its own (the drill puts
this directory on the node's ``PYTHONPATH``), not in a test file."""

from repro.core import (ActivationRule, ConstraintCondition,
                        DatabaseLookupConstraint, RoleTemplate, ServiceId,
                        ServicePolicy, Var)
from repro.db import Database
from repro.netd.worlds import World


def registered_world(ctx):
    policy = ServicePolicy(ServiceId("facts", "records"))
    treating = policy.define_role("treating_doctor", 2)
    policy.add_activation_rule(ActivationRule(
        RoleTemplate(treating, (Var("d"), Var("p"))),
        (ConstraintCondition(DatabaseLookupConstraint.exists(
            "main", "registered", doctor=Var("d"), patient=Var("p"))),)))
    db = Database("main")
    db.create_table("registered", ["doctor", "patient"])
    # Seeded at every boot; a resumed store's rows replace the seed.
    db.insert("registered", doctor="dan", patient="p1")
    service = ctx.service(policy, databases={"main": db})

    def retract(payload):
        return db.delete("registered", **payload)

    return World({"records": service}, {"retract": retract})
