"""A retracted constraint fact must stay retracted across a restart.

Sect. 2's environmental constraints are "ascertained by database lookup",
so a fact withdrawn at run time (a care registration removed) must keep
refusing activations after the service resumes, just as a revoked
credential stays revoked.  Today the facts live in an in-memory
``Database`` that the caller of ``OasisService.resume`` supplies, and a
served node's world factory re-seeds it at every boot.
"""

import pytest

from repro.core import (
    ActivationDenied,
    ActivationRule,
    ConstraintCondition,
    DatabaseLookupConstraint,
    OasisService,
    PrincipalId,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.core.state import ServiceStateCodec
from repro.db import Database, MemoryRecordStore
from repro.events import EventBroker

DAN = PrincipalId("dan")


def policy():
    built = ServicePolicy(ServiceId("facts", "records"))
    treating = built.define_role("treating_doctor", 2)
    built.add_activation_rule(ActivationRule(
        RoleTemplate(treating, (Var("d"), Var("p"))),
        (ConstraintCondition(DatabaseLookupConstraint.exists(
            "main", "registered", doctor=Var("d"), patient=Var("p"))),)))
    return built


def seeded_facts():
    """What a node's world factory hands the service at every boot."""
    db = Database("main")
    db.create_table("registered", ["doctor", "patient"])
    db.insert("registered", doctor="dan", patient="p1")
    return {"main": db}


def treat(service):
    return service.activate_role(DAN, "treating_doctor", ["dan", "p1"])


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
    "ROADMAP item 6(b): facts are not in the record store, and resume "
    "takes databases= from its caller, so the retraction is lost"))
def test_fact_retracted_before_a_restart_still_refuses_activation():
    store = MemoryRecordStore(ServiceStateCodec())
    facts = seeded_facts()
    service = OasisService(policy(), EventBroker(), ServiceRegistry(),
                           databases=facts, store=store)
    treat(service)
    facts["main"].delete("registered", doctor="dan", patient="p1")
    with pytest.raises(ActivationDenied):
        treat(service)
    service.checkpoint()

    resumed = OasisService.resume(store, policy(), EventBroker(),
                                  ServiceRegistry(),
                                  databases=seeded_facts())
    with pytest.raises(ActivationDenied):
        treat(resumed)
