"""A retracted constraint fact must stay retracted across a restart.

Sect. 2's environmental constraints are "ascertained by database lookup",
so a fact withdrawn at run time (a care registration removed) must keep
refusing activations after the service resumes, just as a revoked
credential stays revoked.  The facts are rows of the service's record
store (``facts/<db>/<table>`` buckets), committed before the database's
change listener returns; ``resume`` takes ``databases=`` as the schema
only, and the stored rows replace whatever the caller seeds.
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
from repro.db import Database, MemoryRecordStore, SqliteRecordStore
from repro.events import EventBroker

DAN = PrincipalId("dan")


def policy(membership=False):
    built = ServicePolicy(ServiceId("facts", "records"))
    treating = built.define_role("treating_doctor", 2)
    built.add_activation_rule(ActivationRule(
        RoleTemplate(treating, (Var("d"), Var("p"))),
        (ConstraintCondition(DatabaseLookupConstraint.exists(
            "main", "registered", doctor=Var("d"), patient=Var("p")),
            membership=membership),)))
    return built


def seeded_facts():
    """What a node's world factory hands the service at every boot."""
    db = Database("main")
    db.create_table("registered", ["doctor", "patient"])
    db.insert("registered", doctor="dan", patient="p1")
    return {"main": db}


def treat(service):
    return service.activate_role(DAN, "treating_doctor", ["dan", "p1"])


def resume(store, membership=False):
    facts = seeded_facts()
    service = OasisService(policy(membership), EventBroker(),
                           ServiceRegistry(), databases=facts, store=store)
    return service, facts


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

    resumed, _ = resume(store)
    with pytest.raises(ActivationDenied):
        treat(resumed)


def test_retraction_survives_a_crash_right_after_delete(tmp_path):
    """No checkpoint: the listener's commit is the durability point."""
    path = str(tmp_path / "records.sqlite")
    store = SqliteRecordStore(path, ServiceStateCodec())
    facts = seeded_facts()
    service = OasisService(policy(), EventBroker(), ServiceRegistry(),
                           databases=facts, store=store)
    treat(service)
    facts["main"].delete("registered", doctor="dan", patient="p1")
    store.close(flush=False)

    reopened = SqliteRecordStore(path, ServiceStateCodec())
    try:
        resumed, resumed_facts = resume(reopened)
        # The emptied table resumes empty, not re-seeded.
        assert resumed_facts["main"].select("registered") == []
        with pytest.raises(ActivationDenied):
            treat(resumed)
    finally:
        reopened.close()


def test_stored_rows_win_over_seeds_and_new_tables_are_mirrored():
    store = MemoryRecordStore(ServiceStateCodec())
    facts = seeded_facts()
    OasisService(policy(), EventBroker(), ServiceRegistry(),
                 databases=facts, store=store)
    facts["main"].insert("registered", doctor="dan", patient="p2")

    seeds = seeded_facts()
    seeds["main"].create_table("excluded", ["patient", "doctor"])
    seeds["main"].insert("excluded", patient="p3", doctor="eve")
    OasisService(policy(), EventBroker(), ServiceRegistry(),
                 databases=seeds, store=store)
    assert sorted(row["patient"] for row in
                  seeds["main"].select("registered")) == ["p1", "p2"]
    # A table the store did not hold keeps its seeds and is now held.
    assert sorted(store.get("meta", "facts")) == [
        "facts/main/excluded", "facts/main/registered"]
    assert store.count("facts/main/excluded") == 1


def test_a_fact_that_cannot_round_trip_is_refused():
    store = MemoryRecordStore(ServiceStateCodec())
    facts = seeded_facts()
    OasisService(policy(), EventBroker(), ServiceRegistry(),
                 databases=facts, store=store)
    with pytest.raises(ValueError, match="tuple"):
        facts["main"].insert("registered", doctor="dan",
                             patient=("p", 1))


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
    "membership watches are not rebuilt at resume: re-deriving one needs "
    "the rule that granted the credential, which records do not name"))
def test_membership_watch_survives_a_restart():
    store = MemoryRecordStore(ServiceStateCodec())
    facts = seeded_facts()
    service = OasisService(policy(membership=True), EventBroker(),
                           ServiceRegistry(), databases=facts, store=store)
    ref = treat(service).ref
    service.checkpoint()

    resumed, resumed_facts = resume(store, membership=True)
    assert resumed.is_active(ref)
    resumed_facts["main"].delete("registered", doctor="dan", patient="p1")
    if resumed.is_active(ref):
        pytest.fail("the RMC outlived its membership condition")
