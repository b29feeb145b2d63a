"""Storage-layer counters surfaced through the metrics registry.

Services running over a record store export the store's operation
counters and write-behind gauges, constraint-fact writes included (facts
are rows of the same store).  All of it is pulled at export time from
snapshots, so collecting never perturbs the live counters.
"""

from repro.core import (
    ActivationRule,
    OasisService,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.db import Database, MemoryRecordStore
from repro.domains import Deployment
from repro.events import EventBroker
from repro.obs.runtime import observed
from repro.scenarios import build_hospital


def families_by_name(obs):
    return {family["name"]: family for family in obs.metrics.collect()}


def samples(family):
    return {tuple(sorted(sample["labels"].items())): sample["value"]
            for sample in family["samples"]}


def login_policy():
    policy = ServicePolicy(ServiceId("obs", "login"))
    role = policy.define_role("user", 1)
    policy.add_activation_rule(
        ActivationRule(RoleTemplate(role, (Var("u"),))))
    return policy


class TestStoreLookupCounters:
    """The record store's counters, fact writes included."""

    def test_fact_writes_in_store_ops(self):
        db = Database("main")
        db.create_table("registered", ["doctor", "patient"])
        store = MemoryRecordStore()
        with observed() as obs:
            OasisService(login_policy(), EventBroker(), ServiceRegistry(),
                         databases={"main": db}, store=store)
            before = samples(families_by_name(obs)["oasis_record_store_ops"])
            db.put_many("registered", [
                {"doctor": "d1", "patient": "p1"},
                {"doctor": "d1", "patient": "p2"}])
            db.delete("registered", patient="p1")
            families = families_by_name(obs)
        after = samples(families["oasis_record_store_ops"])
        labels = (("backend", "memory"), ("service", "obs/login"))

        def moved(op):
            key = (labels[0], ("op", op), labels[1])
            return after[key] - before[key]

        # One batch of two rows, one delete, and a commit for each call.
        assert (moved("puts"), moved("deletes"), moved("flushes")) == (
            2, 1, 2)
        assert not [name for name in families
                    if name.startswith("oasis_store_")]

    def test_collecting_does_not_perturb_live_counters(self):
        """Regression guard in the spirit of the ServiceStats.snapshot()
        defensive-copy tests: exports sample copies, never live state."""
        store = MemoryRecordStore()
        with observed() as obs:
            OasisService(login_policy(), EventBroker(), ServiceRegistry(),
                         store=store)
            before = store.stats()
            first = samples(families_by_name(obs)["oasis_record_store_ops"])
            # Mutating collected output must not reach the live store...
            for family in obs.metrics.collect():
                for sample in family["samples"]:
                    sample["value"] = -1
                    sample["labels"]["injected"] = True
            second = samples(families_by_name(obs)["oasis_record_store_ops"])
        assert first == second
        assert store.stats() == before


class TestRecordStoreCounters:
    def test_store_ops_and_gauges_exported(self):
        store = MemoryRecordStore()
        with observed() as obs:
            service = OasisService(login_policy(), EventBroker(),
                                   ServiceRegistry(), store=store)
            Principal("alice").start_session(service, "user", ["alice"])
            families = families_by_name(obs)
        ops = samples(families["oasis_record_store_ops"])
        # At least the stored secret and the RMC's record were written.
        assert ops[(("backend", "memory"), ("op", "puts"),
                    ("service", "obs/login"))] >= 2
        pending = samples(families["oasis_record_store_pending_writes"])
        assert pending[(("backend", "memory"),
                        ("service", "obs/login"))] == 0
        assert "oasis_record_store_log_entries" in families

    def test_storeless_service_exports_no_store_families(self, monkeypatch):
        # Force the storeless default even when the suite runs under an
        # OASIS_STORE_BACKEND matrix entry — this test is *about* the
        # storeless configuration.
        monkeypatch.delenv("OASIS_STORE_BACKEND", raising=False)
        with observed() as obs:
            build_hospital(Deployment(use_network=False))
            families = families_by_name(obs)
        assert "oasis_record_store_ops" not in families
        assert "oasis_record_store_pending_writes" not in families
