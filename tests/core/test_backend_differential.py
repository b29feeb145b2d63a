"""Differential tests: the record-store backends are invisible.

A world running storeless, over the in-memory backend, or over SQLite
must be observably identical — same certificates (bit-identical
signatures under shared secrets), same credential records, same cascade
order and audit REVOCATION sequences, same access decisions.  The store
is a durability seam, never an alternative semantics (the mirror of the
bulk-vs-per-call differential suite).
"""

import pytest

from repro.core import (
    ActivationRule,
    AuthorizationRule,
    OasisService,
    PrerequisiteRole,
    Presentation,
    Principal,
    PrincipalId,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.core.access_log import AccessKind
from repro.core.exceptions import CredentialRevoked
from repro.core.state import ServiceStateCodec
from repro.crypto import ServiceSecret
from repro.db import MemoryRecordStore, SqliteRecordStore
from repro.domains import Deployment
from repro.events import EventBroker, EventLog
from repro.scenarios import build_hospital

BACKENDS = ("none", "memory", "sqlite")


def make_store(backend):
    if backend == "none":
        return None
    if backend == "memory":
        return MemoryRecordStore(codec=ServiceStateCodec())
    return SqliteRecordStore(":memory:", codec=ServiceStateCodec())


class ChainWorld:
    """login (root) -> resource (leaf role with membership dependency)."""

    N = 12
    LIVE = 5

    def __init__(self, backend, login_secret, resource_secret):
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.log = EventLog(self.broker)

        login_policy = ServicePolicy(ServiceId("diff", "login"))
        root_role = login_policy.define_role("root", 1)
        root_template = RoleTemplate(root_role, (Var("u"),))
        login_policy.add_activation_rule(ActivationRule(root_template))
        self.login = OasisService(login_policy, self.broker, self.registry,
                                  secret=login_secret,
                                  store=make_store(backend))

        resource_policy = ServicePolicy(ServiceId("diff", "resource"))
        leaf_role = resource_policy.define_role("leaf", 1)
        leaf_template = RoleTemplate(leaf_role, (Var("u"),))
        resource_policy.add_activation_rule(ActivationRule(
            leaf_template,
            (PrerequisiteRole(root_template, membership=True),)))
        resource_policy.add_authorization_rule(AuthorizationRule(
            "use", (Var("u"),), (PrerequisiteRole(leaf_template),)))
        self.resource = OasisService(resource_policy, self.broker,
                                     self.registry, secret=resource_secret,
                                     store=make_store(backend))
        self.resource.register_method("use", lambda user: f"ok[{user}]")

        self.roots = []
        self.leaves = []
        for index in range(self.N):
            pid = PrincipalId(f"p{index}")
            root = self.login.activate_role(
                pid, "root", [pid.value], [], session_id=f"s{index}")
            self.roots.append(root)
            if index < self.LIVE:
                self.leaves.append(self.resource.activate_role(
                    pid, "leaf", None, [Presentation(root)],
                    session_id=f"s{index}"))

    def revocation_audit(self, service):
        return [(rec.principal, rec.subject, rec.reason)
                for rec in service.access_log
                if rec.kind == AccessKind.REVOCATION]

    def record_shapes(self, service):
        return [(rec.ref, rec.kind,
                 rec.principal.value if rec.principal else None,
                 rec.membership_dependencies, rec.session_id, rec.status,
                 rec.revoked_reason)
                for rec in service._records.values()]

    def revoked_event_refs(self):
        return [(event.topic, event.get("credential_ref"))
                for event in self.log.events()
                if event.topic == "credential.revoked"]


@pytest.fixture
def chain_worlds():
    login_secret = ServiceSecret.generate()
    resource_secret = ServiceSecret.generate()
    worlds = {backend: ChainWorld(backend, login_secret, resource_secret)
              for backend in BACKENDS}
    yield worlds
    for world in worlds.values():
        for service in (world.login, world.resource):
            if service.store is not None:
                service.store.close()


class TestChainWorldIdentical:
    def test_certificates_bit_identical(self, chain_worlds):
        reference = chain_worlds["none"]
        for backend in ("memory", "sqlite"):
            world = chain_worlds[backend]
            assert world.roots == reference.roots, backend
            assert world.leaves == reference.leaves, backend

    def test_credential_records_identical(self, chain_worlds):
        reference = chain_worlds["none"]
        for backend in ("memory", "sqlite"):
            world = chain_worlds[backend]
            assert world.record_shapes(world.login) == \
                reference.record_shapes(reference.login), backend
            assert world.record_shapes(world.resource) == \
                reference.record_shapes(reference.resource), backend

    def test_cascade_order_and_audit_identical(self, chain_worlds):
        for world in chain_worlds.values():
            assert world.login.revoke(world.roots[0].ref, "logout")
        reference = chain_worlds["none"]
        for backend in ("memory", "sqlite"):
            world = chain_worlds[backend]
            # Same audit REVOCATION sequences at both services...
            assert world.revocation_audit(world.login) == \
                reference.revocation_audit(reference.login), backend
            assert world.revocation_audit(world.resource) == \
                reference.revocation_audit(reference.resource), backend
            # ...and the same broker event sequence, in cascade order.
            assert world.revoked_event_refs() == \
                reference.revoked_event_refs(), backend
            # Post-cascade records (revoked ones included) still match.
            assert world.record_shapes(world.resource) == \
                reference.record_shapes(reference.resource), backend

    def test_decisions_identical_after_cascade(self, chain_worlds):
        for world in chain_worlds.values():
            world.login.revoke(world.roots[0].ref, "logout")
        for backend, world in chain_worlds.items():
            with pytest.raises(CredentialRevoked):
                world.resource.invoke(
                    PrincipalId("p0"), "use", ["p0"],
                    credentials=[Presentation(world.leaves[0])])
            assert world.resource.invoke(
                PrincipalId("p1"), "use", ["p1"],
                credentials=[Presentation(world.leaves[1])]) == "ok[p1]", \
                backend

    def test_stats_counters_match(self, chain_worlds):
        reference = chain_worlds["none"]
        for backend in ("memory", "sqlite"):
            world = chain_worlds[backend]
            assert world.login.stats.snapshot() == \
                reference.login.stats.snapshot(), backend
            assert world.resource.stats.snapshot() == \
                reference.resource.stats.snapshot(), backend


class TestHospitalScenarioIdentical:
    """The Fig. 3 running example (appointments + database-membership
    constraints) behaves identically under both backends, selected the
    production way — through OASIS_STORE_BACKEND."""

    def run_scenario(self, monkeypatch, backend):
        monkeypatch.setenv("OASIS_STORE_BACKEND", backend)
        hospital = build_hospital(Deployment(use_network=False))
        hospital.ehr_store["pat-1"] = ["2019: appendectomy"]
        doctor = hospital.admit_doctor("dr-jones", "pat-1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["dr-jones"])
        rmc = session.activate(hospital.records, "treating_doctor",
                               use_appointments=doctor.appointments())
        first = hospital.records.invoke(
            doctor.id, "read_record", ["pat-1"],
            credentials=[Presentation(rmc)])
        # Fig. 5: logging out revokes the login RMC; the membership
        # dependency cascades into treating_doctor.
        hospital.login.revoke(session.root_rmc.ref, "logout")
        denied = False
        try:
            hospital.records.invoke(doctor.id, "read_record", ["pat-1"],
                                    credentials=[Presentation(rmc)])
        except CredentialRevoked:
            denied = True
        audits = {
            name: [(rec.kind, rec.principal, rec.subject, rec.reason)
                   for rec in service.access_log]
            for name, service in (("login", hospital.login),
                                  ("records", hospital.records))}
        return {"first": first, "denied": denied, "audits": audits,
                "treating_active": hospital.records.is_active(rmc.ref)}

    def test_identical_across_backends(self, monkeypatch):
        results = {backend: self.run_scenario(monkeypatch, backend)
                   for backend in ("memory", "sqlite")}
        assert results["memory"]["first"] == ["2019: appendectomy"]
        assert results["memory"]["denied"] is True
        assert results["memory"]["treating_active"] is False
        assert results["sqlite"] == results["memory"]
