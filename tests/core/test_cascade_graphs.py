"""Cascade correctness on non-tree dependency graphs.

The Fig. 5 cascade is exercised on diamonds (a dependent reachable along
two paths), on a dependency shared by two sessions, and on re-activation
after a collapse.  Each scenario is additionally run under every
combination of broker dispatch (indexed / the ``ScanBroker`` oracle) and
cascade mode (batched reverse-index / the ``PerEdgeService`` oracle) and
the observable outcomes are asserted identical: every credential is
revoked exactly once, with the same reason, and the broker's
published/delivered counters match the reference path.
"""

import pytest

from repro.core import (
    ActivationRule,
    OasisService,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.db import MemoryRecordStore
from repro.events import CREDENTIAL_REVOKED, EventBroker, EventLog
from repro.net import SimClock

from tests.reference import PerEdgeService, ScanBroker


class DiamondWorld:
    """root A; B and C each require A (membership); D requires B and C."""

    def __init__(self, indexed: bool = True, batched: bool = True) -> None:
        self.clock = SimClock()
        self.broker = EventBroker() if indexed else ScanBroker()
        self.registry = ServiceRegistry()
        self.log = EventLog(self.broker)
        self.service_cls = OasisService if batched else PerEdgeService
        a, a_role = self._service("A", ())
        b, b_role = self._service("B", (a_role,))
        c, c_role = self._service("C", (a_role,))
        d, _ = self._service("D", (b_role, c_role))
        self.services = {"A": a, "B": b, "C": c, "D": d}

    def _service(self, name, prerequisites):
        policy = ServicePolicy(ServiceId("dom", name))
        role = policy.define_role("role", 1)
        template = RoleTemplate(role, (Var("u"),))
        policy.add_activation_rule(ActivationRule(
            template,
            tuple(PrerequisiteRole(p, membership=True)
                  for p in prerequisites)))
        service = self.service_cls(policy, self.broker, self.registry,
                                   self.clock)
        return service, template

    def build_session(self, user="u"):
        principal = Principal(user)
        session = principal.start_session(self.services["A"], "role", [user])
        rmcs = {"A": session.root_rmc}
        for name in ("B", "C", "D"):
            rmcs[name] = session.activate(self.services[name], "role")
        return session, rmcs

    def snapshot(self, rmcs):
        """Everything the cascade modes must agree on."""
        revocation_events = self.log.events(CREDENTIAL_REVOKED)
        per_ref = {}
        for event in revocation_events:
            ref = event.get("credential_ref")
            per_ref[ref] = per_ref.get(ref, 0) + 1
        return {
            "active": {name: self.services[name].is_active(rmc.ref)
                       for name, rmc in rmcs.items()},
            "reasons": {name: self.services[name]
                        .credential_record(rmc.ref).revoked_reason
                        for name, rmc in rmcs.items()},
            "event_order": [event.get("credential_ref")
                            for event in revocation_events],
            "events_per_ref": per_ref,
            "published_count": self.broker.published_count,
            "delivered_count": self.broker.delivered_count,
            "revocations": sum(s.stats.revocations
                               for s in self.services.values()),
            "cascades": sum(s.stats.cascade_revocations
                            for s in self.services.values()),
        }


def collapse_diamond(indexed, batched):
    world = DiamondWorld(indexed=indexed, batched=batched)
    _, rmcs = world.build_session()
    world.services["A"].revoke(rmcs["A"].ref, "logout")
    return world.snapshot(rmcs)


class TestDiamond:
    def test_every_credential_revoked_exactly_once(self):
        snap = collapse_diamond(indexed=True, batched=True)
        assert snap["active"] == {"A": False, "B": False,
                                  "C": False, "D": False}
        assert all(count == 1 for count in snap["events_per_ref"].values())
        assert len(snap["events_per_ref"]) == 4
        assert snap["revocations"] == 4
        assert snap["cascades"] == 3

    def test_diamond_reason_composes_along_one_path(self):
        snap = collapse_diamond(indexed=True, batched=True)
        assert "membership dependency" in snap["reasons"]["D"]
        assert "logout" in snap["reasons"]["D"]

    def test_indexed_broker_matches_naive_broker_exactly(self):
        """Same subscriptions, same events: every counter must agree."""
        assert collapse_diamond(indexed=True, batched=True) \
            == collapse_diamond(indexed=False, batched=True)

    def test_batched_cascade_matches_subscription_cascade(self):
        """The batched reverse-index cascade must be observationally
        identical to the per-dependency-subscription reference path —
        except for delivered_count, whose subscription structure differs
        by construction (one service-level subscription vs one per edge).
        """
        batched = collapse_diamond(indexed=False, batched=True)
        legacy = collapse_diamond(indexed=False, batched=False)
        for key in ("active", "reasons", "event_order", "events_per_ref",
                    "published_count", "revocations", "cascades"):
            assert batched[key] == legacy[key], key


class LocalDiamondWorld:
    """The diamond inside ONE service: a local subtree collapse."""

    def __init__(self, batched: bool = True) -> None:
        self.clock = SimClock()
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.log = EventLog(self.broker)
        policy = ServicePolicy(ServiceId("dom", "only"))
        templates = {}
        for name, prereqs in (("a", ()), ("b", ("a",)), ("c", ("a",)),
                              ("d", ("b", "c"))):
            role = policy.define_role(name, 1)
            templates[name] = RoleTemplate(role, (Var("u"),))
            policy.add_activation_rule(ActivationRule(
                templates[name],
                tuple(PrerequisiteRole(templates[p], membership=True)
                      for p in prereqs)))
        service_cls = OasisService if batched else PerEdgeService
        self.service = service_cls(policy, self.broker, self.registry,
                                   self.clock)

    def build(self):
        principal = Principal("u")
        session = principal.start_session(self.service, "a", ["u"])
        rmcs = {"a": session.root_rmc}
        for name in ("b", "c", "d"):
            rmcs[name] = session.activate(self.service, name)
        return rmcs


class TestLocalDiamond:
    def test_whole_subtree_collapses_in_one_batch(self):
        world = LocalDiamondWorld()
        rmcs = world.build()
        assert world.service.dependent_count(rmcs["a"].ref) == 2
        world.service.revoke(rmcs["a"].ref, "logout")
        assert all(not world.service.is_active(rmc.ref)
                   for rmc in rmcs.values())
        # One event per credential, emitted breadth-first: a, b, c, d.
        order = [event.get("credential_ref")
                 for event in world.log.events(CREDENTIAL_REVOKED)]
        assert order == [str(rmcs[name].ref) for name in ("a", "b", "c", "d")]
        assert world.service.stats.revocations == 4
        assert world.service.stats.cascade_revocations == 3
        # The reverse index is fully pruned afterwards.
        assert all(world.service.dependent_count(rmc.ref) == 0
                   for rmc in rmcs.values())

    def test_matches_legacy_event_counts(self):
        results = []
        for batched in (True, False):
            world = LocalDiamondWorld(batched=batched)
            rmcs = world.build()
            world.service.revoke(rmcs["a"].ref, "logout")
            per_ref = {}
            for event in world.log.events(CREDENTIAL_REVOKED):
                ref = event.get("credential_ref")
                per_ref[ref] = per_ref.get(ref, 0) + 1
            results.append({
                "per_ref": per_ref,
                "published": world.broker.published_count,
                "revocations": world.service.stats.revocations,
                "cascades": world.service.stats.cascade_revocations,
                "reasons": {name: world.service.credential_record(
                    rmc.ref).revoked_reason for name, rmc in rmcs.items()},
            })
        assert results[0] == results[1]


class TestSharedDependencyAcrossSessions:
    def test_shared_appointment_collapses_both_sessions(self, hospital,
                                                        deployment):
        doctor = hospital.admit_doctor("d1", "p1")
        appointment = doctor.appointments()[0]
        first = doctor.start_session(hospital.login, "logged_in_user",
                                     ["d1"])
        treating_1 = first.activate(hospital.records, "treating_doctor",
                                    use_appointments=[appointment])
        second = doctor.start_session(hospital.login, "logged_in_user",
                                      ["d1"])
        treating_2 = second.activate(hospital.records, "treating_doctor",
                                     use_appointments=[appointment])
        assert hospital.records.dependent_count(appointment.ref) == 2

        log = EventLog(deployment.broker)
        hospital.admin.revoke(appointment.ref, "reallocated")

        assert not hospital.records.is_active(treating_1.ref)
        assert not hospital.records.is_active(treating_2.ref)
        # Logins do not depend on the appointment.
        assert hospital.login.is_active(first.root_rmc.ref)
        assert hospital.login.is_active(second.root_rmc.ref)
        # Exactly one revocation event per collapsed credential.
        refs = [event.get("credential_ref")
                for event in log.events(CREDENTIAL_REVOKED)]
        assert sorted(refs) == sorted(
            [str(appointment.ref), str(treating_1.ref),
             str(treating_2.ref)])

    def test_stats_count_each_dependent_once(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        appointment = doctor.appointments()[0]
        for _ in range(2):
            session = doctor.start_session(hospital.login, "logged_in_user",
                                           ["d1"])
            session.activate(hospital.records, "treating_doctor",
                             use_appointments=[appointment])
        hospital.admin.revoke(appointment.ref, "reallocated")
        assert hospital.records.stats.cascade_revocations == 2


class TestReactivationAfterCascade:
    def test_fresh_credentials_after_collapse_cascade_again(
            self, hospital, deployment):
        doctor = hospital.admit_doctor("d1", "p1")
        log = EventLog(deployment.broker)
        revoked_refs = []
        for round_number in range(2):
            session = doctor.start_session(hospital.login, "logged_in_user",
                                           ["d1"])
            treating = session.activate(hospital.records, "treating_doctor",
                                        use_appointments=doctor.appointments())
            revoked_refs += [session.root_rmc.ref, treating.ref]
            hospital.login.revoke(session.root_rmc.ref,
                                  f"logout-{round_number}")
            assert not hospital.records.is_active(treating.ref)
        # Four distinct credentials died, each with exactly one event.
        assert len(set(revoked_refs)) == 4
        per_ref = {}
        for event in log.events(CREDENTIAL_REVOKED):
            ref = event.get("credential_ref")
            per_ref[ref] = per_ref.get(ref, 0) + 1
        assert per_ref == {str(ref): 1 for ref in revoked_refs}

    def test_reactivated_role_watches_new_dependency_only(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        first = doctor.start_session(hospital.login, "logged_in_user",
                                     ["d1"])
        treating_1 = first.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        hospital.records.revoke(treating_1.ref, "suspension")
        treating_2 = first.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        assert treating_2.ref != treating_1.ref
        # Only the fresh credential hangs off the login dependency now.
        assert hospital.records.dependent_count(first.root_rmc.ref) == 1
        hospital.login.revoke(first.root_rmc.ref, "logout")
        assert not hospital.records.is_active(treating_2.ref)


class TestCascadeModeIsNotAnOption:
    """The per-edge cascade is a test oracle, not a production mode: it
    cannot rebuild its subscriptions from a store, which is how a resumed
    ``batched_cascades=False`` service once left recovered dependents
    active after their recovered root was revoked."""

    def test_resume_rejects_batched_cascades_keyword(self):
        policy = ServicePolicy(ServiceId("dom", "only"))
        for store in (MemoryRecordStore(), None):
            with pytest.raises(TypeError, match="batched_cascades"):
                OasisService(policy, EventBroker(), ServiceRegistry(),
                             store=store, batched_cascades=False)

    def test_oracle_refuses_to_resume(self):
        policy = ServicePolicy(ServiceId("dom", "root"))
        policy.add_activation_rule(ActivationRule(
            RoleTemplate(policy.define_role("role", 1), (Var("u"),))))
        store = MemoryRecordStore()
        used = OasisService(policy, EventBroker(), ServiceRegistry(),
                            store=store)
        Principal("u").start_session(used, "role", ["u"])
        # An empty store is a fresh start; a used one would be a resume.
        PerEdgeService(policy, EventBroker(), ServiceRegistry(),
                       store=MemoryRecordStore())
        with pytest.raises(NotImplementedError, match="not persisted"):
            PerEdgeService(policy, EventBroker(), ServiceRegistry(),
                           store=store)
