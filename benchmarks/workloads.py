"""Shared workload builders and result recording for the benchmark harness.

Every ``bench_*.py`` module regenerates one experiment from DESIGN.md's
index.  Experiments report two kinds of numbers:

* **wall-clock micro-benchmarks** via pytest-benchmark (the usual table);
* **experiment series** — simulated time, message counts, admin operations,
  decision quality — written as small text tables to
  ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    ConstraintCondition,
    DatabaseLookupConstraint,
    OasisService,
    PrerequisiteRole,
    Presentation,
    Principal,
    PrincipalId,
    Role,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.db import Database
from repro.events import EventBroker
from repro.net import Scheduler, SimClock

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def record_result(experiment: str, lines: Sequence[str]) -> None:
    """Write an experiment's series table to benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


class HospitalWorld:
    """The conftest hospital, rebuilt standalone for benchmarks."""

    def __init__(self, cache_validations: bool = True) -> None:
        self.clock = SimClock()
        self.scheduler = Scheduler(self.clock)
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.db = Database("hospital-db")
        self.db.create_table("registered", ["doctor", "patient"])
        self.db.create_table("excluded", ["patient", "doctor"])

        login_policy = ServicePolicy(ServiceId("hospital", "login"))
        self.logged_in = login_policy.define_role("logged_in_user", 1)
        login_policy.add_activation_rule(
            ActivationRule(RoleTemplate(self.logged_in, (Var("u"),))))
        self.login = OasisService(login_policy, self.broker, self.registry,
                                  self.clock,
                                  cache_validations=cache_validations)

        admin_policy = ServicePolicy(ServiceId("hospital", "admin"))
        administrator = admin_policy.define_role("administrator", 1)
        admin_policy.add_activation_rule(ActivationRule(
            RoleTemplate(administrator, (Var("u"),)),
            (PrerequisiteRole(RoleTemplate(self.logged_in, (Var("u"),)),
                              membership=True),)))
        admin_policy.add_appointment_rule(AppointmentRule(
            "allocated", (Var("d"), Var("p")),
            (PrerequisiteRole(RoleTemplate(administrator, (Var("a"),))),)))
        self.admin = OasisService(admin_policy, self.broker, self.registry,
                                  self.clock,
                                  cache_validations=cache_validations)

        records_policy = ServicePolicy(ServiceId("hospital", "records"))
        treating = records_policy.define_role("treating_doctor", 2)
        records_policy.add_activation_rule(ActivationRule(
            RoleTemplate(treating, (Var("d"), Var("p"))),
            (PrerequisiteRole(RoleTemplate(self.logged_in, (Var("d"),)),
                              membership=True),
             AppointmentCondition(self.admin.id, "allocated",
                                  (Var("d"), Var("p")), membership=True),
             ConstraintCondition(DatabaseLookupConstraint.exists(
                 "main", "registered", doctor=Var("d"), patient=Var("p")),
                 membership=True))))
        records_policy.add_authorization_rule(AuthorizationRule(
            "read_record", (Var("p"),),
            (PrerequisiteRole(RoleTemplate(treating,
                                           (Var("d"), Var("p")))),
             ConstraintCondition(DatabaseLookupConstraint.not_exists(
                 "main", "excluded", patient=Var("p"), doctor=Var("d"))))))
        self.records = OasisService(records_policy, self.broker,
                                    self.registry, self.clock,
                                    databases={"main": self.db},
                                    cache_validations=cache_validations)
        self.records.register_method("read_record",
                                     lambda pat: f"EHR[{pat}]")

    def new_doctor(self, doctor_id: str, patient_id: str) -> Principal:
        self.db.insert("registered", doctor=doctor_id, patient=patient_id)
        admin_principal = Principal(f"admin-of-{doctor_id}")
        session = admin_principal.start_session(
            self.login, "logged_in_user", [admin_principal.id.value])
        session.activate(self.admin, "administrator",
                         [admin_principal.id.value])
        certificate = session.issue_appointment(
            self.admin, "allocated", [doctor_id, patient_id],
            holder=doctor_id)
        doctor = Principal(doctor_id)
        doctor.store_appointment(certificate)
        return doctor


class ChainWorld:
    """A chain of services: svc-i's role requires svc-(i-1)'s (Fig. 1)."""

    def __init__(self, depth: int,
                 cache_validations: bool = True,
                 store_factory: Optional[Callable[[], object]] = None
                 ) -> None:
        self.clock = SimClock()
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.depth = depth
        # ``store_factory`` hands each service its own record store (the
        # persistence benchmarks compare backends); ``None`` keeps the
        # default behaviour (OASIS_STORE_BACKEND / storeless).
        extra: Dict[str, object] = {}
        if store_factory is not None:
            extra = {"store": store_factory()}

        login_policy = ServicePolicy(ServiceId("dom", "svc-0"))
        root = login_policy.define_role("role", 1)
        login_policy.add_activation_rule(
            ActivationRule(RoleTemplate(root, (Var("u"),))))
        self.services: List[OasisService] = [
            OasisService(login_policy, self.broker, self.registry,
                         self.clock, cache_validations=cache_validations,
                         **extra)]
        previous = RoleTemplate(root, (Var("u"),))
        for level in range(1, depth + 1):
            if store_factory is not None:
                extra = {"store": store_factory()}
            policy = ServicePolicy(ServiceId("dom", f"svc-{level}"))
            role = policy.define_role("role", 1)
            policy.add_activation_rule(ActivationRule(
                RoleTemplate(role, (Var("u"),)),
                (PrerequisiteRole(previous, membership=True),)))
            self.services.append(
                OasisService(policy, self.broker, self.registry,
                             self.clock,
                             cache_validations=cache_validations, **extra))
            previous = RoleTemplate(role, (Var("u"),))

    def build_session(self, user: str = "user"):
        principal = Principal(user)
        session = principal.start_session(self.services[0], "role", [user])
        rmcs = [session.root_rmc]
        for service in self.services[1:]:
            rmcs.append(session.activate(service, "role"))
        return session, rmcs


class FanoutWorld:
    """Fig. 5 fan-out: one root service, one leaf service whose role takes
    the root role as a membership dependency.

    :meth:`new_tree` activates one root credential plus ``fanout`` leaf
    credentials that all hang off it — revoking the root must collapse
    exactly that subtree.  Trees for distinct users are fully unrelated, so
    keeping many of them live measures whether per-revocation cost depends
    on the amount of unrelated live state.
    """

    def __init__(self, cache_validations: bool = True) -> None:
        self.clock = SimClock()
        self.broker = EventBroker()
        self.registry = ServiceRegistry()

        root_policy = ServicePolicy(ServiceId("dom", "fan-root"))
        root_role = root_policy.define_role("role", 1)
        root_template = RoleTemplate(root_role, (Var("u"),))
        root_policy.add_activation_rule(ActivationRule(root_template))
        self.root = OasisService(root_policy, self.broker, self.registry,
                                 self.clock,
                                 cache_validations=cache_validations)

        leaf_policy = ServicePolicy(ServiceId("dom", "fan-leaf"))
        leaf_role = leaf_policy.define_role("role", 1)
        leaf_policy.add_activation_rule(ActivationRule(
            RoleTemplate(leaf_role, (Var("u"),)),
            (PrerequisiteRole(root_template, membership=True),)))
        self.leaf = OasisService(leaf_policy, self.broker, self.registry,
                                 self.clock,
                                 cache_validations=cache_validations)
        self._users = 0

    def new_tree(self, fanout: int):
        """Issue one root RMC with ``fanout`` dependents hanging off it.

        Activates directly against the services (no Session) so building a
        wide tree stays O(fanout): each leaf activation presents just the
        shared root credential.
        """
        self._users += 1
        principal = Principal(f"user-{self._users}")
        root_rmc = self.root.activate_role(
            principal.id, "role", [principal.id.value], [])
        presentation = [Presentation(root_rmc)]
        leaves = [self.leaf.activate_role(principal.id, "role", None,
                                          presentation)
                  for _ in range(fanout)]
        return root_rmc, leaves


class ScaleWorld:
    """The million-principal single-node world (ROADMAP open item 3).

    Two services: ``login`` issues a parameterless-prerequisite root role
    per principal; ``resource`` issues a leaf role whose activation takes
    the root credential as a *membership* dependency (one Fig. 5 edge per
    live session) and guards a ``use`` method on the leaf role.  Every
    principal gets a root credential; a ``live`` subset additionally holds
    a leaf credential and keeps its RMCs client-side — those are the live
    sessions the mixed traffic runs over.  An ``accounts`` fact table is
    populated one row per principal through ``Database.put_many``.

    :meth:`build_bulk` constructs the world through the bulk APIs
    (``issue_rmcs_bulk`` in chunks); :meth:`build_percall` is the
    one-at-a-time reference path (``activate_role`` per credential) used
    for the bulk-vs-per-call speedup comparison and by the differential
    tests.
    """

    #: issue_rmcs_bulk batch size: bounds peak temporary lists while
    #: keeping per-batch overhead negligible.
    CHUNK = 50_000

    def __init__(self, principals: int, live: int,
                 access_log_capacity: Optional[int] = 10_000) -> None:
        if live > principals:
            raise ValueError("live sessions cannot exceed principals")
        self.principals = principals
        self.live = live
        self.clock = SimClock()
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.db = Database("scale-db")
        self.db.create_table("accounts", ["principal", "tier"])

        login_policy = ServicePolicy(ServiceId("scale", "login"))
        self.root_role = login_policy.define_role("root", 1)
        self.root_template = RoleTemplate(self.root_role, (Var("u"),))
        login_policy.add_activation_rule(ActivationRule(self.root_template))
        from repro.core.access_log import AccessLog
        self.login = OasisService(
            login_policy, self.broker, self.registry, self.clock,
            access_log=AccessLog(capacity=access_log_capacity))

        resource_policy = ServicePolicy(ServiceId("scale", "resource"))
        self.leaf_role = resource_policy.define_role("leaf", 1)
        leaf_template = RoleTemplate(self.leaf_role, (Var("u"),))
        resource_policy.add_activation_rule(ActivationRule(
            leaf_template,
            (PrerequisiteRole(self.root_template, membership=True),)))
        resource_policy.add_authorization_rule(AuthorizationRule(
            "use", (Var("u"),), (PrerequisiteRole(leaf_template),)))
        self.resource = OasisService(
            resource_policy, self.broker, self.registry, self.clock,
            databases={"main": self.db},
            access_log=AccessLog(capacity=access_log_capacity))
        self.resource.register_method("use", lambda user: f"ok[{user}]")

        # Client-side state, kept for the live subset only: principal id,
        # root RMC, leaf RMC — index i is live session i.
        self.session_principals: List[PrincipalId] = []
        self.session_roots: List = []
        self.session_leaves: List = []
        self._cursor = 0

    # -- construction -------------------------------------------------------
    def _put_accounts(self) -> None:
        self.db.put_many("accounts", [
            {"principal": f"p{index}", "tier": index % 4}
            for index in range(self.principals)])

    def build_bulk(self) -> None:
        """Build the whole world through the bulk APIs."""
        self._put_accounts()
        live = self.live
        for start in range(0, self.principals, self.CHUNK):
            stop = min(start + self.CHUNK, self.principals)
            ids = [PrincipalId(f"p{index}") for index in range(start, stop)]
            roots = self.login.issue_rmcs_bulk([
                (pid, Role(self.root_role, (pid.value,)), (),
                 f"s{start + offset}")
                for offset, pid in enumerate(ids)])
            live_ids = [pid for index, pid in enumerate(ids, start)
                        if index < live]
            if live_ids:
                leaves = self.resource.issue_rmcs_bulk([
                    (pid, Role(self.leaf_role, (pid.value,)),
                     (roots[offset].ref,), f"s{start + offset}")
                    for offset, pid in enumerate(live_ids)])
                self.session_principals.extend(live_ids)
                self.session_roots.extend(roots[:len(live_ids)])
                self.session_leaves.extend(leaves)

    def build_percall(self) -> None:
        """Reference path: one ``activate_role`` call per credential."""
        self._put_accounts()
        for index in range(self.principals):
            pid = PrincipalId(f"p{index}")
            root = self.login.activate_role(
                pid, "root", [pid.value], [], session_id=f"s{index}")
            if index < self.live:
                leaf = self.resource.activate_role(
                    pid, "leaf", None, [Presentation(root)],
                    session_id=f"s{index}")
                self.session_principals.append(pid)
                self.session_roots.append(root)
                self.session_leaves.append(leaf)

    # -- mixed traffic ------------------------------------------------------
    def invoke_op(self) -> None:
        """Guarded invocation by the next live session (60% of traffic)."""
        index = self._cursor % self.live
        self._cursor += 1
        self.resource.invoke(
            self.session_principals[index], "use",
            [self.session_principals[index].value],
            credentials=[Presentation(self.session_leaves[index])])

    def churn_op(self) -> None:
        """Leaf churn: revoke one live session's leaf role and activate a
        fresh one through the full rule path (30% of traffic)."""
        index = self._cursor % self.live
        self._cursor += 1
        pid = self.session_principals[index]
        self.resource.revoke(self.session_leaves[index].ref, "churn")
        self.session_leaves[index] = self.resource.activate_role(
            pid, "leaf", None, [Presentation(self.session_roots[index])],
            session_id=f"s{index}")

    def root_revoke_op(self) -> None:
        """Session collapse and re-login: revoking the root cascades to the
        leaf across services; both are then re-issued (10% of traffic)."""
        index = self._cursor % self.live
        self._cursor += 1
        pid = self.session_principals[index]
        self.login.revoke(self.session_roots[index].ref, "logout")
        root = self.login.issue_rmcs_bulk(
            [(pid, Role(self.root_role, (pid.value,)), (),
              f"s{index}")])[0]
        leaf = self.resource.issue_rmcs_bulk(
            [(pid, Role(self.leaf_role, (pid.value,)), (root.ref,),
              f"s{index}")])[0]
        self.session_roots[index] = root
        self.session_leaves[index] = leaf

    def mixed_op(self) -> None:
        """One step of the 60/30/10 invoke/churn/collapse mix."""
        slot = self._cursor % 10
        if slot < 6:
            self.invoke_op()
        elif slot < 9:
            self.churn_op()
        else:
            self.root_revoke_op()

    # -- accounting ---------------------------------------------------------
    def live_credential_count(self) -> int:
        """Active credential records across both services."""
        return (len(self.login.active_credentials())
                + len(self.resource.active_credentials()))
