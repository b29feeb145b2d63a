"""World factories for served nodes: build the services one process hosts.

A served process is handed a :class:`NodeContext` (broker, registry,
:class:`~repro.netd.client.RemoteNetwork`, wall clock, optional state
directory, and — for a ``--shard I/N`` node — the partition it owns) and
a factory ``factory(ctx, *args)`` returning an object with a
``services`` mapping and optionally a ``handlers`` mapping.  It is the
only world contract there is: the same factory runs served, sharded, and
in one process on a context with no network.

Every node rebuilds the *policies* it needs locally (policies are
code), but hosts only its own services: the Fig. 3 EHR deployment
splits into

* :func:`ehr_front` — hospital ``login`` + ``admin`` (issues the
  ``allocated`` appointment, the cascade's root);
* :func:`ehr_records` — hospital ``records`` with ``treating_doctor``,
  whose activation validates the login RMC and allocation appointment
  by callback *over TCP* to the front node;
* :func:`ehr_national` — national ``registry`` + ``patient-records``,
  validating treating RMCs by callback to the records node and caching
  the results (the ECRs).

Their policy builders are the only copies of the Fig. 3 rules, as
:func:`chain_policies` is of the Fig. 5 chain.

Cross-service references (the admin service's id in the records policy,
the foreign ``treating_doctor`` role in the national policy) are plain
identifiers — :class:`~repro.core.types.ServiceId` /
:class:`~repro.core.types.RoleName` — so no node needs another node's
live objects.
"""

from __future__ import annotations

import time
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.policy import ServicePolicy
from ..core.rules import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    PrerequisiteRole,
)
from ..core.access_log import AccessLog
from ..core.service import OasisService, Presentation, ServiceRegistry
from ..core.state import ServiceStateCodec
from ..core.terms import Var
from ..core.types import PrincipalId, Role, RoleName, RoleTemplate, ServiceId
from ..db import Database, default_store
from ..events import EventBroker

__all__ = ["NodeContext", "World", "resolve_factory",
           "ehr_front", "ehr_records", "ehr_national", "bench_world",
           "login_policy", "admin_policy", "records_policy",
           "registry_policy", "national_policy", "chain_policies",
           "ScaleWorld"]


class World:
    """What a factory returns: hosted services plus world-side handlers."""

    def __init__(self, services: Dict[str, OasisService],
                 handlers: Optional[Dict[str, Callable[[Any], Any]]]
                 = None) -> None:
        self.services = services
        self.handlers = handlers or {}


class NodeContext:
    """Per-process substrate a world factory builds services on."""

    def __init__(self, node: str, broker: EventBroker,
                 registry: ServiceRegistry, network: Any,
                 clock: Callable[[], float] = time.time,
                 state_dir: Optional[str] = None,
                 shard: Optional[int] = None, shards: int = 1) -> None:
        self.node = node
        self.broker = broker
        self.registry = registry
        self.network = network
        self.clock = clock
        self.state_dir = state_dir
        #: The partition this node serves (``None``: the whole universe).
        self.shard = shard
        self.shards = shards

    def service(self, policy: ServicePolicy,
                databases: Optional[Dict[str, Database]] = None,
                **kwargs: Any) -> OasisService:
        """Build an :class:`OasisService` wired for this node.

        With a state directory the service gets its own SQLite file
        there; without one, the ``OASIS_STORE_BACKEND`` store (see
        :func:`repro.db.default_store`).  A store a previous
        incarnation used is resumed by construction, signing secret
        included, so a killed-and-restarted server keeps verifying its
        certificates.  Journalled cascades cut mid-publish are re-emitted
        by :func:`~repro.netd.deploy.boot_world` once every service of the
        world exists, so each dependent service is subscribed when they
        arrive; on a shard node they also ride the worker's first reply
        to every other shard, whose services decide from their own
        reverse-dependency index.  On a shard node the service mints only
        serials whose ref hashes to this shard."""
        store = default_store(ServiceStateCodec(),
                              service=str(policy.service),
                              state_dir=self.state_dir)
        if self.shard is not None:
            # Imported here: repro.shard's router imports netd.deploy.
            from ..shard.partition import ShardedRefAllocator
            kwargs["allocator"] = ShardedRefAllocator(
                policy.service, self.shard, self.shards)
        return OasisService(policy, self.broker, self.registry,
                            clock=self.clock, databases=databases,
                            network=self.network, store=store, **kwargs)


def resolve_factory(spec: str) -> Callable[..., Any]:
    """``module:function`` → the callable (for ``repro serve --world``)."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"world spec {spec!r} must look like 'package.module:factory'")
    module = __import__(module_name, fromlist=[attr])
    factory = getattr(module, attr)
    if not callable(factory):
        raise TypeError(f"world spec {spec!r} does not name a callable")
    return factory


# -- Fig. 3 policies, shared between the three EHR nodes ----------------------

HOSPITAL = "hospital"
NATIONAL = "national-ehr"


def login_policy(domain: str = HOSPITAL) -> ServicePolicy:
    policy = ServicePolicy(ServiceId(domain, "login"))
    logged_in = policy.define_role("logged_in_user", 1)
    policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    return policy


def admin_policy(domain: str = HOSPITAL) -> ServicePolicy:
    policy = ServicePolicy(ServiceId(domain, "admin"))
    administrator = policy.define_role("administrator", 1)
    logged_in = RoleName(ServiceId(domain, "login"), "logged_in_user")
    policy.add_activation_rule(ActivationRule(
        RoleTemplate(administrator, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("u"),)),
                          membership=True),)))
    policy.add_appointment_rule(AppointmentRule(
        "allocated", (Var("d"), Var("p")),
        (PrerequisiteRole(RoleTemplate(administrator, (Var("a"),))),)))
    return policy


def records_policy() -> ServicePolicy:
    """``treating_doctor`` on login and allocation alone: the served node
    has no database (see :mod:`repro.scenarios.healthcare`)."""
    policy = ServicePolicy(ServiceId(HOSPITAL, "records"))
    treating = policy.define_role("treating_doctor", 2)
    logged_in = RoleName(ServiceId(HOSPITAL, "login"), "logged_in_user")
    policy.add_activation_rule(ActivationRule(
        RoleTemplate(treating, (Var("d"), Var("p"))),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("d"),)),
                          membership=True),
         AppointmentCondition(ServiceId(HOSPITAL, "admin"), "allocated",
                              (Var("d"), Var("p")), membership=True))))
    policy.add_authorization_rule(AuthorizationRule(
        "read_record", (Var("p"),),
        (PrerequisiteRole(RoleTemplate(treating, (Var("d"), Var("p")))),)))
    return policy


def registry_policy(domain: str = NATIONAL) -> ServicePolicy:
    policy = ServicePolicy(ServiceId(domain, "registry"))
    registrar = policy.define_role("registrar", 0)
    policy.add_activation_rule(ActivationRule(RoleTemplate(registrar)))
    policy.add_appointment_rule(AppointmentRule(
        "accredited_hospital", (Var("h"),),
        (PrerequisiteRole(RoleTemplate(registrar)),)))
    return policy


def national_policy(domain: str = NATIONAL,
                    hospitals: Sequence[str] = (HOSPITAL,)
                    ) -> ServicePolicy:
    """Patient record management: an accredited ``hospital`` gateway may
    request or append to an EHR on behalf of a doctor holding the
    (foreign) ``treating_doctor`` role of one of ``hospitals``."""
    policy = ServicePolicy(ServiceId(domain, "patient-records"))
    hospital_role = policy.define_role("hospital", 1)
    policy.add_activation_rule(ActivationRule(
        RoleTemplate(hospital_role, (Var("h"),)),
        (AppointmentCondition(ServiceId(domain, "registry"),
                              "accredited_hospital", (Var("h"),),
                              membership=True),)))
    for hospital in hospitals:
        treating_foreign = RoleTemplate(
            RoleName(ServiceId(hospital, "records"), "treating_doctor"),
            (Var("d"), Var("p")))
        for method, params in (("request_EHR", (Var("p"),)),
                               ("append_to_EHR", (Var("p"), Var("entry")))):
            policy.add_authorization_rule(AuthorizationRule(
                method, params,
                (PrerequisiteRole(RoleTemplate(hospital_role, (Var("h"),))),
                 PrerequisiteRole(treating_foreign))))
    return policy


def chain_policies(depth: int) -> List[ServicePolicy]:
    """The Fig. 5 chain (Fig. 1's role dependency, repeated): ``dom/svc-0``
    grants a free ``role``, and ``svc-i``'s requires ``svc-(i-1)``'s as a
    membership condition, so revoking the root collapses every hop."""
    policies = []
    conditions: Tuple[PrerequisiteRole, ...] = ()
    for level in range(depth + 1):
        policy = ServicePolicy(ServiceId("dom", f"svc-{level}"))
        role = RoleTemplate(policy.define_role("role", 1), (Var("u"),))
        policy.add_activation_rule(ActivationRule(role, conditions))
        conditions = (PrerequisiteRole(role, membership=True),)
        policies.append(policy)
    return policies


# -- node factories -----------------------------------------------------------

def ehr_front(ctx: NodeContext) -> World:
    """Hospital front node: login + admin."""
    login = ctx.service(login_policy())
    admin = ctx.service(admin_policy())
    return World({"login": login, "admin": admin})


def ehr_records(ctx: NodeContext) -> World:
    """Hospital records node: ``treating_doctor``."""
    records = ctx.service(records_policy())
    store: Dict[str, list] = {}
    records.register_method("read_record",
                            lambda pat: list(store.get(pat, [])))
    return World({"records": records})


def ehr_national(ctx: NodeContext) -> World:
    """National EHR node: registry + patient record management."""
    registry = ctx.service(registry_policy())
    national = ctx.service(national_policy())
    ehr_store: Dict[str, list] = {"p1": ["2019: appendectomy",
                                         "2023: allergy noted"]}
    national.register_method("request_EHR",
                             lambda p: list(ehr_store.get(p, [])))
    national.register_method(
        "append_to_EHR",
        lambda p, entry: ehr_store.setdefault(p, []).append(entry)
        or "done")
    return World({"registry": registry, "patient-records": national})


# -- benchmark worlds ---------------------------------------------------------

def bench_world(ctx: NodeContext) -> World:
    """One service with a free role — the minimal target for measuring
    raw RPC overhead (activation throughput, revocation latency)."""
    policy = ServicePolicy(ServiceId("bench", "svc"))
    user = policy.define_role("user", 1)
    policy.add_activation_rule(
        ActivationRule(RoleTemplate(user, (Var("u"),))))
    policy.add_authorization_rule(AuthorizationRule(
        "echo", (Var("x"),),
        (PrerequisiteRole(RoleTemplate(user, (Var("u"),))),)))
    service = ctx.service(policy)
    service.register_method("echo", lambda x: x)
    return World({"svc": service})


def scale_policies() -> List[ServicePolicy]:
    """``scale/login`` grants a free ``root`` role; ``scale/resource``
    grants ``leaf`` on root membership (one Fig. 5 edge per live
    session) and guards ``use`` on it."""
    login = ServicePolicy(ServiceId("scale", "login"))
    root = RoleTemplate(login.define_role("root", 1), (Var("u"),))
    login.add_activation_rule(ActivationRule(root))
    resource = ServicePolicy(ServiceId("scale", "resource"))
    leaf = RoleTemplate(resource.define_role("leaf", 1), (Var("u"),))
    resource.add_activation_rule(ActivationRule(
        leaf, (PrerequisiteRole(root, membership=True),)))
    resource.add_authorization_rule(AuthorizationRule(
        "use", (Var("u"),), (PrerequisiteRole(leaf),)))
    return [login, resource]


class ScaleWorld(World):
    """The million-principal world: all of it on an unsharded context,
    on a ``--shard I/N`` node the stride of principal indices it owns.

    Principal ``p{i}`` gets an ``accounts`` row and a root credential in
    session ``s{i}``; for ``i < live`` also a leaf credential, and those
    RMCs are the live sessions :meth:`mixed_op` runs over.  Handlers:
    ``build`` ({principals, live}), ``traffic`` ({rounds, inner}: timed
    rounds of :meth:`mixed_op`), ``collapse`` ({sessions}: revoke their
    roots) and ``state``."""

    #: issue_rmcs_bulk batch size: bounds peak temporary lists.
    CHUNK = 50_000

    def __init__(self, ctx: NodeContext) -> None:
        login, resource = scale_policies()
        self.root_role = RoleName(login.service, "root")
        self.leaf_role = RoleName(resource.service, "leaf")
        self.db = Database("scale-db")
        self.db.create_table("accounts", ["principal", "tier"])
        self.login = ctx.service(login,
                                 access_log=AccessLog(capacity=10_000))
        self.resource = ctx.service(resource, databases={"main": self.db},
                                    access_log=AccessLog(capacity=10_000))
        self.resource.register_method("use", lambda user: f"ok[{user}]")
        super().__init__(
            {"login": self.login, "resource": self.resource},
            {"build": self._build, "traffic": self._traffic,
             "collapse": self._collapse,
             "state": lambda _payload: self.state()})
        self._first, self._step = ctx.shard or 0, ctx.shards
        #: Live session ``k`` below is ``s{indices[k]}``: the live
        #: principals lead the stride.
        self.indices = range(0)
        self.session_principals: List[PrincipalId] = []
        self.session_roots: List[Any] = []
        self.session_leaves: List[Any] = []
        self._cursor = 0

    # -- construction -------------------------------------------------------
    def _stride(self, principals: int, live: int) -> range:
        if live > principals:
            raise ValueError("live sessions cannot exceed principals")
        self.indices = range(self._first, principals, self._step)
        self.db.put_many("accounts", [
            {"principal": f"p{index}", "tier": index % 4}
            for index in self.indices])
        return self.indices

    def build_bulk(self, principals: int, live: int) -> None:
        """Build through ``issue_rmcs_bulk`` / ``put_many``."""
        indices = self._stride(principals, live)
        live_count = len(range(self._first, live, self._step))
        for start in range(0, len(indices), self.CHUNK):
            chunk = indices[start:start + self.CHUNK]
            ids = [PrincipalId(f"p{index}") for index in chunk]
            roots = self.login.issue_rmcs_bulk([
                (pid, Role(self.root_role, (pid.value,)), (), f"s{index}")
                for index, pid in zip(chunk, ids)])
            live_ids = ids[:max(0, live_count - start)]
            if live_ids:
                self.session_leaves.extend(self.resource.issue_rmcs_bulk([
                    (pid, Role(self.leaf_role, (pid.value,)),
                     (root.ref,), f"s{index}")
                    for index, pid, root in zip(chunk, live_ids, roots)]))
                self.session_principals.extend(live_ids)
                self.session_roots.extend(roots[:len(live_ids)])

    def build_percall(self, principals: int, live: int) -> None:
        """Reference path: one ``activate_role`` call per credential."""
        for index in self._stride(principals, live):
            pid = PrincipalId(f"p{index}")
            root = self.login.activate_role(
                pid, "root", [pid.value], [], session_id=f"s{index}")
            if index < live:
                self.session_principals.append(pid)
                self.session_roots.append(root)
                self.session_leaves.append(self.resource.activate_role(
                    pid, "leaf", None, [Presentation(root)],
                    session_id=f"s{index}"))

    def _build(self, payload: Mapping[str, Any]) -> Dict[str, int]:
        self.build_bulk(int(payload["principals"]),
                        int(payload.get("live", 0)))
        return {"principals": len(self.indices),
                "live": len(self.session_principals)}

    # -- mixed traffic ------------------------------------------------------
    def _next(self) -> int:
        index = self._cursor % len(self.session_principals)
        self._cursor += 1
        return index

    def invoke_op(self) -> None:
        """A guarded ``use`` by the next live session."""
        index = self._next()
        pid = self.session_principals[index]
        self.resource.invoke(
            pid, "use", [pid.value],
            credentials=[Presentation(self.session_leaves[index])])

    def churn_op(self) -> None:
        """Revoke a live session's leaf and activate a fresh one through
        the full rule path."""
        index = self._next()
        self.resource.revoke(self.session_leaves[index].ref, "churn")
        self.session_leaves[index] = self.resource.activate_role(
            self.session_principals[index], "leaf", None,
            [Presentation(self.session_roots[index])],
            session_id=f"s{self.indices[index]}")

    def root_revoke_op(self) -> None:
        """Log a session out — the root's revocation cascades to its leaf
        across services — and re-issue both."""
        index = self._next()
        pid = self.session_principals[index]
        session = f"s{self.indices[index]}"
        self.login.revoke(self.session_roots[index].ref, "logout")
        root = self.login.issue_rmcs_bulk(
            [(pid, Role(self.root_role, (pid.value,)), (), session)])[0]
        self.session_roots[index] = root
        self.session_leaves[index] = self.resource.issue_rmcs_bulk(
            [(pid, Role(self.leaf_role, (pid.value,)), (root.ref,),
              session)])[0]

    def mixed_op(self) -> None:
        """One step of the 60/30/10 invoke/churn/collapse mix."""
        slot = self._cursor % 10
        if slot < 6:
            self.invoke_op()
        elif slot < 9:
            self.churn_op()
        else:
            self.root_revoke_op()

    def _traffic(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        if not self.session_principals:
            raise RuntimeError("traffic before build (or empty live slice)")
        rounds = int(payload.get("rounds", 3))
        inner = int(payload.get("inner", 100))
        mixed_op = self.mixed_op
        round_us: List[float] = []
        wall_started = time.perf_counter()
        cpu_started = time.process_time()
        for _ in range(rounds):
            started = time.perf_counter()
            for _ in range(inner):
                mixed_op()
            round_us.append((time.perf_counter() - started) / inner * 1e6)
        return {"ops": rounds * inner,
                "wall_s": time.perf_counter() - wall_started,
                "cpu_s": time.process_time() - cpu_started,
                "round_us": round_us}

    def _collapse(self, payload: Mapping[str, Any]) -> int:
        sessions = set(payload["sessions"])
        roots = [root for index, root in zip(self.indices, self.session_roots)
                 if index in sessions]
        for root in roots:
            self.login.revoke(root.ref, "logout")
        return len(roots)

    # -- accounting ---------------------------------------------------------
    def live_credential_count(self) -> int:
        """Active credential records across both services."""
        return (len(self.login.active_credentials())
                + len(self.resource.active_credentials()))

    def state(self) -> Dict[str, Dict[str, bool]]:
        """Observable per-session state, keyed by session id."""
        return {f"s{index}": {"root_active": self.login.is_active(root.ref),
                              "leaf_active": self.resource.is_active(leaf.ref)}
                for index, root, leaf in zip(self.indices, self.session_roots,
                                             self.session_leaves)}
