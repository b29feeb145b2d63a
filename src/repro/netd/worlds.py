"""World factories for served nodes: build the services one process hosts.

A served process is handed a :class:`NodeContext` (broker, registry,
:class:`~repro.netd.client.RemoteNetwork`, wall clock, optional state
directory, and — for a ``--shard I/N`` node — the partition it owns) and
a factory ``factory(ctx, *args)`` returning an object with a
``services`` mapping and optionally a ``handlers`` mapping.  It is the
only world contract there is: the shard worlds of
:mod:`repro.shard.worlds` are built on the same context.

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

Cross-service references (the admin service's id in the records policy,
the foreign ``treating_doctor`` role in the national policy) are plain
identifiers — :class:`~repro.core.types.ServiceId` /
:class:`~repro.core.types.RoleName` — so no node needs another node's
live objects.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from ..core.policy import ServicePolicy
from ..core.rules import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    PrerequisiteRole,
)
from ..core.service import OasisService, ServiceRegistry
from ..core.state import META, ServiceStateCodec
from ..core.terms import Var
from ..core.types import RoleName, RoleTemplate, ServiceId
from ..db import Database, default_store
from ..events import EventBroker

__all__ = ["NodeContext", "World", "resolve_factory",
           "ehr_front", "ehr_records", "ehr_national", "bench_world"]


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

    def store(self, policy: ServicePolicy) -> Optional[Any]:
        """The env-selected store, with the served on-disk default: a
        sqlite backend without an explicit path lands in this node's
        state directory instead of ``:memory:`` (see :mod:`repro.db`).
        A shard node passes its index, which switches on the strict
        rules there: sqlite *requires* a durable ``{shard}``-templated
        ``OASIS_STORE_PATH``."""
        return default_store(ServiceStateCodec(), shard=self.shard,
                             service=str(policy.service),
                             state_dir=self.state_dir)

    def service(self, policy: ServicePolicy,
                databases: Optional[Dict[str, Database]] = None,
                **kwargs: Any) -> OasisService:
        """Build — or, when the store already holds state, *resume* — an
        :class:`OasisService` wired for this node.

        Resume detection peeks at the store's META ``secret`` record:
        its presence means a previous incarnation issued certificates
        under that signing secret, and a killed-and-restarted server
        must keep verifying them.  Journalled cascades cut mid-publish
        are re-emitted by :func:`~repro.netd.deploy.boot_world` once
        every service of the world exists, so each dependent service is
        subscribed when they arrive.  On a shard node either branch mints
        only serials whose ref hashes to this shard."""
        store = self.store(policy)
        if self.shard is not None:
            # Imported here: repro.shard's router imports netd.deploy.
            from ..shard.partition import ShardedRefAllocator
            kwargs["allocator"] = ShardedRefAllocator(
                policy.service, self.shard, self.shards)
        if store is not None and store.get(META, "secret") is not None:
            return OasisService.resume(
                store, policy, self.broker, self.registry,
                clock=self.clock, databases=databases,
                network=self.network, **kwargs)
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

LOGIN_ID = ServiceId(HOSPITAL, "login")
ADMIN_ID = ServiceId(HOSPITAL, "admin")
RECORDS_ID = ServiceId(HOSPITAL, "records")
REGISTRY_ID = ServiceId(NATIONAL, "registry")
NATIONAL_ID = ServiceId(NATIONAL, "patient-records")

_LOGGED_IN = RoleName(LOGIN_ID, "logged_in_user")
_TREATING = RoleName(RECORDS_ID, "treating_doctor")


def _login_policy() -> ServicePolicy:
    policy = ServicePolicy(LOGIN_ID)
    logged_in = policy.define_role("logged_in_user", 1)
    policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    return policy


def _admin_policy() -> ServicePolicy:
    policy = ServicePolicy(ADMIN_ID)
    administrator = policy.define_role("administrator", 1)
    policy.add_activation_rule(ActivationRule(
        RoleTemplate(administrator, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(_LOGGED_IN, (Var("u"),)),
                          membership=True),)))
    policy.add_appointment_rule(AppointmentRule(
        "allocated", (Var("d"), Var("p")),
        (PrerequisiteRole(RoleTemplate(administrator, (Var("a"),))),)))
    return policy


def _records_policy() -> ServicePolicy:
    policy = ServicePolicy(RECORDS_ID)
    treating = policy.define_role("treating_doctor", 2)
    policy.add_activation_rule(ActivationRule(
        RoleTemplate(treating, (Var("d"), Var("p"))),
        (PrerequisiteRole(RoleTemplate(_LOGGED_IN, (Var("d"),)),
                          membership=True),
         AppointmentCondition(ADMIN_ID, "allocated", (Var("d"), Var("p")),
                              membership=True))))
    policy.add_authorization_rule(AuthorizationRule(
        "read_record", (Var("p"),),
        (PrerequisiteRole(RoleTemplate(treating, (Var("d"), Var("p")))),)))
    return policy


def _registry_policy() -> ServicePolicy:
    policy = ServicePolicy(REGISTRY_ID)
    registrar = policy.define_role("registrar", 0)
    policy.add_activation_rule(ActivationRule(RoleTemplate(registrar)))
    policy.add_appointment_rule(AppointmentRule(
        "accredited_hospital", (Var("h"),),
        (PrerequisiteRole(RoleTemplate(registrar)),)))
    return policy


def _national_policy() -> ServicePolicy:
    policy = ServicePolicy(NATIONAL_ID)
    hospital_role = policy.define_role("hospital", 1)
    policy.add_activation_rule(ActivationRule(
        RoleTemplate(hospital_role, (Var("h"),)),
        (AppointmentCondition(REGISTRY_ID, "accredited_hospital",
                              (Var("h"),), membership=True),)))
    treating_foreign = RoleTemplate(_TREATING, (Var("d"), Var("p")))
    for method, params in (("request_EHR", (Var("p"),)),
                           ("append_to_EHR", (Var("p"), Var("entry")))):
        policy.add_authorization_rule(AuthorizationRule(
            method, params,
            (PrerequisiteRole(RoleTemplate(hospital_role, (Var("h"),))),
             PrerequisiteRole(treating_foreign))))
    return policy


# -- node factories -----------------------------------------------------------

def ehr_front(ctx: NodeContext) -> World:
    """Hospital front node: login + admin."""
    login = ctx.service(_login_policy())
    admin = ctx.service(_admin_policy())
    return World({"login": login, "admin": admin})


def ehr_records(ctx: NodeContext) -> World:
    """Hospital records node: ``treating_doctor``."""
    records = ctx.service(_records_policy())
    store: Dict[str, list] = {}
    records.register_method("read_record",
                            lambda pat: list(store.get(pat, [])))
    return World({"records": records})


def ehr_national(ctx: NodeContext) -> World:
    """National EHR node: registry + patient record management."""
    registry = ctx.service(_registry_policy())
    national = ctx.service(_national_policy())
    ehr_store: Dict[str, list] = {"p1": ["2019: appendectomy",
                                         "2023: allergy noted"]}
    national.register_method("request_EHR",
                             lambda p: list(ehr_store.get(p, [])))
    national.register_method(
        "append_to_EHR",
        lambda p, entry: ehr_store.setdefault(p, []).append(entry)
        or "done")
    return World({"registry": registry, "patient-records": national})


# -- benchmark world ----------------------------------------------------------

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
