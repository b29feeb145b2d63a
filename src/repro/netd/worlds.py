"""World factories for served nodes: build the services one process hosts.

A served process is handed a :class:`NodeContext` (broker, registry,
:class:`~repro.netd.client.RemoteNetwork`, wall clock, optional state
directory, and — for a ``--shard I/N`` node — the partition it owns) and
a factory ``factory(ctx, *args)`` returning an object with a
``services`` mapping and optionally a ``handlers`` mapping.  It is the
only world contract there is: the same factory runs served, sharded, in
one process on a context with no network, and on a simulated
:class:`~repro.domains.Deployment` (a ``NodeContext`` on a simulated
clock and network); the paper's scenarios (:mod:`repro.scenarios`) are
factories too.

Every node compiles the *policies* it needs locally from the ``.oasis``
files shipped in ``policies/`` beside this module, but hosts only its own
services: the Fig. 3 EHR deployment (``policies/ehr/``) splits into

* :func:`ehr_front` — hospital ``login`` + ``admin`` (issues the
  ``allocated`` appointment, the cascade's root);
* :func:`ehr_records` — hospital ``records`` with ``treating_doctor``,
  whose activation validates the login RMC and allocation appointment
  by callback *over TCP* to the front node;
* :func:`ehr_national` — national ``registry`` + ``patient-records``,
  validating treating RMCs by callback to the records node and caching
  the results (the ECRs).

Those files are the only copies of the Fig. 3 rules and the texts CI's
strict ``lint`` and ``verify`` gates read, so what a node serves is what
was analysed; :func:`chain` generates the Fig. 5 chain's text.
Cross-service references (the admin service in the records policy, the
foreign ``treating_doctor`` role in the national one) are names in that
text, so no node needs another node's live objects.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..core.access_log import AccessLog
from ..core.constraints import ConstraintRegistry
from ..core.policy import ServicePolicy
from ..core.service import OasisService, Presentation, ServiceRegistry
from ..core.state import ServiceStateCodec
from ..core.types import PrincipalId, Role, RoleName
from ..db import Database, default_store
from ..events import EventBroker
from ..policy import parse_policy

__all__ = ["NodeContext", "World", "resolve_factory",
           "ehr_front", "ehr_records", "ehr_national", "bench_world",
           "POLICY_DIR", "shipped_policy", "patient_records_for",
           "chain", "ScaleWorld"]


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


# -- the shipped policies -----------------------------------------------------

#: The ``.oasis`` files the worlds serve (package data): the same texts
#: CI's strict ``lint`` and ``verify`` gates read.
POLICY_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "policies")

HOSPITAL = "hospital"
NATIONAL = "national-ehr"


def shipped_policy(name: str,
                   registry: Optional[ConstraintRegistry] = None,
                   domains: Optional[Mapping[str, str]] = None
                   ) -> ServicePolicy:
    """Compile ``policies/<name>.oasis`` (``"ehr/login"``, say): its
    ``where`` atoms bound by ``registry``, its domains renamed by
    ``domains``."""
    path = os.path.join(POLICY_DIR, f"{name}.oasis")
    with open(path, "r", encoding="utf-8") as handle:
        return parse_policy(handle.read(), registry, domains=domains)


def patient_records_for(hospitals: Sequence[str] = (HOSPITAL,),
                           domain: str = NATIONAL) -> ServicePolicy:
    """``ehr/patient-records`` for ``hospitals``: the file compiled once
    per hospital, with the later compiles' authorization rules appended
    to the first's."""
    first, *others = [
        shipped_policy("ehr/patient-records",
                       domains={HOSPITAL: hospital, NATIONAL: domain})
        for hospital in hospitals]
    for other in others:
        for method in other.guarded_methods:
            for rule in other.authorization_rules_for(method):
                first.add_authorization_rule(rule)
    return first


def chain(depth: int) -> List[ServicePolicy]:
    """The Fig. 5 chain (Fig. 1's role dependency, repeated), compiled
    from generated text: ``dom/svc-0`` grants a free ``role``, and
    ``svc-i``'s requires ``svc-(i-1)``'s as a membership condition, so
    revoking the root collapses every hop."""
    return [parse_policy(
        f"service dom/svc-{level}\n\nrole role(u)\n\nactivate role(u)"
        + (f" <-\n    dom/svc-{level - 1}:role(u)*\n" if level else "\n"))
        for level in range(depth + 1)]


# -- node factories -----------------------------------------------------------

def ehr_front(ctx: NodeContext) -> World:
    """Hospital front node: login + admin."""
    login = ctx.service(shipped_policy("ehr/login"))
    admin = ctx.service(shipped_policy("ehr/admin"))
    return World({"login": login, "admin": admin})


def ehr_records(ctx: NodeContext) -> World:
    """Hospital records node: ``treating_doctor``."""
    records = ctx.service(shipped_policy("ehr/records"))
    store: Dict[str, list] = {}
    records.register_method("read_record",
                            lambda pat: list(store.get(pat, [])))
    return World({"records": records})


def ehr_national(ctx: NodeContext) -> World:
    """National EHR node: registry + patient record management."""
    registry = ctx.service(shipped_policy("ehr/registry"))
    national = ctx.service(patient_records_for())
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
    service = ctx.service(shipped_policy("bench/svc"))
    service.register_method("echo", lambda x: x)
    return World({"svc": service})


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
        login = shipped_policy("scale/login")
        resource = shipped_policy("scale/resource")
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
