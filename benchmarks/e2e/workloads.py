"""The four session-level workloads and their always-on correctness oracle.

Every workload runs the same unit of work, a *cycle* = one clinical
session: issue credentials -> activate a dependent role -> 1 cold + N
warm guarded invokes -> revoke the root credential -> probe the farthest
dependent until refused.  All are closed loops with ONE outstanding
request, driven by the single generator thread that calls ``cycle()``:
callers of this system block on a reply.  Ids and op order come from the
seeded ``random.Random``; the program sees only the generated inputs.

Only the public ``repro.*`` API is imported — nothing from
``benchmarks/harness.py``, ``benchmarks/workloads.py`` or the vendored
baselines — so those can be retired without touching this benchmark.
"""

from __future__ import annotations

import os
import random
import shutil
import sqlite3
import sys
import time
from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.core.exceptions import CredentialRevoked, OasisError
from repro.core.policy import ServicePolicy
from repro.core.rules import (ActivationRule, AuthorizationRule,
                              PrerequisiteRole)
from repro.core.service import OasisService, Presentation, ServiceRegistry
from repro.core.state import RECORDS, ServiceStateCodec
from repro.core.terms import Var
from repro.core.types import (PrincipalId, Role, RoleName, RoleTemplate,
                              ServiceId)
from repro.db import SqliteRecordStore
from repro.events import EventBroker
from repro.net import NetworkError
from repro.netd import worlds
from repro.netd.deploy import NodeSpec, Supervisor, free_port
from repro.netd.protocol import RpcError

_clock = time.perf_counter_ns

#: Warm guarded invokes after the cold one, per cycle.
WARM_INVOKES = 8
#: A probe still granted this long after ``revoke()`` breaks the paper's
#: invariant (Sect. 4: revocation takes effect at every dependent service).
SETTLE_DEADLINE_S = 5.0
#: Settled revocations re-probed after every segment.
AUDIT_DEPTH = 16

#: What an expected grant may raise instead of granting: counted as a
#: failed op.  Anything else is a bug and crashes the run.
_OP_ERRORS = (OasisError, NetworkError, RpcError)

HOST = "127.0.0.1"


class OracleViolation(Exception):
    """The paper's invariant broke — not a performance number."""


class _CycleAbandoned(Exception):
    """An expected grant failed; the rest of the session cannot run."""


class Samples:
    """What one timed segment observed."""

    def __init__(self) -> None:
        self.ns: Dict[str, List[int]] = defaultdict(list)
        self.ops = 0      # completed: grants, and refusals that were due
        self.cycles = 0
        #: Probes granted before the revocation settled: attempted, but not
        #: ops of the session script (their number is the settle time).
        self.probes = 0


class Workload:
    name = ""
    #: Cycles per repeating block; segments run whole blocks so per-cycle
    #: counts do not depend on where a segment happened to stop.
    period = 1
    warmup_cycles = 20
    #: Deployment builds per run; ``setup_s`` is their median.
    setups = 3

    def __init__(self, seed: int, scratch: str, traced: bool = False) -> None:
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.traced = traced
        self.samples = Samples()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._serials: set = set()
        self._settled: Deque[Callable[[], Any]] = deque(maxlen=AUDIT_DEPTH)

    def start(self) -> None:
        """Build a fresh deployment; serials and settled revocations
        belong to one deployment's lifetime."""
        self._serials.clear()
        self._settled.clear()
        self.build()

    # -- deployment (overridden) -------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def cycle(self) -> None:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counters, read from the program's own stats."""
        raise NotImplementedError

    def node_clients(self) -> Dict[str, Any]:
        """Connections to the served node processes (none in-process)."""
        return {}

    def finish(self, repeats: int = 1) -> Dict[str, float]:
        """After the timed part: whatever the deployment owes the oracle
        before teardown (the durable workload stops and resumes)."""
        return {}

    def facts(self) -> Dict[str, Any]:
        """Deployment facts recorded beside the numbers."""
        return {}

    # -- the oracle --------------------------------------------------------
    def run_cycle(self) -> None:
        try:
            self.cycle()
        except _CycleAbandoned:
            pass
        self.samples.cycles += 1

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def grant(self, kind: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        """Time one op that must be granted."""
        self.attempted += 1
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        except _OP_ERRORS as error:
            self._fail(f"{kind}: {type(error).__name__}: {error}")
            raise _CycleAbandoned from error
        self.samples.ns[kind].append(_clock() - start)
        self.samples.ops += 1
        return result

    def expect(self, result: Any, wanted: Any) -> None:
        if result != wanted:
            self._fail(f"wrong output: {result!r} != {wanted!r}")

    def issued(self, certificate: Any) -> None:
        """No credential serial repeats within a run."""
        ref = certificate.ref.qualified
        if ref in self._serials:
            raise OracleViolation(f"credential serial reissued: {ref}")
        self._serials.add(ref)

    def revoke_and_settle(self, revoke: Callable[[], bool],
                          probe: Callable[[], Any]) -> None:
        """Revoke the root credential, then probe the farthest dependent
        back to back until it refuses.  Grants before the refusal are the
        revocation still travelling; a transport error is a failure, not
        a refusal."""
        samples = self.samples
        self.attempted += 1
        start = _clock()
        try:
            revoked = revoke()
        except _OP_ERRORS as error:
            self._fail(f"revoke: {type(error).__name__}: {error}")
            raise _CycleAbandoned from error
        samples.ns["revoke"].append(_clock() - start)
        samples.ops += 1
        if not revoked:
            self._fail("revoke reported nothing to revoke")
        deadline = start + int(SETTLE_DEADLINE_S * 1e9)
        while True:
            self.attempted += 1
            try:
                probe()
            except CredentialRevoked:
                samples.ns["settle"].append(_clock() - start)
                samples.ops += 1
                break
            except _OP_ERRORS as error:
                self._fail(f"probe: {type(error).__name__}: {error}")
                raise _CycleAbandoned from error
            samples.probes += 1
            if _clock() > deadline:
                raise OracleViolation(
                    f"{self.name}: probe still granted {SETTLE_DEADLINE_S}s "
                    f"after revoke()")
        self._settled.append(probe)

    def audit(self) -> None:
        """Every post-settle probe is refused with a revocation error."""
        for probe in self._settled:
            self.attempted += 1
            try:
                probe()
            except CredentialRevoked:
                continue
            except _OP_ERRORS as error:
                self._fail(f"audit probe: {type(error).__name__}: {error}")
                continue
            raise OracleViolation(
                f"{self.name}: grant after a settled revocation")

    def _id(self, prefix: str) -> str:
        return f"{prefix}-{self.rng.getrandbits(40):010x}"


def _sum_service_stats(snapshots: Sequence[Dict[str, int]]
                       ) -> Dict[str, float]:
    keys = ("cache_hits", "callbacks_made", "sig_cache_hits",
            "sig_verifications")
    return {key: float(sum(snapshot[key] for snapshot in snapshots))
            for key in keys}


# -- Fig. 3 sessions: one script, two deployments -----------------------------

def _presentations(credentials: Sequence[Any]) -> List[Presentation]:
    return [credential if isinstance(credential, Presentation)
            else Presentation(credential) for credential in credentials]


class LocalClient:
    """The ``OasisClient`` service surface over in-process services, so the
    same session script drives the in-process and the fleet deployment."""

    def __init__(self, services: Dict[str, OasisService]) -> None:
        self._services = services
        self._by_id = {service.id: service for service in services.values()}

    def activate(self, service: str, principal: str, role: str,
                 parameters: Optional[Sequence[Any]] = None,
                 credentials: Sequence[Any] = ()) -> Any:
        return self._services[service].activate_role(
            PrincipalId(principal), role, parameters,
            _presentations(credentials))

    def appoint(self, service: str, appointer: str, name: str,
                parameters: Sequence[Any], credentials: Sequence[Any] = (),
                holder: Optional[str] = None) -> Any:
        return self._services[service].issue_appointment(
            PrincipalId(appointer), name, parameters,
            _presentations(credentials), holder=holder)

    def invoke(self, service: str, principal: str, method: str,
               arguments: Sequence[Any] = (),
               credentials: Sequence[Any] = ()) -> Any:
        return self._services[service].invoke(
            PrincipalId(principal), method, arguments,
            _presentations(credentials))

    def revoke(self, ref: Any, reason: str = "revoked") -> bool:
        return self._by_id[ref.service].revoke(ref, reason)


class _EhrSessions(Workload):
    """appoint ``allocated`` + login -> ``treating_doctor`` activate (two
    credentials validated) -> 1 cold + 8 warm ``request_EHR`` through the
    national gateway -> revoke the allocation -> refused probe."""

    front: Any
    records: Any
    national: Any

    def bootstrap(self) -> None:
        """Once per world: the registrar accredits the hospital gateway,
        the administrator logs in."""
        national, front = self.national, self.front
        registrar = national.activate("registry", "registrar", "registrar")
        accreditation = national.appoint(
            "registry", "registrar", "accredited_hospital",
            ["addenbrookes"], credentials=[registrar], holder="gateway")
        self.gateway = national.activate(
            "patient-records", "gateway", "hospital", ["addenbrookes"],
            credentials=[Presentation(accreditation, holder="gateway")])
        admin_login = front.activate(
            "login", "admin", "logged_in_user", ["admin"])
        self.admin = front.activate(
            "admin", "admin", "administrator", ["admin"],
            credentials=[admin_login])

    def cycle(self) -> None:
        front, national = self.front, self.national
        doctor, patient = self._id("dr"), self._id("pt")

        def allocate() -> Any:
            return self.grant(
                "issue", front.appoint, "admin", "admin", "allocated",
                [doctor, patient], credentials=[self.admin], holder=doctor)

        def login() -> Any:
            return self.grant("issue", front.activate, "login", doctor,
                              "logged_in_user", [doctor])

        if self.rng.random() < 0.5:
            allocation, doctor_login = allocate(), login()
        else:
            doctor_login, allocation = login(), allocate()
        treating = self.grant(
            "activate", self.records.activate, "records", doctor,
            "treating_doctor", [doctor, patient],
            credentials=[doctor_login,
                         Presentation(allocation, holder=doctor)])
        for certificate in (allocation, doctor_login, treating):
            self.issued(certificate)
        credentials = [self.gateway,
                       Presentation(treating, on_behalf_of=doctor)]

        def request_ehr() -> Any:
            return national.invoke("patient-records", "gateway",
                                   "request_EHR", [patient],
                                   credentials=credentials)

        self.expect(self.grant("invoke_cold", request_ehr), [])
        for _ in range(WARM_INVOKES):
            self.expect(self.grant("invoke", request_ehr), [])
        self.revoke_and_settle(
            lambda: front.revoke(allocation.ref, "patient discharged"),
            request_ehr)


class InprocEhrSessions(_EhrSessions):
    """The five Fig. 3 services on one broker and registry in this process,
    no store, no sockets."""

    name = "inproc_ehr_sessions"
    warmup_cycles = 300
    setups = 9  # a build is ~1 ms of world construction: cheap to repeat

    def build(self) -> None:
        ctx = worlds.NodeContext("inproc", EventBroker(), ServiceRegistry(),
                                 None)
        self._services: Dict[str, OasisService] = {}
        for factory in (worlds.ehr_front, worlds.ehr_records,
                        worlds.ehr_national):
            self._services.update(factory(ctx).services)
        self._broker = ctx.broker
        self.front = self.records = self.national = \
            LocalClient(self._services)
        self.bootstrap()

    def teardown(self) -> None:
        self._services = {}

    def counters(self) -> Dict[str, float]:
        found = _sum_service_stats([service.stats.snapshot() for service
                                    in self._services.values()])
        broker = self._broker.stats()
        found["published"] = broker["published_count"]
        found["delivered"] = broker["delivered_count"]
        return found


def _start_fleet(make_specs: Callable[[], List[NodeSpec]]) -> Supervisor:
    """Boot the nodes ``make_specs()`` describes.

    Their stdout goes to /dev/null: they inherit ours, and their readiness
    banners do not belong in the benchmark's output.  ``free_port()`` is
    racy by nature — a port reserved for a later node can be taken as the
    ephemeral port of an earlier node's outgoing connection — so a boot
    that fails is retried on fresh ports."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        for attempt in range(3):
            fleet = Supervisor(make_specs())
            try:
                return fleet.start()
            except (RuntimeError, TimeoutError):
                fleet.stop()
                if attempt == 2:
                    raise
            except BaseException:
                fleet.stop()
                raise
        raise AssertionError("unreachable")
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


def _node_counters(clients: Dict[str, Any]) -> Dict[str, float]:
    """Layer counters of served nodes, over the existing ``stats`` RPC
    (each call is itself one handled request on its node: subtracted)."""
    snapshots = []
    found = {"published": 0.0, "delivered": 0.0, "requests": 0.0,
             "pushed_events": 0.0, "pushed_batches": 0.0}
    for client in clients.values():
        stats = client.stats()
        snapshots.extend(stats["services"].values())
        found["published"] += stats["broker"]["published_count"]
        found["delivered"] += stats["broker"]["delivered_count"]
        found["requests"] += stats["requests"] - 1
        found["pushed_events"] += stats["pump"]["pushed_events"]
        found["pushed_batches"] += stats["pump"]["pushed_batches"]
    found.update(_sum_service_stats(snapshots))
    return found


class _ServedNodes(Workload):
    """A deployment of served node processes under a ``Supervisor``."""

    fleet: Optional[Supervisor] = None

    def teardown(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None

    def counters(self) -> Dict[str, float]:
        return _node_counters(self.node_clients())


def _world(traced: bool, factory: str) -> str:
    module = "traced_worlds" if traced else "repro.netd.worlds"
    return f"{module}:{factory}"


class FleetEhrSessions(_ServedNodes, _EhrSessions):
    """The same script against the three-process Fig. 3 fleet: every op an
    RPC, validation by callback over TCP, revocation over two event hops."""

    name = "fleet_ehr_sessions"
    warmup_cycles = 30

    def _specs(self) -> List[NodeSpec]:
        ports = {name: free_port()
                 for name in ("front", "records", "national")}
        return [
            NodeSpec("front", ports["front"],
                     _world(self.traced, "ehr_front")),
            NodeSpec("records", ports["records"],
                     _world(self.traced, "ehr_records"),
                     peers={"front": (HOST, ports["front"])},
                     subscribe=("front",)),
            NodeSpec("national", ports["national"],
                     _world(self.traced, "ehr_national"),
                     peers={"records": (HOST, ports["records"])},
                     subscribe=("records",)),
        ]

    def build(self) -> None:
        self.fleet = _start_fleet(self._specs)
        # Three connections, used strictly one at a time.
        self.front = self.fleet.client("front")
        self.records = self.fleet.client("records")
        self.national = self.fleet.client("national")
        self.bootstrap()

    def node_clients(self) -> Dict[str, Any]:
        return {"front": self.front, "records": self.records,
                "national": self.national}

    def facts(self) -> Dict[str, Any]:
        return {"link": "loopback TCP on one host, not a real link",
                "node_processes": 3}


# -- served RPC mix -----------------------------------------------------------

class ServedRpcMix(_ServedNodes):
    """A trivial policy behind one served node and one blocking client:
    ping -> activate -> 1 cold + 8 warm echo invokes -> is_active -> revoke
    -> refused probe; every ``period``-th cycle one bulk activation."""

    name = "served_rpc_mix"
    period = 50
    warmup_cycles = 50
    BULK = 256

    def build(self) -> None:
        self.fleet = _start_fleet(lambda: [NodeSpec(
            "node", free_port(), _world(self.traced, "bench_world"))])
        self.client = self.fleet.client("node")
        self._cycle_index = 0

    def node_clients(self) -> Dict[str, Any]:
        return {"node": self.client}

    def facts(self) -> Dict[str, Any]:
        return {"link": "loopback TCP on one host, not a real link",
                "node_processes": 1, "bulk_size": self.BULK,
                "bulk_every_cycles": self.period}

    def cycle(self) -> None:
        client = self.client
        user = self._id("u")
        active_first = self.rng.random() < 0.5
        self.grant("ping", client.ping)
        rmc = self.grant("activate", client.activate, "svc", user, "user",
                         [user])
        self.issued(rmc)
        if active_first:
            self.expect(self.grant("query", client.is_active, rmc.ref), True)

        def echo() -> Any:
            return client.invoke("svc", user, "echo", [user],
                                 credentials=[rmc])

        self.expect(self.grant("invoke_cold", echo), user)
        for _ in range(WARM_INVOKES):
            self.expect(self.grant("invoke", echo), user)
        if not active_first:
            self.expect(self.grant("query", client.is_active, rmc.ref), True)
        self.revoke_and_settle(
            lambda: client.revoke(rmc.ref, "session over"), echo)
        self._cycle_index += 1
        if self._cycle_index % self.period == 0:
            names = [f"{user}-{index}" for index in range(self.BULK)]
            certificates = self.grant(
                "bulk", client.activate_bulk, "svc",
                [{"principal": name, "role": "user", "parameters": [name]}
                 for name in names])
            for certificate in certificates:
                self.issued(certificate)


# -- durable chain ------------------------------------------------------------

class DurableChainRevoke(Workload):
    """Fig. 5 depth-16 chain, each service on its own sqlite file: 16
    chained activates -> 1 cold + 4 warm leaf invokes -> revoke the root
    (16 journalled cascades) -> refused probe; ends with a cold resume."""

    name = "durable_chain_revoke"
    warmup_cycles = 10
    DEPTH = 16
    PRELOAD = 50_000
    WARM = 4

    def __init__(self, seed: int, scratch: str, traced: bool = False) -> None:
        super().__init__(seed, scratch, traced)
        self._builds = 0
        self._dir: Optional[str] = None
        self._recent: Deque[List[Any]] = deque(maxlen=AUDIT_DEPTH)
        self.services: List[OasisService] = []

    def _policies(self) -> List[ServicePolicy]:
        policies = []
        previous: Optional[RoleTemplate] = None
        for level in range(self.DEPTH):
            policy = ServicePolicy(ServiceId("chain", f"svc-{level}"))
            role = RoleTemplate(policy.define_role("role", 1), (Var("u"),))
            conditions = () if previous is None else (
                PrerequisiteRole(previous, membership=True),)
            policy.add_activation_rule(ActivationRule(role, conditions))
            previous = role
            policies.append(policy)
        policies[-1].add_authorization_rule(AuthorizationRule(
            "read", (Var("u"),), (PrerequisiteRole(previous),)))
        return policies

    def _open(self, resume: bool) -> List[OasisService]:
        broker, registry = EventBroker(), ServiceRegistry()
        services = []
        for level, policy in enumerate(self._policies()):
            store = SqliteRecordStore(
                os.path.join(self._dir, f"svc-{level}.db"),
                codec=ServiceStateCodec())
            if resume:
                service = OasisService.resume(store, policy, broker,
                                              registry, clock=time.time)
            else:
                service = OasisService(policy, broker, registry,
                                       clock=time.time, store=store)
            services.append(service)
        services[-1].register_method("read", lambda user: user)
        self._broker = broker
        return services

    def build(self) -> None:
        self._builds += 1
        self._dir = os.path.join(self.scratch, f"stores-{self._builds}")
        os.makedirs(self._dir)
        self.services = self._open(resume=False)
        leaf = self.services[-1]
        role_name = RoleName(leaf.id, "role")
        leaf.issue_rmcs_bulk([
            (PrincipalId(f"pre-{index}"), Role(role_name, (f"pre-{index}",)),
             (), None) for index in range(self.PRELOAD)])
        leaf.checkpoint()

    def teardown(self) -> None:
        for service in self.services:
            service.store.close()
        self.services = []
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)

    def _session(self, user: str) -> List[Any]:
        """16 chained activates; returns the chain's certificates."""
        principal = PrincipalId(user)
        rmc = self.grant("issue", self.services[0].activate_role, principal,
                         "role", [user])
        chain = [rmc]
        for service in self.services[1:]:
            rmc = self.grant("activate", service.activate_role, principal,
                             "role", [user], [Presentation(rmc)])
            chain.append(rmc)
        for certificate in chain:
            self.issued(certificate)
        return chain

    @staticmethod
    def _reader(leaf: OasisService, user: str,
                certificate: Any) -> Callable[[], Any]:
        principal = PrincipalId(user)
        credentials = [Presentation(certificate)]
        return lambda: leaf.invoke(principal, "read", [user], credentials)

    def cycle(self) -> None:
        user = self._id("u")
        chain = self._session(user)
        read = self._reader(self.services[-1], user, chain[-1])
        self.expect(self.grant("invoke_cold", read), user)
        for _ in range(self.WARM):
            self.expect(self.grant("invoke", read), user)
        root = self.services[0]
        self.revoke_and_settle(
            lambda: root.revoke(chain[0].ref, "session over"), read)
        self._recent.append([user, chain])

    def counters(self) -> Dict[str, float]:
        found = _sum_service_stats([service.stats.snapshot()
                                    for service in self.services])
        broker = self._broker.stats()
        found["published"] = broker["published_count"]
        found["delivered"] = broker["delivered_count"]
        for key in ("puts", "flushes", "durable_commits"):
            found[key] = float(sum(service.store.stats()["ops"][key]
                                   for service in self.services))
        return found

    def facts(self) -> Dict[str, Any]:
        store = self.services[0].store
        connection = sqlite3.connect(store.path)
        try:
            pragmas = {name: connection.execute(
                f"PRAGMA {name}").fetchone()[0]
                for name in ("journal_mode", "page_size")}
        finally:
            connection.close()
        # ``synchronous`` is per connection: the store sets NORMAL on its
        # own (repro.db.sqlite_store), a fresh connection would say FULL.
        pragmas["synchronous"] = "NORMAL (set by SqliteRecordStore)"
        return {"sqlite_version": sqlite3.sqlite_version,
                "sqlite_pragmas": pragmas,
                "flush_policy": f"write-behind records, flushed every "
                                f"{store.flush_every} pending writes; "
                                f"cascade journal committed per append",
                "services": self.DEPTH, "preloaded_records": self.PRELOAD,
                "store_files": "one sqlite file per service"}

    def finish(self, repeats: int = 1) -> Dict[str, float]:
        """Close every store, then ``OasisService.resume`` all 16 services
        and ``replay_pending()``, ``repeats`` times over the same files.
        After each: every revoked record is still revoked, every live one
        still validates.  Returns the median resume time and what was
        resumed."""
        live_user = self._id("live")
        live = self._session(live_user)
        records = sum(service.store.count(RECORDS)
                      for service in self.services)
        for service in self.services:
            service.store.close()
        self.services = []
        size = sum(os.path.getsize(os.path.join(self._dir, name))
                   for name in os.listdir(self._dir))
        times = []
        for _ in range(repeats):
            start = _clock()
            services = self._open(resume=True)
            for service in services:
                service.replay_pending()
            times.append((_clock() - start) / 1e9)
            try:
                self._check_resumed(services, live_user, live)
            finally:
                for service in services:
                    service.store.close(flush=False)
        times.sort()
        return {"resume_s": times[len(times) // 2],
                "records": float(records), "store_bytes": float(size)}

    def _check_resumed(self, services: List[OasisService], live_user: str,
                       live: List[Any]) -> None:
        leaf = services[-1]
        self.attempted += 1
        try:
            self.expect(self._reader(leaf, live_user, live[-1])(), live_user)
        except _OP_ERRORS as error:
            raise OracleViolation(
                f"live credential refused after resume: {error}") from error
        for user, chain in self._recent:
            for service, certificate in zip(services, chain):
                if service.is_active(certificate.ref):
                    raise OracleViolation(
                        f"{certificate.ref} revoked before the stop is "
                        f"active after resume")
            self.attempted += 1
            try:
                self._reader(leaf, user, chain[-1])()
            except CredentialRevoked:
                continue
            raise OracleViolation(
                f"grant after resume on revoked {chain[-1].ref}")


WORKLOADS = {workload.name: workload for workload in (
    InprocEhrSessions, DurableChainRevoke, ServedRpcMix, FleetEhrSessions)}
