"""Shard worker: one process hosting one partition of the universe.

A worker holds a *full replica of the policy world* (every service's
rules, methods and secrets are rebuilt locally by the world factory) but
only *its partition of the security state*: each service gets a
:class:`~repro.shard.partition.ShardedRefAllocator`, so every credential
record a worker holds has a ref that hashes to its own shard.  Requests
reach the worker as small dict messages over a ``multiprocessing`` pipe;
certificates cross as :mod:`repro.core.wire` payloads, events as
:meth:`~repro.events.messages.Event.to_payload` dicts, and CRRs as
:func:`~repro.core.state.ref_payload` dicts — nothing process-local ever
crosses the boundary, which is what lets the interned
``ServiceId``/``RoleName`` ``__reduce__`` paths land ``is``-identical on
the far side.

The service ops a worker answers (``activate`` … ``checkpoint``) are the
table of :mod:`repro.netd.ops` — the same one a socket server answers —
with this worker's ``link_dependencies`` step passed in as its
``issued`` hook.  Only the shard-only ops are defined here:
``issue_bulk``, ``bus.cascade`` / ``bus.link``, ``live_count``,
``stats``, ``ping``, ``shutdown``.

The worker never talks to its siblings directly: outgoing cross-shard
messages (link registrations, coalesced cascade batches) accumulate on
its :class:`~repro.shard.bus.CrossShardBus` and ride back to the
coordinator on the next response's ``bus`` field; the coordinator routes
them (see :mod:`repro.shard.router`).  That keeps the worker loop a pure
request/response automaton — no cross-worker deadlocks by construction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..core import wire
from ..core.credentials import CredentialRef
from ..core.policy import ServicePolicy
from ..core.service import OasisService, ServiceRegistry
from ..core.state import ServiceStateCodec, ref_from_payload
from ..core.types import PrincipalId, Role, RoleName
from ..db import default_store
from ..netd.ops import ServiceOps
from ..netd.protocol import error_payload
from ..obs.runtime import Observability, disable, enable
from .bus import CrossShardBus, ShardBroker
from .partition import ShardedRefAllocator, shard_of_ref

__all__ = ["ShardContext", "ShardWorker", "worker_main"]


class ShardContext:
    """What a world factory needs to build shard-correct services."""

    def __init__(self, shard: int, shards: int, broker: ShardBroker,
                 registry: ServiceRegistry,
                 clock: Callable[[], float] = lambda: 0.0) -> None:
        self.shard = shard
        self.shards = shards
        self.broker = broker
        self.bus = broker.bus
        self.registry = registry
        self.clock = clock

    def allocator(self, policy: ServicePolicy) -> ShardedRefAllocator:
        return ShardedRefAllocator(policy.service, self.shard, self.shards)

    def store(self, policy: ServicePolicy) -> Optional[Any]:
        """The env-selected record store for one service, shard-templated.

        In sharded mode the sqlite backend *requires* a durable
        ``OASIS_STORE_PATH`` template (see :mod:`repro.db`) — this is
        where that strictness bites.
        """
        return default_store(ServiceStateCodec(), shard=self.shard,
                             service=str(policy.service))

    def service(self, policy: ServicePolicy, **kwargs: Any) -> OasisService:
        """Build an :class:`OasisService` wired for this shard."""
        kwargs.setdefault("clock", self.clock)
        kwargs.setdefault("store", self.store(policy))
        return OasisService(policy, self.broker, self.registry,
                            allocator=self.allocator(policy),
                            **kwargs)

    # -- cross-shard dependency edges ---------------------------------------
    def owner_of(self, ref: CredentialRef) -> int:
        return shard_of_ref(ref, self.shards)

    def link_dependencies(self,
                          dependencies: Sequence[CredentialRef]) -> None:
        """Register this shard as a dependent holder with each foreign
        dependency's owner (no-op for locally owned deps)."""
        for dep in dependencies:
            owner = shard_of_ref(dep, self.shards)
            if owner != self.shard:
                self.bus.link_dependency(dep.qualified, owner)


class ShardWorker:
    """The request-dispatching core of one shard worker.

    Usable in-process (deterministic tests drive :meth:`dispatch`
    directly) or as the engine of a child process (:func:`worker_main`).
    The world ``factory`` is a module-level callable
    ``factory(ctx, *factory_args)`` returning an object with a
    ``services`` mapping (``key -> OasisService``) and an optional
    ``handlers`` mapping (``name -> callable(payload)``) for world-side
    bulk operations such as benchmark traffic.
    """

    def __init__(self, shard: int, shards: int,
                 factory: Callable[..., Any],
                 factory_args: Sequence[Any] = (),
                 observed: bool = False) -> None:
        self.shard = shard
        self.shards = shards
        self.pipeline: Optional[Observability] = None
        if observed:
            # Per-worker pipeline with shard-prefixed span ids: workers
            # mint globally unique ids that the coordinator can merge.
            self.pipeline = Observability(trace_id_prefix=f"w{shard}.")
            enable(self.pipeline)
        try:
            self.bus = CrossShardBus(shard, shards)
            self.broker = ShardBroker(self.bus)
            self.registry = ServiceRegistry()
            self.context = ShardContext(shard, shards, self.broker,
                                        self.registry)
            self.world = factory(self.context, *factory_args)
        finally:
            if observed:
                # Services snapshot the pipeline at construction; the
                # module-level current pipeline need not stay set (and in
                # in-process multi-worker tests it must not leak).
                disable()
        self.services: Dict[str, OasisService] = dict(self.world.services)
        self.handlers: Dict[str, Callable[[Any], Any]] = \
            dict(getattr(self.world, "handlers", None) or {})
        self._ops = ServiceOps(f"worker {shard}", self.services,
                               self.handlers, self.pipeline,
                               issued=self._link_issued)
        self.requests = 0

    # -- operations ---------------------------------------------------------
    def dispatch(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Execute one request; always returns a response dict carrying
        the drained cross-shard outbox (even on error — a failed batch
        may have produced partial forwards that must still settle)."""
        self.requests += 1
        try:
            value = self._execute(message)
            response: Dict[str, Any] = {"seq": message.get("seq"),
                                        "ok": True, "value": value}
        except Exception as error:  # noqa: BLE001 - crosses the pipe
            response = {"seq": message.get("seq"), "ok": False,
                        "error": error_payload(error)}
        response["bus"] = self.bus.drain()
        return response

    def _execute(self, message: Mapping[str, Any]) -> Any:
        """The shard-only ops; everything else is the shared table of
        :mod:`repro.netd.ops`."""
        op = message["op"]
        if op == "issue_bulk":
            return self._op_issue_bulk(message)
        if op == "live_count":
            return {"counts": {key: len(service.active_credentials())
                               for key, service in self.services.items()}}
        if op == "stats":
            return self.stats()
        if op == "bus.cascade":
            return {"delivered":
                    self.broker.deliver_remote(message["events"])}
        if op == "bus.link":
            return {"registered": self.bus.register_remote_links(
                (ref, int(shard)) for ref, shard in message["links"])}
        if op == "ping":
            return {"shard": self.shard}
        if op == "shutdown":  # the child loop exits after answering
            return None
        return self._ops.execute(op, message)

    def _role(self, service: OasisService,
              name: str, parameters: Sequence[Any]) -> Role:
        return Role(RoleName(service.id, name), tuple(parameters))

    def _op_issue_bulk(self, message: Mapping[str, Any]) -> Any:
        service = self._ops.service(message["service"])
        entries = []
        all_deps: List[CredentialRef] = []
        for entry in message["entries"]:
            dependencies = tuple(ref_from_payload(dep)
                                 for dep in entry.get("dependencies", ()))
            all_deps.extend(dependencies)
            entries.append((PrincipalId(entry["principal"]),
                            self._role(service, entry["role"],
                                       entry.get("parameters", ())),
                            dependencies, entry.get("session")))
        certificates = service.issue_rmcs_bulk(entries)
        self.context.link_dependencies(all_deps)
        return {"certs": [wire.encode_certificate(certificate)
                          for certificate in certificates]}

    def _link_issued(self, service: OasisService, certificate: Any) -> None:
        """The ``issued`` hook of the shared op table: register this
        shard with the owners of the new credential's foreign
        membership dependencies."""
        record = service.credential_record(certificate.ref)
        if record is not None and record.membership_dependencies:
            self.context.link_dependencies(record.membership_dependencies)

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        revocations = 0
        live = 0
        service_stats: Dict[str, Any] = {}
        for key, service in self.services.items():
            snapshot = service.stats.snapshot()
            service_stats[key] = snapshot
            # ``revocations`` already includes the cascaded ones;
            # ``cascade_revocations`` is the subset, not an addend.
            revocations += snapshot.get("revocations", 0)
            live += len(service.active_credentials())
        broker_stats = self.broker.stats()
        published = broker_stats.get("published_count", 0)
        return {
            "shard": self.shard,
            "requests": self.requests,
            "revocations": revocations,
            "live_credentials": live,
            "events_published": published,
            "services": service_stats,
            "broker": broker_stats,
            "bus": self.bus.stats(),
        }


def worker_main(conn: Any, shard: int, shards: int,
                factory: Callable[..., Any], factory_args: Sequence[Any],
                observed: bool) -> None:
    """Child-process entry point: build the worker, serve the pipe."""
    try:
        worker = ShardWorker(shard, shards, factory, factory_args,
                             observed=observed)
    except Exception as error:  # noqa: BLE001 - surface construction failure
        conn.send({"seq": None, "ok": False, "error": error_payload(error),
                   "bus": []})
        conn.close()
        return
    conn.send({"seq": None, "ok": True, "value": {"shard": shard},
               "bus": []})
    try:
        while True:
            message = conn.recv()
            conn.send(worker.dispatch(message))
            if message.get("op") == "shutdown":
                break
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()
