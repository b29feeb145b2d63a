"""Shard coordinator: request fan-out, bus routing, metric/trace merging.

The :class:`ShardRouter` owns N workers (child processes over
``multiprocessing`` pipes by default; in-process :class:`ShardWorker`
objects with ``inprocess=True`` for deterministic single-interpreter
tests) and is the only component that talks to more than one shard:

* **request routing** — ``issue/activate/invoke/revoke`` go to the
  owning shard: by ``CredentialRef`` hash when a ref (or a presented
  credential) pins the request, by session/principal key hash otherwise.
  Bulk entry points are batch-aware: entries are grouped per shard and
  travel as one ``issue_rmcs_bulk``/``activate_roles_bulk`` message per
  shard, results reassembled in caller order.  Message fields are built
  by the encoders of :mod:`repro.netd.ops`, the single definition of
  the service ops' wire form.
* **bus routing** — every worker response carries that worker's drained
  :class:`~repro.shard.bus.CrossShardBus` outbox; the router forwards
  each message to its target shard and breadth-first drains any messages
  *those* deliveries produce.  A cross-shard cascade therefore settles
  completely before the originating call returns — callers observe the
  same synchronous-cascade semantics as the single-process service.
* **merging** — per-shard stats become coordinator-level
  ``oasis_shard_*`` metric families (registerable as a collector on an
  :class:`~repro.obs.runtime.Observability` pipeline), and worker span
  exports merge into one tracer via :meth:`~repro.obs.tracing.Tracer.adopt`
  so a multi-worker cascade renders as a single trace tree.

Responses are matched to requests by sequence number, not arrival order:
when routing a cascade hop to a worker that still owes an earlier
response, the earlier response is stashed until its caller collects it.
Workers process their pipe strictly in order, so this never deadlocks.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..core import wire
from ..core.credentials import CredentialRef
from ..core.service import ActivationRequest, Presentation
from ..core.state import ref_payload
from ..core.types import PrincipalId
from ..netd.ops import activation_payload, presentation_payloads
from ..obs.runtime import Observability
from ..obs.tracing import Tracer
from .partition import shard_of_key, shard_of_ref
from .worker import ShardWorker, worker_main

__all__ = ["ShardRouter", "ShardRequestError", "START_METHOD_ENV"]

#: Environment override for the multiprocessing start method
#: (``fork``/``spawn``/``forkserver``); defaults to ``fork`` when the
#: platform offers it (cheapest), ``spawn`` otherwise.
START_METHOD_ENV = "OASIS_SHARD_START_METHOD"


class ShardRequestError(RuntimeError):
    """A worker-side exception, re-raised at the coordinator.

    ``error_type`` preserves the worker-side exception class name
    (``ActivationDenied``, ``InvocationDenied``, ...) so callers can
    branch on the access-control outcome without sharing exception
    objects across the pipe.
    """

    def __init__(self, shard: int, error_type: str, message: str) -> None:
        super().__init__(f"shard {shard}: {error_type}: {message}")
        self.shard = shard
        self.error_type = error_type
        self.detail = message


def _value(shard: int, response: Mapping[str, Any]) -> Any:
    """A worker response's value, or its error re-raised here."""
    if not response["ok"]:
        error = response["error"]
        raise ShardRequestError(shard, error["type"], error["message"])
    return response["value"]


class _WorkerHandle:
    """Seq-matched request/response channel to one worker."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self._seq = 0
        self._stash: Dict[int, Dict[str, Any]] = {}

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def send(self, message: Dict[str, Any]) -> int:
        raise NotImplementedError

    def recv(self, seq: int) -> Dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class _InprocessHandle(_WorkerHandle):
    def __init__(self, shard: int, worker: ShardWorker) -> None:
        super().__init__(shard)
        self.worker = worker

    def send(self, message: Dict[str, Any]) -> int:
        seq = self.next_seq()
        message["seq"] = seq
        self._stash[seq] = self.worker.dispatch(message)
        return seq

    def recv(self, seq: int) -> Dict[str, Any]:
        return self._stash.pop(seq)


class _ProcessHandle(_WorkerHandle):
    def __init__(self, shard: int, conn: Any, process: Any) -> None:
        super().__init__(shard)
        self.conn = conn
        self.process = process
        _value(shard, conn.recv())  # construction handshake; raises

    def send(self, message: Dict[str, Any]) -> int:
        seq = self.next_seq()
        message["seq"] = seq
        self.conn.send(message)
        return seq

    def recv(self, seq: int) -> Dict[str, Any]:
        while seq not in self._stash:
            response = self.conn.recv()
            self._stash[response["seq"]] = response
        return self._stash.pop(seq)

    def close(self) -> None:
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)


class ShardRouter:
    """Coordinator for a sharded OASIS universe (see module docstring)."""

    def __init__(self, shards: int, factory: Callable[..., Any],
                 factory_args: Sequence[Any] = (), *,
                 observed: bool = False,
                 inprocess: bool = False,
                 start_method: Optional[str] = None,
                 pipeline: Optional[Observability] = None) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.shards = shards
        self.observed = observed
        self._pipeline = pipeline
        self._closed = False
        # Coordinator-side counters (the per-shard ones live in workers).
        self.requests_routed = [0] * shards
        self.cross_shard_batches_routed = 0
        self.cross_shard_events_routed = 0
        self.links_routed = 0
        self._handles: List[_WorkerHandle] = []
        if inprocess:
            for shard in range(shards):
                worker = ShardWorker(shard, shards, factory, factory_args,
                                     observed=observed)
                self._handles.append(_InprocessHandle(shard, worker))
        else:
            method = (start_method
                      or os.environ.get(START_METHOD_ENV, "").strip()
                      or None)
            if method is None:
                available = multiprocessing.get_all_start_methods()
                method = "fork" if "fork" in available else "spawn"
            ctx = multiprocessing.get_context(method)
            started: List[Tuple[Any, Any]] = []
            for shard in range(shards):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(
                    target=worker_main,
                    args=(child_conn, shard, shards, factory,
                          tuple(factory_args), observed),
                    daemon=True)
                process.start()
                child_conn.close()
                started.append((parent_conn, process))
            for shard, (parent_conn, process) in enumerate(started):
                self._handles.append(
                    _ProcessHandle(shard, parent_conn, process))
        if pipeline is not None:
            pipeline.metrics.register_collector(self._collect_shard_metrics)

    # -- low-level plumbing -------------------------------------------------
    def _send(self, shard: int, op: str, **fields: Any) -> int:
        self.requests_routed[shard] += 1
        message = {"op": op}
        message.update(fields)
        return self._handles[shard].send(message)

    def _collect(self, shard: int, seq: int,
                 route_bus: bool = True) -> Any:
        response = self._handles[shard].recv(seq)
        bus_messages = response.get("bus", ())
        if route_bus and bus_messages:
            self._route_bus(bus_messages)
        return _value(shard, response)

    def _request(self, shard: int, op: str, **fields: Any) -> Any:
        return self._collect(shard, self._send(shard, op, **fields))

    def _route_bus(self, messages: Iterable[Mapping[str, Any]]) -> None:
        """Breadth-first drain of cross-shard messages until quiescence."""
        queue = deque(messages)
        while queue:
            message = queue.popleft()
            target = message["to"]
            if message["kind"] == "cascade":
                self.cross_shard_batches_routed += 1
                self.cross_shard_events_routed += len(message["events"])
                seq = self._send(target, "bus.cascade",
                                 events=message["events"])
            elif message["kind"] == "link":
                self.links_routed += len(message["links"])
                seq = self._send(target, "bus.link",
                                 links=message["links"])
            else:
                raise ValueError(f"unknown bus message kind "
                                 f"{message['kind']!r}")
            response = self._handles[target].recv(seq)
            _value(target, response)  # raises if the hop failed
            queue.extend(response.get("bus", ()))

    # -- placement ----------------------------------------------------------
    def shard_for_ref(self, ref: CredentialRef) -> int:
        return shard_of_ref(ref, self.shards)

    def shard_for_key(self, key: str) -> int:
        return shard_of_key(key, self.shards)

    def _placement(self, session_id: Optional[str],
                   principal: Union[str, PrincipalId],
                   credentials: Sequence[Any] = ()) -> int:
        """Owning shard for a new credential: pinned by the presented
        credentials when there are any (their records live there and the
        new Fig. 5 edges must be shard-local), else by session key, else
        by principal."""
        for item in credentials:
            certificate = item.certificate \
                if isinstance(item, Presentation) else item
            return self.shard_for_ref(certificate.ref)
        if session_id is not None:
            return self.shard_for_key(session_id)
        value = principal.value if isinstance(principal, PrincipalId) \
            else str(principal)
        return self.shard_for_key(value)

    # -- access-control API (mirrors OasisService) --------------------------
    def issue_rmcs_bulk(self, service: str,
                        entries: Sequence[Tuple[Any, str, Sequence[Any],
                                                Sequence[CredentialRef],
                                                Optional[str]]],
                        shards: Optional[Sequence[int]] = None) -> List[Any]:
        """Batch-aware trusted issuance across shards.

        Each entry is ``(principal, role_name, parameters, dependencies,
        session_id)``.  Placement follows ``shards`` when given (explicit
        pinning, used by tests that lay dependency edges across a shard
        boundary), otherwise the session/principal key hash.  One
        ``issue_rmcs_bulk`` message goes to each involved shard; results
        come back in entry order.
        """
        groups: Dict[int, List[int]] = {}
        for index, entry in enumerate(entries):
            principal, _role, _params, _deps, session = entry
            shard = shards[index] if shards is not None \
                else self._placement(session, principal)
            groups.setdefault(shard, []).append(index)
        pending: List[Tuple[int, int, List[int]]] = []
        for shard, indices in sorted(groups.items()):
            payload = []
            for index in indices:
                principal, role, parameters, dependencies, session = \
                    entries[index]
                value = principal.value \
                    if isinstance(principal, PrincipalId) else str(principal)
                payload.append({
                    "principal": value,
                    "role": role,
                    "parameters": list(parameters),
                    "dependencies": [ref_payload(dep)
                                     for dep in dependencies],
                    "session": session,
                })
            pending.append((shard,
                            self._send(shard, "issue_bulk", service=service,
                                       entries=payload), indices))
        results: List[Any] = [None] * len(entries)
        for shard, seq, indices in pending:
            value = self._collect(shard, seq)
            for index, cert_payload in zip(indices, value["certs"]):
                results[index] = wire.decode_certificate(cert_payload)
        return results

    def activate_role(self, service: str, principal: Any, role_name: str,
                      parameters: Optional[Sequence[Any]] = None,
                      credentials: Sequence[Any] = (),
                      session_id: Optional[str] = None,
                      environment: Optional[Dict[str, Any]] = None,
                      shard: Optional[int] = None) -> Any:
        principal_id = principal if isinstance(principal, PrincipalId) \
            else PrincipalId(str(principal))
        if shard is None:
            shard = self._placement(session_id, principal_id, credentials)
        value = self._request(
            shard, "activate", service=service,
            request=activation_payload(
                principal_id.value, role_name, parameters, credentials,
                environment, session_id))
        return wire.decode_certificate(value["cert"])

    def activate_roles_bulk(self, service: str,
                            requests: Sequence[ActivationRequest],
                            shards: Optional[Sequence[int]] = None
                            ) -> List[Any]:
        """Batch-aware activation: one ``activate_roles_bulk`` per shard."""
        groups: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            shard = shards[index] if shards is not None \
                else self._placement(request.session_id, request.principal,
                                     request.credentials)
            groups.setdefault(shard, []).append(index)
        pending: List[Tuple[int, int, List[int]]] = []
        for shard, indices in sorted(groups.items()):
            payload = [activation_payload(
                request.principal.value, request.role_name,
                request.parameters, request.credentials,
                request.environment, request.session_id)
                for request in (requests[index] for index in indices)]
            pending.append((shard,
                            self._send(shard, "activate_bulk",
                                       service=service, requests=payload),
                            indices))
        results: List[Any] = [None] * len(requests)
        for shard, seq, indices in pending:
            value = self._collect(shard, seq)
            for index, cert_payload in zip(indices, value["certs"]):
                results[index] = wire.decode_certificate(cert_payload)
        return results

    def invoke(self, service: str, principal: Any, method: str,
               arguments: Sequence[Any] = (),
               credentials: Sequence[Any] = (),
               shard: Optional[int] = None) -> Any:
        principal_id = principal if isinstance(principal, PrincipalId) \
            else PrincipalId(str(principal))
        if shard is None:
            shard = self._placement(None, principal_id, credentials)
        value = self._request(
            shard, "invoke", service=service,
            principal=principal_id.value, method=method,
            arguments=list(arguments),
            credentials=presentation_payloads(credentials))
        return value["result"]

    def revoke(self, ref: CredentialRef, reason: str = "revoked") -> bool:
        """Revoke wherever the record lives; the cross-shard cascade has
        fully settled when this returns."""
        value = self._request(self.shard_for_ref(ref), "revoke",
                              ref=ref_payload(ref), reason=reason)
        return value["revoked"]

    def is_active(self, ref: CredentialRef) -> bool:
        value = self._request(self.shard_for_ref(ref), "is_active",
                              ref=ref_payload(ref))
        return value["active"]

    def credential_record(self, ref: CredentialRef
                          ) -> Optional[Dict[str, Any]]:
        value = self._request(self.shard_for_ref(ref), "record",
                              ref=ref_payload(ref))
        return value if value["found"] else None

    # -- whole-universe queries ---------------------------------------------
    def _all(self, op: str, **fields: Any) -> Dict[int, Any]:
        pending = [(shard, self._send(shard, op, **dict(fields)))
                   for shard in range(self.shards)]
        return {shard: self._collect(shard, seq) for shard, seq in pending}

    def audit(self, service: str,
              kind: Optional[str] = None) -> Dict[int, List[List[Any]]]:
        """Per-shard audit records for one service (access-log order
        within a shard; shards are independent streams)."""
        values = self._all("audit", service=service, kind=kind)
        return {shard: value["records"] for shard, value in values.items()}

    def live_sessions(self, service: str) -> List[str]:
        values = self._all("sessions", service=service)
        merged: List[str] = []
        for value in values.values():
            merged.extend(value["sessions"])
        return sorted(merged)

    def live_credential_count(self) -> int:
        values = self._all("live_count")
        return sum(sum(value["counts"].values())
                   for value in values.values())

    def checkpoint(self) -> None:
        self._all("checkpoint")

    # -- world handlers -----------------------------------------------------
    def call_handler(self, name: str, payload: Any = None,
                     shard: int = 0) -> Any:
        return self._request(shard, "handler", name=name,
                             payload=payload)["result"]

    def call_handler_all(self, name: str,
                         payloads: Optional[Mapping[int, Any]] = None
                         ) -> Dict[int, Any]:
        """Send one handler call to every worker *concurrently*, then
        collect.  This is the parallel traffic path of the scaling
        benchmark: all workers run their slice at the same time."""
        pending = [(shard,
                    self._send(shard, "handler", name=name,
                               payload=None if payloads is None
                               else payloads.get(shard)))
                   for shard in range(self.shards)]
        return {shard: self._collect(shard, seq)["result"]
                for shard, seq in pending}

    # -- observability merging ----------------------------------------------
    def worker_stats(self) -> Dict[int, Dict[str, Any]]:
        return self._all("stats")

    def stats(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "router": {
                "requests_routed": list(self.requests_routed),
                "cross_shard_batches_routed":
                    self.cross_shard_batches_routed,
                "cross_shard_events_routed": self.cross_shard_events_routed,
                "links_routed": self.links_routed,
            },
            "workers": self.worker_stats(),
        }

    def _collect_shard_metrics(self):
        """Pull-time collector: per-shard gauges/counters merged at the
        coordinator (family shapes match ``MetricsRegistry.collect``)."""
        if self._closed:
            return
        per_shard = self.worker_stats()
        def samples(field: str):
            return [({"shard": str(shard)}, stats.get(field, 0))
                    for shard, stats in sorted(per_shard.items())]
        yield ("oasis_shard_requests_total", "counter",
               "requests dispatched by each shard worker",
               samples("requests"))
        yield ("oasis_shard_revocations_total", "counter",
               "revocations (direct + cascade) executed per shard",
               samples("revocations"))
        yield ("oasis_shard_live_credentials", "gauge",
               "active credential records per shard",
               samples("live_credentials"))
        yield ("oasis_shard_events_published_total", "counter",
               "broker events published per shard",
               samples("events_published"))
        bus_samples = []
        link_samples = []
        for shard, stats in sorted(per_shard.items()):
            bus = stats.get("bus", {})
            for direction, batches, events in (
                    ("sent", "batches_sent", "events_sent"),
                    ("received", "batches_received", "events_received")):
                bus_samples.append((
                    {"shard": str(shard), "direction": direction,
                     "unit": "batches"}, bus.get(batches, 0)))
                bus_samples.append((
                    {"shard": str(shard), "direction": direction,
                     "unit": "events"}, bus.get(events, 0)))
            link_samples.append(({"shard": str(shard)},
                                 bus.get("remote_links", 0)))
        yield ("oasis_shard_cross_shard_traffic_total", "counter",
               "coalesced cross-shard cascade traffic per shard",
               bus_samples)
        yield ("oasis_shard_remote_links", "gauge",
               "live remote dependency links registered per shard",
               link_samples)
        yield ("oasis_shard_router_bus_total", "counter",
               "cross-shard messages routed by the coordinator",
               [({"kind": "cascade_batches"},
                 self.cross_shard_batches_routed),
                ({"kind": "cascade_events"},
                 self.cross_shard_events_routed),
                ({"kind": "links"}, self.links_routed)])

    def spans(self, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Span exports from every worker (dicts, coordinator-mergeable)."""
        values = self._all("spans", trace_id=trace_id)
        merged: List[Dict[str, Any]] = []
        for shard in sorted(values):
            merged.extend(values[shard]["spans"])
        return merged

    def stitch(self, trace_id: str,
               tracer: Optional[Tracer] = None) -> Tracer:
        """Merge every worker's spans for one trace into a tracer whose
        :meth:`~repro.obs.tracing.Tracer.tree` then shows the whole
        multi-worker cascade as one tree."""
        target = tracer if tracer is not None else Tracer()
        target.adopt(self.spans(trace_id))
        return target

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard, handle in enumerate(self._handles):
            try:
                seq = handle.send({"op": "shutdown"})
                handle.recv(seq)
            except (BrokenPipeError, EOFError, OSError):
                pass
            handle.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
