"""Shard coordinator: request fan-out, bus routing, metric/trace merging.

The :class:`ShardRouter` owns N workers — ordinary served nodes
(``python -m repro serve … --shard I/N``) booted, watched and stopped by
a :class:`~repro.netd.deploy.Supervisor` — and talks to them through the
supervisor's blocking :class:`~repro.netd.client.OasisClient`
connections, one request in flight per worker.  It is the only component
that talks to more than one shard:

* **request routing** — ``issue/activate/invoke/revoke`` go to the
  owning shard: by ``CredentialRef`` hash when a ref (or a presented
  credential) pins the request, by session/principal key hash otherwise.
  Bulk entry points are batch-aware: entries are grouped per shard, every
  involved worker is sent its group at the same time in frames of at
  most :data:`BULK_CHUNK` entries (a reply must fit ``MAX_FRAME``), and
  results are reassembled in caller order.  Message fields are built by
  the encoders of :mod:`repro.netd.ops`, the single definition of the
  service ops' wire form.
* **bus routing** — a worker's reply carries the batches of events
  that worker minted (its :class:`~repro.shard.worker.Outbox`; the
  router fetches at once what did not fit the frame); the router hands
  each batch to ``bus.cascade`` on every *other* worker and
  breadth-first drains the batches *those* deliveries mint.  No worker
  is told who depends on what: each receiving service's own reverse
  index decides.  A cross-shard cascade therefore settles completely
  before the originating call returns — callers observe the same
  synchronous-cascade semantics as the single-process service.  A
  fan-out collects *every* worker's reply before it routes anything, so
  no hop ever meets a worker that still owes an answer.
* **merging** — per-shard stats become coordinator-level
  ``oasis_shard_*`` metric families (registerable as a collector on an
  :class:`~repro.obs.runtime.Observability` pipeline), and worker span
  exports merge into one tracer via :meth:`~repro.obs.tracing.Tracer.adopt`
  so a multi-worker cascade renders as a single trace tree.

Errors are whatever :meth:`OasisClient.call
<repro.netd.client.OasisClient.call>` raises: a worker-side denial is
the same core exception the in-process service raises, any other
worker-side failure an :class:`~repro.netd.protocol.RpcError` carrying
the remote type name, a dead or hung worker an
:class:`~repro.netd.protocol.OasisNetError`.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..core import wire
from ..core.credentials import CredentialRef
from ..core.exceptions import OasisError
from ..core.service import ActivationRequest, Presentation
from ..core.state import ref_payload
from ..core.types import PrincipalId
from ..netd.deploy import NodeSpec, Supervisor, free_port
from ..netd.ops import activation_payload, presentation_payloads
from ..netd.protocol import FrameTooLarge, RpcError
from ..obs.runtime import Observability
from ..obs.tracing import Tracer
from .partition import shard_of_key, shard_of_ref

__all__ = ["ShardRouter"]

#: Seconds a worker may take to answer one request before the router
#: gives it up as hung.  Requests include world handlers that build a
#: worker's whole slice (the 1M-principal tier: minutes on a busy host),
#: so this only has to be finite.
WORKER_DEADLINE = 900.0

#: Entries per bulk frame.  A 20,000-entry ``issue_bulk`` reply is
#: ~6.8 MB of certificate texts and ``MAX_FRAME`` is 4 MiB.
BULK_CHUNK = 5_000


class ShardRouter:
    """Coordinator for a sharded OASIS universe (see module docstring).

    ``factory(ctx, *factory_args)`` is the world every worker rebuilds
    locally: a module-level callable (it travels by name) whose extra
    arguments travel as strings (``--world-arg``).  With a ``state_dir``
    worker *i* is a durable node on ``<state_dir>/w<i>``, so no two
    workers ever share a store file.
    """

    def __init__(self, shards: int, factory: Callable[..., Any],
                 factory_args: Sequence[Any] = (), *,
                 observed: bool = False,
                 pipeline: Optional[Observability] = None,
                 state_dir: Optional[str] = None) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.shards = shards
        self.observed = observed
        # Coordinator-side counters (the per-shard ones live in workers).
        self.requests_routed = [0] * shards
        self.cross_shard_batches_routed = 0
        self.cross_shard_events_routed = 0
        world = f"{factory.__module__}:{factory.__qualname__}"
        self.fleet = Supervisor([
            NodeSpec(name=f"w{shard}", port=free_port(), world=world,
                     args=tuple(str(arg) for arg in factory_args),
                     observed=observed, shard=(shard, shards),
                     state_dir=(os.path.join(state_dir, f"w{shard}")
                                if state_dir else None))
            for shard in range(shards)])
        # Runs once: at close(), when the router is dropped, or at exit.
        self._stop = weakref.finalize(self, self.fleet.stop)
        # One thread per worker: a fan-out blocks in ``call`` on each.
        self._pool = ThreadPoolExecutor(shards, "oasis-shard-router")
        try:
            try:
                self.fleet.start()
            except RuntimeError:
                # A worker exited before it was ready: it may have lost
                # the race for its free_port().  Once more, on fresh ones.
                self.fleet.stop()
                for spec in self.fleet.specs.values():
                    spec.port = free_port()
                self.fleet.start()
        except BaseException:
            self.close()  # a worker that failed to boot takes the rest along
            raise
        if pipeline is not None:
            pipeline.metrics.register_collector(self._collect_shard_metrics)

    # -- low-level plumbing -------------------------------------------------
    def _call(self, shard: int, op: str, fields: Mapping[str, Any],
              outbox: Any) -> Dict[str, Any]:
        """One request to one worker; the batches it minted move into
        ``outbox`` (anything with ``extend``)."""
        self.requests_routed[shard] += 1
        client = self.fleet.client(f"w{shard}")
        try:
            value = client.call(op, _timeout=WORKER_DEADLINE, **fields)
        except (OasisError, RpcError):
            # The worker refused the op (a transport failure is neither),
            # maybe after minting events — a failed batch's partial
            # cascade: they must still settle.
            self._collect(client, {"more": True}, outbox)
            raise
        self._collect(client, value, outbox)
        return value

    @staticmethod
    def _collect(client: Any, reply: Dict[str, Any], outbox: Any) -> None:
        """Move a reply's outbox out; while the worker holds ``more``
        than the frame had room for, fetch it with an empty
        ``bus.cascade``."""
        while True:
            outbox.extend(reply.pop("outbox", ()))
            if not reply.pop("more", False):
                return
            reply = client.call("bus.cascade", _timeout=WORKER_DEADLINE,
                                events=[])
            if reply.get("more") and not reply.get("outbox"):
                raise FrameTooLarge(f"{client.peer} minted an event no "
                                    f"frame can carry")

    def _request(self, shard: int, op: str, **fields: Any) -> Any:
        outbox: List[Dict[str, Any]] = []
        try:
            return self._call(shard, op, fields, outbox)
        finally:
            self._route_bus(outbox)

    def _fanout(self, requests: Sequence[Tuple[int, str, Dict[str, Any]]]
                ) -> List[Any]:
        """One request on each listed worker at once.  Collects *every*
        reply, then routes the bus, then raises the first error."""
        outbox: List[Dict[str, Any]] = []
        futures = [self._pool.submit(self._call, shard, op, fields, outbox)
                   for shard, op, fields in requests]
        wait(futures)
        self._route_bus(outbox)
        return [future.result() for future in futures]

    def _route_bus(self, batches: Sequence[Mapping[str, Any]]) -> None:
        """Breadth-first drain until quiescence, a level at a time: every
        worker is handed, in order, the level's batches — the fields of
        op ``bus.cascade``, ``origin`` and ``events`` — that another
        worker minted, all workers at once; what those deliveries mint,
        in shard order, is the next level."""
        while batches:
            minted: Dict[int, List[Dict[str, Any]]] = {}
            futures = []
            for shard in range(self.shards):
                inbound = [batch for batch in batches
                           if batch["origin"] != f"w{shard}"]
                if inbound:
                    self.cross_shard_batches_routed += len(inbound)
                    self.cross_shard_events_routed += sum(
                        len(batch["events"]) for batch in inbound)
                    futures.append(self._pool.submit(
                        self._deliver, shard, inbound,
                        minted.setdefault(shard, [])))
            wait(futures)
            for future in futures:
                future.result()
            batches = [batch for shard in sorted(minted)
                       for batch in minted[shard]]

    def _deliver(self, shard: int, batches: Sequence[Mapping[str, Any]],
                 outbox: List[Dict[str, Any]]) -> None:
        for batch in batches:
            self._call(shard, "bus.cascade", batch, outbox)

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
    def _bulk(self, op: str, service: str, field: str,
              placement: Sequence[int],
              payloads: Sequence[Dict[str, Any]]) -> List[Any]:
        """Entry ``i`` (wire form ``payloads[i]``) goes to shard
        ``placement[i]``: every involved worker gets its entries at the
        same time, :data:`BULK_CHUNK` per frame; certificates come back
        in entry order."""
        groups: Dict[int, List[int]] = {}
        for index, shard in enumerate(placement):
            groups.setdefault(shard, []).append(index)
        results: List[Any] = [None] * len(payloads)
        longest = max(map(len, groups.values()), default=0)
        for start in range(0, longest, BULK_CHUNK):
            chunks = [(shard, indices[start:start + BULK_CHUNK])
                      for shard, indices in sorted(groups.items())
                      if len(indices) > start]
            values = self._fanout([
                (shard, op, {"service": service,
                             field: [payloads[index] for index in chunk]})
                for shard, chunk in chunks])
            for (_shard, chunk), value in zip(chunks, values):
                for index, text in zip(chunk, value["certs"]):
                    results[index] = wire.certificate_from_text(text)
        return results

    def issue_rmcs_bulk(self, service: str,
                        entries: Sequence[Tuple[Any, str, Sequence[Any],
                                                Sequence[CredentialRef],
                                                Optional[str]]],
                        shards: Optional[Sequence[int]] = None) -> List[Any]:
        """Batch-aware trusted issuance across shards.

        Each entry is ``(principal, role_name, parameters, dependencies,
        session_id)``.  Placement follows ``shards`` when given (explicit
        pinning, used by tests that lay dependency edges across a shard
        boundary), otherwise the session/principal key hash.  Results
        come back in entry order.
        """
        placement = shards if shards is not None else [
            self._placement(session, principal)
            for principal, _role, _params, _deps, session in entries]
        payloads = [{
            "principal": principal.value
            if isinstance(principal, PrincipalId) else str(principal),
            "role": role,
            "parameters": list(parameters),
            "dependencies": [ref_payload(dep) for dep in dependencies],
            "session": session,
        } for principal, role, parameters, dependencies, session in entries]
        return self._bulk("issue_bulk", service, "entries", placement,
                          payloads)

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
        return wire.certificate_from_text(value["cert"])

    def activate_roles_bulk(self, service: str,
                            requests: Sequence[ActivationRequest],
                            shards: Optional[Sequence[int]] = None
                            ) -> List[Any]:
        """Batch-aware activation, placed like :meth:`activate_role`."""
        placement = shards if shards is not None else [
            self._placement(request.session_id, request.principal,
                            request.credentials) for request in requests]
        payloads = [activation_payload(
            request.principal.value, request.role_name,
            request.parameters, request.credentials,
            request.environment, request.session_id)
            for request in requests]
        return self._bulk("activate_bulk", service, "requests", placement,
                          payloads)

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
        return dict(enumerate(self._fanout(
            [(shard, op, fields) for shard in range(self.shards)])))

    def audit(self, service: str,
              kind: Optional[str] = None) -> Dict[int, List[List[Any]]]:
        """Per-shard audit rows for one service, as the ``audit`` op
        returns them (access-log order within a shard; shards are
        independent streams)."""
        values = self._all("audit", service=service, kind=kind)
        return {shard: value["records"] for shard, value in values.items()}

    def live_sessions(self, service: str) -> List[str]:
        values = self._all("sessions", service=service)
        merged: List[str] = []
        for value in values.values():
            merged.extend(value["sessions"])
        return sorted(merged)

    def live_credential_count(self) -> int:
        return sum(stats["live_credentials"]
                   for stats in self.worker_stats().values())

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
        values = self._fanout([
            (shard, "handler",
             {"name": name, "payload": None if payloads is None
              else payloads.get(shard)})
            for shard in range(self.shards)])
        return {shard: value["result"] for shard, value in enumerate(values)}

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
            },
            "workers": self.worker_stats(),
        }

    def _collect_shard_metrics(self):
        """Pull-time collector: per-shard gauges/counters merged at the
        coordinator (family shapes match ``MetricsRegistry.collect``)."""
        if not self._stop.alive:
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
        yield ("oasis_shard_cross_shard_traffic_total", "counter",
               "coalesced cross-shard cascade traffic per shard",
               bus_samples)
        yield ("oasis_shard_router_bus_total", "counter",
               "cross-shard messages routed by the coordinator",
               [({"kind": "cascade_batches"},
                 self.cross_shard_batches_routed),
                ({"kind": "cascade_events"},
                 self.cross_shard_events_routed)])

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
    def restart(self, shard: int) -> None:
        """Relaunch worker ``shard`` (after ``fleet.kill``) and settle the
        cascades its services replayed while booting: they reach the
        other shards before this returns, not with the worker's next op."""
        self.fleet.restart(f"w{shard}")
        self._request(shard, "bus.cascade", events=[])

    def close(self) -> None:
        self._pool.shutdown()
        self._stop()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
