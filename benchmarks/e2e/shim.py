"""Span shim: times the layers' public callables from outside ``src/``.

``install()`` replaces each hooked callable with a wrapper that appends
one span ``(name, start_ns, end_ns, tag)`` to an in-memory list; nothing
is written until the run ends.  Clocks are ``time.monotonic_ns()``, which
is system-wide on Linux, so the spans of the generator process and of the
served node processes share one timeline and can be merged.

Self time is computed after the run by :func:`attribute`: every instant
inside a ``cycle`` span is charged to the *innermost* span covering it
(the covering span that started last).  Callers block on replies, so
spans nest across threads and processes without the shim having to carry
parent ids over the executor hop or the socket; the parent written to the
trace file is derived the same way.  Time charged to the ``cycle`` span
itself lies under no hooked layer: that is ``cycle.unattributed_share``.

Spans inside the program (the ``repro.obs`` span points) are a later
issue; the names below are the ones they must reproduce.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.monotonic_ns

#: Base span the runner records around each session; see :func:`attribute`.
CYCLE = "cycle"
#: Synthesised from handle/execute pairs, see :func:`add_queue_waits`.
QUEUE_WAIT = "netd.server.queue_wait"

Span = Tuple[int, int, int, Any]  # (name id, start ns, end ns, tag)


def _publish_tag(args: Tuple[Any, ...], _result: Any) -> Optional[str]:
    """Origin node of a republished remote batch, ``""`` for a local one."""
    events = args[1]
    first = events if hasattr(events, "get") else next(iter(events), None)
    if first is None:
        return None
    return first.get("net_origin") or ""


def _frame_bytes(_args: Tuple[Any, ...], result: Any) -> Optional[int]:
    return len(result) if result is not None else None


_INPROC, _DURABLE, _SERVED, _FLEET = (
    "inproc_ehr_sessions", "durable_chain_revoke", "served_rpc_mix",
    "fleet_ehr_sessions")
_ALL = (_INPROC, _DURABLE, _SERVED, _FLEET)
_EHR = (_INPROC, _FLEET)
_SOCKETS = (_SERVED, _FLEET)

#: (module, owner class or None, attribute, span name, tag function,
#: workloads meant to exercise it — every other workload must bypass it,
#: which ``run.py --check`` enforces).  Functions are rebound in every
#: loaded ``repro`` module that imported them by name; ``sign_fields``
#: keeps its binding inside its defining module so the ``sign`` nested in
#: ``verify_fields`` stays part of verify.
HOOKS: List[Tuple[str, Optional[str], str, str, Optional[Callable],
                  Tuple[str, ...]]] = [
    ("repro.core.engine", "RuleEngine", "match_activation",
     "core.engine.match_activation", None, _ALL),
    ("repro.core.engine", "RuleEngine", "match_authorization",
     "core.engine.match_authorization", None, _ALL),
    ("repro.core.engine", "RuleEngine", "match_appointment",
     "core.engine.match_appointment", None, _EHR),
    ("repro.core.service", "OasisService", "activate_role",
     "core.service.activate_role", None, _ALL),
    ("repro.core.service", "OasisService", "activate_roles_bulk",
     "core.service.activate_roles_bulk", None, (_SERVED,)),
    ("repro.core.service", "OasisService", "issue_appointment",
     "core.service.issue_appointment", None, _EHR),
    ("repro.core.service", "OasisService", "invoke",
     "core.service.invoke", None, _ALL),
    ("repro.core.service", "OasisService", "revoke",
     "core.service.revoke", None, _ALL),
    ("repro.core.state", "ServiceState", "install",
     "core.state.install", None, _ALL),
    # Mirroring and journalling only happen with a store attached.
    ("repro.core.state", "ServiceState", "mark_revoked",
     "core.state.mark_revoked", None, (_DURABLE,)),
    ("repro.core.state", "ServiceState", "log_cascade",
     "core.state.log_cascade", None, (_DURABLE,)),
    ("repro.core.state", "ServiceState", "log_cascade_done",
     "core.state.log_cascade_done", None, (_DURABLE,)),
    ("repro.crypto.hmac_sig", None, "sign_fields", "crypto.sign", None,
     _ALL),
    ("repro.crypto.hmac_sig", None, "verify_fields", "crypto.verify", None,
     _ALL),
    # Batched cascades (the default) publish through publish_batch only.
    ("repro.events.broker", "EventBroker", "publish",
     "events.publish", _publish_tag, ()),
    ("repro.events.broker", "EventBroker", "publish_batch",
     "events.publish_batch", _publish_tag, _ALL),
    ("repro.db.sqlite_store", "SqliteRecordStore", "put", "db.put", None,
     (_DURABLE,)),
    ("repro.db.sqlite_store", "SqliteRecordStore", "put_many",
     "db.put_many", None, (_DURABLE,)),
    ("repro.db.sqlite_store", "SqliteRecordStore", "flush",
     "db.flush", None, (_DURABLE,)),
    ("repro.db.sqlite_store", "SqliteRecordStore", "log_append",
     "db.log_append", None, (_DURABLE,)),
    ("repro.db.sqlite_store", "SqliteRecordStore", "scan", "db.scan", None,
     (_DURABLE,)),
    ("repro.core.wire", None, "encode_certificate",
     "core.wire.encode", None, _SOCKETS),
    ("repro.core.wire", None, "decode_certificate",
     "core.wire.decode", None, _SOCKETS),
    ("repro.netd.protocol", None, "encode_frame",
     "netd.protocol.encode", _frame_bytes, _SOCKETS),
    ("repro.netd.protocol", None, "decode_body",
     "netd.protocol.decode", None, _SOCKETS),
    ("repro.netd.client", "OasisClient", "call", "netd.client.call", None,
     _SOCKETS),
    # Only remote event batches enter a node through ``submit``.
    ("repro.netd.server", "OasisServer", "submit",
     "netd.server.submit", None, (_FLEET,)),
    # The two private hook points: RPCs reach the worker thread through
    # ``_dispatch`` -> ``run_in_executor``, not through ``submit``, so the
    # queue wait and the executed callable are only visible here.
    ("repro.netd.server", "OasisServer", "_handle_frame",
     "netd.server.handle", None, _SOCKETS),
    ("repro.netd.server", "OasisServer", "_execute",
     "netd.server.execute", None, _SOCKETS),
]

_KEEP_DEFINER_BINDING = {("repro.crypto.hmac_sig", "sign_fields")}


class _Names:
    """Span names interned as small ints."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found


class Recorder(_Names):
    """The spans of one process."""

    def __init__(self, node: str = "generator") -> None:
        super().__init__()
        self.node = node
        self.spans: List[Span] = []

    def wrap(self, name: str, fn: Callable[..., Any],
             tag: Optional[Callable[[Tuple[Any, ...], Any], Any]] = None
             ) -> Callable[..., Any]:
        name_id = self.name_id(name)
        record = self.spans.append
        clock = _clock
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    record((name_id, start, clock(), None))
        elif tag is None:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record((name_id, start, clock(), None))
        else:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    record((name_id, start, clock(), tag(args, result)))
        return wrapper

    def export(self, payload: Any = None) -> Dict[str, Any]:
        """``handler`` RPC body: a slice of this process's spans (a whole
        traced segment does not fit one 4 MiB frame)."""
        offset = int((payload or {}).get("offset", 0))
        limit = int((payload or {}).get("limit", 20_000))
        return {"node": self.node, "names": self.names,
                "total": len(self.spans),
                "spans": self.spans[offset:offset + limit]}


def install(node: str = "generator") -> Recorder:
    """Hook every entry of :data:`HOOKS` in this process.

    Raises ``AttributeError`` when a hook target no longer exists — a
    renamed callable must fail loudly, not report 0 µs."""
    recorder = Recorder(node)
    for module_name, owner_name, attr, span_name, tag, _used_by in HOOKS:
        module = __import__(module_name, fromlist=[attr])
        if owner_name is not None:
            owner = getattr(module, owner_name)
            setattr(owner, attr,
                    recorder.wrap(span_name, getattr(owner, attr), tag))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(span_name, original, tag)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            if loaded is module \
                    and (module_name, attr) in _KEEP_DEFINER_BINDING:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
    return recorder


# -- analysis (generator process, after the run) ------------------------------

class Trace(_Names):
    """Merged spans of every process, on one name table."""

    def __init__(self) -> None:
        super().__init__()
        #: (process index, name id, start, end, tag), unsorted.
        self.spans: List[Tuple[int, int, int, int, Any]] = []
        self.processes: List[str] = []

    def add(self, node: str, names: List[str],
            spans: List[Any]) -> None:
        process = len(self.processes)
        self.processes.append(node)
        remap = [self.name_id(name) for name in names]
        # Every span covers at least 1 ns, so its start sorts before its
        # end in ``attribute``.
        self.spans.extend(
            (process, remap[name], start, max(end, start + 1), tag)
            for name, start, end, tag in spans)


def add_queue_waits(trace: Trace) -> None:
    """One ``netd.server.queue_wait`` span per executed RPC: from the
    server's handler taking the decoded frame to the worker thread
    starting it (executor queue plus thread hop)."""
    handle = trace.name_id("netd.server.handle")
    execute = trace.name_id("netd.server.execute")
    wait = trace.name_id(QUEUE_WAIT)
    latest: Dict[int, Tuple[int, int]] = {}  # process -> (start, end)
    added = []
    for process, name, start, end, _tag in sorted(
            (s for s in trace.spans if s[1] in (handle, execute)),
            key=lambda s: s[2]):
        if name == handle:
            latest[process] = (start, end)
        else:
            began = latest.get(process)
            if began is not None and began[0] <= start <= began[1]:
                added.append((process, wait, began[0], start, None))
    trace.spans.extend(added)


def attribute(trace: Trace) -> Dict[str, Any]:
    """Charge every instant inside a cycle to the innermost covering span.

    Returns ``self_ns`` and ``calls`` per span name (calls counts spans
    that *start* inside a cycle), the summed ``cycle_ns``, and per span, in
    the order of ``trace.spans``, the derived parent index and the number
    of the enclosing cycle (``-1`` for none).
    """
    spans = trace.spans
    cycle = trace.name_id(CYCLE)
    events = []
    for index, (_process, _name, start, end, _tag) in enumerate(spans):
        # At one timestamp: ends before starts (siblings), the longer span
        # starts first and ends last (parent around child).
        events.append((start, 1, -end, index))
        events.append((end, 0, -start, index))
    events.sort()
    self_ns = [0] * len(trace.names)
    calls = [0] * len(trace.names)
    parents = [-1] * len(spans)
    cycles = [-1] * len(spans)
    active = bytearray(len(spans))
    heap: List[Tuple[int, int, int]] = []  # (-start, end, index)
    in_cycle = False
    cycle_number = -1
    last = 0
    for when, is_start, _order, index in events:
        while heap and not active[heap[0][2]]:
            heapq.heappop(heap)
        if in_cycle and heap:
            self_ns[spans[heap[0][2]][1]] += when - last
        last = when
        name = spans[index][1]
        if is_start:
            if heap:
                parents[index] = heap[0][2]
            active[index] = 1
            heapq.heappush(heap, (-when, spans[index][3], index))
            if name == cycle:
                in_cycle = True
                cycle_number += 1
            elif in_cycle:
                calls[name] += 1
            if in_cycle:
                cycles[index] = cycle_number
        else:
            active[index] = 0
            if name == cycle:
                in_cycle = False
    return {"self_ns": dict(zip(trace.names, self_ns)),
            "calls": dict(zip(trace.names, calls)),
            "parents": parents, "cycles": cycles,
            "cycle_ns": sum(span[3] - span[2] for span in spans
                            if span[1] == cycle)}


def event_hops(trace: Trace) -> List[int]:
    """Issuer publish -> subscriber broker delivery, one value per process
    hop: for each republished remote batch, the time since the origin
    node's latest local publish that started before it."""
    publish = {trace.name_id("events.publish"),
               trace.name_id("events.publish_batch")}
    local_starts: Dict[str, List[int]] = {}
    remote = []
    for process, name, start, _end, tag in trace.spans:
        if name not in publish or tag is None:
            continue
        if tag == "":
            local_starts.setdefault(trace.processes[process],
                                    []).append(start)
        else:
            remote.append((start, tag))
    for starts in local_starts.values():
        starts.sort()
    hops = []
    for start, origin in remote:
        starts = local_starts.get(origin, [])
        at = bisect.bisect_left(starts, start) - 1
        if at >= 0:
            hops.append(start - starts[at])
    return hops
