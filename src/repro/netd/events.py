"""Cross-process event channel: Fig. 5 revocation over real sockets.

Two halves:

* :class:`EventPump` — server side.  Taps the process-local
  :class:`~repro.events.EventBroker` and pushes every *locally-minted*
  event to subscribed connections, one ``{"push": "events", ...}``
  frame per publishing call (several, in order, when the batch is larger
  than ``max_frame``).  Events whose attributes carry
  ``net_origin`` arrived from another process and are **not** forwarded
  — that single rule is the loop-breaker that lets two servers
  subscribe to each other (or a chain P1→P2→P3 relay hop by hop)
  without an event ping-ponging forever: each process re-broadcasts
  only the *consequences* it computed locally (its own cascade
  revocations), never the stimulus it received.

* :class:`EventChannel` — client side.  Holds a persistent connection
  to one peer server, issues ``subscribe_events``, and republishes every
  pushed event into a local delivery function after stamping
  ``net_origin=<peer>``.  The span context riding on the events
  (``trace_id``/``span_id`` attributes) crosses untouched, which is what
  lets a multi-process cascade stitch into ONE trace tree.  On
  connection loss the channel reconnects with exponential backoff and
  resubscribes — a restarted issuer keeps feeding its dependants
  without operator action.

Both halves deal only in :meth:`~repro.events.messages.Event.to_payload`
dicts on the wire — the same JSON-faithful encoding the crash journal
uses, so anything that can be journalled can cross a process boundary.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from ..events import Event, EventBroker
from .protocol import (MAX_FRAME, ConnectionLost, FrameDecoder,
                       FrameTooLarge, OasisNetError, ProtocolError,
                       encode_frame, take_fitting)

__all__ = ["NET_ORIGIN", "EventPump", "EventChannel"]

_log = logging.getLogger(__name__)

#: Attribute stamped on republished remote events; its presence means
#: "arrived over the wire — do not forward again".
NET_ORIGIN = "net_origin"


class EventPump:
    """Collects locally-minted broker events and pushes them to
    subscribed connections, one frame per publishing call.

    The broker delivers on whichever thread holds the server's service
    lock (service handlers run there); the tap only *appends to a list*,
    so it adds O(1) work to the revocation hot path regardless of
    subscriber count.  The lock holder calls :meth:`flush` when its call
    ends and before it releases the lock: that is the batch boundary —
    a synchronous cascade's whole event batch lands in ONE push frame —
    and it queues frames in lock order.  A single pusher thread does the
    sending, so a subscriber that reads slowly never holds up an RPC.
    Only a dead connection drops a subscriber.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self._pending: List[Dict[str, Any]] = []
        self._senders: Set[Callable[[Dict[str, Any]], Any]] = set()
        self._untap: Optional[Callable[[], None]] = None
        # Push frames awaiting the pusher; ``None`` ends it.
        self._queue: "queue.SimpleQueue[Optional[Dict[str, Any]]]" = \
            queue.SimpleQueue()
        self._pusher = threading.Thread(
            target=self._push_loop, name=f"oasis-{node}-pusher", daemon=True)
        self.pushed_events = 0
        self.pushed_batches = 0
        self.skipped_events = 0
        #: Largest push frame body; a server sets its own ``max_frame``.
        self.max_frame = MAX_FRAME

    def attach(self, broker: EventBroker) -> None:
        """Tap ``broker`` and start the pusher thread."""
        self._untap = broker.add_tap(self._tap)
        self._pusher.start()

    def detach(self, timeout: Optional[float] = None) -> None:
        """Leave the broker, push what is queued, stop the pusher
        (waiting at most ``timeout`` for subscribers that do not read)."""
        if self._untap is not None:
            self._untap()
            self._untap = None
            self._queue.put(None)
            self._pusher.join(timeout)

    @property
    def subscriber_count(self) -> int:
        return len(self._senders)

    def subscribe(self, sender: Callable[[Dict[str, Any]], Any]) -> None:
        """Register a send callable; it runs on the pusher thread.
        (This and :meth:`unsubscribe` are safe from any thread.)"""
        self._senders.add(sender)

    def unsubscribe(self, sender: Callable[[Dict[str, Any]], Any]) -> None:
        self._senders.discard(sender)

    # -- broker tap (service-lock holder) -----------------------------------
    def _tap(self, event: Event) -> None:
        if event.get(NET_ORIGIN) is not None:
            self.skipped_events += 1
            return
        try:
            payload = dict(event.to_payload())
        except TypeError:
            # Non-JSON-native attribute values cannot cross a process
            # boundary; such events are process-local by construction.
            self.skipped_events += 1
            return
        self._pending.append(payload)

    def flush(self) -> None:
        """Queue everything pending as ONE push frame.  Called by the
        thread that published it, before it lets the next publisher in."""
        if self._pending:
            batch, self._pending = self._pending, []
            if self._senders:
                self.pushed_events += len(batch)
                self.pushed_batches += 1
                self._queue.put({"push": "events", "origin": self.node,
                                 "events": batch})

    # -- pusher thread ------------------------------------------------------
    def _push_loop(self) -> None:
        while True:
            push = self._queue.get()
            if push is None:
                return
            for sender in list(self._senders):
                try:
                    try:
                        sender(push)
                    except FrameTooLarge:  # refused before a byte went out
                        for frame in self._split(push):
                            sender(frame)
                except (ConnectionLost, OSError):
                    # The connection thread notices the dead socket
                    # itself; dropping the sender here just stops repeat
                    # failures.
                    self._senders.discard(sender)
                except OasisNetError:
                    _log.exception("push from %s failed", self.node)

    def _split(self, push: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """``push`` as frames of at most :attr:`max_frame` bytes, events
        in order; an event too large for any frame is skipped alone."""
        pending = deque([push])
        while pending:
            taken = take_fitting(pending, self.max_frame, lambda _: "events")
            if not taken and pending:
                _log.warning("%s skipped an event larger than a %d-byte "
                             "push frame", self.node, self.max_frame)
                head = pending.popleft()
                if len(head["events"]) > 1:
                    pending.appendleft(dict(head, events=head["events"][1:]))
            yield from taken


class EventChannel:
    """A persistent subscription to one peer's event stream.

    ``deliver`` receives each pushed batch as a list of
    :class:`~repro.events.Event` objects already stamped with
    ``net_origin=<peer name>``; it runs on the channel's own thread, so
    a server embeds the channel by passing the batch through
    :meth:`~repro.netd.server.OasisServer.submit` (keeping the broker
    single-threaded), while tests may deliver straight into a local
    broker.
    """

    def __init__(self, peer: str, host: str, port: int,
                 deliver: Callable[[List[Event]], Any],
                 reconnect_delay: float = 0.1,
                 max_reconnect_delay: float = 2.0,
                 max_frame: int = MAX_FRAME) -> None:
        self.peer = peer
        self.host = host
        self.port = port
        self._deliver = deliver
        self._reconnect_delay = reconnect_delay
        self._max_reconnect_delay = max_reconnect_delay
        self._max_frame = max_frame
        self._thread = threading.Thread(
            target=self._run, name=f"oasis-events-{peer}", daemon=True)
        self._sock: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self.connected = threading.Event()
        self.delivered_events = 0
        self.subscribes = 0

    def start(self) -> None:
        """Begin the subscription, on a thread of its own."""
        self._thread.start()

    def stop(self) -> None:
        """End the subscription: nothing is delivered after it returns."""
        self._stopping.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked recv
            except OSError:
                pass  # already gone
        if self._thread.is_alive():
            self._thread.join()
        self.connected.clear()

    def wait_connected(self, timeout: float = 10.0) -> None:
        if not self.connected.wait(timeout):
            raise TimeoutError(f"no event subscription to {self.peer} "
                               f"within {timeout}s")

    def _run(self) -> None:
        delay = self._reconnect_delay
        while not self._stopping.is_set():
            try:
                self._session()
                delay = self._reconnect_delay  # clean session: reset backoff
            except (OasisNetError, OSError):
                pass
            except Exception:  # noqa: BLE001 - a dead thread stays "connected"
                _log.exception("event channel to %s failed; reconnecting",
                               self.peer)
            self.connected.clear()
            if self._stopping.wait(delay):
                return
            delay = min(delay * 2, self._max_reconnect_delay)

    def _session(self) -> None:
        # One attempt (connect, subscription reply) may not outlast the
        # longest pause between attempts; once subscribed, reads block
        # without bound.
        sock = socket.create_connection((self.host, self.port),
                                        self._max_reconnect_delay)
        self._sock = sock
        try:
            if self._stopping.is_set():
                return  # stop() ran before it could see this socket
            # Request id 0 is reserved for the subscription on this
            # connection — nothing else is ever sent on it.
            sock.sendall(encode_frame({"id": 0, "op": "subscribe_events"},
                                      self._max_frame))
            decoder = FrameDecoder(self._max_frame)
            while True:
                data = sock.recv(65536)
                if not data:
                    return  # peer shut down (or died): reconnect loop decides
                for frame in decoder.feed(data):
                    if "push" in frame:
                        # The peer subscribes this connection before it
                        # replies, so a push may overtake the reply.
                        if frame["push"] == "events":
                            self._republish(frame)
                    elif frame.get("ok", False):
                        sock.settimeout(None)
                        self.subscribes += 1
                        self.connected.set()
                    else:
                        raise OasisNetError(
                            f"peer {self.peer} refused event "
                            f"subscription: {frame!r}")
        finally:
            self._sock = None
            sock.close()

    def _republish(self, frame: Dict[str, Any]) -> None:
        origin = frame.get("origin", self.peer)
        try:
            events = [
                Event.from_payload(payload).with_attributes(
                    net_origin=origin)
                for payload in frame.get("events", ())
            ]
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"peer {self.peer} pushed a malformed "
                                f"event batch: {error!r}") from error
        if not events:
            return
        self.delivered_events += len(events)
        try:
            self._deliver(events)
        except Exception:  # noqa: BLE001 - the subscription must outlive it
            # A local handler failed on this batch; later revocations
            # still have to arrive.
            _log.exception("delivering a batch of %d events pushed by "
                           "peer %s failed", len(events), self.peer)
