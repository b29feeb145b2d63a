"""Serve bootstrap and multi-process supervisor.

:func:`serve_node` is what ``repro serve`` runs: build one node's world
on a :class:`~repro.netd.worlds.NodeContext`, host it in an
:class:`~repro.netd.server.OasisServer` (for a ``--shard I/N`` node: a
:class:`~repro.shard.worker.ShardWorker`, whose
:class:`~repro.shard.worker.Outbox` taps the broker before the world is
built, so boot-time replays reach the other shards too), open
:class:`~repro.netd.events.EventChannel` subscriptions to the peers
named in the spec, print a ``OASIS-READY`` line and serve until a
client sends ``shutdown`` (or the process is killed — which is exactly
what the kill-and-resume path is for: with a state directory the next
incarnation resumes from its stores).

:class:`Supervisor` turns a list of :class:`NodeSpec` into real OS
processes (``python -m repro serve ...``), waits for readiness by
pinging each port, hands out :class:`~repro.netd.client.OasisClient`
connections, and can kill/restart individual nodes for fault drills.
It is the one place the tree spawns a process:
``examples/serve_ehr.py``, the netd integration tests and
:class:`~repro.shard.router.ShardRouter` (whose workers are nodes) all
drive it.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.service import ServiceRegistry
from ..events import EventBroker
from ..obs.runtime import Observability, disable, enable
from .client import OasisClient, RemoteNetwork
from .events import EventChannel
from .protocol import OasisNetError
from .server import OasisServer
from .worlds import NodeContext, World, resolve_factory

__all__ = ["NodeSpec", "boot_world", "serve_node", "Supervisor",
           "free_port"]

#: Printed (and flushed) by a served process once its port is accepting.
READY_BANNER = "OASIS-READY"


#: Ports :func:`free_port` has handed out in this process.
_handed_out: Set[int] = set()
_handed_out_lock = threading.Lock()


def free_port() -> int:
    """An OS-assigned free TCP port, never one this process was handed
    before: two specs of one fleet cannot share a port.  Racy by nature
    (another process may take it before its node binds), fine for demos
    and tests that bind soon after."""
    while True:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with _handed_out_lock:
            if port not in _handed_out:
                _handed_out.add(port)
                return port


@dataclass
class NodeSpec:
    """Everything one served process needs to boot."""

    name: str
    port: int
    world: str  # "package.module:factory"
    host: str = "127.0.0.1"
    args: Tuple[str, ...] = ()
    #: name -> (host, port): peers reachable for callback validation.
    peers: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: Peer names whose event streams this node subscribes to (the
    #: Fig. 5 dependency direction: subscribe to your issuers).
    subscribe: Tuple[str, ...] = ()
    state_dir: Optional[str] = None
    observed: bool = False
    require_handshake: bool = False
    #: ``(index, count)`` when this node serves one partition of a
    #: sharded universe (see :mod:`repro.shard`).
    shard: Optional[Tuple[int, int]] = None

    def argv(self) -> List[str]:
        """The ``python -m repro serve`` command line for this spec."""
        argv = [sys.executable, "-m", "repro", "serve",
                "--node", self.name, "--host", self.host,
                "--port", str(self.port), "--world", self.world]
        for arg in self.args:
            argv += ["--world-arg", arg]
        for peer, (host, port) in self.peers.items():
            argv += ["--peer", f"{peer}={host}:{port}"]
        for peer in self.subscribe:
            argv += ["--subscribe", peer]
        if self.state_dir:
            argv += ["--state-dir", self.state_dir]
        if self.observed:
            argv.append("--observed")
        if self.require_handshake:
            argv.append("--require-handshake")
        if self.shard is not None:
            argv += ["--shard", "{}/{}".format(*self.shard)]
        return argv


def boot_world(ctx: NodeContext, world: str, *args: str) -> World:
    """Build the ``module:function`` world on ``ctx``, ready to serve.

    A resumed service's journalled cascades are re-emitted only once the
    factory has returned: a cascade replayed while the world is half
    built would miss every service built after its own — in
    ``ehr_front``, ``admin`` would never revoke an ``administrator``
    role whose login died with the last incarnation.  Then boot-time
    state (notably each service's signing secret) is made durable before
    any traffic: stores are write-behind, and a SIGKILL before the first
    flush would otherwise resume as a *fresh* service whose new secret
    rejects every outstanding certificate."""
    built = resolve_factory(world)(ctx, *args)
    for service in built.services.values():
        service.replay_pending()
    for service in built.services.values():
        service.checkpoint()
    return built


def serve_node(spec: NodeSpec) -> None:
    """Run one served node to completion (blocking)."""
    pipeline: Optional[Observability] = None
    if spec.observed:
        # Node-prefixed span ids: each process mints globally unique ids
        # a driver can merge with Tracer.adopt (same scheme as shards).
        pipeline = Observability(trace_id_prefix=f"{spec.name}.")
        enable(pipeline)
    try:
        shard, shards = spec.shard or (None, 1)
        broker = EventBroker()
        make_server: Callable[..., OasisServer]
        if shard is None:
            make_server = partial(OasisServer, broker=broker)
        else:
            # Imported here: repro.shard's router imports this module.
            from ..shard import Outbox, ShardWorker
            make_server = partial(ShardWorker,
                                  outbox=Outbox(broker, shard, shards))
        registry = ServiceRegistry()
        network = RemoteNetwork(spec.name, peers=spec.peers)
        ctx = NodeContext(spec.name, broker, registry, network,
                          state_dir=spec.state_dir, shard=shard,
                          shards=shards)
        world = boot_world(ctx, spec.world, *spec.args)
    finally:
        if spec.observed:
            # Services snapshot the pipeline at construction; the global
            # need not stay set.
            disable()
    server = make_server(
        spec.name, world.services, network=network,
        handlers=dict(getattr(world, "handlers", None) or {}),
        host=spec.host, port=spec.port,
        require_handshake=spec.require_handshake, pipeline=pipeline)
    for peer in spec.subscribe:
        host, port = spec.peers[peer]
        server.channels[peer] = EventChannel(
            peer, host, port,
            # Remote batches enter the local broker under the service
            # lock — same single-threaded discipline as RPC dispatch.
            lambda events: server.submit(broker.publish_batch, events))
    try:
        server.start()
        for channel in server.channels.values():
            channel.start()
        print(f"{READY_BANNER} node={spec.name} port={server.port}",
              flush=True)
        server.serve_until_shutdown()
    finally:
        for channel in server.channels.values():
            channel.stop()
        network.close()


class Supervisor:
    """Spawn, monitor and stop a fleet of served nodes."""

    def __init__(self, specs: Sequence[NodeSpec],
                 ready_timeout: float = 30.0) -> None:
        self.specs: Dict[str, NodeSpec] = {spec.name: spec
                                           for spec in specs}
        self.ready_timeout = ready_timeout
        self._procs: Dict[str, subprocess.Popen] = {}
        self._clients: Dict[str, OasisClient] = {}

    # -- lifecycle ----------------------------------------------------------
    def start(self, *names: str) -> "Supervisor":
        """Launch the named nodes (all of them by default) and wait until
        each answers ``ping``."""
        targets = list(names) or list(self.specs)
        for name in targets:
            self._spawn(name)
        deadline = time.monotonic() + self.ready_timeout
        for name in targets:
            self._wait_ready(name, deadline)
        return self

    def _spawn(self, name: str) -> None:
        spec = self.specs[name]
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src.rstrip(os.sep), env.get("PYTHONPATH")) if p)
        self._procs[name] = subprocess.Popen(spec.argv(), env=env)

    def _wait_ready(self, name: str, deadline: float) -> None:
        spec = self.specs[name]
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            proc = self._procs.get(name)
            if proc is not None and proc.poll() is not None:
                raise RuntimeError(
                    f"node {name} exited with {proc.returncode} "
                    f"before becoming ready")
            try:
                pong = self.client(name).ping()
                if pong.get("node") != name:
                    # Another node holds the port: this one cannot bind.
                    raise RuntimeError(
                        f"{spec.host}:{spec.port} is served by node "
                        f"{pong.get('node')!r}, not {name!r}")
                # Ready means *subscribed*, not just listening: an event
                # channel still reconnecting would miss cascade events
                # published in the gap (subscriptions are not replayed).
                channels = pong.get("channels", {})
                if all(channels.get(peer, True)
                       for peer in spec.subscribe):
                    return
                last_error = RuntimeError(
                    f"event channels not yet connected: "
                    f"{[p for p in spec.subscribe if not channels.get(p)]}")
                time.sleep(0.05)
            except OasisNetError as error:
                last_error = error  # the client reconnects on the next call
                time.sleep(0.05)
        raise TimeoutError(
            f"node {name} not ready on {spec.host}:{spec.port} within "
            f"{self.ready_timeout}s: {last_error}")

    # -- clients ------------------------------------------------------------
    def client(self, name: str) -> OasisClient:
        client = self._clients.get(name)
        if client is None:
            spec = self.specs[name]
            client = OasisClient(spec.host, spec.port, peer=name)
            self._clients[name] = client
        return client

    def _drop_client(self, name: str) -> None:
        client = self._clients.pop(name, None)
        if client is not None:
            client.close()

    # -- fault drills -------------------------------------------------------
    def kill(self, name: str) -> None:
        """Hard-kill a node (SIGKILL): the crash in kill-and-resume."""
        proc = self._procs.pop(name, None)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        self._drop_client(name)

    def restart(self, name: str) -> None:
        """Relaunch a node (after :meth:`kill`) and wait for readiness."""
        self._spawn(name)
        self._wait_ready(name, time.monotonic() + self.ready_timeout)

    # -- teardown -----------------------------------------------------------
    def stop(self) -> None:
        """Graceful fleet shutdown: ask politely, then escalate."""
        for name, proc in list(self._procs.items()):
            try:
                if proc.poll() is None:  # else the port may be a stranger's
                    self.client(name).shutdown()
            except OasisNetError:
                pass
        for name, proc in list(self._procs.items()):
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.send_signal(signal.SIGTERM)
                    try:
                        proc.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait(timeout=5)
            self._procs.pop(name, None)
        for name in list(self._clients):
            self._drop_client(name)

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
