"""Helpers for the netd suite: an in-process served node over loopback,
the raw framed socket scripted peers and subscribers are made of, and a
server that runs a script on each connection."""

import socket
import threading
import time

from repro.core.service import ServiceRegistry
from repro.events import EventBroker
from repro.netd.client import OasisClient, RemoteNetwork
from repro.netd.protocol import FrameDecoder, encode_frame
from repro.netd.server import OasisServer
from repro.netd.worlds import NodeContext


class Node:
    """One in-process served node plus its substrate, for tests that
    need to reach inside (broker, network) as well as over the wire."""

    def __init__(self, name, factory, peers=None, **server_kwargs):
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.network = RemoteNetwork(name, peers=dict(peers or {}))
        ctx = NodeContext(name, self.broker, self.registry, self.network,
                          clock=time.time)
        world = factory(ctx)
        self.world = world
        self.server = OasisServer(
            name, world.services, broker=self.broker,
            network=self.network, handlers=world.handlers,
            **server_kwargs)
        self.server.start()

    @property
    def port(self):
        return self.server.port

    def client(self, **kwargs):
        return OasisClient("127.0.0.1", self.port,
                           peer=self.server.node,
                           **kwargs).connect()

    def close(self):
        self.server.close()
        self.network.close()


class Peer:
    """One raw connection (a scripted server's accepted one, or a
    hand-driven client's), framed with the same ``FrameDecoder`` /
    ``encode_frame`` pair the package uses."""

    def __init__(self, sock):
        self.sock = sock
        self._decoder = FrameDecoder()
        self._frames = []

    def read_frame(self):
        """The next frame; ``None`` once the other end hung up."""
        while not self._frames:
            try:
                data = self.sock.recv(65536)
            except OSError:
                return None
            if not data:
                return None
            self._frames.extend(self._decoder.feed(data))
        return self._frames.pop(0)

    def send_frame(self, payload):
        self.sock.sendall(encode_frame(payload))

    def hold(self):
        """Keep the socket open until the other end closes it."""
        while self.read_frame() is not None:
            pass


class FaultyServer:
    """A raw TCP server with a scripted behaviour per connection, each
    on a thread of its own."""

    def __init__(self, behaviour):
        self.behaviour = behaviour
        self.listener = None
        self.port = None
        self.peers = []

    def start(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()
        return self

    def _accept(self):
        while True:
            try:
                sock, _address = self.listener.accept()
            except OSError:
                return
            peer = Peer(sock)
            self.peers.append(peer)
            threading.Thread(target=self._script, args=(peer,),
                             daemon=True).start()

    def _script(self, peer):
        try:
            self.behaviour(peer)
        finally:
            peer.sock.close()

    def stop(self):
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes accept()
        self.listener.close()
        for peer in self.peers:
            try:
                peer.sock.shutdown(socket.SHUT_RDWR)  # wakes its script
            except OSError:
                pass
