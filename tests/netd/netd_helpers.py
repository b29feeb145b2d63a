"""Helpers for the netd suite: an in-process served node over loopback."""

import time

from repro.core.service import ServiceRegistry
from repro.events import EventBroker
from repro.netd.client import OasisClient, RemoteNetwork
from repro.netd.server import OasisServer
from repro.netd.worlds import NodeContext


class Node:
    """One in-process served node plus its substrate, for tests that
    need to reach inside (broker, network) as well as over the wire."""

    def __init__(self, name, factory, loop, peers=None, **server_kwargs):
        self.loop = loop
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
        loop.run(self.server.start())

    @property
    def port(self):
        return self.server.port

    def client(self, **kwargs):
        return OasisClient("127.0.0.1", self.port,
                           peer=self.server.node,
                           **kwargs).connect()

    def close(self):
        self.loop.run(self.server.close())
        self.network.close()
