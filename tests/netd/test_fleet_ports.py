"""A fleet boots onto the ports it was given, or fails loudly.

``free_port()`` hands each port out once per process, and the supervisor
accepts a node as ready only when the process answering on its port names
itself as that node."""

import pytest

from repro.netd import deploy
from repro.netd.deploy import NodeSpec, Supervisor, free_port
from repro.netd.server import OasisServer


def test_supervisor_rejects_a_node_squatting_on_the_port():
    squatter = OasisServer("squatter", {}).start()
    fleet = Supervisor([NodeSpec("front", squatter.port,
                                 world="repro.netd.worlds:bench_world")])
    try:
        with pytest.raises(RuntimeError, match="'squatter', not 'front'"):
            fleet.start()
    finally:
        fleet.stop()
        squatter.close()


def test_free_port_never_hands_out_a_port_twice(monkeypatch):
    ports = iter([7, 7, 9])  # privileged: no real free_port() returns one

    class Probe:
        """The probe socket, with an OS that hands out ``ports``."""

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def bind(self, address):
            pass

        def getsockname(self):
            return ("127.0.0.1", next(ports))

    monkeypatch.setattr(deploy.socket, "socket", Probe)
    assert [free_port(), free_port()] == [7, 9]
