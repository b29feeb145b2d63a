"""Shared fixture for the netd suite: an in-process served bench world
reachable over a real (loopback) socket."""

import pytest

from repro.netd.worlds import bench_world

from netd_helpers import Node


@pytest.fixture
def bench_node():
    node = Node("bench", bench_world)
    yield node
    node.close()
