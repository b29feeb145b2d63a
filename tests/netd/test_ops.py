"""Op-surface parity: the shared ops of :mod:`repro.netd.ops` answer the
same through an ``OasisServer`` over loopback and through
``ShardWorker.dispatch`` in-process.

One table drives both hosts.  Each case is a script over a
``call(op, **fields) -> reply envelope`` function, so it can chain ops
(``invoke`` needs what ``activate`` returned); both hosts run the same
policy on the same frozen clock, so everything but the signing secret
is deterministic and the replies must be equal.
"""

import dataclasses
import socket

import pytest

from repro.core import wire
from repro.core.access_log import AccessKind
from repro.core.rules import AppointmentRule, PrerequisiteRole
from repro.core.service import ServiceRegistry
from repro.core.state import ref_payload
from repro.core.terms import Var
from repro.core.types import RoleName, RoleTemplate
from repro.db import PATH_ENV, configured_backend, configured_path
from repro.events import EventBroker
from repro.netd.client import RemoteNetwork
from repro.netd.ops import activation_payload, presentation_payload
from repro.netd.protocol import FrameDecoder, encode_frame
from repro.netd.server import OasisServer
from repro.netd.worlds import NodeContext, bench_world
from repro.shard.worker import ShardWorker


def parity_world(ctx):
    """``bench_world`` plus what it lacks for full op coverage: an
    appointment its ``user`` role may issue, and a world handler."""
    world = bench_world(ctx)
    service = world.services["svc"]
    user = RoleTemplate(RoleName(service.id, "user"), (Var("u"),))
    service.policy.add_appointment_rule(AppointmentRule(
        "badge", (Var("b"),), (PrerequisiteRole(user),)))
    world.handlers["double"] = lambda payload: {"doubled": payload["n"] * 2}
    return world


@pytest.fixture
def hosts(tmp_path, monkeypatch):
    """``{"server": call, "worker": call}`` over fresh twin hosts."""
    broker, network = EventBroker(), RemoteNetwork("twin")
    world = parity_world(NodeContext("twin", broker, ServiceRegistry(),
                                     network, clock=lambda: 0.0))
    server = OasisServer("twin", world.services, broker=broker,
                         network=network, handlers=world.handlers)
    server.start()
    with monkeypatch.context() as env:
        # Shard workers refuse sqlite without a durable templated path.
        if configured_backend() == "sqlite" and configured_path() is None:
            env.setenv(PATH_ENV, str(tmp_path / "store-{shard}.sqlite"))
        worker = ShardWorker(0, 1, parity_world)
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    decoder = FrameDecoder()

    def served(op, **fields):
        sock.sendall(encode_frame(dict(fields, id=1, op=op)))
        frames = []
        while not frames:
            frames = decoder.feed(sock.recv(65536))
        return frames[0]

    def sharded(op, **fields):
        return worker.dispatch(dict(fields, op=op))

    yield {"server": served, "worker": sharded}
    sock.close()
    server.close()
    network.close()


def _value(reply):
    assert reply["ok"], reply
    return reply["value"]


def _certificate(payload):
    """A wire certificate minus the one host-specific part."""
    return dataclasses.replace(wire.decode_certificate(payload),
                               signature=b"")


def _activate(call, principal="alice", **extra):
    return _value(call("activate", service="svc",
                       request=activation_payload(principal, "user",
                                                  [principal], **extra)))


def _ref(value):
    return ref_payload(wire.decode_certificate(value["cert"]).ref)


def case_activate(call):
    return _certificate(_activate(call)["cert"])


def case_activate_bulk(call):
    value = _value(call("activate_bulk", service="svc", requests=[
        activation_payload(name, "user", [name]) for name in "abc"]))
    return [_certificate(payload) for payload in value["certs"]]


def case_invoke(call):
    rmc = wire.decode_certificate(_activate(call)["cert"])
    return _value(call("invoke", service="svc", principal="alice",
                       method="echo", arguments=["hi"],
                       credentials=[presentation_payload(rmc)]))


def case_appoint(call):
    rmc = wire.decode_certificate(_activate(call)["cert"])
    value = _value(call("appoint", service="svc", appointer="alice",
                        name="badge", parameters=["gold"],
                        credentials=[presentation_payload(rmc)],
                        holder="bob", expires_at=99.0))
    return _certificate(value["cert"])


def case_revoke(call):
    ref = _ref(_activate(call))
    return [_value(call("revoke", ref=ref, reason="done")),
            _value(call("revoke", ref=ref, reason="again"))]


def case_is_active(call):
    ref = _ref(_activate(call))
    before = _value(call("is_active", ref=ref))
    call("revoke", ref=ref)
    return [before, _value(call("is_active", ref=ref))]


def case_record(call):
    ref = _ref(_activate(call, session="s1"))
    missing = dict(ref, serial=ref["serial"] + 1000)
    return [_value(call("record", ref=ref)),
            _value(call("record", ref=missing))]


def case_audit(call):
    _activate(call)
    call("invoke", service="svc", principal="mallory", method="echo",
         arguments=["hi"], credentials=[])
    everything = _value(call("audit", service="svc"))
    denied = _value(call("audit", service="svc",
                         kind=AccessKind.INVOCATION_DENIED))
    assert len(everything["records"]) == 2
    assert len(denied["records"]) == 1
    return [everything, denied]


def case_sessions(call):
    _activate(call, "alice", session="s2")
    _activate(call, "bob", session="s1")
    return _value(call("sessions", service="svc"))


def case_spans(call):
    return _value(call("spans", trace_id=None, name=None))


def case_handler(call):
    return _value(call("handler", name="double", payload={"n": 21}))


def case_checkpoint(call):
    return _value(call("checkpoint"))


CASES = {
    "activate": case_activate,
    "activate_bulk": case_activate_bulk,
    "invoke": case_invoke,
    "appoint": case_appoint,
    "revoke": case_revoke,
    "is_active": case_is_active,
    "record": case_record,
    "audit": case_audit,
    "sessions": case_sessions,
    "spans": case_spans,
    "handler": case_handler,
    "checkpoint": case_checkpoint,
}


@pytest.mark.parametrize("op", sorted(CASES))
def test_shared_op_answers_the_same_on_both_hosts(hosts, op):
    served = CASES[op](hosts["server"])
    sharded = CASES[op](hosts["worker"])
    assert served == sharded


@pytest.mark.parametrize("message", [
    {"op": "definitely_not_an_op"},
    {"op": "activate", "service": "nope",
     "request": activation_payload("alice", "user", ["alice"])},
    {"op": "handler", "name": "nope"},
    {"op": "invoke", "service": "svc", "principal": "mallory",
     "method": "echo", "arguments": ["hi"]},
], ids=["unknown-op", "unknown-service", "unknown-handler", "denied"])
def test_errors_are_typed_the_same_on_both_hosts(hosts, message):
    fields = dict(message)
    op = fields.pop("op")
    replies = [hosts[host](op, **fields) for host in ("server", "worker")]
    for reply in replies:
        assert reply["ok"] is False
        assert set(reply["error"]) == {"type", "message"}
        assert all(isinstance(part, str)
                   for part in reply["error"].values())
    assert replies[0]["error"]["type"] == replies[1]["error"]["type"]
