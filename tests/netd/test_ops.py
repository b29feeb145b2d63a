"""Op-surface parity: the shared ops of :mod:`repro.netd.ops` answer the
same through an ``OasisServer`` and through a ``ShardWorker`` (the
``--shard 0/1`` server), both over loopback.

One table drives both hosts.  Each case is a script over a
``call(op, **fields) -> reply envelope`` function, so it can chain ops
(``invoke`` needs what ``activate`` returned); both hosts run the same
policy on the same frozen clock, so everything but the signing secret
is deterministic and the replies must be equal — key for key: a worker
adds its ``outbox`` only to the reply of an op that minted events for
other shards, and a lone shard has none.  The two shard-only ops have
no twin; their reply shapes are pinned below.
"""

import dataclasses
import json
import socket
from functools import partial

import pytest

from repro.core import wire
from repro.core.access_log import AccessKind
from repro.core.rules import AppointmentRule, PrerequisiteRole
from repro.core.service import ServiceRegistry
from repro.core.state import ref_from_payload, ref_payload
from repro.core.terms import Var
from repro.core.types import RoleName, RoleTemplate
from repro.events import EventBroker
from repro.events.messages import CREDENTIAL_REVOKED, Event
from repro.netd.client import RemoteNetwork
from repro.netd.ops import activation_payload, presentation_payload
from repro.netd.protocol import MAX_FRAME, FrameDecoder, encode_frame
from repro.netd.server import OasisServer
from repro.netd.worlds import NodeContext, bench_world
from repro.shard import Outbox, ShardedRefAllocator, ShardWorker


def parity_world(ctx):
    """``bench_world`` plus what it lacks for full op coverage: an
    appointment its ``user`` role may issue, and a world handler."""
    world = bench_world(ctx)
    service = world.services["svc"]
    user = RoleTemplate(RoleName(service.id, "user"), (Var("u"),))
    service.policy.add_appointment_rule(AppointmentRule(
        "badge", (Var("b"),), (PrerequisiteRole(user),)))
    world.handlers["double"] = lambda payload: {"doubled": payload["n"] * 2}

    def revoke_then_fail(payload):
        service.revoke(ref_from_payload(payload), "half done")
        raise RuntimeError("after the revoke")

    world.handlers["revoke_then_fail"] = revoke_then_fail
    return world


def _host(make_server, broker, max_frame=MAX_FRAME, **shard):
    """One started twin and a ``call`` over a raw loopback socket;
    ``make_server`` already knows ``broker``."""
    network = RemoteNetwork("twin")
    world = parity_world(NodeContext("twin", broker, ServiceRegistry(),
                                     network, clock=lambda: 0.0, **shard))
    server = make_server("twin", world.services, network=network,
                         handlers=world.handlers, max_frame=max_frame)
    server.start()
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    decoder = FrameDecoder()

    def call(op, **fields):
        sock.sendall(encode_frame(dict(fields, id=1, op=op)))
        frames = []
        while not frames:
            frames = decoder.feed(sock.recv(65536))
        return frames[0]

    def close():
        sock.close()
        server.close()
        network.close()

    return call, close


def _worker(shards, **options):
    """Shard 0 of ``shards``, hosted like ``serve_node`` hosts it."""
    broker = EventBroker()
    return _host(partial(ShardWorker, outbox=Outbox(broker, 0, shards)),
                 broker, shard=0, shards=shards, **options)


@pytest.fixture
def hosts():
    """``{"server": call, "worker": call}`` over fresh twin hosts."""
    broker = EventBroker()
    served, close_server = _host(partial(OasisServer, broker=broker), broker)
    sharded, close_worker = _worker(1)
    yield {"server": served, "worker": sharded}
    close_worker()
    close_server()


def _value(reply):
    assert reply["ok"], reply
    return reply["value"]


def _certificate(payload):
    """A wire certificate minus the one host-specific part."""
    return dataclasses.replace(wire.certificate_from_text(payload),
                               signature=b"")


def _activate(call, principal="alice", **extra):
    return _value(call("activate", service="svc",
                       request=activation_payload(principal, "user",
                                                  [principal], **extra)))


def _ref(value):
    return ref_payload(wire.certificate_from_text(value["cert"]).ref)


def case_activate(call):
    return _certificate(_activate(call)["cert"])


def case_activate_bulk(call):
    value = _value(call("activate_bulk", service="svc", requests=[
        activation_payload(name, "user", [name]) for name in "abc"]))
    return [_certificate(payload) for payload in value["certs"]]


def case_invoke(call):
    rmc = wire.certificate_from_text(_activate(call)["cert"])
    return _value(call("invoke", service="svc", principal="alice",
                       method="echo", arguments=["hi"],
                       credentials=[presentation_payload(rmc)]))


def case_appoint(call):
    rmc = wire.certificate_from_text(_activate(call)["cert"])
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
    # timestamp, kind, principal, subject, reason, trace id, attempts:
    # the reason is the refusal's text; no pipeline runs here, so nothing
    # is traced or explained.
    (row,) = denied["records"]
    assert row[1:] == [AccessKind.INVOCATION_DENIED, "mallory", "echo",
                       "mallory may not invoke bench/svc.echo('hi',)", None,
                       []]
    return [everything, denied]


def case_record_anonymous(call):
    """Sect. 5's anonymity: an appointment issued without a holder has
    no principal, and its record says so."""
    rmc = wire.certificate_from_text(_activate(call)["cert"])
    value = _value(call("appoint", service="svc", appointer="alice",
                        name="badge", parameters=["gold"],
                        credentials=[presentation_payload(rmc)]))
    ref = ref_payload(wire.certificate_from_text(value["cert"]).ref)
    record = _value(call("record", ref=ref))
    assert record["principal"] is None
    return record


def case_audit_unknown_kind(call):
    """A misspelled kind is an error, not an empty answer."""
    call("invoke", service="svc", principal="mallory", method="echo",
         arguments=["hi"], credentials=[])
    reply = call("audit", service="svc", kind="invocation_denied")
    assert reply["ok"] is False
    assert reply["error"]["type"] == "ValueError"
    return reply["error"]


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
    "record_anonymous": case_record_anonymous,
    "audit": case_audit,
    "audit_unknown_kind": case_audit_unknown_kind,
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


@pytest.mark.parametrize("host", ["server", "worker"])
def test_certificates_cross_as_one_json_string(hosts, host):
    """Every ``cert`` is the certificate's memoised compact JSON text, in
    replies and in presentations; a dict where the text belongs is a
    typed ``WireError``."""
    call = hosts[host]
    text = _activate(call)["cert"]
    assert isinstance(text, str) and json.loads(text)["kind"] == "rmc"
    rmc = wire.certificate_from_text(text)
    assert rmc.wire_text == text
    assert presentation_payload(rmc) == {"cert": text}
    bulk = _value(call("activate_bulk", service="svc", requests=[
        activation_payload(name, "user", [name]) for name in "xy"]))
    assert all(isinstance(cert, str) for cert in bulk["certs"])
    appointed = _value(call("appoint", service="svc", appointer="alice",
                            name="badge", parameters=["gold"],
                            credentials=[presentation_payload(rmc)]))
    assert json.loads(appointed["cert"])["kind"] == "appointment"
    refused = call("invoke", service="svc", principal="alice",
                   method="echo", arguments=["hi"],
                   credentials=[{"cert": json.loads(text)}])
    assert refused["ok"] is False
    assert refused["error"]["type"] == "WireError"


def test_issue_bulk_certificates_are_text(lone_worker):
    issued = _value(lone_worker("issue_bulk", service="svc", entries=[{
        "principal": "carol", "role": "user", "parameters": ["carol"],
        "dependencies": [], "session": None}]))
    (text,) = issued["certs"]
    assert isinstance(text, str)
    assert wire.certificate_from_text(text).role.parameters == ("carol",)


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


# -- the shard-only ops (no twin: reply shapes pinned) -----------------------

@pytest.fixture
def lone_worker():
    """``call`` into shard 0 of 2, on its own."""
    call, close = _worker(2)
    yield call
    close()


def _credential_refs(batch):
    return [dict(map(tuple, event["attributes"]))["credential_ref"]
            for event in batch["events"]]


def test_shard_only_ops_and_the_outbox_that_rides_their_replies(
        lone_worker):
    """What the worker mints shows in the reply of the op that minted
    it, and in no other; what another shard minted comes in through
    ``bus.cascade``, the reverse index decides, and only the
    consequences go out again."""
    call = lone_worker
    probe = _ref(_activate(call, "probe"))
    service_id = ref_from_payload(probe).service
    foreign = ShardedRefAllocator(service_id, 1, 2).next()

    issued = _value(call("issue_bulk", service="svc", entries=[{
        "principal": "alice", "role": "user", "parameters": ["alice"],
        "dependencies": [ref_payload(foreign)], "session": "s1"}]))
    assert set(issued) == {"certs"}  # a foreign dependency queues nothing
    (payload,) = issued["certs"]
    ref = wire.certificate_from_text(payload).ref
    assert ShardedRefAllocator(service_id, 0, 2).owns_serial(ref.serial)

    # Shard 1 revoked ``foreign``: the dependent here dies, and only its
    # revocation goes out — the received event is not sent back.
    stimulus = Event.make(CREDENTIAL_REVOKED, credential_ref=foreign.qualified,
                          reason="logout").to_payload()
    delivered = _value(call("bus.cascade", origin="w1", events=[stimulus]))
    assert set(delivered) == {"delivered", "outbox"}
    assert delivered["delivered"] >= 1
    (batch,) = delivered["outbox"]
    assert batch["origin"] == "twin"
    assert _credential_refs(batch) == [ref.qualified]
    assert _value(call("is_active", ref=ref_payload(ref))) == \
        {"active": False}

    revoked = _value(call("revoke", ref=probe, reason="done"))
    assert set(revoked) == {"revoked", "outbox"}
    (batch,) = revoked["outbox"]
    assert _credential_refs(batch) == [ref_from_payload(probe).qualified]
    # Taken with the reply: the next one has nothing to carry.
    assert _value(call("revoke", ref=probe)) == {"revoked": False}

    stats = _value(call("stats"))
    assert "outbox" not in stats
    assert stats["shard"] == 0 and stats["revocations"] == 2
    assert stats["live_credentials"] == 0
    assert stats["events_published"] >= 3
    assert stats["bus"] == {"batches_sent": 2, "events_sent": 2,
                            "batches_received": 1, "events_received": 1}


def test_a_refused_op_leaves_its_forwards_for_the_next_reply(lone_worker):
    call = lone_worker
    ref = _ref(_activate(call))
    refused = call("handler", name="revoke_then_fail", payload=ref)
    assert refused["ok"] is False
    assert set(refused) == {"id", "ok", "error"}
    assert refused["error"]["type"] == "RuntimeError"
    collected = _value(call("bus.cascade", events=[]))
    assert collected["delivered"] == 0
    (batch,) = collected["outbox"]
    assert batch["origin"] == "twin"
    assert _credential_refs(batch) == [ref_from_payload(ref).qualified]


def test_an_outbox_larger_than_a_frame_is_split_never_dropped():
    """One cascade of 41 events (~6 KB) against a 2 KiB frame: the reply
    to ``revoke`` carries what fits and says ``more``, empty
    ``bus.cascade`` calls fetch the rest, every event arrives once."""
    call, close = _worker(2, max_frame=2048)
    try:
        def issue(names, dependencies):
            value = _value(call("issue_bulk", service="svc", entries=[{
                "principal": name, "role": "user", "parameters": [name],
                "session": f"s-{name}", "dependencies": dependencies}
                for name in names]))
            return [wire.certificate_from_text(payload).ref
                    for payload in value["certs"]]

        (root,) = refs = issue(["root"], [])
        for index in range(0, 40, 4):  # four certificates fit a reply
            refs += issue([f"u{n}" for n in range(index, index + 4)],
                          [ref_payload(root)])

        reply = _value(call("revoke", ref=ref_payload(root), reason="r"))
        assert reply["revoked"] is True and reply["more"] is True
        pieces = list(reply["outbox"])
        fetches = 0
        while reply.get("more"):
            reply = _value(call("bus.cascade", events=[]))
            assert reply["outbox"], "a fetch that brings nothing"
            pieces += reply["outbox"]
            fetches += 1
        assert fetches >= 2
        assert all(piece["origin"] == "twin" for piece in pieces)
        forwarded = [ref for piece in pieces
                     for ref in _credential_refs(piece)]
        assert sorted(forwarded) == sorted(ref.qualified for ref in refs)
        # Nothing left behind, and the ``bus`` counters saw ONE batch.
        assert _value(call("bus.cascade", events=[])) == {"delivered": 0}
        assert _value(call("stats"))["bus"]["batches_sent"] == 1
    finally:
        close()
