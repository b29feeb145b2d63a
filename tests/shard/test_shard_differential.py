"""A sharded universe is observably equivalent to a single-process one.

The same logical script — issue a diamond plus a bystander, exercise the
grants, collapse the diamond, try the revoked grant — runs once against
the graph world built in this process and once against the same factory
on a 2-worker :class:`~repro.shard.ShardRouter` with every diamond edge
crossing the boundary.  The observations must agree: same grant results,
same cascade completeness, same denial outcome, and the same per-service
REVOCATION audit records *modulo cross-shard interleaving* (shards are
independent log streams, so streams are compared as sorted multisets)
*modulo ref serials* (rejection-sampling allocators mint different
serials by design, so serials are normalised out of subjects and
reasons).  The scale world is compared the same way, in this process
and across workers.
"""

import re

from repro.core import (OasisError, Presentation, PrincipalId, Role,
                        RoleName, ServiceRegistry)
from repro.events import EventBroker
from repro.netd.worlds import NodeContext, ScaleWorld
from repro.shard import ShardRouter
from shard_worlds import graph_world_factory

NAMES = ["A", "B", "C", "D"]
_SERIAL = re.compile(r"#\d+")


def normalized(text):
    return _SERIAL.sub("#n", str(text))


def in_process(factory, *args):
    """``factory``'s world built in this process: one broker, no network."""
    return factory(NodeContext("plain", EventBroker(), ServiceRegistry(),
                               None, clock=lambda: 0.0), *args)


def run_single_process():
    services = in_process(graph_world_factory, ",".join(NAMES)).services
    user = PrincipalId("alice")

    def issue(name, deps, session):
        service = services[name]
        (certificate,) = service.issue_rmcs_bulk(
            [(user, Role(RoleName(service.id, "role"), ("alice",)),
              tuple(deps), session)])
        return certificate

    a = issue("A", [], "sa")
    b = issue("B", [a.ref], "sb")
    c = issue("C", [a.ref], "sc")
    d = issue("D", [b.ref, c.ref], "sd")
    bystander = issue("A", [], "sx")
    certs = {"A": a, "B": b, "C": c, "D": d}

    grants = {name: services[name].invoke(
        user, "ping", ["alice"], credentials=[Presentation(cert)])
        for name, cert in certs.items()}

    services["A"].revoke(a.ref, "logout")

    active = {name: services[name].is_active(cert.ref)
              for name, cert in certs.items()}
    active["bystander"] = services["A"].is_active(bystander.ref)

    try:
        services["D"].invoke(user, "ping", ["alice"],
                             credentials=[Presentation(d)])
        denial = None
    except Exception as error:  # noqa: BLE001 - the type name is the datum
        denial = type(error).__name__

    audit = {
        name: sorted(
            [record.kind, normalized(record.principal),
             normalized(record.subject), normalized(record.reason),
             record.trace_id, [attempt.to_dict()
                               for attempt in record.attempts]]
            for record in service.access_log.query(kind="revocation"))
        for name, service in services.items()
    }
    return {"grants": grants, "active": active, "denial": denial,
            "audit": audit}


# -- the sharded run (diamond split across the boundary) --------------------
def run_sharded(shards=2):
    pins = {"A": 0, "B": 1, "C": 1, "D": 0}
    with ShardRouter(shards, graph_world_factory,
                     (",".join(NAMES),)) as router:
        def issue(name, deps, session, shard):
            (certificate,) = router.issue_rmcs_bulk(
                name, [("alice", "role", ["alice"], deps, session)],
                shards=[shard])
            return certificate

        a = issue("A", [], "sa", pins["A"])
        b = issue("B", [a.ref], "sb", pins["B"])
        c = issue("C", [a.ref], "sc", pins["C"])
        d = issue("D", [b.ref, c.ref], "sd", pins["D"])
        bystander = issue("A", [], "sx", 1)
        certs = {"A": a, "B": b, "C": c, "D": d}

        grants = {name: router.invoke(name, "alice", "ping", ["alice"],
                                      credentials=[cert])
                  for name, cert in certs.items()}

        router.revoke(a.ref, "logout")

        active = {name: router.is_active(cert.ref)
                  for name, cert in certs.items()}
        active["bystander"] = router.is_active(bystander.ref)

        try:
            router.invoke("D", "alice", "ping", ["alice"], credentials=[d])
            denial = None
        except OasisError as error:
            denial = type(error).__name__

        audit = {}
        for name in NAMES:
            merged = []
            for records in router.audit(name, kind="revocation").values():
                merged.extend(
                    [kind, normalized(principal), normalized(subject),
                     normalized(reason), trace_id, attempts]
                    for _ts, kind, principal, subject, reason, trace_id,
                    attempts in records)
            audit[name] = sorted(merged)
        return {"grants": grants, "active": active, "denial": denial,
                "audit": audit}


class TestGraphDifferential:
    def test_sharded_universe_matches_single_process(self):
        single = run_single_process()
        sharded = run_sharded()

        assert sharded["grants"] == single["grants"]
        assert sharded["active"] == single["active"]
        assert sharded["denial"] == single["denial"] == "CredentialRevoked"
        assert sharded["audit"] == single["audit"]
        # The collapse actually happened in both universes.
        assert single["active"] == {"A": False, "B": False, "C": False,
                                    "D": False, "bystander": True}
        assert sum(len(stream) for stream in single["audit"].values()) == 4


class TestScaleWorldDifferential:
    BUILD = {"principals": 30, "live": 12}
    COLLAPSE = {"sessions": [0, 3, 4, 11]}

    def sharded_state(self, workers, collapse=None):
        """Build the scale world at a given worker count (and collapse
        the scripted sessions); return the observable whole-universe
        state (partition-independent)."""
        with ShardRouter(workers, ScaleWorld) as router:
            router.call_handler_all("build", {
                shard: self.BUILD for shard in range(workers)})
            if collapse:
                router.call_handler_all("collapse", {
                    shard: collapse for shard in range(workers)})
            states = router.call_handler_all("state")
            live = router.live_credential_count()
            sessions = router.live_sessions("login")
        merged = {}
        for state in states.values():
            merged.update(state)
        return {"live": live, "sessions": merged,
                "login_sessions": sessions}

    def test_worker_count_does_not_change_observable_state(self):
        lone = self.sharded_state(1)
        split = self.sharded_state(3)
        assert lone == split
        assert lone["live"] == 30 + 12
        assert len(lone["sessions"]) == 12
        assert all(entry == {"root_active": True, "leaf_active": True}
                   for entry in lone["sessions"].values())

    def test_sharded_world_matches_the_in_process_one(self):
        world = in_process(ScaleWorld)
        world.handlers["build"](self.BUILD)
        assert world.handlers["collapse"](self.COLLAPSE) == 4
        plain = world.state()

        split = self.sharded_state(2, self.COLLAPSE)
        assert split["live"] == world.live_credential_count() \
            == 30 + 12 - 2 * 4
        assert split["sessions"] == plain
        assert sorted(name for name, entry in plain.items()
                      if not entry["root_active"]) == ["s0", "s11", "s3",
                                                      "s4"]
        assert all(entry["leaf_active"] == entry["root_active"]
                   for entry in plain.values())
