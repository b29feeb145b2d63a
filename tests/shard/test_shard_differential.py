"""A sharded universe is observably equivalent to a single-process one.

The same logical script — issue a diamond plus a bystander, exercise the
grants, collapse the diamond, try the revoked grant — runs once against
plain ``OasisService`` objects and once against a 2-worker
:class:`~repro.shard.ShardRouter` with every diamond edge crossing the
boundary.  The observations must agree: same grant results, same cascade
completeness, same denial outcome, and the same per-service REVOCATION
audit records *modulo cross-shard interleaving* (shards are independent
log streams, so streams are compared as sorted multisets) *modulo ref
serials* (rejection-sampling allocators mint different serials by
design, so serials are normalised out of subjects and reasons).
"""

import re

from repro.core import (ActivationRule, AuthorizationRule, OasisError,
                        OasisService, Presentation, PrerequisiteRole,
                        PrincipalId, Role,
                        RoleName, RoleTemplate, ServiceId, ServicePolicy,
                        ServiceRegistry, Var)
from repro.core.access_log import AccessLog
from repro.events import EventBroker
from repro.shard import ShardRouter
from repro.shard.worlds import graph_world_factory, scale_world_factory

NAMES = ["A", "B", "C", "D"]
_SERIAL = re.compile(r"#\d+")


def normalized(text):
    return _SERIAL.sub("#n", str(text))


# -- the single-process twin (mirrors GraphShardWorld exactly) --------------
def build_plain_universe():
    broker = EventBroker()
    registry = ServiceRegistry()
    services = {}
    for name in NAMES:
        policy = ServicePolicy(ServiceId("graph", name))
        role = policy.define_role("role", 1)
        template = RoleTemplate(role, (Var("u"),))
        policy.add_activation_rule(ActivationRule(template))
        policy.add_authorization_rule(AuthorizationRule(
            "ping", (Var("u"),), (PrerequisiteRole(template),)))
        service = OasisService(policy, broker, registry, lambda: 0.0,
                               access_log=AccessLog(capacity=10_000))
        service.register_method("ping", lambda u: f"pong[{u}]")
        services[name] = service
    return services


def run_single_process():
    services = build_plain_universe()
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
             normalized(record.subject), normalized(record.reason)]
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
                     normalized(reason)]
                    for _ts, kind, principal, subject, reason in records)
            audit[name] = sorted(merged)
        return {"grants": grants, "active": active, "denial": denial,
                "audit": audit}


class TestGraphDifferential:
    def test_sharded_universe_matches_single_process(
            self, sharded_store_env):
        single = run_single_process()
        with sharded_store_env():
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
    def built_state(self, workers, sharded_store_env):
        """Build the scale world at a given worker count; return the
        observable whole-universe state (partition-independent)."""
        with sharded_store_env():
            with ShardRouter(workers, scale_world_factory) as router:
                router.call_handler_all("build", {
                    shard: {"principals": 30, "live": 12}
                    for shard in range(workers)})
                states = router.call_handler_all("state")
                live = router.live_credential_count()
                sessions = router.live_sessions("login")
        merged = {}
        for state in states.values():
            merged.update(state["sessions"])
        return {"live": live, "sessions": merged,
                "login_sessions": sessions}

    def test_worker_count_does_not_change_observable_state(
            self, sharded_store_env):
        lone = self.built_state(1, sharded_store_env)
        split = self.built_state(3, sharded_store_env)
        assert lone == split
        assert lone["live"] == 30 + 12
        assert len(lone["sessions"]) == 12
        assert all(entry == {"root_active": True, "leaf_active": True}
                   for entry in lone["sessions"].values())
