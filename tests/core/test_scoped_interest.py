"""A revocation costs only the services it revokes.

Two halves keep a journalled cascade cheap.  A covered hop's journal
entry is write-behind, so a root revoke commits (and fsyncs) once, at the
origin, and runs no SQL at all on any hop's store.  And each service
hears only the issuers its state depends on: its reverse index, its
validation cache and its decision cache key nothing on an issuer it does
not attend (under-delivery would fail open), so on a chain each event
reaches the issuer and its one dependent.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    OasisService,
    Presentation,
    PrincipalId,
    Role,
    RoleName,
    ServiceRegistry,
)
from repro.core.exceptions import OasisError
from repro.core.state import ServiceStateCodec
from repro.db import MemoryRecordStore, SqliteRecordStore
from repro.events import CREDENTIAL_REVOKED, Event, EventBroker
from repro.events.broker import issuer_of
from repro.policy import parse_policy

from test_power_cut import chain_policies
from tests.conftest import examples

DEPTH = 16


@pytest.mark.parametrize("checkpointed", [False, True])
def test_a_root_revoke_runs_sql_only_at_the_origin(tmp_path, checkpointed):
    """Also once every store has flushed: a hop then holds nothing in
    its write-behind buffer that could answer for it."""
    broker, registry = EventBroker(), ServiceRegistry()
    services = [
        OasisService(policy, broker, registry,
                     store=SqliteRecordStore(str(tmp_path / f"svc-{n}.db"),
                                             codec=ServiceStateCodec()))
        for n, policy in enumerate(chain_policies(DEPTH))]
    pid = PrincipalId("p0")
    chain = [services[0].activate_role(pid, "role", ["p0"])]
    for service in services[1:]:
        chain.append(service.activate_role(pid, "role", None,
                                           [Presentation(chain[-1])]))
    if checkpointed:
        for service in services:
            service.checkpoint()
    statements = [[] for _ in services]
    for service, seen in zip(services, statements):
        service.store._conn.set_trace_callback(seen.append)
    deliveries = []
    deliver = broker._deliver

    def counting(event):
        deliveries.append(deliver(event))
        return deliveries[-1]

    broker._deliver = counting
    commits = [service.store.durable_commits for service in services]

    assert services[0].revoke(chain[0].ref, "logout")

    assert all(not service.is_active(certificate.ref)
               for service, certificate in zip(services, chain))
    assert statements[0] and statements[1:] == [[]] * (DEPTH - 1)
    assert [service.store.durable_commits - before
            for service, before in zip(services, commits)] \
        == [1] + [0] * (DEPTH - 1)
    assert len(deliveries) == DEPTH
    assert max(deliveries) <= 2
    for service in services:
        service.store._conn.set_trace_callback(None)
        service.store.close()


LOGIN = "service dom/login\nrole user(u)\nactivate user(u)\n"
DESK = ("service dom/desk\nrole clerk(u)\n"
        "activate clerk(u) <- dom/login:user(u)*\n"
        "authorize use(u) <- dom/login:user(u)\n")
WARD = ("service dom/ward\nrole aide(u)\n"
        "activate aide(u) <- dom/desk:clerk(u)*\n"
        "authorize read(u) <- dom/desk:clerk(u), dom/login:user(u)\n")
USERS = ("ann", "bob")

OPS = st.one_of(
    st.tuples(st.sampled_from(["user", "clerk", "aide", "bulk", "use",
                               "read", "revoke"]),
              st.sampled_from(USERS), st.integers(0, 2)),
    st.just(("resume", None, 0)))


class World:
    """login <- desk <- ward, each on a memory store that outlives its
    service; ``resume`` rebuilds every service over its store."""

    def __init__(self, cache_validations):
        self.cache_validations = cache_validations
        self.stores = [MemoryRecordStore(ServiceStateCodec())
                       for _ in range(3)]
        self.held = {}
        self.build()

    def build(self):
        broker, registry = EventBroker(), ServiceRegistry()
        self.broker = broker
        self.login, self.desk, self.ward = [
            OasisService(parse_policy(text), broker, registry, store=store,
                         cache_validations=self.cache_validations)
            for text, store in zip((LOGIN, DESK, WARD), self.stores)]
        self.desk.register_method("use", lambda user: user)
        self.ward.register_method("read", lambda user: user)
        for service in (self.login, self.desk, self.ward):
            service.replay_pending()

    def cert(self, role, user):
        return self.held.get((role, user))

    def step(self, op, user, which):
        pid = PrincipalId(user or "-")
        shown = [Presentation(certificate) for certificate
                 in (self.cert("user", user), self.cert("clerk", user))
                 if certificate is not None]
        if op == "resume":
            self.build()
        elif op == "user":
            self.held[("user", user)] = self.login.activate_role(
                pid, "user", [user])
        elif op == "clerk":
            self.held[("clerk", user)] = self.desk.activate_role(
                pid, "clerk", None, shown[:1])
        elif op == "aide":
            self.held[("aide", user)] = self.ward.activate_role(
                pid, "aide", None, shown[1:])
        elif op == "bulk":
            login = self.cert("user", user)
            deps = [] if login is None else [login.ref]
            (self.held[("clerk", user)],) = self.desk.issue_rmcs_bulk(
                [(pid, Role(RoleName(self.desk.id, "clerk"), (user,)),
                  deps, None)])
        elif op == "use":
            self.desk.invoke(pid, "use", [user], shown[:1])
        elif op == "read":
            self.ward.invoke(pid, "read", [user], shown[::-1])
        else:
            role = ("user", "clerk", "aide")[which]
            certificate = self.cert(role, user)
            if certificate is not None:
                issuer = {"user": self.login, "clerk": self.desk,
                          "aide": self.ward}[role]
                issuer.revoke(certificate.ref, "revoked")

    def assert_attended(self):
        for service in (self.login, self.desk, self.ward):
            keys = [*service._dependents, *service._validation_cache,
                    *service._decisions._by_ref]
            channels = service._service_subs[:2]
            for key in keys:
                event = Event.make(CREDENTIAL_REVOKED, credential_ref=key)
                for channel in channels:
                    assert issuer_of(key) in channel.keys, (service.id,
                                                               key)
                    if channel.topic == CREDENTIAL_REVOKED:
                        assert channel in self.broker._candidates(event)


@given(st.booleans(), st.lists(OPS, max_size=25))
@settings(max_examples=examples(150), deadline=None)
def test_every_key_names_an_attended_issuer(cache_validations, ops):
    world = World(cache_validations)
    for op, user, which in ops:
        try:
            world.step(op, user, which)
        except OasisError:
            pass
        world.assert_attended()


def test_a_service_hears_only_the_issuers_it_depends_on():
    """The first event of another issuer's that a service is not keyed on
    is not delivered to it; once it depends on that issuer, it is."""
    world = World(cache_validations=True)
    calls = []
    for service in (world.login, world.desk, world.ward):
        service._service_subs[0].handler = (
            lambda event, name=str(service.id): calls.append(name))
    world.step("user", "ann", 0)
    world.login.revoke(world.cert("user", "ann").ref, "logout")
    assert calls == ["dom/login"]
    calls.clear()
    world.step("user", "bob", 0)
    world.step("clerk", "bob", 0)
    world.login.revoke(world.cert("user", "bob").ref, "logout")
    assert calls == ["dom/login", "dom/desk"]
