"""Fig. 5 event channels, holder side: the heartbeat window.

Channels are virtual — a channel is the CRR string on every event — so
heartbeat monitoring lives in the holder service: one wildcard
``CREDENTIAL_HEARTBEAT`` subscription and one window entry per cached
foreign validation, and silence past the timeout makes it suspect.
"""

import pytest

from repro.core import (
    ActivationRule,
    OasisService,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.events import CREDENTIAL_HEARTBEAT, Event, EventBroker
from repro.net import Scheduler, SimClock


@pytest.fixture
def world():
    clock = SimClock()
    broker = EventBroker()
    registry = ServiceRegistry()
    login_policy = ServicePolicy(ServiceId("dom", "login"))
    logged_in = login_policy.define_role("logged_in_user", 1)
    login_policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    login = OasisService(login_policy, broker, registry, clock)
    portal_policy = ServicePolicy(ServiceId("dom", "portal"))
    visitor = portal_policy.define_role("visitor", 1)
    portal_policy.add_activation_rule(ActivationRule(
        RoleTemplate(visitor, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("u"),))),)))
    portal = OasisService(portal_policy, broker, registry, clock,
                          heartbeat_timeout=10.0)
    return clock, broker, login, portal


def cache_login(login, portal, user="u"):
    """Activate at the portal, which caches the foreign login RMC."""
    session = Principal(user).start_session(login, "logged_in_user", [user])
    session.activate(portal, "visitor", [user])
    return session.root_rmc.ref


def heartbeat(broker, ref):
    broker.publish(Event.make(CREDENTIAL_HEARTBEAT,
                              credential_ref=ref.qualified))


class TestHeartbeatMonitor:
    """The portal as heartbeat monitor: one window per cached ref."""

    def test_fresh_watch_is_not_silent(self, world):
        clock, broker, login, portal = world
        ref = cache_login(login, portal)
        assert ref.qualified in portal._heard
        assert portal.suspect_credentials() == []

    def test_silence_detected_after_timeout(self, world):
        clock, broker, login, portal = world
        ref = cache_login(login, portal)
        clock.advance(11.0)
        assert portal.suspect_credentials() == [ref]

    def test_heartbeat_resets_silence(self, world):
        clock, broker, login, portal = world
        ref = cache_login(login, portal)
        clock.advance(8.0)
        heartbeat(broker, ref)
        clock.advance(8.0)
        assert portal.suspect_credentials() == []  # 8 < 10 since last beat
        assert portal._heard[ref.qualified][1] == pytest.approx(8.0)

    def test_only_watched_channels_tracked(self, world):
        clock, broker, login, portal = world
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        heartbeat(broker, session.root_rmc.ref)  # never cached at portal
        assert portal._heard == {}

    def test_unwatch(self, world):
        """A revocation drops the cache entry and its window with it."""
        clock, broker, login, portal = world
        ref = cache_login(login, portal)
        login.revoke(ref, "logout")
        clock.advance(100.0)
        assert portal.suspect_credentials() == []
        assert portal._heard == {}
        assert portal.validation_cache_size == 0

    def test_double_watch_is_idempotent(self, world):
        """One heartbeat subscription however many refs are cached."""
        clock, broker, login, portal = world
        for user in ("a", "b", "c"):
            cache_login(login, portal, user)
        assert len(portal._heard) == 3
        assert broker.subscriber_count(CREDENTIAL_HEARTBEAT) == 1

    def test_timeout_must_be_positive(self, world):
        clock, broker, login, portal = world
        subscriptions = broker.subscriber_count()
        for timeout in (0, -1.0):
            with pytest.raises(ValueError):
                OasisService(ServicePolicy(ServiceId("dom", "other")),
                             broker, ServiceRegistry(), clock,
                             heartbeat_timeout=timeout)
        assert broker.subscriber_count() == subscriptions

    def test_periodic_heartbeats_with_scheduler(self, world):
        """The deployment pattern: issuer heartbeats on a schedule; the
        holder notices when they stop."""
        clock, broker, login, portal = world
        scheduler = Scheduler(clock)
        ref = cache_login(login, portal)
        cancel = login.start_heartbeats(scheduler, interval=2.0)
        scheduler.run_for(20.0)
        assert portal.suspect_credentials() == []
        cancel()  # issuer dies
        scheduler.run_for(10.5)
        assert portal.suspect_credentials() == [ref]
