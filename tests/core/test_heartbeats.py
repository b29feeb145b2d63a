"""Tests for service-integrated heartbeats (Fig. 5 fail-safe)."""

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
from repro.core.state import ServiceStateCodec
from repro.db import MemoryRecordStore
from repro.domains import Deployment
from repro.events import EventBroker
from repro.net import Scheduler, SimClock
from repro.scenarios import build_hospital


def build(clock, broker, registry, heartbeat_timeout=10.0, store=False):
    """An issuer (login) and a holder (portal) whose ``visitor`` role needs
    a login RMC as a membership condition; by default the portal distrusts
    10 s of issuer silence.  ``store`` gives each a memory record store."""

    def record_store():
        return MemoryRecordStore(ServiceStateCodec()) if store else None

    login_policy = ServicePolicy(ServiceId("dom", "login"))
    logged_in = login_policy.define_role("logged_in_user", 1)
    login_policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    login = OasisService(login_policy, broker, registry, clock,
                         store=record_store())

    portal_policy = ServicePolicy(ServiceId("dom", "portal"))
    visitor = portal_policy.define_role("visitor", 1)
    portal_policy.add_activation_rule(ActivationRule(
        RoleTemplate(visitor, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("u"),)),
                          membership=True),)))
    portal = OasisService(portal_policy, broker, registry, clock,
                          heartbeat_timeout=heartbeat_timeout,
                          store=record_store())
    return login, portal


@pytest.fixture
def world():
    clock = SimClock()
    scheduler = Scheduler(clock)
    login, portal = build(clock, EventBroker(), ServiceRegistry())
    return clock, scheduler, login, portal


class TestIssuerHeartbeats:
    def test_heartbeats_sent_for_active_credentials(self, world):
        clock, scheduler, login, portal = world
        Principal("u").start_session(login, "logged_in_user", ["u"])
        cancel = login.start_heartbeats(scheduler, interval=2.0)
        scheduler.run_for(10.0)
        assert login.stats.heartbeats_sent == 5
        cancel()
        scheduler.run_for(10.0)
        assert login.stats.heartbeats_sent == 5

    def test_revoked_credentials_stop_beating(self, world):
        clock, scheduler, login, portal = world
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        login.start_heartbeats(scheduler, interval=2.0)
        scheduler.run_for(4.0)
        sent = login.stats.heartbeats_sent
        login.revoke(session.root_rmc.ref, "gone")
        scheduler.run_for(4.0)
        assert login.stats.heartbeats_sent == sent  # channel closed


class TestHolderFailSafe:
    def activate(self, login, portal):
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        rmc = session.activate(portal, "visitor")
        return session, rmc

    def test_cache_trusted_while_heartbeats_flow(self, world):
        clock, scheduler, login, portal = world
        session, _ = self.activate(login, portal)
        login.start_heartbeats(scheduler, interval=2.0)
        scheduler.run_for(30.0)
        callbacks = portal.stats.callbacks_made
        session.activate(portal, "visitor")  # cache hit expected
        assert portal.stats.callbacks_made == callbacks
        assert portal.suspect_credentials() == []

    def test_silence_bypasses_cache(self, world):
        """No heartbeats for longer than the timeout: the cached
        validation is distrusted and a fresh callback is made."""
        clock, scheduler, login, portal = world
        session, _ = self.activate(login, portal)
        # issuer never heartbeats; let the window lapse
        clock.advance(11.0)
        assert portal.suspect_credentials() == [session.root_rmc.ref]
        callbacks = portal.stats.callbacks_made
        session.activate(portal, "visitor")
        assert portal.stats.callbacks_made == callbacks + 1

    def test_successful_callback_rearms_window(self, world):
        clock, scheduler, login, portal = world
        session, _ = self.activate(login, portal)
        clock.advance(11.0)
        session.activate(portal, "visitor")  # forced callback, re-arms
        callbacks = portal.stats.callbacks_made
        clock.advance(5.0)  # within the fresh window
        session.activate(portal, "visitor")
        assert portal.stats.callbacks_made == callbacks  # cache hit

    def test_no_timeout_configured_means_no_fail_safe(self, world):
        clock, scheduler, login, portal = world
        # login itself has no heartbeat_timeout; it caches nothing foreign
        assert login.suspect_credentials() == []


class TestResumedHolder:
    """A restarted holder has no cached validation, so it heard nothing it
    could have missed: its first presentation of a foreign credential
    calls back, even inside the heartbeat window the entry had before the
    restart, and that callback starts a fresh window (fail closed)."""

    @pytest.fixture
    def resumed(self):
        clock = SimClock()
        login, portal = build(clock, EventBroker(), ServiceRegistry(),
                              store=True)
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        session.activate(portal, "visitor")  # caches the login RMC
        clock.advance(5.0)
        # A fresh process: new broker and registry, both services rebuilt
        # from their stores.
        broker, registry = EventBroker(), ServiceRegistry()
        OasisService(login.policy, broker, registry, clock,
                     store=login.store)
        portal = OasisService(portal.policy, broker, registry, clock,
                              heartbeat_timeout=10.0, store=portal.store)
        assert portal.validation_cache_size == 0
        assert portal.suspect_credentials() == []
        return clock, portal, session

    def test_silence_after_resume_is_suspect(self, resumed):
        clock, portal, session = resumed
        clock.advance(11.0)  # no heartbeat since the restart
        callbacks = portal.stats.callbacks_made
        session.activate(portal, "visitor")
        assert portal.stats.callbacks_made == callbacks + 1
        clock.advance(11.0)  # no heartbeat since that callback
        assert portal.suspect_credentials() == [session.root_rmc.ref]
        session.activate(portal, "visitor")
        assert portal.stats.callbacks_made == callbacks + 2

    def test_first_presentation_within_window_calls_back(self, resumed):
        clock, portal, session = resumed
        clock.advance(9.0)  # inside the window the entry had before
        callbacks = portal.stats.callbacks_made
        hits = portal.stats.cache_hits
        session.activate(portal, "visitor")
        assert portal.stats.callbacks_made == callbacks + 1
        assert portal.stats.cache_hits == hits
        session.activate(portal, "visitor")  # re-cached by that callback
        assert portal.stats.callbacks_made == callbacks + 1
        assert portal.stats.cache_hits == hits + 1


class HeartbeatDeployment(Deployment):
    """A deployment whose every service distrusts 10 s of silence."""

    def service(self, policy, databases=None, **kwargs):
        return super().service(policy, databases, heartbeat_timeout=10.0,
                               **kwargs)


class TestHeartbeatsAreKeyed:
    def test_no_service_subscription_is_a_wildcard(self):
        """Heartbeats ride the same issuer-keyed channels as revocations:
        the records service still hears the beats of the login and admin
        credentials it cached, through no wildcard subscription."""
        deployment = HeartbeatDeployment(use_network=False)
        hospital = build_hospital(deployment)
        doctor = hospital.admit_doctor("dr-x", "pat-1")
        session = hospital.treating_session(doctor)
        records = hospital.records
        assert deployment.broker.stats()["wildcard_subscriptions"] == 0
        for issuer in (hospital.login, hospital.admin):
            issuer.start_heartbeats(deployment.scheduler, interval=2.0)
        deployment.run_for(30.0)
        assert records.suspect_credentials() == []
        callbacks = records.stats.callbacks_made
        session.activate(records, "treating_doctor",
                         use_appointments=doctor.appointments("allocated"))
        assert records.stats.callbacks_made == callbacks
