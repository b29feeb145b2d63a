"""Guards for the single holder-side Fig. 5 path.

A service learns that a credential it caches died, was re-issued or went
quiet through the subscriptions its constructor makes and nowhere else:
they do not grow with the number of cached validations, and they keep
working for validations cached again after a restart.
"""

import pytest

from repro.core import (
    AuthorizationRule,
    CredentialRevoked,
    OasisService,
    Presentation,
    PrerequisiteRole,
    PrincipalId,
    RoleTemplate,
    ServiceRegistry,
    Var,
)
from repro.events import CREDENTIAL_HEARTBEAT, Event, EventBroker
from repro.net import SimClock

from test_heartbeats import build


def log_in(login, user):
    return login.activate_role(PrincipalId(user), "logged_in_user", [user])


def visit(portal, user, rmc):
    return portal.activate_role(PrincipalId(user), "visitor", [user],
                                [Presentation(rmc)])


@pytest.mark.parametrize("timeout,per_service",
                         [(None, 2), (10.0, 3)], ids=["plain", "heartbeat"])
def test_subscriptions_do_not_grow_with_cached_validations(timeout,
                                                           per_service):
    broker = EventBroker()
    login, portal = build(SimClock(), broker, ServiceRegistry(),
                          heartbeat_timeout=timeout)
    visitor = RoleTemplate(portal.policy.define_role("visitor", 1),
                           (Var("u"),))
    portal.policy.add_authorization_rule(AuthorizationRule(
        "greet", (Var("u"),), (PrerequisiteRole(visitor),)))
    portal.register_method("greet", lambda user: f"hello {user}")
    at_construction = broker.stats()["subscriptions"]
    assert at_construction == 2 + per_service
    for index in range(50):
        user = f"u{index}"
        membership = visit(portal, user, log_in(login, user))
        for _ in range(2):  # the second greeting is a decision-cache hit
            portal.invoke(PrincipalId(user), "greet", [user],
                          [Presentation(membership)])
    assert portal.validation_cache_size == 50
    assert len(portal._decisions) == 50
    assert portal.stats.decision_cache_hits == 50
    assert broker.stats()["subscriptions"] == at_construction


def test_validation_cached_before_resume_dropped_by_later_revocation():
    clock = SimClock()
    login, portal = build(clock, EventBroker(), ServiceRegistry(),
                          heartbeat_timeout=None, store=True)
    rmc = log_in(login, "u")
    visit(portal, "u", rmc)
    # A fresh process: new broker and registry, state from the stores.
    broker, registry = EventBroker(), ServiceRegistry()
    login = OasisService(login.policy, broker, registry, clock,
                         store=login.store)
    portal = OasisService(portal.policy, broker, registry, clock,
                          store=portal.store)
    # Nothing cached survives the restart: one presentation caches the
    # validation again, by callback.
    assert portal.validation_cache_size == 0
    callbacks = portal.stats.callbacks_made
    visit(portal, "u", rmc)
    assert portal.stats.callbacks_made == callbacks + 1
    assert portal.validation_cache_size == 1
    invalidations = portal.stats.cache_invalidations
    login.revoke(rmc.ref, "logout")
    assert portal.stats.cache_invalidations == invalidations + 1
    assert portal.validation_cache_size == 0
    callbacks = portal.stats.callbacks_made
    with pytest.raises(CredentialRevoked):
        visit(portal, "u", rmc)
    assert portal.stats.callbacks_made == callbacks + 1


def test_heartbeat_for_uncached_ref_changes_nothing():
    clock = SimClock()
    broker = EventBroker()
    login, portal = build(clock, broker, ServiceRegistry())
    visit(portal, "u", log_in(login, "u"))
    stranger = log_in(login, "v")  # issued, never presented to portal
    clock.advance(11.0)
    before = (portal.suspect_credentials(), portal.validation_cache_size,
              dict(portal._heard))
    for ref_string in (stranger.ref.qualified, "dom/elsewhere#1"):
        broker.publish(Event.make(CREDENTIAL_HEARTBEAT,
                                  credential_ref=ref_string))
    assert (portal.suspect_credentials(), portal.validation_cache_size,
            dict(portal._heard)) == before
