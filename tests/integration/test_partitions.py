"""Failure injection: network partitions and fail-closed validation.

The paper's architecture validates foreign credentials "via callback to
the issuer" (Sect. 4).  When the issuer is unreachable, the only safe
behaviour is to *fail closed*: a credential that cannot be validated
grants nothing.  Cached validations (the ECR design) keep previously
validated credentials usable during the partition — exactly the
availability the cache buys — while revocations that happened on the other
side of the partition are delivered when the event infrastructure
reconnects (here: the broker is in-process, so only callbacks partition).
"""

import pytest

from repro.core import (
    ActivationDenied,
    ActivationRule,
    CredentialInvalid,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.domains import Deployment
from repro.net import NetworkPartitioned


@pytest.fixture
def world():
    deployment = Deployment()

    login_policy = ServicePolicy(ServiceId("home", "login"))
    logged_in = login_policy.define_role("logged_in_user", 1)
    login_policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    login = deployment.service(login_policy)

    away_policy = ServicePolicy(ServiceId("away", "portal"))
    visitor = away_policy.define_role("visitor", 1)
    away_policy.add_activation_rule(ActivationRule(
        RoleTemplate(visitor, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("u"),)),
                          membership=True),)))
    portal = deployment.service(away_policy)
    return deployment, login, portal


class TestPartitionedValidation:
    def test_partition_blocks_cold_validation_fail_closed(self, world):
        deployment, login, portal = world
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        deployment.network.partition("home", "away")
        with pytest.raises(CredentialInvalid, match="unreachable"):
            session.activate(portal, "visitor")

    def test_partition_timeout_costs_simulated_time(self, world):
        deployment, login, portal = world
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        deployment.network.partition("home", "away")
        before = deployment.clock.now()
        with pytest.raises(CredentialInvalid):
            session.activate(portal, "visitor")
        assert deployment.clock.now() - before \
            == pytest.approx(deployment.network.partition_timeout)

    def test_heal_restores_validation(self, world):
        deployment, login, portal = world
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        deployment.network.partition("home", "away")
        with pytest.raises(CredentialInvalid):
            session.activate(portal, "visitor")
        deployment.network.heal("home", "away")
        rmc = session.activate(portal, "visitor")
        assert portal.is_active(rmc.ref)

    def test_cached_validation_survives_partition(self, world):
        """Availability: a credential validated before the partition keeps
        working from the cache (the issuer's record is unchanged)."""
        deployment, login, portal = world
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        session.activate(portal, "visitor")  # validates + caches
        deployment.network.partition("home", "away")
        rmc = session.activate(portal, "visitor")  # cache hit, no network
        assert portal.is_active(rmc.ref)

    def test_partition_is_symmetric_and_healable(self, world):
        deployment, _, _ = world
        network = deployment.network
        network.partition("home", "away")
        assert network.is_partitioned("away", "home")
        network.heal_all()
        assert not network.is_partitioned("home", "away")

    def test_unrelated_links_unaffected(self, world):
        deployment, login, portal = world
        deployment.network.partition("home", "third")
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        rmc = session.activate(portal, "visitor")  # home<->away still up
        assert portal.is_active(rmc.ref)

    def test_raw_network_error_type(self, world):
        deployment, _, _ = world
        deployment.network.partition("home", "away")
        with pytest.raises(NetworkPartitioned):
            deployment.network.call("home", "away", lambda x: x, 1)
