"""Tests for the simulated deployment."""

import pytest

from repro.core import (ActivationRule, CredentialRevoked, Presentation,
                        Principal, RoleTemplate, ServiceId, ServicePolicy,
                        Var)
from repro.domains import Deployment
from repro.netd.worlds import NodeContext, ehr_front, ehr_national, ehr_records


def login_policy(domain):
    policy = ServicePolicy(ServiceId(domain, "login"))
    role = policy.define_role("logged_in_user", 1)
    policy.add_activation_rule(ActivationRule(RoleTemplate(role,
                                                           (Var("u"),))))
    return policy


class TestDeployment:
    def test_is_a_node_context(self):
        deployment = Deployment()
        assert isinstance(deployment, NodeContext)
        assert deployment.clock is deployment.scheduler.clock

    def test_run_for_drives_scheduler(self):
        deployment = Deployment()
        fired = []
        deployment.scheduler.schedule(5.0, lambda: fired.append(1))
        deployment.run_for(10.0)
        assert fired == [1]
        assert deployment.clock.now() == 10.0

    def test_served_ehr_factories_run_in_simulation(self):
        """The three Fig. 3 node factories, unchanged, on one Deployment:
        the national service's callback to the hospital's records service
        costs one simulated inter-domain round trip, and a revoked
        allocation is refused nationally."""
        deployment = Deployment()
        front = ehr_front(deployment).services
        records = ehr_records(deployment).services["records"]
        national = ehr_national(deployment).services

        admin = Principal("duty-admin").start_session(
            front["login"], "logged_in_user", ["duty-admin"])
        admin.activate(front["admin"], "administrator", ["duty-admin"])
        allocation = admin.issue_appointment(
            front["admin"], "allocated", ["dr-who", "p1"], holder="dr-who")
        doctor = Principal("dr-who")
        treating = doctor.start_session(
            front["login"], "logged_in_user", ["dr-who"]).activate(
            records, "treating_doctor", use_appointments=[allocation])
        accreditation = Principal("registrar").start_session(
            national["registry"], "registrar").issue_appointment(
            national["registry"], "accredited_hospital", ["hospital"],
            holder="gateway")
        gateway = Principal("gateway").start_session(
            national["patient-records"], "hospital",
            use_appointments=[accreditation])
        credentials = [Presentation(gateway.root_rmc),
                       Presentation(treating, on_behalf_of="dr-who")]

        before = deployment.clock.now()
        assert national["patient-records"].invoke(
            gateway.principal.id, "request_EHR", ["p1"],
            credentials=credentials) \
            == ["2019: appendectomy", "2023: allergy noted"]
        assert deployment.clock.now() - before == pytest.approx(0.04)
        assert deployment.network.stats.calls == 5

        front["admin"].revoke(allocation.ref, "patient discharged")
        assert not records.is_active(treating.ref)
        with pytest.raises(CredentialRevoked):
            national["patient-records"].invoke(
                gateway.principal.id, "request_EHR", ["p1"],
                credentials=credentials)


class TestDomain:
    def test_service_and_activate(self):
        deployment = Deployment()
        login = deployment.service(login_policy("hospital"))
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        assert session.root_rmc.issuer.domain == "hospital"

    def test_duplicate_service_rejected(self):
        deployment = Deployment()
        deployment.service(login_policy("hospital"))
        with pytest.raises(ValueError):
            deployment.service(login_policy("hospital"))

    def test_deployment_without_network_uses_direct_callbacks(self):
        """use_network=False: callbacks go through the registry directly,
        costing no simulated time — for pure-logic tests."""
        from repro.core import PrerequisiteRole

        deployment = Deployment(use_network=False)
        assert deployment.network is None
        login = deployment.service(login_policy("hospital"))

        policy = ServicePolicy(ServiceId("clinic", "portal"))
        visitor = policy.define_role("visitor", 1)
        policy.add_activation_rule(ActivationRule(
            RoleTemplate(visitor, (Var("u"),)),
            (PrerequisiteRole(
                RoleTemplate(login.policy.define_role("logged_in_user", 1),
                             (Var("u"),)), membership=True),)))
        portal = deployment.service(policy)
        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        before = deployment.clock.now()
        session.activate(portal, "visitor")
        assert deployment.clock.now() == before  # no latency charged

    def test_custom_latency_model(self):
        from repro.net import LatencyModel

        model = LatencyModel(inter_domain=0.5)
        deployment = Deployment(latency=model)
        assert deployment.network.latency.one_way("a", "b") == 0.5

    def test_cross_domain_calls_pay_network_latency(self):
        """Validation callbacks between domains advance the simulated
        clock; intra-domain ones are much cheaper."""
        from repro.core import PrerequisiteRole

        deployment = Deployment()
        login = deployment.service(login_policy("hospital"))

        visit_policy = ServicePolicy(ServiceId("institute", "visits"))
        visiting = visit_policy.define_role("visitor", 1)
        visit_policy.add_activation_rule(ActivationRule(
            RoleTemplate(visiting, (Var("u"),)),
            (PrerequisiteRole(
                RoleTemplate(login.policy.define_role("logged_in_user", 1),
                             (Var("u"),)), membership=True),)))
        visits = deployment.service(visit_policy)

        session = Principal("u").start_session(login, "logged_in_user",
                                               ["u"])
        before = deployment.clock.now()
        session.activate(visits, "visitor")
        # One cross-domain callback round trip at default 20 ms one-way.
        assert deployment.clock.now() - before == pytest.approx(0.04)
        assert deployment.network.stats.calls == 1
