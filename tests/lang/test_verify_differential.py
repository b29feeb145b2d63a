"""Differential soundness: the symbolic verifier vs. the live runtime.

For each Sect. 5 scenario world the suite builds the verifier's view
directly from the in-memory deployment (no ``.oasis`` source involved)
and cross-checks both directions of soundness:

* **reachable => activatable** — every privilege the fixpoint closure
  marks derivable must replay end-to-end: one probe principal walks the
  minimal witness tree (activating roles, issuing appointments) and the
  final ``invoke`` must succeed.  Replayed under the optimized engine
  *and* the naive reference engine (``tests.reference``).
* **unreachable => denied** — a "ghost" privilege guarded by an
  unissuable credential, added post-hoc to each world, must be
  underivable statically and denied dynamically by both engines.

Worlds: healthcare (hospital + national EHR, Fig. 3), visiting doctor
via SLA, the Tate galleries, the anonymous genetic clinic, and an
inline contracts/audit world.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    CredentialRevoked,
    InvocationDenied,
    Principal,
    PrerequisiteRole,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.core.engine import RuleEngine
from repro.domains import Deployment, ServiceLevelAgreement, SlaTerm
from repro.lang.universe import PolicyUniverse
from repro.lang.verify import (
    Atom,
    build_graph,
    replay_witness,
    run_fixpoint,
    witness_for,
)
from repro.scenarios.healthcare import build_hospital, build_national_ehr
from repro.scenarios.membership import build_clinic, build_galleries

from tests.reference import NaiveRuleEngine

# A far-future expiry for the membership-card appointments whose expiry
# parameter feeds a BeforeDeadlineConstraint (the deployments' simulated
# clock starts at 0.0).
FAR_FUTURE = 4102444800.0

GHOST_METHOD = "drain_vault"


def verifier_view(deployment):
    """The static side: services keyed by id, graph and full closure."""
    services = {s.id: s for s in deployment.registry.all_services()}
    graph = build_graph(PolicyUniverse(
        s.policy for s in services.values()))
    return services, graph, run_fixpoint(graph)


def add_ghost_privilege(service):
    """Guard a new method behind a credential nothing can issue.

    The appointment name is declared by no appointment rule anywhere in
    the universe, so the verifier must mark the privilege underivable
    and the runtime must deny every invocation.
    """
    service.policy.add_authorization_rule(AuthorizationRule(
        GHOST_METHOD, (),
        (AppointmentCondition(service.id, "unobtainable_licence",
                              (Var("x"),), membership=True),)))
    service.register_method(GHOST_METHOD, lambda: "leaked")
    return Atom.privilege(service.id, GHOST_METHOD)


def swap_engines(services, *, optimized):
    for service in services.values():
        engine_cls = RuleEngine if optimized else NaiveRuleEngine
        service._engine = engine_cls(service.context)


def assert_reachable_replay(services, graph, closure, *, seeds=None,
                            expect=None):
    """Every derivable privilege's minimal witness must replay cleanly,
    under the optimized engine and again under the naive one."""
    reachable = [p for p in graph.privileges() if closure.derivable(p)]
    if expect is not None:
        assert {str(p) for p in reachable} == expect
    assert reachable, "world has no reachable privilege to check"
    for optimized in (True, False):
        swap_engines(services, optimized=optimized)
        for index, privilege in enumerate(reachable):
            witness = witness_for(closure, privilege)
            replay_witness(
                witness, services, seeds=seeds,
                principal_id=f"probe-{'opt' if optimized else 'naive'}"
                             f"-{index}")
    swap_engines(services, optimized=True)


def assert_ghost_denied(closure_factory, services, ghost_atom,
                        invoke_probe):
    """The ghost is statically underivable and dynamically denied by
    both engines.  ``closure_factory`` recomputes the closure *after*
    the ghost rule was added; ``invoke_probe`` opens a fresh session
    with a legitimately-held role and invokes the ghost method."""
    closure = closure_factory()
    assert not closure.derivable(ghost_atom)
    with pytest.raises(ValueError):
        witness_for(closure, ghost_atom)
    for optimized in (True, False):
        swap_engines(services, optimized=optimized)
        with pytest.raises(InvocationDenied):
            invoke_probe()
    swap_engines(services, optimized=True)


class TestHealthcareWorld:
    @pytest.fixture
    def world(self):
        deployment = Deployment()
        hospital = build_hospital(deployment)
        national = build_national_ehr(deployment, "hospital")
        # The probe self-allocates through the admin chain; the database
        # lookup on treating_doctor needs the registration row to exist
        # for every probe principal the replays mint.
        for optimized in ("opt", "naive"):
            for index in range(4):
                hospital.register_patient(f"probe-{optimized}-{index}",
                                          f"probe-{optimized}-{index}")
        return deployment, hospital, national

    def test_reachable_privileges_replay(self, world):
        deployment, hospital, national = world
        services, graph, closure = verifier_view(deployment)
        assert_reachable_replay(
            services, graph, closure,
            expect={
                "privilege hospital/records.read_record",
                "privilege national-ehr/patient-records.request_EHR",
                "privilege national-ehr/patient-records.append_to_EHR",
            })

    def test_ghost_privilege_denied(self, world):
        deployment, hospital, _ = world
        ghost = add_ghost_privilege(hospital.records)
        services = {s.id: s for s in deployment.registry.all_services()}

        def invoke_probe():
            doctor = hospital.admit_doctor("dr-jones", "pat-1")
            session = hospital.treating_session(doctor)
            return session.invoke(hospital.records, GHOST_METHOD)

        assert_ghost_denied(
            lambda: verifier_view(deployment)[2], services, ghost,
            invoke_probe)


class TestVisitingDoctorWorld:
    @pytest.fixture
    def world(self):
        deployment = Deployment()

        hr_policy = ServicePolicy(ServiceId("hospital", "hr"))
        officer = hr_policy.define_role("hr_officer", 0)
        hr_policy.add_activation_rule(
            ActivationRule(RoleTemplate(officer)))
        hr_policy.add_appointment_rule(AppointmentRule(
            "employed_as_doctor", (Var("d"), Var("h")),
            (PrerequisiteRole(RoleTemplate(officer)),)))
        hr = deployment.service(hr_policy)

        lab_policy = ServicePolicy(ServiceId("institute", "lab"))
        director = lab_policy.define_role("director", 0)
        lab_policy.add_activation_rule(
            ActivationRule(RoleTemplate(director)))
        lab_policy.add_appointment_rule(AppointmentRule(
            "research_medic", (Var("r"),),
            (PrerequisiteRole(RoleTemplate(director)),)))
        lab_policy.add_authorization_rule(AuthorizationRule(
            "run_experiment", (),
            (PrerequisiteRole(RoleTemplate(
                lab_policy.define_role("visiting_doctor", 1),
                (Var("d"),))),)))
        lab = deployment.service(lab_policy)
        lab.register_method("run_experiment", lambda: "data")

        sla = ServiceLevelAgreement(
            lab.id, hr.id,
            [SlaTerm("visiting_doctor", (Var("d"),),
                     AppointmentCondition(hr.id, "employed_as_doctor",
                                          (Var("d"), Var("h")),
                                          membership=True))],
            description="hospital doctors visit the institute")
        sla.install(lab)
        return deployment, hr, lab

    def test_reachable_privileges_replay(self, world):
        deployment, hr, lab = world
        services, graph, closure = verifier_view(deployment)
        assert_reachable_replay(
            services, graph, closure,
            expect={"privilege institute/lab.run_experiment"})
        # The SLA-compiled rule really is the path: the witness must
        # cross from the institute to the hospital's HR service.
        witness = witness_for(
            closure, Atom.privilege(lab.id, "run_experiment"))
        rendered_files = str(witness.children)
        assert "employed_as_doctor" in rendered_files

    def test_ghost_privilege_denied(self, world):
        deployment, hr, lab = world
        ghost = add_ghost_privilege(lab)
        services = {s.id: s for s in deployment.registry.all_services()}

        def invoke_probe():
            hr_session = Principal("hr-1").start_session(hr, "hr_officer")
            cert = hr_session.issue_appointment(
                hr, "employed_as_doctor", ["dr-x", "addenbrookes"],
                holder="dr-x")
            doctor = Principal("dr-x")
            doctor.store_appointment(cert)
            visit = doctor.start_session(lab, "visiting_doctor", ["dr-x"],
                                         use_appointments=[cert])
            return visit.invoke(lab, GHOST_METHOD)

        assert_ghost_denied(
            lambda: verifier_view(deployment)[2], services, ghost,
            invoke_probe)


class TestGalleriesWorld:
    @pytest.fixture
    def world(self):
        deployment = Deployment()
        scenario = build_galleries(deployment)
        seeds = {Atom.appointment(scenario.membership.id,
                                  "friend_of_the_tate", 1): [FAR_FUTURE]}
        return deployment, scenario, seeds

    def test_reachable_privileges_replay(self, world):
        deployment, scenario, seeds = world
        services, graph, closure = verifier_view(deployment)
        assert_reachable_replay(
            services, graph, closure, seeds=seeds,
            expect={f"privilege tate/{name}.newsletter"
                    for name in ("london", "st-ives", "liverpool")})

    def test_ghost_privilege_denied(self, world):
        deployment, scenario, _ = world
        london = scenario.galleries["london"]
        ghost = add_ghost_privilege(london)
        services = {s.id: s for s in deployment.registry.all_services()}

        def invoke_probe():
            card = scenario.issue_card(FAR_FUTURE)
            visitor = Principal("anon")
            visitor.store_appointment(card)
            session = visitor.start_session(london, "friend",
                                            use_appointments=[card])
            return session.invoke(london, GHOST_METHOD,
                                  use_appointments=[card])

        assert_ghost_denied(
            lambda: verifier_view(deployment)[2], services, ghost,
            invoke_probe)


class TestClinicWorld:
    @pytest.fixture
    def world(self):
        deployment = Deployment()
        scenario = build_clinic(deployment)
        seeds = {Atom.appointment(scenario.insurer.id, "insured", 1):
                 [FAR_FUTURE]}
        return deployment, scenario, seeds

    def test_reachable_privileges_replay(self, world):
        deployment, scenario, seeds = world
        services, graph, closure = verifier_view(deployment)
        assert_reachable_replay(
            services, graph, closure, seeds=seeds,
            expect={"privilege clinic/genetics.take_genetic_test"})

    def test_ghost_privilege_denied(self, world):
        deployment, scenario, _ = world
        ghost = add_ghost_privilege(scenario.clinic)
        services = {s.id: s for s in deployment.registry.all_services()}

        def invoke_probe():
            card = scenario.enrol_member(FAR_FUTURE)
            patient = Principal("anon-patient")
            patient.store_appointment(card)
            session = patient.start_session(
                scenario.clinic, "paid_up_patient",
                use_appointments=[card])
            return session.invoke(scenario.clinic, GHOST_METHOD,
                                  use_appointments=[card])

        assert_ghost_denied(
            lambda: verifier_view(deployment)[2], services, ghost,
            invoke_probe)


class TestContractsAuditWorld:
    """An inline two-domain contracts world: a registry appoints audit
    licences; licensed auditors read the contract log."""

    @pytest.fixture
    def world(self):
        deployment = Deployment()

        registry_policy = ServicePolicy(ServiceId("civ", "registry"))
        registrar = registry_policy.define_role("registrar", 0)
        registry_policy.add_activation_rule(
            ActivationRule(RoleTemplate(registrar)))
        registry_policy.add_appointment_rule(AppointmentRule(
            "audit_licence", (Var("a"),),
            (PrerequisiteRole(RoleTemplate(registrar)),)))
        registry = deployment.service(registry_policy)

        audit_policy = ServicePolicy(ServiceId("contracts", "audit"))
        auditor = audit_policy.define_role("auditor", 1)
        audit_policy.add_activation_rule(ActivationRule(
            RoleTemplate(auditor, (Var("a"),)),
            (AppointmentCondition(registry.id, "audit_licence",
                                  (Var("a"),), membership=True),)))
        audit_policy.add_authorization_rule(AuthorizationRule(
            "read_log", (Var("c"),),
            (PrerequisiteRole(RoleTemplate(auditor, (Var("a"),))),)))
        audit = deployment.service(audit_policy)
        audit.register_method("read_log", lambda c: f"log of {c}")

        return deployment, registry, audit

    def test_reachable_privileges_replay(self, world):
        deployment, registry, audit = world
        services, graph, closure = verifier_view(deployment)
        assert_reachable_replay(
            services, graph, closure,
            expect={"privilege contracts/audit.read_log"})

    def test_ghost_privilege_denied(self, world):
        deployment, registry, audit = world
        ghost = add_ghost_privilege(audit)
        services = {s.id: s for s in deployment.registry.all_services()}

        def invoke_probe():
            desk = Principal("registrar-1").start_session(registry,
                                                          "registrar")
            licence = desk.issue_appointment(
                registry, "audit_licence", ["aud-1"], holder="aud-1")
            holder = Principal("aud-1")
            holder.store_appointment(licence)
            session = holder.start_session(audit, "auditor", ["aud-1"],
                                           use_appointments=[licence])
            return session.invoke(audit, GHOST_METHOD,
                                  use_appointments=[licence])

        assert_ghost_denied(
            lambda: verifier_view(deployment)[2], services, ghost,
            invoke_probe)


class TestClosureAgreement:
    """Beyond replay: the closure's *role* verdicts agree with the
    runtime for a sample of derivable and underivable roles."""

    def test_galleries_friend_depends_on_live_card(self):
        deployment = Deployment()
        scenario = build_galleries(deployment)
        _, graph, closure = verifier_view(deployment)
        london = scenario.galleries["london"]
        friend = Atom.role(london.id, "friend", 0)
        assert closure.derivable(friend)
        # Static revocation of the membership appointment kills it.
        card_atom = Atom.appointment(scenario.membership.id,
                                     "friend_of_the_tate", 1)
        revoked = run_fixpoint(graph, revoked=frozenset({card_atom}))
        assert not revoked.derivable(friend)
        # The runtime mirrors the static verdict (Fig. 5 cascade).
        card = scenario.issue_card(FAR_FUTURE)
        visitor = Principal("anon")
        visitor.store_appointment(card)
        session = visitor.start_session(london, "friend",
                                        use_appointments=[card])
        assert session.invoke(london, "newsletter",
                              use_appointments=[card]) \
            == "london newsletter"
        scenario.cancel_card(card)
        deployment.run_for(1.0)
        # Presenting the cancelled card fails credential validation;
        # without it the cascaded deactivation (Fig. 5) denies the call.
        with pytest.raises((InvocationDenied, CredentialRevoked)):
            session.invoke(london, "newsletter", use_appointments=[card])
        with pytest.raises(InvocationDenied):
            session.invoke(london, "newsletter")
