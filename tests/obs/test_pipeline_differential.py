"""Differential test: the observability pipeline is invisible to behaviour.

Every operation in ``repro.core`` has one body whose span / explanation /
metric work sits behind ``if obs is not None``.  One scripted world —
fixed service secrets, sim clock, sequential CRRs — is run with the
pipeline off and on, and everything a caller or an auditor can see must
be identical: returned certificates and values, exception types and
messages, ``ServiceStats``, the access logs (modulo ``trace_id`` and the
explaining ``attempts``, which only the pipeline fills) and the
broker-tap event sequence (modulo ``trace_id`` / ``span_id``).

The script covers the Fig. 3 cross-domain session, a diamond cascade, a
bulk activation, and the three denial kinds (invalid credential, no
matching rule, unbound head parameter) on both activation and invocation.
"""

from contextlib import nullcontext
from dataclasses import replace

from repro.core import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    OasisService,
    Presentation,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.core.service import ActivationRequest
from repro.crypto import ServiceSecret
from repro.events import EventBroker
from repro.net import SimClock
from repro.obs.runtime import observed


class World:
    def __init__(self) -> None:
        self.clock = SimClock()
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.events = []
        self.broker.add_tap(self.events.append)
        self.services = {}

    def service(self, domain, name):
        """An empty-policy service with a secret fixed by its position."""
        policy = ServicePolicy(ServiceId(domain, name))
        secret = ServiceSecret(
            key=bytes([len(self.services) + 1]) * 32, generation=0)
        service = OasisService(policy, self.broker, self.registry,
                               self.clock, secret=secret)
        self.services[name] = service
        return service, policy


def build_world() -> World:
    world = World()
    # -- Fig. 3: hospital login / admin / records, national registry / EHR
    login, login_policy = world.service("hospital", "login")
    logged_in = login_policy.define_role("logged_in_user", 1)
    login_policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))

    admin, admin_policy = world.service("hospital", "admin")
    administrator = admin_policy.define_role("administrator", 1)
    admin_policy.add_activation_rule(ActivationRule(
        RoleTemplate(administrator, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("u"),)),
                          membership=True),)))
    admin_policy.add_appointment_rule(AppointmentRule(
        "allocated", (Var("d"), Var("p")),
        (PrerequisiteRole(RoleTemplate(administrator, (Var("a"),))),)))

    records, records_policy = world.service("hospital", "records")
    treating = records_policy.define_role("treating_doctor", 2)
    records_policy.add_activation_rule(ActivationRule(
        RoleTemplate(treating, (Var("d"), Var("p"))),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("d"),)),
                          membership=True),
         AppointmentCondition(admin.id, "allocated", (Var("d"), Var("p")),
                              membership=True))))

    registry, registry_policy = world.service("national", "registry")
    registrar = registry_policy.define_role("registrar", 0)
    registry_policy.add_activation_rule(
        ActivationRule(RoleTemplate(registrar)))
    registry_policy.add_appointment_rule(AppointmentRule(
        "accredited_hospital", (Var("h"),),
        (PrerequisiteRole(RoleTemplate(registrar)),)))

    national, national_policy = world.service("national", "ehr")
    hospital_role = national_policy.define_role("hospital", 1)
    national_policy.add_activation_rule(ActivationRule(
        RoleTemplate(hospital_role, (Var("h"),)),
        (AppointmentCondition(registry.id, "accredited_hospital",
                              (Var("h"),), membership=True),)))
    national_policy.add_authorization_rule(AuthorizationRule(
        "request_EHR", (Var("p"),),
        (PrerequisiteRole(RoleTemplate(hospital_role, (Var("h"),))),
         PrerequisiteRole(RoleTemplate(treating, (Var("d"), Var("p")))))))
    national.register_method("request_EHR", lambda p: f"EHR[{p}]")

    # -- diamond: B and C require A; D requires B and C (all membership)
    templates = {}
    for name, prerequisites in (("A", ()), ("B", ("A",)), ("C", ("A",)),
                                ("D", ("B", "C"))):
        _, policy = world.service("diamond", name)
        templates[name] = RoleTemplate(policy.define_role("role", 1),
                                       (Var("u"),))
        policy.add_activation_rule(ActivationRule(
            templates[name],
            tuple(PrerequisiteRole(templates[p], membership=True)
                  for p in prerequisites)))
    return world


def run_script(world: World):
    """Drive the script; returns one entry per step: the returned value,
    or the exception's type and message."""
    s = world.services
    outcomes = []

    def step(call, *args, **kwargs):
        try:
            result = call(*args, **kwargs)
        except Exception as failure:
            outcomes.append((type(failure).__name__, str(failure)))
            return None
        outcomes.append(result)
        return result

    def tick():
        world.clock.advance(0.001)

    # Fig. 3 set-up: accredit the hospital, allocate the doctor.
    registrar = Principal("registrar")
    registrar_session = registrar.start_session(s["registry"], "registrar")
    accreditation = step(registrar_session.issue_appointment, s["registry"],
                         "accredited_hospital", ["addenbrookes"],
                         holder="gateway")
    gateway = Principal("gateway")
    hospital_rmc = step(s["ehr"].activate_role, gateway.id, "hospital", None,
                        [Presentation(accreditation, holder="gateway")])
    tick()
    clerk = Principal("clerk")
    clerk_session = clerk.start_session(s["login"], "logged_in_user",
                                        ["clerk"])
    step(clerk_session.activate, s["admin"], "administrator", ["clerk"])
    allocation = step(clerk_session.issue_appointment, s["admin"],
                      "allocated", ["dr-who", "p1"], holder="dr-who")
    tick()
    doctor = Principal("dr-who")
    login_rmc = step(s["login"].activate_role, doctor.id, "logged_in_user",
                     ["dr-who"], session_id="sess-1")
    treating_rmc = step(
        s["records"].activate_role, doctor.id, "treating_doctor", None,
        [Presentation(login_rmc), Presentation(allocation, holder="dr-who")],
        environment={"ward": "7"}, session_id="sess-1")
    forwarded = [Presentation(hospital_rmc),
                 Presentation(treating_rmc, on_behalf_of="dr-who")]
    tick()
    # Paths 1-2: cold (callback validation) then warm (cached) request.
    step(s["ehr"].invoke, gateway.id, "request_EHR", ["p1"], forwarded)
    step(s["ehr"].invoke, gateway.id, "request_EHR", ["p1"], forwarded,
         environment={"ward": "7"})

    # Denial: no matching rule (wrong patient; no credentials at all).
    step(s["ehr"].invoke, gateway.id, "request_EHR", ["p2"], forwarded)
    step(s["admin"].activate_role, doctor.id, "administrator", ["dr-who"])
    # Denial: unbound head parameter.
    step(s["login"].activate_role, doctor.id, "logged_in_user")
    # Denial: no rule defined for the role at all.
    s["login"].policy.define_role("ghost", 0)
    step(s["login"].activate_role, doctor.id, "ghost")
    tick()

    # Bulk activation goes through the same body as the single call; the
    # third request is denied, the first two stay installed.
    step(s["login"].activate_roles_bulk, [
        ActivationRequest(Principal("b1").id, "logged_in_user", ["b1"]),
        ActivationRequest(Principal("b2").id, "logged_in_user", ["b2"],
                          environment={"ward": "9"}),
        ActivationRequest(Principal("b3").id, "logged_in_user"),
    ])

    # Revoking the login collapses treating_doctor across services.
    step(s["login"].revoke, login_rmc.ref, "logout")
    step(s["login"].revoke, login_rmc.ref, "logout again")
    tick()
    # Denial: invalid (revoked) credential, on both operations.
    step(s["ehr"].invoke, gateway.id, "request_EHR", ["p1"], forwarded)
    step(s["records"].activate_role, doctor.id, "treating_doctor", None,
         [Presentation(login_rmc), Presentation(allocation, holder="dr-who")])
    # The registry withdraws accreditation: the hospital role dies.
    step(s["registry"].revoke, accreditation.ref, "accreditation lapsed")
    tick()

    # Diamond cascade.
    user = Principal("u")
    session = user.start_session(s["A"], "role", ["u"])
    for name in ("B", "C", "D"):
        step(session.activate, s[name], "role")
    tick()
    step(s["A"].revoke, session.root_rmc.ref, "logout")
    return outcomes


def observe(pipeline: bool):
    with (observed() if pipeline else nullcontext()) as obs:
        world = build_world()
        outcomes = run_script(world)
    return {
        "outcomes": outcomes,
        "stats": {name: service.stats.snapshot()
                  for name, service in world.services.items()},
        "access_logs": {name: [replace(record, trace_id=None, attempts=())
                               for record in service.access_log]
                        for name, service in world.services.items()},
        "events": [(event.topic, event.timestamp,
                    tuple((key, value) for key, value in event.attributes
                          if key not in ("trace_id", "span_id")))
                   for event in world.events],
    }, world, obs


def test_pipeline_on_and_off_are_observationally_identical():
    plain, plain_world, _ = observe(pipeline=False)
    traced, traced_world, obs = observe(pipeline=True)
    for key in plain:
        assert plain[key] == traced[key], key

    # The script really exercised what it claims to.
    kinds = [outcome[0] for outcome in plain["outcomes"]
             if isinstance(outcome, tuple)]
    assert kinds == ["InvocationDenied", "ActivationDenied",
                     "ActivationDenied", "ActivationDenied",
                     "ActivationDenied", "CredentialRevoked",
                     "CredentialRevoked"]
    assert "unbound" in plain["outcomes"][10][1]
    assert plain["stats"]["records"]["cascade_revocations"] == 1
    assert sum(stats["cascade_revocations"]
               for stats in plain["stats"].values()) == 5
    assert len(plain["events"]) == 8
    # ... and the traced run really was traced.
    assert obs.tracer.trace_ids()
    denials = [record for service in traced_world.services.values()
               for record in service.access_log.denials()]
    assert len(denials) == len(kinds)
    assert all(record.attempts[-1].outcome == "failed"
               for record in denials)
    # Without a pipeline nothing is traced or explained.
    assert all(record.trace_id is None and record.attempts == ()
               for service in plain_world.services.values()
               for record in service.access_log)
    assert all(record.trace_id for record in
               traced_world.services["A"].access_log)
