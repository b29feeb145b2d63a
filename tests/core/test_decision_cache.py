"""The authorization decision cache (``repro.core.decisions``).

A warm invoke answers from a memoised grant instead of re-running the
Horn-clause match.  It may only ever skip *re-deriving* a grant: every
invoke must get the answer the naive reference solver gives on an
uncached service, whatever happens to the credentials in between.
"""

import random

import pytest

from repro.core import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    ComparisonConstraint,
    ConstraintCondition,
    DatabaseLookupConstraint,
    EnvironmentEquals,
    InvocationDenied,
    OasisService,
    PrerequisiteRole,
    Presentation,
    PrincipalId,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    TimeWindowConstraint,
    Var,
)
from repro.core.access_log import AccessKind
from repro.core.decisions import DecisionCache
from repro.core.engine import PresentedCredential
from repro.core.exceptions import OasisError
from repro.db import Database
from repro.events import EventBroker
from repro.net import SimClock
from repro.netd import worlds
from repro.obs.runtime import observed

from tests.reference import NaiveRuleEngine

u, n, lvl = Var("u"), Var("n"), Var("lvl")

USERS = ("u0", "u1", "u2")


class _NeverCached(DecisionCache):
    """The oracle's cache: stores nothing, so every invoke re-matches."""

    __slots__ = ()

    def lookup(self, key, rules):
        return None

    def store(self, key, rules, rule):
        pass


# -- the differential world ----------------------------------------------------

class World:
    """login (``user``), admin (``pass`` appointments) and a resource
    service whose methods need local and foreign credentials.  The oracle
    twin runs the naive reference solver with the decision cache off."""

    def __init__(self, oracle):
        self.clock = SimClock()
        broker, registry = EventBroker(), ServiceRegistry()

        login_policy = ServicePolicy(ServiceId("dc", "login"))
        user = login_policy.define_role("user", 1)
        login_policy.add_activation_rule(
            ActivationRule(RoleTemplate(user, (u,))))

        admin_policy = ServicePolicy(ServiceId("dc", "admin"))
        admin = admin_policy.define_role("admin", 0)
        admin_policy.add_activation_rule(ActivationRule(RoleTemplate(admin)))
        admin_policy.add_appointment_rule(AppointmentRule(
            "pass", (u, lvl), (PrerequisiteRole(RoleTemplate(admin)),)))

        resource_policy = ServicePolicy(ServiceId("dc", "resource"))
        member = resource_policy.define_role("member", 1)
        user_of = RoleTemplate(user, (u,))
        member_of = RoleTemplate(member, (u,))
        pass_of = AppointmentCondition(admin_policy.service, "pass", (u, lvl))
        resource_policy.add_activation_rule(ActivationRule(
            member_of,
            (PrerequisiteRole(user_of, membership=True),
             AppointmentCondition(admin_policy.service, "pass", (u, lvl),
                                  membership=True))))
        for rule in (
                AuthorizationRule("read", (u,),
                                  (PrerequisiteRole(member_of),)),
                AuthorizationRule("grade", (u, n), (
                    PrerequisiteRole(user_of), pass_of,
                    ConstraintCondition(ComparisonConstraint(n, "<=", lvl)))),
                AuthorizationRule("peek", (u,), (PrerequisiteRole(user_of),)),
                AuthorizationRule("flag", (u, 1),
                                  (PrerequisiteRole(user_of),))):
            resource_policy.add_authorization_rule(rule)
        # Rules an ``add_authorization_rule`` step may append; the last
        # makes ``grade`` clock-dependent, hence uncacheable.
        self.extra_rules = [
            AuthorizationRule("peek", (u,), (PrerequisiteRole(member_of),)),
            AuthorizationRule("read", (u,), (
                PrerequisiteRole(user_of),
                ConstraintCondition(ComparisonConstraint(u, "==", "u0")))),
            AuthorizationRule("flag", (u, 2), (PrerequisiteRole(user_of),)),
            AuthorizationRule("grade", (u, n), (
                PrerequisiteRole(member_of),
                ConstraintCondition(TimeWindowConstraint(0, 50, 100)))),
        ]

        def service(policy):
            built = OasisService(policy, broker, registry, self.clock)
            if oracle:
                built._engine = NaiveRuleEngine(built.context)
                built._decisions = _NeverCached()
            return built

        self.login = service(login_policy)
        self.admin = service(admin_policy)
        self.resource = service(resource_policy)
        self.resource.register_method("read", lambda who: f"read:{who}")
        self.resource.register_method("grade", lambda who, level: level)
        self.resource.register_method("peek", lambda who: who)
        self.resource.register_method("flag", lambda who, x: (who, x))
        self.boss = self.admin.activate_role(PrincipalId("boss"), "admin")
        #: Presentable credentials: (owner, issuing service, certificate).
        self.wallet = []


def _outcome(call):
    try:
        result = call()
    except OasisError as error:
        return ("denied", type(error).__name__)
    return ("granted", result if not hasattr(result, "ref") else "cert")


def _step(world, rng, op, history):
    """One scripted operation on ``world``; the rng draws are identical in
    both worlds, so the two stay in lock-step."""
    if op == "login":
        who = rng.choice(USERS)
        return _outcome(lambda: world.wallet.append(
            (who, world.login, world.login.activate_role(
                PrincipalId(who), "user", [who]))))
    if op == "appoint":
        who, level = rng.choice(USERS), rng.randint(1, 3)
        expires = rng.choice((None, None, 10.0, 40.0))
        expires_at = None if expires is None else world.clock() + expires
        return _outcome(lambda: world.wallet.append(
            (who, world.admin, world.admin.issue_appointment(
                PrincipalId("boss"), "pass", [who, level],
                [Presentation(world.boss)], holder=who,
                expires_at=expires_at))))
    if op == "activate":
        who = rng.choice(USERS)
        presented = _presentations(world, who, _pick(world, rng, who, 2))
        return _outcome(lambda: world.wallet.append(
            (who, world.resource, world.resource.activate_role(
                PrincipalId(who), "member", [who], presented))))
    if op == "invoke":
        if history and rng.random() < 0.6:
            # Replays are what a decision cache answers: same method,
            # arguments and credentials, sometimes by another principal.
            who, method, arguments, picks = rng.choice(history[-4:])
            if rng.random() < 0.3:
                who = rng.choice(USERS)
        else:
            who = rng.choice(USERS)
            method = rng.choice(("read", "grade", "peek", "flag"))
            target = who if rng.random() < 0.8 else rng.choice(USERS)
            arguments = {"read": [target], "peek": [target],
                         "grade": [target, rng.randint(1, 3)],
                         "flag": [target, rng.choice((1, True, 1.0, 2))],
                         }[method]
            picks = _pick(world, rng, who, rng.randint(0, 3))
        history.append((who, method, arguments, picks))
        presented = _presentations(world, who, picks)
        return _outcome(lambda: world.resource.invoke(
            PrincipalId(who), method, arguments, presented))
    if op == "revoke":
        if not world.wallet:
            return None
        _owner, issuer, certificate = rng.choice(world.wallet)
        return _outcome(lambda: issuer.revoke(certificate.ref, "revoked"))
    if op == "reissue":
        appointments = [index for index, (_o, issuer, _c)
                        in enumerate(world.wallet) if issuer is world.admin]
        if not appointments:
            return None
        index = rng.choice(appointments)
        owner, issuer, certificate = world.wallet[index]

        def reissue():
            world.wallet[index] = (owner, issuer,
                                   issuer.reissue_appointment(certificate))
        return _outcome(reissue)
    if op == "rotate":
        world.admin.rotate_secret()
        # The appointer's own RMC died with the old secret: log in again.
        world.boss = world.admin.activate_role(PrincipalId("boss"), "admin")
        return None
    if op == "add_rule":
        rule = rng.choice(world.extra_rules)
        world.resource.policy.add_authorization_rule(rule)
        return None
    assert op == "advance"
    world.clock.advance(rng.choice((1.0, 5.0, 30.0)))
    return None


def _pick(world, rng, who, count):
    """Wallet indices to present: mostly ``who``'s newest credential from
    each issuer, now and then anybody's (a stolen certificate must still be
    refused)."""
    if rng.random() < 0.8:
        newest = {}
        for index, (owner, issuer, _c) in enumerate(world.wallet):
            if owner == who:
                newest[issuer.id] = index
        return sorted(newest.values())
    return rng.sample(range(len(world.wallet)),
                      min(count, len(world.wallet)))


def _presentations(world, who, picks):
    presented = []
    for index in picks:
        owner, issuer, certificate = world.wallet[index]
        holder = who if issuer is world.admin else None
        presented.append(Presentation(certificate, holder=holder))
    return presented


OPS = (["invoke"] * 16 + ["login", "appoint", "activate"] * 3
       + ["revoke", "advance", "reissue", "rotate", "add_rule"])


def run_differential(seed, steps=200):
    """Drive a real world and the oracle twin through one seeded script;
    return the first step whose outcomes differ, or None, plus the real
    world."""
    real, oracle = World(oracle=False), World(oracle=True)
    rng_real, rng_oracle = random.Random(seed), random.Random(seed)
    history_real, history_oracle = [], []
    for index in range(steps):
        op = rng_real.choice(OPS)
        assert rng_oracle.choice(OPS) == op
        got = _step(real, rng_real, op, history_real)
        want = _step(oracle, rng_oracle, op, history_oracle)
        if got != want:
            return (index, op, got, want), real
    return None, real


SEEDS = range(40)


def test_every_invoke_matches_the_uncached_naive_oracle():
    hits = 0
    for seed in SEEDS:
        mismatch, real = run_differential(seed)
        assert mismatch is None, f"seed {seed}: {mismatch}"
        hits += real.resource.stats.decision_cache_hits
    # The scripts do exercise the cache, not only its miss path.
    assert hits > 100


def test_differential_kills_a_cache_hit_that_skips_validation(monkeypatch):
    validate = OasisService._validate_presentations

    def skip_when_cached(self, principal, presentations, requested):
        presented = [PresentedCredential(p.certificate)
                     for p in presentations]
        named = tuple((c.certificate.ref.qualified, c.certificate.signature)
                      for c in presented)
        if any(key[2] == named for key in self._decisions._grants):
            return presented
        return validate(self, principal, presentations, requested)

    monkeypatch.setattr(OasisService, "_validate_presentations",
                        skip_when_cached)
    assert any(run_differential(seed)[0] is not None for seed in SEEDS)


# -- fail closed: impure rules always re-match --------------------------------

def _single_service(*conditions, databases=None, clock=None):
    """A login service and a resource whose ``use(u)`` needs the login
    RMC plus ``conditions``; returns (resource, rmc, match counter)."""
    broker, registry = EventBroker(), ServiceRegistry()
    clock = clock or SimClock()
    login_policy = ServicePolicy(ServiceId("fc", "login"))
    user = login_policy.define_role("user", 1)
    login_policy.add_activation_rule(ActivationRule(RoleTemplate(user, (u,))))
    login = OasisService(login_policy, broker, registry, clock)
    policy = ServicePolicy(ServiceId("fc", "resource"))
    policy.add_authorization_rule(AuthorizationRule(
        "use", (u,), (PrerequisiteRole(RoleTemplate(user, (u,))),
                      *conditions)))
    resource = OasisService(policy, broker, registry, clock,
                            databases=databases)
    resource.register_method("use", lambda who: f"used:{who}")
    matches = []
    match = resource._engine.match_authorization

    def counting(*args, **kwargs):
        matches.append(args[0])
        return match(*args, **kwargs)

    resource._engine.match_authorization = counting
    rmc = login.activate_role(PrincipalId("alice"), "user", ["alice"])
    return resource, rmc, matches


def _use(resource, rmc, environment=None):
    return resource.invoke(PrincipalId("alice"), "use", ["alice"],
                           [Presentation(rmc)], environment=environment)


def test_pure_method_hits_on_the_second_invoke():
    resource, rmc, matches = _single_service(ConstraintCondition(
        ComparisonConstraint(u, "!=", "mallory")))
    assert _use(resource, rmc) == _use(resource, rmc) == "used:alice"
    assert len(matches) == 1
    assert resource.stats.decision_cache_hits == 1


def test_time_window_method_rematches_across_the_clock():
    clock = SimClock()
    resource, rmc, matches = _single_service(
        ConstraintCondition(TimeWindowConstraint(9 * 3600, 17 * 3600)),
        clock=clock)
    clock.advance_to(10 * 3600)
    assert _use(resource, rmc) == "used:alice"
    clock.advance_to(18 * 3600)
    with pytest.raises(InvocationDenied):
        _use(resource, rmc)
    assert len(matches) == 2
    assert resource.stats.decision_cache_hits == 0


def test_database_lookup_method_rematches_after_the_row_goes():
    db = Database("main")
    db.create_table("cleared", ["user"])
    db.insert("cleared", user="alice")
    resource, rmc, matches = _single_service(
        ConstraintCondition(DatabaseLookupConstraint.exists(
            "main", "cleared", user=u)),
        databases={"main": db})
    assert _use(resource, rmc) == "used:alice"
    db.delete("cleared", user="alice")
    with pytest.raises(InvocationDenied):
        _use(resource, rmc)
    assert len(matches) == 2


def test_environment_method_rematches_per_environment():
    resource, rmc, matches = _single_service(
        ConstraintCondition(EnvironmentEquals("location", "ward-3")))
    assert _use(resource, rmc, {"location": "ward-3"}) == "used:alice"
    with pytest.raises(InvocationDenied):
        _use(resource, rmc, {"location": "home"})
    assert len(matches) == 2


def test_one_impure_rule_makes_the_whole_method_uncacheable():
    resource, rmc, matches = _single_service()
    resource.policy.add_authorization_rule(AuthorizationRule(
        "use", (u,), (ConstraintCondition(
            EnvironmentEquals("location", "ward-3")),)))
    _use(resource, rmc)
    _use(resource, rmc)
    assert len(matches) == 2
    assert len(resource._decisions) == 0


def test_adding_a_rule_invalidates_without_an_event():
    resource, rmc, matches = _single_service()
    _use(resource, rmc)
    _use(resource, rmc)
    assert len(matches) == 1
    resource.policy.add_authorization_rule(AuthorizationRule(
        "use", (u,), (PrerequisiteRole(RoleTemplate(
            resource.policy.define_role("other", 1), (u,))),)))
    _use(resource, rmc)
    assert len(matches) == 2


@pytest.mark.parametrize("granted,refused", [(1, True), (1.0, True)])
def test_arguments_that_compare_equal_but_do_not_unify(granted, refused):
    """``True == 1`` as a dict key, but a rule head ``1`` refuses
    ``True``: such arguments must never share a cached grant."""
    broker, registry = EventBroker(), ServiceRegistry()
    policy = ServicePolicy(ServiceId("fc", "flags"))
    policy.add_authorization_rule(AuthorizationRule("flag", (1,)))
    service = OasisService(policy, broker, registry)
    service.register_method("flag", lambda x: x)
    principal = PrincipalId("p")
    assert service.invoke(principal, "flag", [granted]) == granted
    assert service.invoke(principal, "flag", [granted]) == granted
    with pytest.raises(InvocationDenied):
        service.invoke(principal, "flag", [refused])


# -- memory: eviction leaves nothing behind -----------------------------------

def test_ehr_sessions_leave_no_decision_or_bucket_behind():
    """The benchmark's Fig. 3 cycle, in process: the gateway RMC is named
    by every cycle's grants and must not keep one key per cycle."""
    ctx = worlds.NodeContext("inproc", EventBroker(), ServiceRegistry(), None)
    services = {}
    for factory in (worlds.ehr_front, worlds.ehr_records,
                    worlds.ehr_national):
        services.update(factory(ctx).services)
    front, admin = services["login"], services["admin"]
    records, national = services["records"], services["patient-records"]
    registry_svc = services["registry"]
    registrar = registry_svc.activate_role(PrincipalId("registrar"),
                                           "registrar")
    accreditation = registry_svc.issue_appointment(
        PrincipalId("registrar"), "accredited_hospital", ["addenbrookes"],
        [Presentation(registrar)], holder="gateway")
    gateway = national.activate_role(
        PrincipalId("gateway"), "hospital", ["addenbrookes"],
        [Presentation(accreditation, holder="gateway")])
    boss = front.activate_role(PrincipalId("admin"), "logged_in_user",
                               ["admin"])
    administrator = admin.activate_role(
        PrincipalId("admin"), "administrator", ["admin"],
        [Presentation(boss)])
    cache = national._decisions
    before = (len(cache), len(cache._by_ref))
    for cycle in range(40):
        doctor, patient = f"dr{cycle}", f"pt{cycle}"
        allocation = admin.issue_appointment(
            PrincipalId("admin"), "allocated", [doctor, patient],
            [Presentation(administrator)], holder=doctor)
        login = front.activate_role(PrincipalId(doctor), "logged_in_user",
                                    [doctor])
        treating = records.activate_role(
            PrincipalId(doctor), "treating_doctor", [doctor, patient],
            [Presentation(login), Presentation(allocation, holder=doctor)])
        credentials = [Presentation(gateway),
                       Presentation(treating, on_behalf_of=doctor)]
        for _ in range(9):
            national.invoke(PrincipalId("gateway"), "request_EHR",
                            [patient], credentials)
        assert len(cache) == 1
        assert len(cache._by_ref.get(gateway.ref.qualified, ())) == 1
        admin.revoke(allocation.ref, "patient discharged")
        with pytest.raises(OasisError):
            national.invoke(PrincipalId("gateway"), "request_EHR",
                            [patient], credentials)
        assert (len(cache), len(cache._by_ref)) == before
        assert len(cache._by_ref.get(gateway.ref.qualified, ())) == 0
    assert national.stats.decision_cache_hits == 40 * 8
    assert national.stats.decision_cache_invalidations == 40


# -- observability: a hit still explains itself -------------------------------

def test_a_hit_records_a_granted_decision_naming_the_cached_rule():
    with observed() as obs:
        resource, rmc, matches = _single_service()
        _use(resource, rmc)
        _use(resource, rmc)
        families = {family["name"]: family
                    for family in obs.metrics.collect()}
    cold, warm = resource.access_log.query(kind=AccessKind.INVOCATION)
    assert resource.access_log.denials() == []
    assert cold.attempts[-1].detail is None
    (attempt,) = warm.attempts
    assert attempt.outcome == "matched"
    assert attempt.detail == "decision_cache=hit"
    assert attempt.rule == cold.attempts[-1].rule
    spans = [span for span in obs.tracer.spans() if span.name == "invoke"]
    assert [span.trace_id for span in spans] \
        == [cold.trace_id, warm.trace_id]
    gauge = families["oasis_decision_cache_entries"]["samples"]
    assert {"labels": {"service": "fc/resource"}, "value": 1} in gauge
    stats = {sample["labels"]["field"]: sample["value"] for sample
             in families["oasis_service_stats"]["samples"]
             if sample["labels"]["service"] == "fc/resource"}
    assert stats["decision_cache_hits"] == 1
    assert stats["decision_cache_invalidations"] == 0


def test_overflow_clears_the_whole_cache(monkeypatch):
    from repro.core import decisions

    monkeypatch.setattr(decisions, "DECISION_CACHE_MAX", 2)
    cache = DecisionCache()
    rule = AuthorizationRule("m")
    rules = (rule,)
    keys = [("m", (index,), ((f"dom/svc#{index}", b"sig"),))
            for index in range(3)]
    for key in keys:
        cache.store(key, rules, rule)
    assert len(cache) == 1 and len(cache._by_ref) == 1
    assert cache.lookup(keys[2], rules) is not None
    assert cache.lookup(keys[0], rules) is None
