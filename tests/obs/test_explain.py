"""Decision explainers: every denial names the failing condition, and
the engine and the naive reference solver explain identically."""

import pytest

from repro.core import (
    ActivationRule,
    ConstraintCondition,
    OasisService,
    PredicateConstraint,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
)
from repro.core.exceptions import ActivationDenied, CredentialInvalid
from repro.core.service import Presentation
from repro.events import EventBroker
from repro.obs.explain import Decision, DecisionLog, RuleAttempt
from repro.obs.runtime import observed

from tests.conftest import build_hospital
from tests.reference import NaiveRuleEngine


def _decision(timestamp=0.0, kind="activation", outcome="denied",
              **overrides):
    base = dict(timestamp=timestamp, kind=kind, outcome=outcome,
                service="dom/svc", principal="alice", subject="role")
    base.update(overrides)
    return Decision(**base)


class TestDecisionUnits:
    def test_failing_attempt_is_first_failure(self):
        matched = RuleAttempt(rule="r1", outcome="matched")
        failed = RuleAttempt(rule="r2", outcome="failed",
                             failure_kind="constraint",
                             failed_condition="registered(doc, pat)")
        decision = _decision(rule_attempts=(matched, failed))
        assert decision.failing_attempt is failed
        assert _decision(rule_attempts=(matched,)).failing_attempt is None

    def test_to_dict_round_trips_attempts(self):
        decision = _decision(
            rule_attempts=(RuleAttempt(
                rule="r", outcome="failed", failure_kind="no-candidates",
                failed_condition="logged_in(u)", detail="missing"),),
            reason="denied", trace_id="t0001",
            detail=(("k", "v"),))
        data = decision.to_dict()
        assert data["outcome"] == "denied"
        assert data["trace_id"] == "t0001"
        assert data["detail"] == {"k": "v"}
        assert data["rule_attempts"] == [{
            "rule": "r", "outcome": "failed",
            "failure_kind": "no-candidates",
            "failed_condition": "logged_in(u)", "detail": "missing"}]

    def test_render_text_names_the_failing_condition(self):
        decision = _decision(
            rule_attempts=(RuleAttempt(
                rule="clerk(u) :- logged_in(u)", outcome="failed",
                failure_kind="no-candidates",
                failed_condition="logged_in(u)"),),
            reason="no credentials")
        text = decision.render_text()
        assert "denied" in text
        assert "logged_in(u)" in text
        assert "no-candidates" in text


class TestDecisionLog:
    def test_query_filters(self):
        log = DecisionLog()
        log.record(_decision(timestamp=1.0, outcome="granted"))
        log.record(_decision(timestamp=2.0, principal="bob"))
        log.record(_decision(timestamp=3.0, trace_id="t0009"))
        assert len(log.query(outcome="denied")) == 2
        assert len(log.denials()) == 2
        assert [d.principal for d in log.query(principal="bob")] == ["bob"]
        assert [d.trace_id for d in log.query(trace_id="t0009")] \
            == ["t0009"]

    def test_time_window_is_half_open(self):
        log = DecisionLog()
        for timestamp in (1.0, 2.0, 3.0):
            log.record(_decision(timestamp=timestamp))
        # [since, until): since inclusive, until exclusive.
        assert [d.timestamp for d in log.query(since=2.0)] == [2.0, 3.0]
        assert [d.timestamp for d in log.query(until=2.0)] == [1.0]
        assert [d.timestamp for d in log.query(since=1.0, until=3.0)] \
            == [1.0, 2.0]

    def test_capacity_discards_oldest(self):
        log = DecisionLog(capacity=2)
        for timestamp in (1.0, 2.0, 3.0):
            log.record(_decision(timestamp=timestamp))
        assert [d.timestamp for d in log.query()] == [2.0, 3.0]
        assert log.discarded == 1
        log.clear()
        assert log.query() == [] and log.discarded == 0


def _grant_and_deny(hospital):
    """Drive one granted activation and one of every denial kind.

    Returns the list of recorded activation decisions (dict form), in
    order.  Runs under whatever pipeline is currently enabled.
    """
    login, admin, records = hospital.login, hospital.admin, hospital.records
    alice = Principal("alice")
    session = alice.start_session(login, "logged_in_user", ["alice"])
    rmc = session.root_rmc

    # no-candidates: admin requires a logged_in_user RMC, none presented.
    with pytest.raises(ActivationDenied):
        admin.activate_role(alice.id, "administrator", ["alice"])
    # unification: right credential kind, wrong parameter binding.
    with pytest.raises(ActivationDenied):
        admin.activate_role(alice.id, "administrator", ["bob"],
                            [Presentation(rmc)])
    # unbound-parameters: rule satisfiable but head left non-ground.
    with pytest.raises(ActivationDenied):
        login.activate_role(Principal("carol").id, "logged_in_user")
    # head-mismatch: requested arity does not unify with the rule head.
    with pytest.raises(ActivationDenied):
        login.activate_role(alice.id, "logged_in_user", ["a", "b"])
    # constraint: appointment held but the doctor/patient pair is not in
    # the registration database.
    doctor = hospital.new_doctor("dan", "p1")
    doctor_session = doctor.start_session(login, "logged_in_user", ["dan"])
    hospital.db.delete("registered", doctor="dan", patient="p1")
    with pytest.raises(ActivationDenied):
        doctor_session.activate(records, "treating_doctor", ["dan", "p1"],
                                use_appointments=doctor.appointments())
    # credential-invalid: presenting a revoked RMC fails validation.
    login.revoke(rmc.ref, "logout")
    with pytest.raises(CredentialInvalid):
        admin.activate_role(alice.id, "administrator", ["alice"],
                            [Presentation(rmc)])


class TestServiceDecisions:
    def _run(self, optimized=True):
        with observed() as obs:
            hospital = build_hospital()
            if not optimized:
                for service in (hospital.login, hospital.admin,
                                hospital.records):
                    service._engine = NaiveRuleEngine(service.context)
            _grant_and_deny(hospital)
        return [d.to_dict() for d in obs.decisions.query(kind="activation")]

    def test_every_denial_names_its_failing_condition(self):
        decisions = self._run()
        denied = [d for d in decisions if d["outcome"] == "denied"]
        failing = [next(a for a in d["rule_attempts"]
                        if a["outcome"] == "failed") for d in denied]
        kinds = [attempt["failure_kind"] for attempt in failing]
        assert kinds == ["no-candidates", "unification",
                         "unbound-parameters", "head-mismatch",
                         "constraint", "credential-invalid"]
        # Condition-level failures point at the actual failing condition.
        by_kind = dict(zip(kinds, failing))
        assert "logged_in_user" in by_kind["no-candidates"][
            "failed_condition"]
        assert "logged_in_user" in by_kind["unification"][
            "failed_condition"]
        assert "registered" in by_kind["constraint"]["failed_condition"]
        # Head/validation failures explain themselves in the detail.
        assert "unbound" in by_kind["unbound-parameters"]["detail"]
        assert by_kind["head-mismatch"].get("failed_condition") is None
        assert by_kind["credential-invalid"]["rule"] \
            == "(credential validation)"
        # Every denial carries a reason and a trace id (span-correlated).
        assert all(d["reason"] for d in denied)
        assert all(d["trace_id"] for d in denied)

    def test_granted_decisions_carry_credential_ref(self):
        decisions = self._run()
        granted = [d for d in decisions if d["outcome"] == "granted"]
        assert granted, "expected at least one granted activation"
        for decision in granted:
            assert decision["rule_attempts"][-1]["outcome"] == "matched"
            assert "credential_ref" in decision["detail"]

    def test_no_rule_denial(self):
        with observed() as obs:
            hospital = build_hospital()
            hospital.login.policy.define_role("ghost", 0)
            with pytest.raises(ActivationDenied):
                hospital.login.activate_role(Principal("alice").id, "ghost")
        (decision,) = obs.decisions.denials()
        attempt = decision.failing_attempt
        assert attempt.failure_kind == "no-rule"
        assert "ghost" in attempt.rule

    def test_explainers_agree_across_engine_paths(self):
        """The differential property: swapping in the reference solver
        must not change a single explained decision."""
        optimized = self._run(optimized=True)
        reference = self._run(optimized=False)
        assert optimized == reference

    def test_constraint_that_turns_true_before_its_explanation(self):
        """A constraint may read the clock or a database, so it can fail
        in the match and hold by the time the rule is explained.  The
        service then records an ``unknown`` failure and still denies."""
        calls = []

        def opens():
            calls.append(None)
            return len(calls) > 1  # false for the match, true afterwards

        policy = ServicePolicy(ServiceId("dom", "svc"))
        role = policy.define_role("opened")
        policy.add_activation_rule(ActivationRule(
            RoleTemplate(role), (ConstraintCondition(
                PredicateConstraint("opens", (), opens)),)))
        with observed() as obs:
            service = OasisService(policy, EventBroker(), ServiceRegistry())
            with pytest.raises(ActivationDenied):
                service.activate_role(Principal("alice").id, "opened")
        (decision,) = obs.decisions.denials()
        assert decision.failing_attempt.failure_kind == "unknown"
