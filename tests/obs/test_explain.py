"""Decision explainers: every denial's access record names the failing
condition, and the engine and the naive reference solver explain
identically."""

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
from repro.core.access_log import AccessKind
from repro.core.exceptions import (ActivationDenied, AppointmentDenied,
                                   CredentialInvalid, InvocationDenied)
from repro.core.service import Presentation
from repro.domains import Deployment
from repro.events import EventBroker
from repro.obs.explain import RuleAttempt
from repro.obs.runtime import observed
from repro.scenarios import build_hospital

from tests.reference import NaiveRuleEngine


class TestRuleAttempt:
    def test_to_dict_round_trips_attempts(self):
        """The wire form of an explanation (the ``audit`` op's rows):
        unset fields are left out."""
        attempt = RuleAttempt(
            rule="r", outcome="failed", failure_kind="no-candidates",
            failed_condition="logged_in(u)", detail="missing")
        assert attempt.to_dict() == {
            "rule": "r", "outcome": "failed",
            "failure_kind": "no-candidates",
            "failed_condition": "logged_in(u)", "detail": "missing"}
        assert RuleAttempt(rule="r", outcome="matched").to_dict() \
            == {"rule": "r", "outcome": "matched"}


def _failing(record):
    """The last failed attempt: for a denial, *the* explanation."""
    return next(attempt for attempt in reversed(record.attempts)
                if attempt.outcome == "failed")


def _grant_and_deny(hospital):
    """Drive two granted activations and one denial of every kind.

    Returns the access record each activation request left, in request
    order.  Runs under whatever pipeline is currently enabled.
    """
    login, admin, records = hospital.login, hospital.admin, hospital.records
    made = []

    def newest(service):
        made.append(list(service.access_log)[-1])

    alice = Principal("alice")
    session = alice.start_session(login, "logged_in_user", ["alice"])
    newest(login)
    rmc = session.root_rmc

    # no-candidates: admin requires a logged_in_user RMC, none presented.
    with pytest.raises(ActivationDenied):
        admin.activate_role(alice.id, "administrator", ["alice"])
    newest(admin)
    # unification: right credential kind, wrong parameter binding.
    with pytest.raises(ActivationDenied):
        admin.activate_role(alice.id, "administrator", ["bob"],
                            [Presentation(rmc)])
    newest(admin)
    # unbound-parameters: rule satisfiable but head left non-ground.
    with pytest.raises(ActivationDenied):
        login.activate_role(Principal("carol").id, "logged_in_user")
    newest(login)
    # head-mismatch: requested arity does not unify with the rule head.
    with pytest.raises(ActivationDenied):
        login.activate_role(alice.id, "logged_in_user", ["a", "b"])
    newest(login)
    # constraint: appointment held but the doctor/patient pair is not in
    # the registration database.
    doctor = hospital.admit_doctor("dan", "p1")
    doctor_session = doctor.start_session(login, "logged_in_user", ["dan"])
    newest(login)
    hospital.db.delete("registered", doctor="dan", patient="p1")
    with pytest.raises(ActivationDenied):
        doctor_session.activate(records, "treating_doctor", ["dan", "p1"],
                                use_appointments=doctor.appointments())
    newest(records)
    # credential-invalid: presenting a revoked RMC fails validation.
    login.revoke(rmc.ref, "logout")
    with pytest.raises(CredentialInvalid):
        admin.activate_role(alice.id, "administrator", ["alice"],
                            [Presentation(rmc)])
    newest(admin)
    return made, rmc


class TestServiceDecisions:
    def _run(self, optimized=True):
        with observed():
            hospital = build_hospital(Deployment(use_network=False))
            if not optimized:
                for service in (hospital.login, hospital.admin,
                                hospital.records):
                    service._engine = NaiveRuleEngine(service.context)
            return _grant_and_deny(hospital)

    def test_every_denial_names_its_failing_condition(self):
        made, rmc = self._run()
        denied = [record for record in made
                  if record.kind != AccessKind.ACTIVATION]
        failing = [next(attempt for attempt in record.attempts
                        if attempt.outcome == "failed")
                   for record in denied]
        kinds = [attempt.failure_kind for attempt in failing]
        assert kinds == ["no-candidates", "unification",
                         "unbound-parameters", "head-mismatch",
                         "constraint", "credential-invalid"]
        # Condition-level failures point at the actual failing condition.
        by_kind = dict(zip(kinds, failing))
        assert "logged_in_user" in by_kind["no-candidates"].failed_condition
        assert "logged_in_user" in by_kind["unification"].failed_condition
        assert "registered" in by_kind["constraint"].failed_condition
        # Head/validation failures explain themselves in the detail.
        assert "unbound" in by_kind["unbound-parameters"].detail
        assert by_kind["head-mismatch"].failed_condition is None
        assert by_kind["credential-invalid"].rule \
            == "(credential validation)"
        # A validation failure is audited against the certificate, and
        # its attempt names the role that was requested.
        invalid = denied[-1]
        assert invalid.kind == AccessKind.VALIDATION_FAILED
        assert invalid.subject == str(rmc.ref)
        assert "'administrator'" in by_kind["credential-invalid"].detail
        assert [record.kind for record in denied[:-1]] \
            == [AccessKind.ACTIVATION_DENIED] * 5
        # Every denial carries a reason and a trace id (span-correlated).
        assert all(record.reason for record in denied)
        assert all(record.trace_id for record in denied)

    def test_granted_decisions_carry_credential_ref(self):
        made, _rmc = self._run()
        granted = [record for record in made
                   if record.kind == AccessKind.ACTIVATION]
        assert len(granted) == 2
        for record in granted:
            assert record.attempts[-1].outcome == "matched"
            assert record.attempts[-1].detail.startswith(
                "credential_ref=hospital/login#")
            assert record.trace_id

    def test_no_rule_denial(self):
        with observed():
            hospital = build_hospital(Deployment(use_network=False))
            hospital.login.policy.define_role("ghost", 0)
            with pytest.raises(ActivationDenied):
                hospital.login.activate_role(Principal("alice").id, "ghost")
        (record,) = hospital.login.access_log.denials()
        attempt = _failing(record)
        assert attempt.failure_kind == "no-rule"
        assert "ghost" in attempt.rule

    def test_no_rule_invocation_denial(self):
        with observed():
            hospital = build_hospital(Deployment(use_network=False))
            hospital.login.register_method("ghost", lambda: None)
            with pytest.raises(InvocationDenied):
                hospital.login.invoke(Principal("alice").id, "ghost")
        (record,) = hospital.login.access_log.denials()
        assert record.kind == AccessKind.INVOCATION_DENIED
        attempt = _failing(record)
        assert attempt.failure_kind == "no-rule"
        assert "'ghost'" in attempt.rule

    def test_refused_appointments_mark_their_spans(self):
        """An appointment refused for an invalid credential or for an
        undefined name is audited, and its span carries the error."""
        with observed() as obs:
            hospital = build_hospital(Deployment(use_network=False))
            admin = hospital.admin
            alice = Principal("alice")
            rmc = alice.start_session(hospital.login, "logged_in_user",
                                      ["alice"]).root_rmc
            hospital.login.revoke(rmc.ref, "logout")
            with pytest.raises(CredentialInvalid) as invalid:
                admin.issue_appointment(alice.id, "allocated", ["d", "p"],
                                        [Presentation(rmc)])
            with pytest.raises(AppointmentDenied) as undefined:
                admin.issue_appointment(alice.id, "knighted", [])
        spans = obs.tracer.spans(name="issue_appointment")
        assert [(span.attrs["appointment"], span.status,
                 span.attrs["error"]) for span in spans] == [
            ("allocated", "error", str(invalid.value)),
            ("knighted", "error", str(undefined.value))]
        failed, denied = admin.access_log.denials()
        assert failed.kind == AccessKind.VALIDATION_FAILED
        assert failed.subject == str(rmc.ref)
        assert (denied.kind, denied.subject, denied.reason) == (
            AccessKind.APPOINTMENT_DENIED, "knighted",
            str(undefined.value))
        assert failed.trace_id == spans[0].trace_id
        assert denied.trace_id == spans[1].trace_id

    def test_explainers_agree_across_engine_paths(self):
        """The differential property: swapping in the reference solver
        must not change a single explained decision."""
        optimized, _rmc = self._run(optimized=True)
        reference, _rmc = self._run(optimized=False)
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
        with observed():
            service = OasisService(policy, EventBroker(), ServiceRegistry())
            with pytest.raises(ActivationDenied):
                service.activate_role(Principal("alice").id, "opened")
        (record,) = service.access_log.denials()
        assert _failing(record).failure_kind == "unknown"
