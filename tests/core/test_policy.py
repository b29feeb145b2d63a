"""Unit tests for per-service policy containers and their lint checks."""

import pytest

from repro.core import (
    ActivationRule,
    AppointmentRule,
    AuthorizationRule,
    PolicyError,
    PrerequisiteRole,
    RoleName,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    UnknownRole,
    Var,
)
from repro.lang import PolicyUniverse

SVC = ServiceId("hospital", "records")
OTHER = ServiceId("hospital", "login")


@pytest.fixture
def policy():
    return ServicePolicy(SVC)


def local(policy, name, *params):
    return RoleTemplate(RoleName(SVC, name), tuple(params))


class TestRoleDefinition:
    def test_define_and_query(self, policy):
        policy.define_role("td", 2)
        assert policy.defines_role("td")
        assert policy.role_arity("td") == 2

    def test_redefine_same_arity_ok(self, policy):
        policy.define_role("td", 2)
        policy.define_role("td", 2)

    def test_redefine_different_arity_rejected(self, policy):
        policy.define_role("td", 2)
        with pytest.raises(PolicyError):
            policy.define_role("td", 1)

    def test_unknown_role_arity(self, policy):
        with pytest.raises(UnknownRole):
            policy.role_arity("nope")

    def test_rejects_bad_names(self, policy):
        with pytest.raises(PolicyError):
            policy.define_role("", 0)
        with pytest.raises(PolicyError):
            policy.define_role("x", -1)


class TestRuleAddition:
    def test_rule_for_foreign_role_rejected(self, policy):
        foreign = RoleTemplate(RoleName(OTHER, "guest"))
        with pytest.raises(PolicyError):
            policy.add_activation_rule(ActivationRule(foreign))

    def test_rule_for_undeclared_role_rejected(self, policy):
        with pytest.raises(UnknownRole):
            policy.add_activation_rule(
                ActivationRule(local(policy, "ghost")))

    def test_rule_arity_mismatch_rejected(self, policy):
        policy.define_role("td", 2)
        with pytest.raises(PolicyError):
            policy.add_activation_rule(
                ActivationRule(local(policy, "td", Var("d"))))

    def test_multiple_rules_per_role(self, policy):
        policy.define_role("guest", 0)
        policy.add_activation_rule(ActivationRule(local(policy, "guest")))
        policy.add_activation_rule(ActivationRule(local(policy, "guest")))
        assert len(policy.activation_rules_for("guest")) == 2

    def test_authorization_and_appointment_rules(self, policy):
        policy.add_authorization_rule(AuthorizationRule("read", (Var("p"),)))
        policy.add_appointment_rule(AppointmentRule("allocated", ()))
        assert policy.guarded_methods == ["read"]
        assert policy.appointment_names == ["allocated"]
        assert len(policy.authorization_rules_for("read")) == 1
        assert policy.authorization_rules_for("unknown") == ()

    def test_adding_a_rule_replaces_the_stored_tuple(self, policy):
        # DecisionCache.lookup compares rule tuples by identity: a tuple
        # handed out must stay as it was, and a new rule must mint a new one.
        policy.add_authorization_rule(AuthorizationRule("read", ()))
        before = policy.authorization_rules_for("read")
        assert policy.authorization_rules_for("read") is before
        policy.add_authorization_rule(AuthorizationRule("read", (Var("p"),)))
        after = policy.authorization_rules_for("read")
        assert after is not before
        assert len(before) == 1 and len(after) == 2


def error_codes(policy):
    """Error-severity lint codes for ``policy`` alone, sorted."""
    return sorted(d.code for d in PolicyUniverse([policy]).diagnose()
                  if d.severity == "error")


class TestAnalysis:
    """Whole-policy checks are the lint passes' (repro.lang.passes)."""

    def test_validate_passes_on_good_policy(self, policy):
        policy.define_role("guest", 0)
        policy.add_activation_rule(ActivationRule(local(policy, "guest")))
        assert error_codes(policy) == []

    def test_validate_rejects_role_without_rule(self, policy):
        policy.define_role("orphan", 0)
        assert error_codes(policy) == ["OAS004"]

    def test_validate_detects_local_cycle(self, policy):
        policy.define_role("a", 0)
        policy.define_role("b", 0)
        policy.add_activation_rule(ActivationRule(
            local(policy, "a"), (PrerequisiteRole(local(policy, "b")),)))
        policy.add_activation_rule(ActivationRule(
            local(policy, "b"), (PrerequisiteRole(local(policy, "a")),)))
        assert error_codes(policy) == ["OAS004", "OAS004", "OAS005"]

    def test_validate_requires_reachable_entry(self, policy):
        policy.define_role("a", 0)
        policy.define_role("b", 0)
        policy.add_activation_rule(ActivationRule(
            local(policy, "b"), (PrerequisiteRole(local(policy, "a")),)))
        # 'a' has no rule at all, so neither role is reachable.
        assert error_codes(policy) == ["OAS004", "OAS004"]

    def test_validate_accepts_cross_service_entry(self, policy):
        # All roles depend on a foreign role: fine, sessions start elsewhere.
        policy.define_role("td", 0)
        foreign = RoleTemplate(RoleName(OTHER, "logged_in"))
        policy.add_activation_rule(ActivationRule(
            local(policy, "td"), (PrerequisiteRole(foreign),)))
        assert error_codes(policy) == []
