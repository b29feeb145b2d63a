"""Tests for compiling policy documents to executable ServicePolicy."""

import os

import pytest

from repro.core import (
    AppointmentCondition,
    ComparisonConstraint,
    ConstraintRegistry,
    DatabaseLookupConstraint,
    PolicyError,
    PrerequisiteRole,
    ServiceId,
    Var,
)
from repro.netd.worlds import POLICY_DIR
from repro.policy import parse_policy

HEADER = "service hospital/records\n"


@pytest.fixture
def registry():
    registry = ConstraintRegistry()
    registry.register(
        "registered",
        lambda doc, pat: DatabaseLookupConstraint.exists(
            "main", "registered", doctor=doc, patient=pat))
    registry.register("ne", lambda a, b: ComparisonConstraint(a, "!=", b))
    return registry


class TestCompile:
    def test_roles_declared(self, registry):
        policy = parse_policy(HEADER + "role td(d, p)\nactivate td(d, p)",
                              registry)
        assert policy.defines_role("td")
        assert policy.role_arity("td") == 2

    def test_service_identity(self, registry):
        policy = parse_policy(HEADER + "role g()\nactivate g()", registry)
        assert policy.service == ServiceId("hospital", "records")

    def test_local_role_atom_resolves_to_own_service(self, registry):
        policy = parse_policy(
            HEADER + "role a(u)\nrole b(u)\nactivate a(u)\n"
            "activate b(u) <- a(u)", registry)
        rule = policy.activation_rules_for("b")[0]
        prereq = rule.prerequisite_roles()[0]
        assert prereq.template.role_name.service == policy.service

    def test_qualified_role_atom_is_foreign(self, registry):
        policy = parse_policy(
            HEADER + "role b(u)\n"
            "activate b(u) <- clinic/login:visitor(u)", registry)
        prereq = policy.activation_rules_for("b")[0].prerequisite_roles()[0]
        assert prereq.template.role_name.service == \
            ServiceId("clinic", "login")

    def test_variables_and_constants(self, registry):
        policy = parse_policy(
            HEADER + 'role b(u)\n'
            'activate b(u) <- appointment h/a:cert(u, "fixed", 3)',
            registry)
        condition = policy.activation_rules_for("b")[0] \
            .appointment_conditions()[0]
        assert condition.parameters == (Var("u"), "fixed", 3)

    def test_membership_flags_survive(self, registry):
        policy = parse_policy(
            HEADER + "role b(u)\n"
            "activate b(u) <- h/l:li(u)*, appointment h/a:c(u)",
            registry)
        rule = policy.activation_rules_for("b")[0]
        assert len(rule.membership_conditions) == 1

    def test_where_uses_registry(self, registry):
        policy = parse_policy(
            HEADER + "role b(d, p)\n"
            "activate b(d, p) <- where registered(d, p)", registry)
        constraint = policy.activation_rules_for("b")[0] \
            .constraint_conditions()[0].constraint
        assert isinstance(constraint, DatabaseLookupConstraint)

    def test_where_without_registry_rejected(self):
        with pytest.raises(PolicyError, match="registry"):
            parse_policy(HEADER + "role b(u)\n"
                         "activate b(u) <- where registered(u)")

    def test_unknown_constraint_rejected(self, registry):
        with pytest.raises(PolicyError, match="unknown constraint"):
            parse_policy(HEADER + "role b(u)\n"
                         "activate b(u) <- where mystery(u)", registry)

    def test_unknown_constraint_carries_its_position(self):
        # The same position the no-registry error reports: a typo in a
        # shipped world file names its line when a node boots.
        with open(os.path.join(POLICY_DIR, "hospital", "records.oasis"),
                  encoding="utf-8") as handle:
            text = handle.read()
        for registry in (ConstraintRegistry(), None):
            with pytest.raises(PolicyError) as caught:
                parse_policy(text, registry)
            assert (caught.value.line, caught.value.column) == (9, 5)

    def test_domains_rename_every_domain_the_text_names(self):
        policy = parse_policy(
            HEADER + "role treating(d, p)\n"
            "activate treating(d, p) <- hospital/login:user(d)*,\n"
            "    appointment hospital/admin:allocated(d, p)*,\n"
            "    other/login:user(p)\n",
            domains={"hospital": "st-marys"})
        assert policy.service == ServiceId("st-marys", "records")
        (rule,) = policy.activation_rules_for("treating")
        role, appointment, foreign = rule.conditions
        assert role.template.role_name.service == ServiceId(
            "st-marys", "login")
        assert appointment.issuer == ServiceId("st-marys", "admin")
        assert foreign.template.role_name.service == ServiceId(
            "other", "login")

    def test_undeclared_head_role_rejected(self, registry):
        with pytest.raises(PolicyError, match="undeclared"):
            parse_policy(HEADER + "activate ghost(u)", registry)

    def test_head_arity_mismatch_rejected(self, registry):
        with pytest.raises(PolicyError, match="arity"):
            parse_policy(HEADER + "role g(u)\nactivate g(u, v)", registry)

    def test_undeclared_local_body_role_rejected(self, registry):
        with pytest.raises(PolicyError, match="undeclared local role"):
            parse_policy(HEADER + "role b(u)\nactivate b(u) <- ghost(u)",
                         registry)

    def test_local_body_arity_checked(self, registry):
        with pytest.raises(PolicyError, match="arity"):
            parse_policy(HEADER + "role a(u)\nrole b(u)\nactivate a(u)\n"
                         "activate b(u) <- a(u, u)", registry)

    def test_authorization_compiled(self, registry):
        policy = parse_policy(
            HEADER + "role td(d, p)\nactivate td(d, p)\n"
            "authorize read(p) <- td(d, p), where ne(d, \"fred\")",
            registry)
        rules = policy.authorization_rules_for("read")
        assert len(rules) == 1
        assert isinstance(rules[0].conditions[0], PrerequisiteRole)

    def test_appointment_compiled(self, registry):
        policy = parse_policy(
            HEADER + "role adm(a)\nactivate adm(a)\n"
            "appoint alloc(d, p) <- adm(a)", registry)
        rules = policy.appointment_rules_for("alloc")
        assert len(rules) == 1

    def test_allow_unresolved_builds_placeholder(self):
        from repro.policy import UnresolvedConstraint

        policy = parse_policy(
            HEADER + "role b(u)\nactivate b(u) <- where mystery(u)",
            allow_unresolved=True)
        constraint = policy.activation_rules_for("b")[0] \
            .constraint_conditions()[0].constraint
        assert isinstance(constraint, UnresolvedConstraint)
        assert constraint.name == "mystery"
        assert {v.name for v in constraint.free_variables()} == {"u"}

    def test_unresolved_constraint_refuses_evaluation(self):
        from repro.core import EvaluationContext
        from repro.core.terms import EMPTY_SUBSTITUTION
        from repro.policy import UnresolvedConstraint

        constraint = UnresolvedConstraint("mystery", ())
        with pytest.raises(PolicyError, match="unresolved"):
            constraint.evaluate(EMPTY_SUBSTITUTION, EvaluationContext())

    def test_registry_still_wins_over_unresolved(self, registry):
        policy = parse_policy(
            HEADER + "role b(d, p)\n"
            "activate b(d, p) <- where registered(d, p)",
            registry, allow_unresolved=True)
        constraint = policy.activation_rules_for("b")[0] \
            .constraint_conditions()[0].constraint
        assert isinstance(constraint, DatabaseLookupConstraint)

    def test_compiled_policy_is_executable(self, registry):
        """The compiled policy drives a real service."""
        from repro.core import (
            OasisService, Principal, ServiceRegistry)
        from repro.events import EventBroker

        policy = parse_policy(
            "service hospital/login\nrole logged_in_user(uid)\n"
            "activate logged_in_user(uid)", registry)
        service = OasisService(policy, EventBroker(), ServiceRegistry())
        session = Principal("alice").start_session(
            service, "logged_in_user", ["alice"])
        assert session.root_rmc.role.parameters == ("alice",)
