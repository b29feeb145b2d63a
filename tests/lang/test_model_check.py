"""Tests for exact ground reachability (the model checker)."""

import pytest

from repro.core import (
    DatabaseLookupConstraint,
    ConstraintRegistry,
    EvaluationContext,
    Role,
    RoleName,
    ServiceId,
)
from repro.db import Database
from repro.lang import Endowment, GroundReachability, PolicyUniverse
from repro.policy import parse_policy

LOGIN = ServiceId("hospital", "login")
ADMIN = ServiceId("hospital", "admin")
RECORDS = ServiceId("hospital", "records")


@pytest.fixture
def registry():
    registry = ConstraintRegistry()
    registry.register(
        "registered",
        lambda doc, pat: DatabaseLookupConstraint.exists(
            "main", "registered", doctor=doc, patient=pat))
    return registry


@pytest.fixture
def universe(registry):
    return PolicyUniverse([
        parse_policy("""
            service hospital/login
            role logged_in_user(u)
            activate logged_in_user(u)
        """, registry),
        parse_policy("""
            service hospital/admin
            role administrator(u)
            activate administrator(u) <-
                hospital/login:logged_in_user(u)*
        """, registry),
        parse_policy("""
            service hospital/records
            role treating_doctor(d, p)
            activate treating_doctor(d, p) <-
                hospital/login:logged_in_user(d)*,
                appointment hospital/admin:allocated(d, p)*,
                where registered(d, p)*
        """, registry),
    ])


@pytest.fixture
def context():
    db = Database("main")
    db.create_table("registered", ["doctor", "patient"])
    db.insert("registered", doctor="d1", patient="p1")
    return EvaluationContext(databases={"main": db})


def logged_in(uid):
    return Role(RoleName(LOGIN, "logged_in_user"), (uid,))


def treating(doc, pat):
    return Role(RoleName(RECORDS, "treating_doctor"), (doc, pat))


class TestGroundReachability:
    def test_seeded_login_reaches_dependent_roles(self, universe, context):
        checker = GroundReachability(universe, context)
        endowment = Endowment(
            appointments=((ADMIN, "allocated", ("d1", "p1")),),
            initial_activations=(logged_in("d1"),))
        result = checker.explore(endowment)
        assert result.holds(logged_in("d1"))
        assert result.holds(Role(RoleName(ADMIN, "administrator"),
                                 ("d1",)))
        assert result.holds(treating("d1", "p1"))

    def test_no_appointment_no_treating_role(self, universe, context):
        checker = GroundReachability(universe, context)
        endowment = Endowment(initial_activations=(logged_in("d1"),))
        result = checker.explore(endowment)
        assert not result.holds(treating("d1", "p1"))

    def test_constraint_blocks_unregistered_pair(self, universe, context):
        """Exact mode: the DB has no (d1, p2) registration."""
        checker = GroundReachability(universe, context)
        endowment = Endowment(
            appointments=((ADMIN, "allocated", ("d1", "p2")),),
            initial_activations=(logged_in("d1"),))
        assert not checker.can_reach(endowment, treating("d1", "p2"))

    def test_ignore_constraints_over_approximates(self, universe, context):
        checker = GroundReachability(universe, context,
                                     ignore_constraints=True)
        endowment = Endowment(
            appointments=((ADMIN, "allocated", ("d1", "p2")),),
            initial_activations=(logged_in("d1"),))
        assert checker.can_reach(endowment, treating("d1", "p2"))

    def test_credential_join_enforced(self, universe, context):
        """An allocation for d2 does not help a principal logged in as
        d1 — the parameter join blocks it."""
        checker = GroundReachability(universe, context)
        endowment = Endowment(
            appointments=((ADMIN, "allocated", ("d2", "p1")),),
            initial_activations=(logged_in("d1"),))
        result = checker.explore(endowment)
        assert not result.holds(treating("d1", "p1"))
        assert not result.holds(treating("d2", "p1"))  # d2 never logged in

    def test_unseeded_initial_roles_contribute_nothing(self, universe,
                                                       context):
        checker = GroundReachability(universe, context)
        result = checker.explore(Endowment())
        assert result.roles == set()

    def test_impossible_seed_rejected(self, universe, context):
        """Seeding a role whose own rules cannot fire adds nothing."""
        checker = GroundReachability(universe, context)
        fake = Role(RoleName(ADMIN, "administrator"), ("ghost",))
        result = checker.explore(Endowment(initial_activations=(fake,)))
        assert result.roles == set()

    def test_multiple_allocations_all_reachable(self, universe, context):
        context.databases["main"].insert("registered", doctor="d1",
                                         patient="p9")
        checker = GroundReachability(universe, context)
        endowment = Endowment(
            appointments=((ADMIN, "allocated", ("d1", "p1")),
                          (ADMIN, "allocated", ("d1", "p9"))),
            initial_activations=(logged_in("d1"),))
        result = checker.explore(endowment)
        names = result.roles_named(RoleName(RECORDS, "treating_doctor"))
        assert [role.parameters for role in names] \
            == [("d1", "p1"), ("d1", "p9")]

    def test_terminates_on_mutual_recursion(self, registry, context):
        """Cyclic rules: the fixpoint terminates with nothing reachable."""
        universe = PolicyUniverse([
            parse_policy("""
                service dom/a
                role ra(u)
                activate ra(u) <- dom/b:rb(u)
            """, registry),
            parse_policy("""
                service dom/b
                role rb(u)
                activate rb(u) <- dom/a:ra(u)
            """, registry),
        ])
        checker = GroundReachability(universe, context)
        result = checker.explore(Endowment())
        assert result.roles == set()
        assert result.iterations >= 1
