"""Differential tests: the optimized solver against the naive reference.

The optimized engine (credential index, selectivity ordering, persistent
substitutions) must produce exactly the same *set* of solutions as the
naive reference (``tests.reference.NaiveRuleEngine``, the seed
algorithm: linear credential scan in rule order).  Solution order may
differ — selectivity ordering legitimately changes which choice point is
explored first — so solutions are compared as multisets.

Randomized policies and credential endowments are generated from seeded
``random.Random`` instances (property-style but fully deterministic), and
hand-built cases pin down the tricky corners: backtracking across shared
variables, unbound head parameters, membership-flagged conditions, and a
condition object appearing twice in one rule body.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ActivationDenied,
    ActivationRule,
    AppointmentCertificate,
    AppointmentCondition,
    ComparisonConstraint,
    ConstraintCondition,
    CredentialRef,
    EvaluationContext,
    PresentedCredential,
    PrerequisiteRole,
    Role,
    RoleMembershipCertificate,
    RoleName,
    RoleTemplate,
    RuleEngine,
    ServiceId,
    Var,
)

from tests.conftest import examples
from tests.reference import NaiveRuleEngine

SVC = ServiceId("dom", "svc")
ISSUER = ServiceId("dom", "issuer")
CONSTANTS = ["a", "b", "c", "d"]
VARIABLES = ["x", "y", "z"]

#: (kind, name, arity) pool shared by rule conditions and credentials so
#: random cases actually collide in the index buckets.
SHAPES = [
    ("rmc", "reader", 1),
    ("rmc", "writer", 2),
    ("appointment", "employed", 1),
    ("appointment", "cleared", 2),
]


def make_engines():
    context = EvaluationContext()
    return RuleEngine(context), NaiveRuleEngine(context)


def rmc(name, parameters, serial):
    role = Role(RoleName(SVC, name), tuple(parameters))
    certificate = RoleMembershipCertificate(
        issuer=SVC, role=role, ref=CredentialRef(SVC, serial), issued_at=0.0)
    return PresentedCredential(certificate)


def appointment(name, parameters, serial):
    certificate = AppointmentCertificate(
        issuer=ISSUER, name=name, parameters=tuple(parameters),
        ref=CredentialRef(ISSUER, serial), issued_at=0.0)
    return PresentedCredential(certificate)


def credential_for(shape, parameters, serial):
    kind, name, _ = shape
    if kind == "rmc":
        return rmc(name, parameters, serial)
    return appointment(name, parameters, serial)


def condition_for(shape, parameters, membership):
    kind, name, _ = shape
    if kind == "rmc":
        template = RoleTemplate(RoleName(SVC, name), tuple(parameters))
        return PrerequisiteRole(template, membership=membership)
    return AppointmentCondition(ISSUER, name, tuple(parameters),
                                membership=membership)


def random_case(rng):
    """A random activation rule plus a random credential endowment."""
    conditions = []
    body_vars = []
    for _ in range(rng.randint(1, 4)):
        shape = rng.choice(SHAPES)
        parameters = []
        for _ in range(shape[2]):
            if rng.random() < 0.6:
                name = rng.choice(VARIABLES)
                parameters.append(Var(name))
                body_vars.append(name)
            else:
                parameters.append(rng.choice(CONSTANTS))
        conditions.append(condition_for(shape, parameters,
                                        rng.random() < 0.5))
    if body_vars and rng.random() < 0.5:
        constraint = ComparisonConstraint(
            Var(rng.choice(body_vars)), rng.choice(["==", "!="]),
            rng.choice(CONSTANTS))
        conditions.append(ConstraintCondition(constraint,
                                              membership=rng.random() < 0.5))

    head = []
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.5 and body_vars:
            head.append(Var(rng.choice(body_vars)))
        elif roll < 0.7:
            head.append(Var("unbound"))  # not in any condition
        else:
            head.append(rng.choice(CONSTANTS))
    rule = ActivationRule(RoleTemplate(RoleName(SVC, "target"), tuple(head)),
                          tuple(conditions))

    credentials = []
    serial = 0
    for shape in SHAPES:
        for _ in range(rng.randint(0, 3)):
            serial += 1
            parameters = [rng.choice(CONSTANTS) for _ in range(shape[2])]
            credentials.append(credential_for(shape, parameters, serial))

    requested = None
    if head and rng.random() < 0.4:
        requested = [rng.choice(CONSTANTS + [None]) for _ in head]
    return rule, credentials, requested


def normalize(rule, solutions):
    """Hashable, order-insensitive form of enumerate_activations output."""
    position = {}
    for index, condition in enumerate(rule.conditions):
        position.setdefault(id(condition), index)
    normalized = []
    for match, role in solutions:
        rows = tuple(
            (position[id(row.condition)],
             row.credential.ref if row.credential is not None else None)
            for row in match.matched)
        bindings = tuple(sorted(
            ((var.name, match.substitution[var])
             for var in match.substitution), key=lambda item: item[0]))
        membership = match.membership_credential_refs()
        normalized.append((role, rows, bindings, membership))
    return normalized


def enumerate_all(engine, rule, credentials, requested):
    return list(engine.enumerate_activations(
        rule, credentials, requested_parameters=requested))


def assert_same_solutions(rule, credentials, requested=None):
    optimized, naive = make_engines()
    fast = normalize(rule, enumerate_all(optimized, rule, credentials,
                                         requested))
    slow = normalize(rule, enumerate_all(naive, rule, credentials,
                                         requested))
    assert Counter(fast) == Counter(slow)
    return fast


@pytest.mark.parametrize("seed", range(60))
def test_random_policies_agree(seed):
    rng = random.Random(seed)
    for _ in range(5):
        rule, credentials, requested = random_case(rng)
        assert_same_solutions(rule, credentials, requested)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=examples(20), deadline=None)
def test_drawn_policies_agree(seed):
    """The seeded cases above, from seeds Hypothesis draws (many more of
    them under the ci profile)."""
    rng = random.Random(seed)
    for _ in range(5):
        rule, credentials, requested = random_case(rng)
        assert_same_solutions(rule, credentials, requested)


@pytest.mark.parametrize("seed", range(20))
def test_match_activation_parity(seed):
    """Both paths agree on the *outcome kind* of match_activation, and any
    role returned by one is reachable by the other."""
    rng = random.Random(1000 + seed)
    for _ in range(5):
        rule, credentials, requested = random_case(rng)
        optimized, naive = make_engines()
        outcomes = []
        for engine in (optimized, naive):
            try:
                result = engine.match_activation(rule, requested, credentials)
            except ActivationDenied:
                outcomes.append(("denied", None))
            else:
                outcomes.append(
                    ("match", result[1]) if result else ("none", None))
        assert outcomes[0][0] == outcomes[1][0]
        if outcomes[0][0] == "match":
            roles = {role for _, role in enumerate_all(
                naive, rule, credentials, requested) if role is not None}
            assert outcomes[0][1] in roles
            assert outcomes[1][1] in roles


def test_backtracking_shared_variable():
    """The first candidate for condition 1 fails at condition 2; both
    engines must backtrack to the consistent pair (and find both orders)."""
    rule = ActivationRule(
        RoleTemplate(RoleName(SVC, "target"), (Var("x"),)),
        (condition_for(("rmc", "reader", 1), [Var("x")], True),
         condition_for(("appointment", "employed", 1), [Var("x")], False)))
    credentials = [
        rmc("reader", ["a"], 1),
        rmc("reader", ["b"], 2),
        appointment("employed", ["b"], 3),
        appointment("employed", ["c"], 4),
    ]
    solutions = assert_same_solutions(rule, credentials)
    assert len(solutions) == 1
    role, rows, bindings, membership = solutions[0]
    assert role == Role(RoleName(SVC, "target"), ("b",))
    assert bindings == (("x", "b"),)
    # Membership refs stay in canonical rule order: the reader RMC only.
    assert membership == (CredentialRef(SVC, 2),)


def test_unbound_head_parameter_parity():
    """A head variable no condition binds: enumerate yields role None and
    match_activation raises ActivationDenied on both paths."""
    rule = ActivationRule(
        RoleTemplate(RoleName(SVC, "target"), (Var("q"),)),
        (condition_for(("rmc", "reader", 1), [Var("x")], False),))
    credentials = [rmc("reader", ["a"], 1)]
    solutions = assert_same_solutions(rule, credentials)
    assert [role for role, *_ in solutions] == [None]
    for engine in make_engines():
        with pytest.raises(ActivationDenied):
            engine.match_activation(rule, None, credentials)
        # Supplying the parameter resolves it identically.
        match, role = engine.match_activation(rule, ["z"], credentials)
        assert role == Role(RoleName(SVC, "target"), ("z",))


def test_membership_refs_follow_rule_order():
    """Selectivity ordering must not reorder membership dependencies."""
    rule = ActivationRule(
        RoleTemplate(RoleName(SVC, "target"), ()),
        (condition_for(("rmc", "writer", 2), [Var("x"), Var("y")], True),
         condition_for(("appointment", "employed", 1), [Var("x")], True),
         ConstraintCondition(ComparisonConstraint(Var("y"), "!=", "zzz"),
                             membership=True)))
    # Many writer RMCs, one employment: the index will try the appointment
    # first, but membership refs must still list writer's RMC first.
    credentials = [
        rmc("writer", ["a", "p"], 1),
        rmc("writer", ["b", "q"], 2),
        rmc("writer", ["c", "r"], 3),
        appointment("employed", ["b"], 4),
    ]
    solutions = assert_same_solutions(rule, credentials)
    assert len(solutions) == 1
    _, rows, _, membership = solutions[0]
    assert membership == (CredentialRef(SVC, 2), CredentialRef(ISSUER, 4))
    assert [index for index, _ in rows] == [0, 1, 2]


def test_duplicate_condition_object():
    """The same condition *object* twice in a body (two credentials must
    satisfy it); exercises the slot-restoration path for duplicates."""
    shared = condition_for(("rmc", "reader", 1), [Var("x")], False)
    distinct = ActivationRule(
        RoleTemplate(RoleName(SVC, "target"), ()),
        (shared, condition_for(("appointment", "employed", 1), [Var("x")],
                               False), shared))
    credentials = [
        rmc("reader", ["a"], 1),
        rmc("reader", ["a"], 2),
        appointment("employed", ["a"], 3),
    ]
    solutions = assert_same_solutions(distinct, credentials)
    # Either reader RMC can fill either slot: 2x2 assignments.
    assert len(solutions) == 4


def test_no_credentials_and_empty_body():
    empty_rule = ActivationRule(RoleTemplate(RoleName(SVC, "target"), ()))
    assert len(assert_same_solutions(empty_rule, [])) == 1
    needy_rule = ActivationRule(
        RoleTemplate(RoleName(SVC, "target"), ()),
        (condition_for(("rmc", "reader", 1), ["a"], False),))
    assert assert_same_solutions(needy_rule, []) == []
