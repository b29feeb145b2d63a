"""Property test: the engine against a brute-force reference matcher.

The backtracking engine must find a satisfying assignment exactly when one
exists.  The reference implementation enumerates *every* assignment of
presented credentials to credential conditions and checks unification —
exponential, but exact on the small random instances generated here.
"""

import itertools
from typing import List, Optional, Sequence

from hypothesis import given, settings, strategies as st

from repro.core import (
    ActivationRule,
    AppointmentCertificate,
    AppointmentCondition,
    CredentialRef,
    EvaluationContext,
    PresentedCredential,
    RoleTemplate,
    RoleName,
    RuleEngine,
    ServiceId,
    Var,
)
from repro.core.terms import EMPTY_SUBSTITUTION, unify_sequences
from repro.crypto import ServiceSecret

from tests.conftest import examples
from tests.reference.engine import matches_appointment

ISSUER = ServiceId("dom", "issuer")
TARGET = ServiceId("dom", "svc")
SECRET = ServiceSecret(key=b"k" * 32)

NAMES = ["n0", "n1"]
VALUES = ["a", "b", "c"]
VARS = [Var("x"), Var("y")]


def reference_satisfiable(conditions: Sequence[AppointmentCondition],
                          credentials: Sequence[PresentedCredential],
                          ) -> bool:
    """Try every assignment of credentials to conditions."""
    if not conditions:
        return True
    for assignment in itertools.product(credentials,
                                        repeat=len(conditions)):
        subst = EMPTY_SUBSTITUTION
        ok = True
        for condition, credential in zip(conditions, assignment):
            if not matches_appointment(credential, condition):
                ok = False
                break
            extended = unify_sequences(condition.parameters,
                                       credential.parameter_values, subst)
            if extended is None:
                ok = False
                break
            subst = extended
        if ok:
            return True
    return False


@st.composite
def instances(draw):
    serial = itertools.count(1)
    condition_count = draw(st.integers(0, 3))
    conditions = []
    for _ in range(condition_count):
        name = draw(st.sampled_from(NAMES))
        arity = draw(st.integers(0, 2))
        params = tuple(
            draw(st.sampled_from(VALUES + VARS)) for _ in range(arity))
        conditions.append(AppointmentCondition(ISSUER, name, params))
    credential_count = draw(st.integers(0, 4))
    credentials = []
    for _ in range(credential_count):
        name = draw(st.sampled_from(NAMES))
        arity = draw(st.integers(0, 2))
        params = tuple(
            draw(st.sampled_from(VALUES)) for _ in range(arity))
        certificate = AppointmentCertificate.issue(
            SECRET, ISSUER, name, params,
            CredentialRef(ISSUER, next(serial)), 0.0)
        credentials.append(PresentedCredential(certificate))
    return conditions, credentials


@given(instances())
@settings(max_examples=examples(300), deadline=None)
def test_engine_matches_reference(instance):
    conditions, credentials = instance
    rule = ActivationRule(
        RoleTemplate(RoleName(TARGET, "role")), tuple(conditions))
    engine = RuleEngine(EvaluationContext())
    result = engine.match_activation(rule, None, credentials)
    expected = reference_satisfiable(conditions, credentials)
    assert (result is not None) == expected


@given(instances())
@settings(max_examples=examples(100), deadline=None)
def test_engine_match_is_a_real_solution(instance):
    """Whatever the engine returns must itself satisfy the rule."""
    conditions, credentials = instance
    rule = ActivationRule(
        RoleTemplate(RoleName(TARGET, "role")), tuple(conditions))
    engine = RuleEngine(EvaluationContext())
    result = engine.match_activation(rule, None, credentials)
    if result is None:
        return
    match, _role = result
    used = [row for row in match.matched]
    assert len(used) == len(conditions)
    subst = match.substitution
    for row in used:
        condition = row.condition
        credential = row.credential
        assert credential is not None
        assert matches_appointment(credential, condition)
        assert subst.apply(tuple(condition.parameters)) \
            == credential.parameter_values
