"""Differential test: the engine's denial explanations against an oracle.

``RuleEngine.explain_*`` solve canonical-order prefixes of a rule body
with the engine's one solver and report the condition after the deepest
satisfiable prefix.  ``tests.reference.ProbeRuleEngine`` explains with a
dedicated canonical depth-first probe that keeps its deepest failure
frontier.  On every generated rule, credential set and request both must
give the same failure kind, condition and detail, or raise the same error.
An explanation is None exactly when the rule matches.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    ActivationDenied,
    ActivationRule,
    AuthorizationRule,
    ComparisonConstraint,
    ConstraintCondition,
    EvaluationContext,
    RoleName,
    RoleTemplate,
    RuleEngine,
    Var,
)
from repro.core.exceptions import PolicyError

from tests.conftest import examples
from tests.core.test_engine_differential import (
    SHAPES,
    SVC,
    condition_for,
    credential_for,
)
from tests.reference import ProbeRuleEngine

CONSTANTS = ["a", "b", "c"]
#: ``u`` appears in no credential condition: a head naming it is one the
#: credentials cannot bind, a constraint naming it raises PolicyError when
#: the request leaves it unbound, and ActivationRule rejects a rule whose
#: constraint names it but whose head does not.
VARIABLES = ["x", "y", "u"]
OPERATORS = ["==", "!=", "<", ">="]
CONTEXT = EvaluationContext()

terms = st.one_of(st.sampled_from(CONSTANTS),
                  st.sampled_from(VARIABLES).map(Var))
#: Constraints mostly relate variables the credentials bind.
operands = st.one_of(st.sampled_from(CONSTANTS),
                     st.sampled_from(["x", "y"]).map(Var), terms)


@st.composite
def conditions(draw):
    if draw(st.integers(0, 2)) == 0:
        return ConstraintCondition(
            ComparisonConstraint(draw(operands),
                                 draw(st.sampled_from(OPERATORS)),
                                 draw(operands)),
            membership=draw(st.booleans()))
    shape = draw(st.sampled_from(SHAPES))
    if shape[2] == 1 and draw(st.integers(0, 3)) == 0:
        shape = (shape[0], shape[1], 0)  # a shape no credential has
    parameters = draw(st.lists(st.sampled_from(["a", "b", Var("x"),
                                                Var("y")]),
                               min_size=shape[2], max_size=shape[2]))
    return condition_for(shape, parameters, draw(st.booleans()))


@st.composite
def bodies(draw):
    body = draw(st.lists(conditions(), max_size=4))
    if body and draw(st.booleans()):
        body.append(body[0])  # one condition object twice
    return tuple(body)


@st.composite
def credential_sets(draw):
    credentials = []
    for shape in SHAPES:
        for _ in range(draw(st.integers(0, 3))):
            parameters = draw(st.lists(st.sampled_from(CONSTANTS),
                                       min_size=shape[2], max_size=shape[2]))
            credentials.append(credential_for(shape, parameters,
                                              len(credentials) + 1))
    return draw(st.permutations(credentials))


@st.composite
def requests(draw, arity):
    """Requested head values: ground, None (left to the credentials), a
    variable (not ground: PolicyError), or the wrong count."""
    if draw(st.integers(0, 4)) == 0:
        arity = draw(st.integers(0, 3))
    return draw(st.lists(st.one_of(st.sampled_from(CONSTANTS), st.none(),
                                   st.just(Var("x"))),
                         min_size=arity, max_size=arity))


def compare(make_rule, explain, match):
    """Explain with both engines; a rule that builds and explains without
    error must then match exactly when its explanation is None."""
    engine, oracle = RuleEngine(CONTEXT), ProbeRuleEngine(CONTEXT)
    outcomes = []
    for explainer in (engine, oracle):
        try:
            failure = explain(explainer, make_rule())
        except PolicyError as error:
            outcomes.append(("raised", type(error), str(error)))
        else:
            outcomes.append(failure and (failure.kind, failure.condition,
                                         failure.detail))
    explained, expected = outcomes
    assert explained == expected
    if explained is None or explained[0] != "raised":
        assert match(engine, make_rule()) == (explained is None)


@given(head=st.lists(terms, max_size=2), body=bodies(),
       credentials=credential_sets(), data=st.data())
@settings(max_examples=examples(300), deadline=None)
def test_activation_explanations_match_the_probe(head, body, credentials,
                                                 data):
    requested = data.draw(st.none() | requests(len(head)))

    def match(engine, rule):
        try:
            return engine.match_activation(rule, requested,
                                           credentials) is not None
        except ActivationDenied:  # satisfiable, but the head is unbound
            return False

    compare(lambda: ActivationRule(
                RoleTemplate(RoleName(SVC, "target"), tuple(head)), body),
            lambda engine, rule: engine.explain_activation(
                rule, requested, credentials),
            match)


@given(parameters=st.lists(terms, max_size=2), body=bodies(),
       credentials=credential_sets(), data=st.data())
@settings(max_examples=examples(200), deadline=None)
def test_authorization_explanations_match_the_probe(parameters, body,
                                                    credentials, data):
    arity = len(parameters)
    if data.draw(st.integers(0, 4)) == 0:
        arity = data.draw(st.integers(0, 3))
    arguments = data.draw(st.lists(st.sampled_from(CONSTANTS),
                                   min_size=arity, max_size=arity))
    compare(lambda: AuthorizationRule("method", tuple(parameters), body),
            lambda engine, rule: engine.explain_authorization(
                rule, arguments, credentials),
            lambda engine, rule: engine.match_authorization(
                rule, arguments, credentials) is not None)
