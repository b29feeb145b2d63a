"""Round-trip tests for the policy pretty-printer (incl. property-based)."""

from hypothesis import given, strategies as st

from repro.policy import format_document, parse_document
from repro.policy.ast import (
    ActivateStmt,
    AppointStmt,
    AppointmentAtom,
    ArgConst,
    ArgVar,
    AuthorizeStmt,
    ConstraintAtom,
    PolicyDocument,
    RoleAtom,
    RoleDecl,
)


def test_format_minimal():
    doc = PolicyDocument(domain="h", service="s")
    assert format_document(doc) == "service h/s\n"


def test_format_full_roundtrip():
    text = """service hospital/records

role treating_doctor(doc, pat)

activate treating_doctor(doc, pat) <-
    hospital/login:logged_in_user(doc)*,
    appointment hospital/admin:allocated(doc, pat)*,
    where registered(doc, pat)*

authorize read_record(pat) <-
    treating_doctor(doc, pat)

appoint allocated(doc, pat) <-
    hospital/admin:administrator(a)
"""
    doc = parse_document(text)
    assert parse_document(format_document(doc)) == doc


def test_string_constant_escaping():
    doc = PolicyDocument(
        domain="h", service="s", roles=(RoleDecl("g", ("u",)),),
        activations=(ActivateStmt("g", (ArgConst('quo"te\\x'),), ()),))
    assert parse_document(format_document(doc)) == doc


# -- property-based round trip -------------------------------------------------

idents = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in {"service", "role", "activate", "authorize",
                        "appoint", "appointment", "where"})

arguments = st.one_of(
    st.builds(ArgVar, idents),
    st.builds(ArgConst, st.integers(-10**6, 10**6)),
    st.builds(ArgConst, st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        max_size=8)),
)

role_atoms = st.builds(
    RoleAtom, name=idents, arguments=st.lists(arguments, max_size=3).map(tuple),
    domain=idents, service=idents, membership=st.booleans())

appointment_atoms = st.builds(
    AppointmentAtom, issuer_domain=idents, issuer_service=idents,
    name=idents, arguments=st.lists(arguments, max_size=3).map(tuple),
    membership=st.booleans())

constraint_atoms = st.builds(
    ConstraintAtom, name=idents,
    arguments=st.lists(arguments, max_size=3).map(tuple),
    membership=st.booleans())

bodies = st.lists(
    st.one_of(role_atoms, appointment_atoms, constraint_atoms),
    max_size=3).map(tuple)


@st.composite
def documents(draw):
    roles = draw(st.lists(
        st.builds(RoleDecl, name=idents,
                  parameters=st.lists(idents, max_size=3, unique=True)
                  .map(tuple)),
        max_size=3, unique_by=lambda decl: decl.name).map(tuple))
    activations = draw(st.lists(
        st.builds(ActivateStmt, head_name=idents,
                  head_arguments=st.lists(arguments, max_size=3).map(tuple),
                  body=bodies),
        max_size=3).map(tuple))
    authorizations = draw(st.lists(
        st.builds(AuthorizeStmt, method=idents,
                  arguments=st.lists(arguments, max_size=3).map(tuple),
                  body=bodies),
        max_size=2).map(tuple))
    appointments = draw(st.lists(
        st.builds(AppointStmt, name=idents,
                  arguments=st.lists(arguments, max_size=3).map(tuple),
                  body=bodies),
        max_size=2).map(tuple))
    return PolicyDocument(
        domain=draw(idents), service=draw(idents), roles=roles,
        activations=activations, authorizations=authorizations,
        appointments=appointments)


@given(documents())
def test_parse_format_roundtrip(document):
    """format . parse . format == format and parse . format == id."""
    assert parse_document(format_document(document)) == document
