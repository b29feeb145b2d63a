"""Tests for the policy language parser."""

import pytest

from repro.policy import (
    AppointmentAtom,
    ArgConst,
    ArgVar,
    ConstraintAtom,
    ParseError,
    RoleAtom,
    parse_document,
)

MINIMAL = "service hospital/records\n"


class TestHeader:
    def test_service_header(self):
        doc = parse_document(MINIMAL)
        assert doc.domain == "hospital"
        assert doc.service == "records"

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_document("role x()")

    def test_garbage_statement(self):
        with pytest.raises(ParseError, match="statement keyword"):
            parse_document(MINIMAL + "banana y()")


class TestRoleDecl:
    def test_role_with_params(self):
        doc = parse_document(MINIMAL + "role td(doc, pat)")
        assert doc.roles[0].name == "td"
        assert doc.roles[0].parameters == ("doc", "pat")

    def test_role_without_params(self):
        doc = parse_document(MINIMAL + "role guest()")
        assert doc.roles[0].parameters == ()

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_document(MINIMAL + "role td(x, x)")


class TestActivate:
    def test_unconditional_rule(self):
        doc = parse_document(MINIMAL + "role g(u)\nactivate g(u)")
        stmt = doc.activations[0]
        assert stmt.head_name == "g"
        assert stmt.body == ()

    def test_local_role_atom(self):
        doc = parse_document(
            MINIMAL + "role a(u)\nrole b(u)\nactivate b(u) <- a(u)")
        atom = doc.activations[0].body[0]
        assert isinstance(atom, RoleAtom)
        assert not atom.qualified
        assert atom.name == "a"

    def test_qualified_role_atom(self):
        doc = parse_document(
            MINIMAL + "role b(u)\n"
            "activate b(u) <- hospital/login:logged_in(u)")
        atom = doc.activations[0].body[0]
        assert atom.qualified
        assert (atom.domain, atom.service, atom.name) == \
            ("hospital", "login", "logged_in")

    def test_membership_star(self):
        doc = parse_document(
            MINIMAL + "role b(u)\n"
            "activate b(u) <- hospital/login:li(u)*, "
            "appointment hospital/admin:alloc(u)")
        first, second = doc.activations[0].body
        assert first.membership
        assert not second.membership

    def test_appointment_atom(self):
        doc = parse_document(
            MINIMAL + "role b(u)\n"
            "activate b(u) <- appointment hospital/admin:alloc(u, \"p1\")")
        atom = doc.activations[0].body[0]
        assert isinstance(atom, AppointmentAtom)
        assert atom.issuer_domain == "hospital"
        assert atom.issuer_service == "admin"
        assert atom.arguments == (ArgVar("u"), ArgConst("p1"))

    def test_where_atom(self):
        doc = parse_document(
            MINIMAL + "role b(u)\nactivate b(u) <- where registered(u)*")
        atom = doc.activations[0].body[0]
        assert isinstance(atom, ConstraintAtom)
        assert atom.membership

    def test_numeric_constants(self):
        doc = parse_document(
            MINIMAL + "role b(u)\nactivate b(u) <- where lt(u, 42, 3.5)")
        args = doc.activations[0].body[0].arguments
        assert args[1] == ArgConst(42)
        assert args[2] == ArgConst(3.5)

    def test_multi_condition_body(self):
        doc = parse_document(
            MINIMAL + "role b(u)\n"
            "activate b(u) <- h/l:a(u), h/l:c(u), where w(u)")
        assert len(doc.activations[0].body) == 3


class TestAuthorizeAndAppoint:
    def test_authorize(self):
        doc = parse_document(
            MINIMAL + "authorize read(p) <- hospital/records:td(d, p)")
        assert doc.authorizations[0].method == "read"

    def test_appoint(self):
        doc = parse_document(
            MINIMAL + "appoint alloc(d, p) <- hospital/admin:adm(a)")
        assert doc.appointments[0].name == "alloc"

    def test_authorize_empty_body(self):
        doc = parse_document(MINIMAL + "authorize ping()")
        assert doc.authorizations[0].body == ()


class TestErrors:
    def test_unterminated_head(self):
        with pytest.raises(ParseError):
            parse_document(MINIMAL + "activate g(u")

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse_document(MINIMAL + "role g u)")

    def test_dangling_arrow(self):
        with pytest.raises(ParseError):
            parse_document(MINIMAL + "role g(u)\nactivate g(u) <-")

    def test_bad_argument(self):
        with pytest.raises(ParseError, match="argument"):
            parse_document(MINIMAL + "role g(u)\nactivate g(*)")

    def test_error_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_document("service a/b\nrole g(u)\nactivate g(u) <- ,")


class TestFullDocument:
    def test_complete_policy(self):
        doc = parse_document("""
        # The hospital records service, per Sect. 2 of the paper.
        service hospital/records

        role treating_doctor(doc, pat)

        activate treating_doctor(doc, pat) <-
            hospital/login:logged_in_user(doc)*,
            appointment hospital/admin:allocated(doc, pat)*,
            where registered(doc, pat)*

        authorize read_record(pat) <-
            treating_doctor(doc, pat),
            where not_excluded(pat, doc)

        appoint allocated(doc, pat) <-
            hospital/admin:administrator(a)
        """)
        assert len(doc.roles) == 1
        assert len(doc.activations) == 1
        assert len(doc.authorizations) == 1
        assert len(doc.appointments) == 1
        assert all(atom.membership for atom in doc.activations[0].body)
