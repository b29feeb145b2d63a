"""Recursive-descent parser for the OASIS policy language.

Grammar (EBNF)::

    document     := service_decl statement*
    service_decl := "service" IDENT "/" IDENT
    statement    := role_decl | activate | authorize | appoint
    role_decl    := "role" IDENT "(" [params] ")"
    activate     := "activate" atom_head "<-" body
    authorize    := "authorize" atom_head "<-" body
    appoint      := "appoint" atom_head "<-" body
    atom_head    := IDENT "(" [args] ")"
    body         := condition ("," condition)*
    condition    := (role_atom | appointment_atom | where_atom) ["*"]
    role_atom    := [IDENT "/" IDENT ":"] IDENT "(" [args] ")"
    appointment_atom := "appointment" IDENT "/" IDENT ":" IDENT "(" [args] ")"
    where_atom   := "where" IDENT "(" [args] ")"
    args         := arg ("," arg)*
    arg          := IDENT | NUMBER | STRING

An empty body is written as a rule with no ``<-`` part: ``activate
logged_in_user(uid)`` declares an unconditional (initial) rule whose
parameters are supplied at activation time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.rules import SourceSpan
from .ast import (
    ActivateStmt,
    AppointStmt,
    AppointmentAtom,
    ArgConst,
    ArgVar,
    Argument,
    AuthorizeStmt,
    BodyAtom,
    ConstraintAtom,
    PolicyDocument,
    RoleAtom,
    RoleDecl,
)
from .lexer import LexError, Token, tokenize

__all__ = ["ParseError", "parse_document"]


class ParseError(ValueError):
    """Raised on a syntactically invalid policy document.

    Carries 1-based ``line``/``column`` (0 when unknown) so tooling can
    point at the offending source; ``bare_message`` omits the position
    prefix.  ``path`` is filled in by callers that know which file was
    being parsed (e.g. :mod:`repro.lang.loader`).
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        prefix = ""
        if line:
            prefix = f"line {line}"
            if column:
                prefix += f", column {column}"
            prefix += ": "
        super().__init__(f"{prefix}{message}")
        self.bare_message = message
        self.line = line
        self.column = column
        self.path: Optional[str] = None


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._last = tokens[0] if tokens else None

    # -- token plumbing -----------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self._index += 1
        self._last = token
        return token

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.current
        if token.kind != kind or (value is not None and token.value != value):
            want = value or kind
            raise ParseError(f"expected {want}, found {token.value!r}",
                             token.line, token.column)
        return self._advance()

    def _expect_name(self) -> Token:
        """A declared or qualified role name, or a statement's head name.

        Nothing but a name can stand here, so a keyword is a name too:
        the Fig. 5 chain's role is called ``role``."""
        if self.current.kind == "KEYWORD":
            return self._advance()
        return self._expect("IDENT")

    def _at_keyword(self, word: str) -> bool:
        return self.current.kind == "KEYWORD" and self.current.value == word

    def _span_from(self, start: Token) -> SourceSpan:
        end = self._last if self._last is not None else start
        return SourceSpan(start.line, start.column,
                          end.line, end.column + len(end.value))

    # -- grammar ------------------------------------------------------------
    def parse(self) -> PolicyDocument:
        self._expect("KEYWORD", "service")
        domain = self._expect("IDENT").value
        self._expect("SLASH")
        service = self._expect("IDENT").value

        roles: List[RoleDecl] = []
        activations: List[ActivateStmt] = []
        authorizations: List[AuthorizeStmt] = []
        appointments: List[AppointStmt] = []

        while self.current.kind != "EOF":
            if self._at_keyword("role"):
                roles.append(self._parse_role_decl())
            elif self._at_keyword("activate"):
                activations.append(self._parse_activate())
            elif self._at_keyword("authorize"):
                authorizations.append(self._parse_authorize())
            elif self._at_keyword("appoint"):
                appointments.append(self._parse_appoint())
            else:
                token = self.current
                raise ParseError(
                    f"expected a statement keyword "
                    f"(role/activate/authorize/appoint), found "
                    f"{token.value!r}", token.line, token.column)
        return PolicyDocument(
            domain=domain, service=service, roles=tuple(roles),
            activations=tuple(activations),
            authorizations=tuple(authorizations),
            appointments=tuple(appointments))

    def _parse_role_decl(self) -> RoleDecl:
        start = self._expect("KEYWORD", "role")
        name_token = self._expect_name()
        name = name_token.value
        self._expect("LPAREN")
        parameters: List[str] = []
        if self.current.kind != "RPAREN":
            parameters.append(self._expect("IDENT").value)
            while self.current.kind == "COMMA":
                self._advance()
                parameters.append(self._expect("IDENT").value)
        self._expect("RPAREN")
        if len(set(parameters)) != len(parameters):
            raise ParseError(f"role {name!r}: duplicate parameter names",
                             name_token.line, name_token.column)
        return RoleDecl(name=name, parameters=tuple(parameters),
                        span=self._span_from(start))

    def _parse_head(self) -> Tuple[str, Tuple[Argument, ...]]:
        name = self._expect_name().value
        self._expect("LPAREN")
        arguments = self._parse_args()
        self._expect("RPAREN")
        return name, arguments

    def _parse_activate(self) -> ActivateStmt:
        start = self._expect("KEYWORD", "activate")
        name, arguments = self._parse_head()
        span = self._span_from(start)        # keyword through head ')'
        body = self._parse_optional_body()
        return ActivateStmt(head_name=name, head_arguments=arguments,
                            body=body, span=span)

    def _parse_authorize(self) -> AuthorizeStmt:
        start = self._expect("KEYWORD", "authorize")
        name, arguments = self._parse_head()
        span = self._span_from(start)
        body = self._parse_optional_body()
        return AuthorizeStmt(method=name, arguments=arguments, body=body,
                             span=span)

    def _parse_appoint(self) -> AppointStmt:
        start = self._expect("KEYWORD", "appoint")
        name, arguments = self._parse_head()
        span = self._span_from(start)
        body = self._parse_optional_body()
        return AppointStmt(name=name, arguments=arguments, body=body,
                           span=span)

    def _parse_optional_body(self) -> Tuple[BodyAtom, ...]:
        if self.current.kind != "ARROW":
            return ()
        self._advance()
        atoms = [self._parse_condition()]
        while self.current.kind == "COMMA":
            self._advance()
            atoms.append(self._parse_condition())
        return tuple(atoms)

    def _parse_condition(self) -> BodyAtom:
        from dataclasses import replace

        start = self.current
        if self._at_keyword("appointment"):
            atom = self._parse_appointment_atom()
        elif self._at_keyword("where"):
            atom = self._parse_where_atom()
        else:
            atom = self._parse_role_atom()
        if self.current.kind == "STAR":
            self._advance()
            atom = _with_membership(atom)
        return replace(atom, span=self._span_from(start))

    def _parse_appointment_atom(self) -> AppointmentAtom:
        self._expect("KEYWORD", "appointment")
        issuer_domain = self._expect("IDENT").value
        self._expect("SLASH")
        issuer_service = self._expect("IDENT").value
        self._expect("COLON")
        name = self._expect("IDENT").value
        self._expect("LPAREN")
        arguments = self._parse_args()
        self._expect("RPAREN")
        return AppointmentAtom(
            issuer_domain=issuer_domain, issuer_service=issuer_service,
            name=name, arguments=arguments)

    def _parse_where_atom(self) -> ConstraintAtom:
        self._expect("KEYWORD", "where")
        name = self._expect("IDENT").value
        self._expect("LPAREN")
        arguments = self._parse_args()
        self._expect("RPAREN")
        return ConstraintAtom(name=name, arguments=arguments)

    def _parse_role_atom(self) -> RoleAtom:
        first = self._expect("IDENT").value
        domain: Optional[str] = None
        service: Optional[str] = None
        name = first
        if self.current.kind == "SLASH":
            self._advance()
            service = self._expect("IDENT").value
            self._expect("COLON")
            name = self._expect_name().value
            domain = first
        self._expect("LPAREN")
        arguments = self._parse_args()
        self._expect("RPAREN")
        return RoleAtom(name=name, arguments=arguments, domain=domain,
                        service=service)

    def _parse_args(self) -> Tuple[Argument, ...]:
        if self.current.kind == "RPAREN":
            return ()
        arguments = [self._parse_arg()]
        while self.current.kind == "COMMA":
            self._advance()
            arguments.append(self._parse_arg())
        return tuple(arguments)

    def _parse_arg(self) -> Argument:
        token = self.current
        if token.kind == "IDENT":
            self._advance()
            return ArgVar(token.value)
        if token.kind == "NUMBER":
            self._advance()
            if "." in token.value:
                return ArgConst(float(token.value))
            return ArgConst(int(token.value))
        if token.kind == "STRING":
            self._advance()
            raw = token.value[1:-1]
            return ArgConst(raw.replace('\\"', '"').replace("\\\\", "\\"))
        raise ParseError(
            f"expected an argument, found {token.value!r}",
            token.line, token.column)


def _with_membership(atom: BodyAtom) -> BodyAtom:
    from dataclasses import replace

    return replace(atom, membership=True)


def parse_document(text: str) -> PolicyDocument:
    """Parse policy text into a :class:`PolicyDocument`.

    Raises :class:`ParseError` (or :class:`~repro.policy.lexer.LexError`) on
    invalid input.
    """
    try:
        tokens = tokenize(text)
    except LexError as error:
        raise ParseError(error.bare_message, error.line,
                         error.column) from error
    return _Parser(tokens).parse()
