"""The OASIS policy language front end (the paper's [1] thread).

``parse_policy(text, registry)`` turns policy text into an executable
:class:`~repro.core.policy.ServicePolicy`; ``format_document`` renders
parsed policy back to canonical text.  Runtime code (world factories,
scenarios) compiles its policies through this package; the analysis
tooling in :mod:`repro.lang` reads the same documents.
"""

from .ast import (ActivateStmt, AppointStmt, AppointmentAtom, ArgConst,
                  ArgVar, AuthorizeStmt, ConstraintAtom, PolicyDocument,
                  RoleAtom, RoleDecl, SourceSpan)
from .lexer import LexError, Token, tokenize
from .parser import ParseError, parse_document
from .compiler import UnresolvedConstraint, compile_document, parse_policy
from .printer import format_document

__all__ = [
    "ActivateStmt", "AppointStmt", "AppointmentAtom", "ArgConst", "ArgVar",
    "AuthorizeStmt", "ConstraintAtom", "LexError", "ParseError",
    "PolicyDocument", "RoleAtom", "RoleDecl", "SourceSpan", "Token",
    "UnresolvedConstraint", "compile_document", "format_document",
    "parse_document", "parse_policy", "tokenize",
]
