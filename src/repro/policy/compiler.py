"""Compile parsed policy documents into executable :class:`ServicePolicy`.

The compiler resolves:

* unqualified role atoms to the policy's own service, qualified ones to
  foreign services;
* argument variables to :class:`~repro.core.terms.Var`, constants to ground
  terms;
* ``where`` atoms through a :class:`~repro.core.constraints.ConstraintRegistry`
  supplied by the deployment;
* domain names through a ``domains`` mapping, also the deployment's: one
  text serves every domain that runs it (``hospital/login`` compiled with
  ``{"hospital": "st-marys"}`` is ``st-marys/login``).

It also re-checks what the parser cannot: local role atoms must refer to
declared roles with the right arity (foreign arities are the foreign
service's business — OASIS has no global schema, so they are checked at
presentation time by unification).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

from dataclasses import dataclass

from ..core.constraints import ConstraintRegistry, EnvironmentalConstraint
from ..core.exceptions import PolicyError
from ..core.policy import ServicePolicy
from ..core.rules import (
    ActivationRule,
    AppointmentCondition,
    AppointmentRule,
    AuthorizationRule,
    Condition,
    ConstraintCondition,
    PrerequisiteRole,
    SourceSpan,
)
from ..core.terms import Term, Var
from ..core.types import RoleName, RoleTemplate, ServiceId
from .ast import (
    AppointmentAtom,
    ArgVar,
    Argument,
    BodyAtom,
    ConstraintAtom,
    PolicyDocument,
    RoleAtom,
)
from .parser import parse_document

__all__ = ["compile_document", "parse_policy", "UnresolvedConstraint"]


@dataclass(frozen=True)
class UnresolvedConstraint(EnvironmentalConstraint):
    """Placeholder for a named constraint with no registered factory.

    Produced only when compiling with ``allow_unresolved=True`` — the mode
    used by analysis tooling (:mod:`repro.lang.passes`) that inspects
    policy structure without executing it.  Evaluation fails closed.
    """

    name: str
    terms: Tuple[Term, ...]

    def evaluate(self, subst, context) -> bool:
        raise PolicyError(
            f"constraint {self.name!r} was compiled unresolved and cannot "
            f"be evaluated; register it in a ConstraintRegistry")

    def free_variables(self):
        from ..core.terms import variables_in

        return frozenset(v for term in self.terms
                         for v in variables_in(term))

    def __repr__(self) -> str:
        return f"UnresolvedConstraint({self.name})"


def _positioned(error: PolicyError,
                span: Optional[SourceSpan]) -> PolicyError:
    """Tag a compile error with the source position of the offending node
    (message unchanged; tooling reads ``error.line``/``error.column``)."""
    error.line = span.line if span is not None else 0
    error.column = span.column if span is not None else 0
    return error


def _term(argument: Argument) -> Term:
    if isinstance(argument, ArgVar):
        return Var(argument.name)
    return argument.value


def _terms(arguments: Iterable[Argument]) -> Tuple[Term, ...]:
    return tuple(_term(argument) for argument in arguments)


class _Compiler:
    def __init__(self, document: PolicyDocument,
                 registry: Optional[ConstraintRegistry],
                 allow_unresolved: bool = False,
                 domains: Optional[Mapping[str, str]] = None) -> None:
        self.document = document
        self.registry = registry
        self.allow_unresolved = allow_unresolved
        self.domains = domains or {}
        self.service = self._service_id(document.domain, document.service)
        self.policy = ServicePolicy(self.service)

    def compile(self) -> ServicePolicy:
        for decl in self.document.roles:
            self.policy.define_role(decl.name, len(decl.parameters))
        for stmt in self.document.activations:
            self._check_local_head(stmt.head_name, len(stmt.head_arguments),
                                   stmt.span)
            rule = ActivationRule(
                RoleTemplate(RoleName(self.service, stmt.head_name),
                             _terms(stmt.head_arguments)),
                self._body(stmt.body), origin=stmt.span)
            self.policy.add_activation_rule(rule)
        for stmt in self.document.authorizations:
            self.policy.add_authorization_rule(AuthorizationRule(
                stmt.method, _terms(stmt.arguments), self._body(stmt.body),
                origin=stmt.span))
        for stmt in self.document.appointments:
            self.policy.add_appointment_rule(AppointmentRule(
                stmt.name, _terms(stmt.arguments), self._body(stmt.body),
                origin=stmt.span))
        return self.policy

    def _service_id(self, domain: str, service: str) -> ServiceId:
        return ServiceId(self.domains.get(domain, domain), service)

    def _check_local_head(self, name: str, arity: int,
                          span: Optional[SourceSpan]) -> None:
        if not self.policy.defines_role(name):
            raise _positioned(PolicyError(
                f"activate targets undeclared role {name!r}; add a "
                f"'role {name}(...)' declaration"), span)
        declared = self.policy.role_arity(name)
        if declared != arity:
            raise _positioned(PolicyError(
                f"activate {name!r} has {arity} arguments, role declared "
                f"with arity {declared}"), span)

    def _body(self, atoms: Tuple[BodyAtom, ...]) -> Tuple[Condition, ...]:
        return tuple(self._condition(atom) for atom in atoms)

    def _condition(self, atom: BodyAtom) -> Condition:
        if isinstance(atom, RoleAtom):
            return self._role_condition(atom)
        if isinstance(atom, AppointmentAtom):
            return AppointmentCondition(
                issuer=self._service_id(atom.issuer_domain,
                                        atom.issuer_service),
                name=atom.name, parameters=_terms(atom.arguments),
                membership=atom.membership, origin=atom.span)
        assert isinstance(atom, ConstraintAtom)
        terms = _terms(atom.arguments)
        if self.allow_unresolved and (self.registry is None
                                      or atom.name not in self.registry):
            constraint: EnvironmentalConstraint = UnresolvedConstraint(
                atom.name, terms)
        elif self.registry is None:
            raise _positioned(PolicyError(
                f"policy uses constraint {atom.name!r} but no constraint "
                f"registry was supplied"), atom.span)
        else:
            try:
                constraint = self.registry.build(atom.name, *terms)
            except PolicyError as error:
                raise _positioned(error, atom.span)
        return ConstraintCondition(constraint, membership=atom.membership,
                                   origin=atom.span)

    def _role_condition(self, atom: RoleAtom) -> PrerequisiteRole:
        if atom.qualified:
            assert atom.domain is not None and atom.service is not None
            role_name = RoleName(self._service_id(atom.domain, atom.service),
                                 atom.name)
        else:
            if not self.policy.defines_role(atom.name):
                raise _positioned(PolicyError(
                    f"rule body uses undeclared local role {atom.name!r} "
                    f"(qualify it as domain/service:{atom.name} if it is "
                    f"foreign)"), atom.span)
            declared = self.policy.role_arity(atom.name)
            if declared != len(atom.arguments):
                raise _positioned(PolicyError(
                    f"role {atom.name!r} used with {len(atom.arguments)} "
                    f"arguments, declared with arity {declared}"), atom.span)
            role_name = RoleName(self.service, atom.name)
        return PrerequisiteRole(
            RoleTemplate(role_name, _terms(atom.arguments)),
            membership=atom.membership, origin=atom.span)


def compile_document(document: PolicyDocument,
                     registry: Optional[ConstraintRegistry] = None,
                     allow_unresolved: bool = False,
                     domains: Optional[Mapping[str, str]] = None
                     ) -> ServicePolicy:
    """Compile a parsed document into a :class:`ServicePolicy`.

    With ``allow_unresolved=True``, ``where`` atoms whose names are not in
    the registry compile to inert :class:`UnresolvedConstraint` placeholders
    — for analysis tooling only; such policies must not be deployed.
    ``domains`` renames domains wherever the text names one: the
    service's own, and those of foreign roles and appointment issuers.
    """
    return _Compiler(document, registry, allow_unresolved,
                     domains).compile()


def parse_policy(text: str,
                 registry: Optional[ConstraintRegistry] = None,
                 allow_unresolved: bool = False,
                 domains: Optional[Mapping[str, str]] = None
                 ) -> ServicePolicy:
    """Parse and compile policy text in one step."""
    return compile_document(parse_document(text), registry,
                            allow_unresolved, domains)
