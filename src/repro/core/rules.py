"""Horn-clause rules: role activation, service authorization, appointment.

Sect. 2: "Activation of any role in OASIS is explicitly controlled by a role
activation rule [which] specifies, in Horn clause logic, the conditions that
a user must meet in order to activate the role.  The conditions may include
prerequisite roles, appointment credentials and environmental constraints."

Three condition kinds therefore appear in rule bodies:

* :class:`PrerequisiteRole` — the principal already holds an RMC for a role
  (of this or another service);
* :class:`AppointmentCondition` — the principal presents an appointment
  certificate of a given issuer and name;
* :class:`ConstraintCondition` — an environmental constraint.

Each condition carries a ``membership`` flag.  The *membership rule* of a
role is exactly the flagged subset: "the membership rule of a role indicates
which of the role activation conditions must remain true while the role is
active" (Abstract).  A role is deactivated the moment any flagged condition
becomes false.

:class:`AuthorizationRule` guards method invocation ("the conditions for
service invocation are possession of role membership certificates of this
and other services together with environmental constraints", Sect. 2) and
:class:`AppointmentRule` guards the issuing of appointment certificates
("being active in certain roles gives the principal the right to issue
appointment certificates").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Iterator, Optional, Tuple, Union

from .constraints import ComparisonConstraint, EnvironmentalConstraint
from .exceptions import PolicyError
from .terms import Term, Var, variables_in
from .types import RoleTemplate, ServiceId

__all__ = [
    "SourceSpan",
    "PrerequisiteRole",
    "AppointmentCondition",
    "ConstraintCondition",
    "Condition",
    "partition_conditions",
    "ActivationRule",
    "AuthorizationRule",
    "AppointmentRule",
]


@dataclass(frozen=True)
class SourceSpan:
    """Provenance of a rule or condition in policy source text.

    Lines and columns are 1-based; ``end_column`` is exclusive.  Compiled
    rules carry spans so that analysis findings can point at the policy
    *source* a reviewer edits rather than at a compiled object.  Spans are
    excluded from equality/hashing of the objects that carry them: two
    rules compiled from different files are still the same rule.
    """

    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class PrerequisiteRole:
    """The principal must hold an RMC for a role matching ``template``.

    The template's parameters are unified against the presented RMC's
    parameters, binding rule variables.  ``membership=True`` places the
    condition in the membership rule: revocation of the prerequisite RMC
    deactivates the dependent role (Fig. 1 / Fig. 5 cascade).
    """

    template: RoleTemplate
    membership: bool = False
    origin: Optional[SourceSpan] = field(default=None, compare=False,
                                         repr=False)

    @cached_property
    def index_key(self) -> Tuple[str, object, int]:
        """Bucket key for the engine's credential index: only RMCs with this
        exact role name and arity can satisfy the condition."""
        return ("rmc", self.template.role_name, self.template.arity)

    @cached_property
    def pattern(self) -> Tuple[Term, ...]:
        """The parameter terms unified against a candidate credential."""
        return self.template.parameters

    def variables(self) -> FrozenSet[Var]:
        return frozenset(v for param in self.template.parameters
                         for v in variables_in(param))

    def __str__(self) -> str:
        mark = "*" if self.membership else ""
        return f"{self.template}{mark}"


@dataclass(frozen=True)
class AppointmentCondition:
    """The principal must present an appointment certificate.

    ``issuer`` is the service whose secret signs the certificate; ``name``
    is the appointment kind (e.g. ``employed_as_doctor``); ``parameters``
    unify against the certificate's parameters.
    """

    issuer: ServiceId
    name: str
    parameters: Tuple[Term, ...] = field(default=())
    membership: bool = False
    origin: Optional[SourceSpan] = field(default=None, compare=False,
                                         repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("appointment name must be non-empty")

    @cached_property
    def index_key(self) -> Tuple[str, object, str, int]:
        """Bucket key for the engine's credential index: only appointment
        certificates of this exact issuer, name and arity can satisfy it."""
        return ("appointment", self.issuer, self.name, len(self.parameters))

    @cached_property
    def pattern(self) -> Tuple[Term, ...]:
        """The parameter terms unified against a candidate credential."""
        return self.parameters

    def variables(self) -> FrozenSet[Var]:
        return frozenset(v for param in self.parameters
                         for v in variables_in(param))

    def __str__(self) -> str:
        mark = "*" if self.membership else ""
        params = ", ".join(repr(p) for p in self.parameters)
        return f"appointment {self.issuer}:{self.name}({params}){mark}"


@dataclass(frozen=True)
class ConstraintCondition:
    """An environmental constraint in a rule body."""

    constraint: EnvironmentalConstraint
    membership: bool = False
    origin: Optional[SourceSpan] = field(default=None, compare=False,
                                         repr=False)

    def variables(self) -> FrozenSet[Var]:
        return self.constraint.free_variables()

    def __str__(self) -> str:
        mark = "*" if self.membership else ""
        return f"{self.constraint!r}{mark}"


Condition = Union[PrerequisiteRole, AppointmentCondition, ConstraintCondition]


def partition_conditions(conditions: Tuple[Condition, ...]
                         ) -> Tuple[Tuple[Condition, ...],
                                    Tuple[Condition, ...]]:
    """Split a rule body into (credential conditions, constraints), each in
    rule order — the canonical evaluation order of the engine.  Rule classes
    cache this per instance (bodies are immutable), so the solver pays for
    the split once per rule rather than once per evaluation."""
    credential_conditions = []
    constraint_conditions = []
    for condition in conditions:
        if isinstance(condition, ConstraintCondition):
            constraint_conditions.append(condition)
        else:
            credential_conditions.append(condition)
    return tuple(credential_conditions), tuple(constraint_conditions)


def _credential_conditions(conditions: Tuple[Condition, ...]
                           ) -> Iterator[Condition]:
    for condition in conditions:
        if isinstance(condition, (PrerequisiteRole, AppointmentCondition)):
            yield condition


def _check_constraint_safety(head_vars: FrozenSet[Var],
                             conditions: Tuple[Condition, ...],
                             where: str) -> None:
    """Every constraint variable must be bindable by head or credentials."""
    bindable = set(head_vars)
    for condition in _credential_conditions(conditions):
        bindable |= condition.variables()
    for condition in conditions:
        if isinstance(condition, ConstraintCondition):
            unbound = condition.variables() - bindable
            if unbound:
                names = ", ".join(sorted(v.name for v in unbound))
                raise PolicyError(
                    f"{where}: constraint variables {{{names}}} can never be "
                    f"bound by the rule head or its credential conditions")


@dataclass(frozen=True)
class ActivationRule:
    """``target <- c1, ..., cn`` — conditions to activate ``target``.

    A rule with no :class:`PrerequisiteRole` condition defines an *initial
    role*: activating one starts an OASIS session (Sect. 2).
    """

    target: RoleTemplate
    conditions: Tuple[Condition, ...] = field(default=())
    origin: Optional[SourceSpan] = field(default=None, compare=False,
                                         repr=False)

    def __post_init__(self) -> None:
        _check_constraint_safety(self.head_variables(), self.conditions,
                                 f"activation rule for {self.target.role_name}")

    @cached_property
    def condition_partition(self) -> Tuple[Tuple[Condition, ...],
                                           Tuple[Condition, ...]]:
        return partition_conditions(self.conditions)

    def head_variables(self) -> FrozenSet[Var]:
        return frozenset(v for param in self.target.parameters
                         for v in variables_in(param))

    @property
    def is_initial(self) -> bool:
        """True when no prerequisite role is required (an initial role rule)."""
        return not any(isinstance(c, PrerequisiteRole)
                       for c in self.conditions)

    @property
    def membership_conditions(self) -> Tuple[Condition, ...]:
        """The membership rule: the conditions that must remain true."""
        return tuple(c for c in self.conditions if c.membership)

    def prerequisite_roles(self) -> Tuple[PrerequisiteRole, ...]:
        return tuple(c for c in self.conditions
                     if isinstance(c, PrerequisiteRole))

    def appointment_conditions(self) -> Tuple[AppointmentCondition, ...]:
        return tuple(c for c in self.conditions
                     if isinstance(c, AppointmentCondition))

    def constraint_conditions(self) -> Tuple[ConstraintCondition, ...]:
        return tuple(c for c in self.conditions
                     if isinstance(c, ConstraintCondition))

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.conditions) or "true"
        return f"{self.target} <- {body}"


@dataclass(frozen=True)
class AuthorizationRule:
    """``method(args) <- c1, ..., cn`` — conditions to invoke ``method``.

    ``parameters`` are terms unified against the actual invocation
    arguments, so constraints can relate arguments to credential parameters
    (e.g. the record being read belongs to the patient named in the
    ``treating_doctor`` RMC).
    """

    method: str
    parameters: Tuple[Term, ...] = field(default=())
    conditions: Tuple[Condition, ...] = field(default=())
    origin: Optional[SourceSpan] = field(default=None, compare=False,
                                         repr=False)

    def __post_init__(self) -> None:
        if not self.method:
            raise PolicyError("authorization rule needs a method name")
        head_vars = frozenset(v for param in self.parameters
                              for v in variables_in(param))
        _check_constraint_safety(head_vars, self.conditions,
                                 f"authorization rule for {self.method}")

    @cached_property
    def condition_partition(self) -> Tuple[Tuple[Condition, ...],
                                           Tuple[Condition, ...]]:
        return partition_conditions(self.conditions)

    @cached_property
    def pure(self) -> bool:
        """True when every constraint is a :class:`ComparisonConstraint`,
        which reads nothing but the substitution: the verdict is then a
        function of the arguments and the presented credentials alone (what
        :mod:`repro.core.decisions` may cache)."""
        return all(type(condition.constraint) is ComparisonConstraint
                   for condition in self.condition_partition[1])

    def __str__(self) -> str:
        params = ", ".join(repr(p) for p in self.parameters)
        body = ", ".join(str(c) for c in self.conditions) or "true"
        return f"{self.method}({params}) <- {body}"


@dataclass(frozen=True)
class AppointmentRule:
    """``appointment name(params) <- c1, ..., cn`` — who may appoint.

    The body names the role(s) the *appointer* must hold — the paper's
    "being active in certain roles gives the principal the right to issue
    appointment certificates" — plus any constraints.  Crucially the rule
    says nothing about the privileges the certificate will later confer:
    appointers need not hold them (the hospital administrator need not be
    medically qualified).
    """

    name: str
    parameters: Tuple[Term, ...] = field(default=())
    conditions: Tuple[Condition, ...] = field(default=())
    origin: Optional[SourceSpan] = field(default=None, compare=False,
                                         repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise PolicyError("appointment rule needs a name")
        head_vars = frozenset(v for param in self.parameters
                              for v in variables_in(param))
        _check_constraint_safety(head_vars, self.conditions,
                                 f"appointment rule for {self.name}")

    @cached_property
    def condition_partition(self) -> Tuple[Tuple[Condition, ...],
                                           Tuple[Condition, ...]]:
        return partition_conditions(self.conditions)

    def __str__(self) -> str:
        params = ", ".join(repr(p) for p in self.parameters)
        body = ", ".join(str(c) for c in self.conditions) or "true"
        return f"appointment {self.name}({params}) <- {body}"
