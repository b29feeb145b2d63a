"""The cross-service rule graph the whole-universe verifier runs over.

The verifier abstracts every parametrised rule of every analysed service
into propositional *atoms* over abstract principal classes: a role keeps
its (service, name) identity and its parameter-type signature but loses
its concrete parameters, and likewise for appointment kinds and guarded
methods.  Rules become hyper-edges from the atoms of their credential
conditions to the atom of their head.  On this graph a Datalog-style
least fixpoint (:mod:`repro.lang.verify.fixpoint`) decides which atoms
*some* principal class can ever reach — the decidable question the paper
promises ("can a principal in domain A ever reach privilege P in domain
B?"), asked before deployment.

The abstraction is a sound over-approximation for unreachability:
parameters are ignored (any unification is assumed to succeed) and
environmental constraints are assumed satisfiable, so everything the
runtime can grant is derivable here.  Atoms whose defining service lies
*outside* the analysed universe are recorded in
:attr:`PolicyGraph.external` and treated as obtainable — the foreign
service's policy is unknown, so assuming the credential exists keeps
unreachable verdicts trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ...core.rules import (
    AppointmentCondition,
    ConstraintCondition,
    PrerequisiteRole,
    SourceSpan,
)
from ...core.terms import Var
from ...core.types import RoleName, ServiceId
from ..universe import PolicyUniverse

__all__ = ["Atom", "EdgeCondition", "RuleEdge", "PolicyGraph",
           "build_graph"]

ROLE = "role"
APPOINTMENT = "appointment"
PRIVILEGE = "privilege"


@dataclass(frozen=True, order=True)
class Atom:
    """One node of the rule graph: a role, appointment kind or privilege
    abstracted from its parameters."""

    kind: str          # "role" | "appointment" | "privilege"
    service: ServiceId
    name: str          # role name, appointment name, or method name
    arity: int = 0     # parameter count (0 for privileges)

    @classmethod
    def role(cls, service: ServiceId, name: str, arity: int = 0) -> "Atom":
        return cls(ROLE, service, name, arity)

    @classmethod
    def appointment(cls, issuer: ServiceId, name: str,
                    arity: int = 0) -> "Atom":
        return cls(APPOINTMENT, issuer, name, arity)

    @classmethod
    def privilege(cls, service: ServiceId, method: str) -> "Atom":
        return cls(PRIVILEGE, service, method, 0)

    def __str__(self) -> str:
        if self.kind == PRIVILEGE:
            return f"privilege {self.service}.{self.name}"
        if self.kind == APPOINTMENT:
            return (f"appointment {self.service}:{self.name}"
                    f"/{self.arity}")
        return f"role {self.service}:{self.name}"


@dataclass(frozen=True, eq=False)
class EdgeCondition:
    """One credential condition of a rule edge.

    ``membership`` mirrors the condition's flag in the policy: a
    membership condition is part of the Fig. 5 revocation cascade, a
    passive one survives revocation of its credential.  ``condition``
    keeps the compiled rule condition so witnesses can be replayed
    against the runtime (:mod:`repro.lang.verify.replay`).
    """

    atom: Atom
    membership: bool
    label: str
    origin: Optional[SourceSpan]
    condition: object = field(repr=False, default=None)


@dataclass(frozen=True, eq=False)
class RuleEdge:
    """One rule of the universe, as a hyper-edge deriving ``target``."""

    index: int                 # stable ordinal, for deterministic output
    kind: str                  # "activation" | "authorization" | "appointment"
    service: ServiceId
    target: Atom
    subject: str               # human-readable rule subject
    rule_text: str
    conditions: Tuple[EdgeCondition, ...]
    constraint_count: int      # environmental constraints (assumed true)
    origin: Optional[SourceSpan]
    file: Optional[str]
    rule: object = field(repr=False, default=None)

    def location(self) -> str:
        parts = [self.file or "<policy>"]
        if self.origin is not None:
            parts.append(f"{self.origin.line}:{self.origin.column}")
        return ":".join(parts)


@dataclass
class PolicyGraph:
    """The compiled universe: atoms, rule edges, and provenance."""

    services: Tuple[ServiceId, ...]
    atoms: Set[Atom]
    edges: Tuple[RuleEdge, ...]
    edges_by_target: Dict[Atom, List[RuleEdge]]
    external: Set[Atom]
    signatures: Dict[Atom, Tuple[str, ...]]
    files: Mapping[ServiceId, str]
    #: the atom of every role an analysed service declares (whether or
    #: not any rule mentions it) — what "is role R reachable?" looks up.
    defined_roles: Dict[RoleName, Atom]

    def privileges(self) -> List[Atom]:
        return sorted(a for a in self.atoms if a.kind == PRIVILEGE)

    def roles(self) -> List[Atom]:
        return sorted(a for a in self.atoms if a.kind == ROLE)

    def appointments(self) -> List[Atom]:
        return sorted(a for a in self.atoms if a.kind == APPOINTMENT)

    def signature(self, atom: Atom) -> str:
        """The atom with its inferred parameter-type signature, e.g.
        ``treating_doctor(string, string)`` — the abstract principal-class
        view of a parametrised role."""
        if atom.kind == PRIVILEGE or atom.arity == 0:
            return str(atom)
        types = self.signatures.get(atom, ("?",) * atom.arity)
        return f"{atom}({', '.join(types)})"

    def role_edges(self) -> List[Tuple[RoleName, RoleName]]:
        """The Fig. 1 role dependency graph: (prerequisite -> dependent)
        over every activation rule, each edge once, sorted."""
        edges = {(RoleName(c.atom.service, c.atom.name),
                  RoleName(edge.target.service, edge.target.name))
                 for edge in self.edges if edge.kind == "activation"
                 for c in edge.conditions if c.atom.kind == ROLE}
        return sorted(edges, key=lambda edge: (str(edge[0]), str(edge[1])))

    def role_cycles(self) -> List[List[RoleName]]:
        """Cross-service prerequisite cycles (Tarjan SCCs of size > 1,
        plus self-loops) of :meth:`role_edges`."""
        graph: Dict[RoleName, List[RoleName]] = {}
        for prereq, dependent in self.role_edges():
            graph.setdefault(prereq, []).append(dependent)
            graph.setdefault(dependent, [])

        index_counter = [0]
        indices: Dict[RoleName, int] = {}
        lowlinks: Dict[RoleName, int] = {}
        on_stack: Set[RoleName] = set()
        stack: List[RoleName] = []
        cycles: List[List[RoleName]] = []

        def strongconnect(node: RoleName) -> None:
            indices[node] = lowlinks[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for successor in graph[node]:
                if successor not in indices:
                    strongconnect(successor)
                    lowlinks[node] = min(lowlinks[node], lowlinks[successor])
                elif successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[successor])
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph[node]:
                    cycles.append(sorted(component, key=str))

        for node in sorted(graph, key=str):
            if node not in indices:
                strongconnect(node)
        return cycles


def _type_name(value: object) -> Optional[str]:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (int, float)):
        return "number"
    return None


class _Builder:
    def __init__(self, universe: PolicyUniverse) -> None:
        self.universe = universe
        self.in_universe = set(universe.services)
        self.atoms: Set[Atom] = set()
        self.edges: List[RuleEdge] = []
        self.defined_roles: Dict[RoleName, Atom] = {
            role: Atom.role(role.service, role.name, arity)
            for role, arity in universe.role_arities().items()}
        # (atom, position) -> observed constant types
        self.observed: Dict[Tuple[Atom, int], Set[str]] = {}

    def build(self) -> PolicyGraph:
        for service, target, rule in self.universe.activation_rules():
            atom = self._role_atom(target.service, target.name,
                                   rule.target.arity)
            self._add_edge("activation", service, atom, str(target), rule,
                           rule.target.parameters)
        for service, method, rule in self.universe.authorization_rules():
            atom = Atom.privilege(service, method)
            self._add_edge("authorization", service, atom,
                           f"{service}:{method}()", rule, rule.parameters)
        for service, name, rule in self.universe.appointment_rules():
            atom = Atom.appointment(service, name, len(rule.parameters))
            self._add_edge("appointment", service, atom,
                           f"appointment {service}:{name}", rule,
                           rule.parameters)

        external = {atom for atom in self.atoms
                    if atom.kind != PRIVILEGE
                    and atom.service not in self.in_universe}
        by_target: Dict[Atom, List[RuleEdge]] = {}
        for edge in self.edges:
            by_target.setdefault(edge.target, []).append(edge)
        signatures: Dict[Atom, Tuple[str, ...]] = {}
        for atom in self.atoms:
            if atom.arity == 0:
                continue
            types = []
            for position in range(atom.arity):
                seen = self.observed.get((atom, position), set())
                types.append(sorted(seen)[0] if len(seen) == 1 else "?")
            signatures[atom] = tuple(types)
        return PolicyGraph(
            services=tuple(self.universe.services),
            atoms=self.atoms,
            edges=tuple(self.edges),
            edges_by_target=by_target,
            external=external,
            signatures=signatures,
            files=dict(self.universe.files),
            defined_roles=self.defined_roles,
        )

    def _role_atom(self, service: ServiceId, name: str,
                   reference_arity: int) -> Atom:
        """Role atoms are keyed by declared arity when the defining service
        is in the universe, so differently-writ references (the OAS010
        arity dodge) still meet at one node."""
        return self.defined_roles.get(RoleName(service, name)) \
            or Atom.role(service, name, reference_arity)

    def _observe(self, atom: Atom, parameters: Tuple) -> None:
        for position, term in enumerate(parameters):
            if isinstance(term, Var):
                continue
            type_name = _type_name(term)
            if type_name is not None and position < atom.arity:
                self.observed.setdefault((atom, position),
                                         set()).add(type_name)

    def _add_edge(self, kind: str, service: ServiceId, target: Atom,
                  subject: str, rule, head_parameters: Tuple) -> None:
        self.atoms.add(target)
        self._observe(target, head_parameters)
        conditions: List[EdgeCondition] = []
        constraint_count = 0
        for condition in rule.conditions:
            if isinstance(condition, PrerequisiteRole):
                template = condition.template
                atom = self._role_atom(template.role_name.service,
                                       template.role_name.name,
                                       template.arity)
                self._observe(atom, template.parameters)
            elif isinstance(condition, AppointmentCondition):
                atom = Atom.appointment(condition.issuer, condition.name,
                                        len(condition.parameters))
                self._observe(atom, condition.parameters)
            else:
                if isinstance(condition, ConstraintCondition):
                    constraint_count += 1
                continue
            self.atoms.add(atom)
            conditions.append(EdgeCondition(
                atom=atom, membership=condition.membership,
                label=str(condition), origin=condition.origin,
                condition=condition))
        self.edges.append(RuleEdge(
            index=len(self.edges), kind=kind, service=service,
            target=target, subject=subject, rule_text=str(rule),
            conditions=tuple(conditions),
            constraint_count=constraint_count,
            origin=getattr(rule, "origin", None),
            file=self.universe.file_of(service), rule=rule))


def build_graph(universe: PolicyUniverse) -> PolicyGraph:
    """Compile the whole ``universe`` into one rule graph."""
    return _Builder(universe).build()
