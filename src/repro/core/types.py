"""Core identity and role types of the OASIS model.

Roles in OASIS are *service-specific* and *parametrised* (Sect. 2).  A
:class:`RoleTemplate` is a role as named in a service's policy — a name plus
formal parameter names; a :class:`Role` is a ground instance held by a
principal, e.g. ``treating_doctor(doctor_id="d1", patient_id="p7")``.

Principals are identified by an opaque :class:`PrincipalId`; services by a
:class:`ServiceId` which is qualified by the domain that hosts the service.
Nothing in the core model assumes a global name space — two services may each
define a role called ``doctor`` and they are distinct roles, as the paper
requires ("there is no notion of globally centralised administration of role
naming").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .terms import DATACLASS_SLOTS, Term, Var, intern_pool, is_ground

__all__ = [
    "PrincipalId",
    "ServiceId",
    "RoleName",
    "RoleTemplate",
    "Role",
    "Privilege",
]


@dataclass(frozen=True, order=True, **DATACLASS_SLOTS)
class PrincipalId:
    """Opaque identifier of a principal (a user or computational entity).

    Slotted but *not* interned: the principal population is unbounded (a
    million-principal world holds a million of these), so a canonicalizing
    pool would pin them all for the life of the process.
    """

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("principal id must be non-empty")

    def __str__(self) -> str:
        return self.value


#: Canonicalizing pools for the two bounded-population identity types.
#: See :class:`repro.core.terms.InternPool` for why these never invalidate.
_SERVICE_POOL = intern_pool("service_id")
_ROLE_NAME_POOL = intern_pool("role_name")


@dataclass(frozen=True, order=True, **DATACLASS_SLOTS)
class ServiceId:
    """Identifier of a service, qualified by its administrative domain.

    Instances are *interned*: ``ServiceId(d, n)`` returns the one canonical
    instance for ``(d, n)``, so the million certificates of a scale world
    share S service-id objects rather than each carrying its own.  Pickling
    and deep-copying route through :meth:`__reduce__` and therefore re-enter
    the pool — a round-tripped id is identical (``is``) to the canonical
    one.
    """

    domain: str
    name: str
    # No default: the generated ``__init__`` re-runs on the shared instance
    # at every construction, and a default would reset the field until
    # ``__post_init__`` — a window in which another thread reads hash 0.
    _hash: int = field(init=False, repr=False, compare=False)

    def __new__(cls, domain: str = "", name: str = "") -> "ServiceId":
        if cls is not ServiceId:  # subclasses manage their own identity
            return object.__new__(cls)
        if not domain or not name:
            raise ValueError("service id needs both domain and name")
        pool = _SERVICE_POOL
        cached = pool._pool.get((domain, name))
        if cached is not None:
            pool.hits += 1
            return cached
        pool.misses += 1
        instance = object.__new__(cls)
        pool._pool[(domain, name)] = instance
        return instance

    def __post_init__(self) -> None:
        if not self.domain or not self.name:
            raise ValueError("service id needs both domain and name")
        # Cached: service ids key credential-index buckets, registries and
        # caches on every request, and the fields are immutable.
        object.__setattr__(self, "_hash", hash((self.domain, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor (not raw state) so unpickled /
        # deep-copied ids intern back to the canonical instance.
        return (ServiceId, (self.domain, self.name))

    def __str__(self) -> str:
        return f"{self.domain}/{self.name}"


@dataclass(frozen=True, order=True, **DATACLASS_SLOTS)
class RoleName:
    """A role name as defined by one specific service.

    Role names are only meaningful relative to the defining service: the pair
    ``(service, name)`` is the identity.  Interned like :class:`ServiceId`
    (role-name population is bounded by policy size, not by principals).
    """

    service: ServiceId
    name: str
    # No defaults, for the reason given on ServiceId: a concurrent str()
    # must never see an empty string (it is signed into every RMC).
    _hash: int = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)

    def __new__(cls, service: ServiceId = None,  # type: ignore[assignment]
                name: str = "") -> "RoleName":
        if cls is not RoleName:
            return object.__new__(cls)
        if not name:
            raise ValueError("role name must be non-empty")
        pool = _ROLE_NAME_POOL
        cached = pool._pool.get((service, name))
        if cached is not None:
            pool.hits += 1
            return cached
        pool.misses += 1
        instance = object.__new__(cls)
        pool._pool[(service, name)] = instance
        return instance

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("role name must be non-empty")
        # Cached for the same reason as ServiceId (nested dataclass hashing
        # is otherwise recomputed on every index lookup).
        object.__setattr__(self, "_hash", hash((self.service, self.name)))
        # Every audit record of an activation names the role: one shared
        # string per interned name, not one per record.
        object.__setattr__(self, "_text", f"{self.service}:{self.name}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (RoleName, (self.service, self.name))

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True, **DATACLASS_SLOTS)
class RoleTemplate:
    """A parametrised role as written in policy: name + formal parameters.

    ``parameters`` holds :class:`~repro.core.terms.Term` values; in policy
    they are usually variables (``Var("doc")``) but constants are allowed to
    pin a parameter, e.g. ``hospital("addenbrookes")``.
    """

    role_name: RoleName
    parameters: Tuple[Term, ...] = field(default=())

    @property
    def arity(self) -> int:
        return len(self.parameters)

    def instantiate(self, *values: Term) -> "Role":
        """Build a ground :class:`Role` from positional parameter values."""
        if len(values) != len(self.parameters):
            raise ValueError(
                f"{self.role_name} expects {len(self.parameters)} parameters, "
                f"got {len(values)}")
        role = Role(self.role_name, tuple(values))
        return role

    def __str__(self) -> str:
        if not self.parameters:
            return str(self.role_name)
        params = ", ".join(repr(p) for p in self.parameters)
        return f"{self.role_name}({params})"


@dataclass(frozen=True, **DATACLASS_SLOTS)
class Role:
    """A ground (fully instantiated) role held by some principal.

    Instances are immutable and hashable so they can key credential records
    and appear in session dependency trees.  One instance is resident per
    live membership certificate, so the class is slotted — unlike service
    and role-name identifiers it is *not* interned (its parameters embed
    per-principal values, an unbounded population).
    """

    role_name: RoleName
    parameters: Tuple[Term, ...] = field(default=())

    def __post_init__(self) -> None:
        for param in self.parameters:
            if isinstance(param, Var) or not is_ground(param):
                raise ValueError(
                    f"role instance {self.role_name} has non-ground "
                    f"parameter {param!r}")

    @property
    def arity(self) -> int:
        return len(self.parameters)

    @property
    def service(self) -> ServiceId:
        return self.role_name.service

    def matches_template(self, template: RoleTemplate) -> bool:
        """True when this instance has the template's name and arity."""
        return (self.role_name == template.role_name
                and self.arity == template.arity)

    def __str__(self) -> str:
        if not self.parameters:
            return str(self.role_name)
        params = ", ".join(repr(p) for p in self.parameters)
        return f"{self.role_name}({params})"


@dataclass(frozen=True, order=True, **DATACLASS_SLOTS)
class Privilege:
    """A named privilege — the right to invoke a method at a service.

    In OASIS "roles convey privileges; specifically, the privilege of method
    invocation (including object access) at services" (Sect. 2).  A privilege
    is therefore a method name at a service; object-level restrictions are
    expressed through rule parameters and environmental constraints rather
    than through the privilege itself.
    """

    service: ServiceId
    method: str

    def __post_init__(self) -> None:
        if not self.method:
            raise ValueError("privilege method must be non-empty")

    def __str__(self) -> str:
        return f"{self.service}.{self.method}"
