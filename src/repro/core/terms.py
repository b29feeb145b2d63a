"""First-order terms and unification for parametrised OASIS rules.

OASIS role activation rules are Horn clauses over *parametrised* role and
credential predicates (Sect. 2 of the paper).  A rule such as::

    treating_doctor(doc, pat) <- doctor(doc), allocated(doc, pat)

mentions *variables* (``doc``, ``pat``) that are bound when a principal
presents ground credentials.  This module supplies the term language and the
unification machinery the policy engine (:mod:`repro.core.engine`) is built
on:

* :class:`Var` — a named logic variable.
* ground Python values (str, int, float, bool, None, tuples of these) act as
  constants; tuples unify element-wise.
* :class:`Substitution` — an immutable mapping from variables to terms.
* :func:`unify` — sound first-order unification with occurs check.

The design keeps constants as plain Python values rather than wrapping them,
so application code can write ``Role("doctor", ("d42",))`` and policy code
``RoleTemplate("doctor", ("who",))`` without ceremony.
"""

from __future__ import annotations

import sys
from typing import (Any, Dict, Hashable, Iterable, Iterator, Mapping,
                    Optional, Tuple, Union)

__all__ = [
    "Var",
    "Term",
    "Substitution",
    "EMPTY_SUBSTITUTION",
    "unify",
    "unify_sequences",
    "is_ground",
    "variables_in",
    "fresh_var",
    "InternPool",
    "intern_pool",
    "pool_stats",
    "DATACLASS_SLOTS",
]

#: Keyword arguments that make a ``@dataclass`` slotted where the runtime
#: supports it (``slots=True`` needs 3.10).  On older interpreters the
#: classes fall back to ``__dict__`` storage with identical semantics —
#: the memory optimization degrades gracefully instead of breaking 3.9.
DATACLASS_SLOTS: Dict[str, bool] = (
    {"slots": True} if sys.version_info >= (3, 10) else {})


class InternPool:
    """A canonicalizing pool for immutable value objects.

    At a million principals the resident cost of the core object graph is
    dominated by *duplicated* small objects: every certificate carries a
    :class:`~repro.core.types.ServiceId`, every role a
    :class:`~repro.core.types.RoleName`, and naive construction allocates a
    fresh instance each time.  The pool maps a hashable key to the one
    canonical instance, so a world with S services holds S ``ServiceId``
    objects no matter how many credentials reference them.  The owning
    class's ``__new__`` probes and fills ``_pool`` itself (one dict lookup
    on the construction hot path) and counts the hit or miss.

    The design is deliberately *invalidation-free*: only immutable value
    objects whose identity is fully determined by the key may be pooled, so
    an entry can never go stale and nothing ever needs to be evicted or
    re-validated.  Population is bounded by the number of distinct
    *values* (services, role names), not by traffic, which is why entries
    are held strongly.  Per-principal objects (refs, certificates) are NOT
    pooled — their population is unbounded.

    ``hits``/``misses`` feed the ``oasis_memory_intern_pool`` gauges so
    scale runs can confirm the pool is actually being shared.
    """

    __slots__ = ("name", "hits", "misses", "_pool")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        self._pool: Dict[Hashable, Any] = {}

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._pool), "hits": self.hits,
                "misses": self.misses}


#: Registry of named pools, for observability export (`pool_stats`).
_POOLS: Dict[str, InternPool] = {}


def intern_pool(name: str) -> InternPool:
    """Get-or-create the named pool (process-wide, like the classes that
    use it — canonical instances must be canonical everywhere)."""
    pool = _POOLS.get(name)
    if pool is None:
        pool = _POOLS[name] = InternPool(name)
    return pool


def pool_stats() -> Dict[str, Dict[str, int]]:
    """Per-pool entry/hit/miss counts, consumed by the
    ``oasis_memory_intern_pool`` observability collector."""
    return {name: pool.stats() for name, pool in sorted(_POOLS.items())}


class Var:
    """A logic variable, identified by name.

    Two ``Var`` objects with the same name are the same variable.  Variable
    names are ordinary identifiers; the convention in policy text is lower
    case (``doc``, ``pat``) but nothing is enforced here.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise TypeError("variable name must be a non-empty string")
        self.name = name
        # Precomputed: variables key every substitution lookup on the
        # solver's hot path.
        self._hash = hash(("Var", name))

    def __repr__(self) -> str:
        return f"?{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash


#: A term is a variable, an atomic Python constant, or a tuple of terms.
Term = Union[Var, str, int, float, bool, None, Tuple["Term", ...]]

_ATOMIC_TYPES = (str, int, float, bool, type(None), bytes)

_FRESH_COUNTER = [0]


def fresh_var(prefix: str = "_v") -> Var:
    """Return a variable guaranteed not to clash with user-written names.

    Fresh variables carry a ``$`` so they can never collide with identifiers
    produced by the policy parser.
    """
    _FRESH_COUNTER[0] += 1
    return Var(f"{prefix}${_FRESH_COUNTER[0]}")


def _check_term(term: Term) -> None:
    if isinstance(term, Var) or isinstance(term, _ATOMIC_TYPES):
        return
    if isinstance(term, tuple):
        for sub in term:
            _check_term(sub)
        return
    raise TypeError(f"not a valid term: {term!r} (type {type(term).__name__})")


def is_ground(term: Term) -> bool:
    """Return True when ``term`` contains no variables."""
    if isinstance(term, Var):
        return False
    if isinstance(term, tuple):
        return all(is_ground(sub) for sub in term)
    return True


def variables_in(term: Term) -> Iterator[Var]:
    """Yield each variable occurring in ``term`` (with repeats)."""
    if isinstance(term, Var):
        yield term
    elif isinstance(term, tuple):
        for sub in term:
            yield from variables_in(sub)


_MISSING = object()


class Substitution(Mapping[Var, Term]):
    """An immutable map from variables to terms.

    Substitutions are built up during unification and applied to terms with
    :meth:`apply`.  They are *idempotent*: bindings are resolved through the
    substitution when applied, so chained bindings (``x -> y, y -> 1``)
    behave correctly.

    Internally a substitution is *persistent*: :meth:`bind` allocates a
    single chain node sharing all ancestor bindings instead of copying (and
    re-validating) the whole mapping, so extending a substitution is O(1)
    and a rule solve that binds n variables costs O(n), not O(n²).  Lookups
    walk the chain (bounded by the number of bindings a single rule can
    make, i.e. small); the flat dict is materialised lazily only for
    iteration, equality and hashing.  :meth:`apply` memoises resolved
    variables per instance — sound because instances never change.
    """

    __slots__ = ("_parent", "_var", "_value", "_size", "_flat", "_cache")

    def __init__(self, bindings: Optional[Mapping[Var, Term]] = None) -> None:
        flat: Dict[Var, Term] = dict(bindings) if bindings else {}
        for var, value in flat.items():
            if not isinstance(var, Var):
                raise TypeError(f"substitution keys must be Var, got {var!r}")
            _check_term(value)
        self._parent: Optional[Substitution] = None
        self._var: Optional[Var] = None
        self._value: Optional[Term] = None
        self._size = len(flat)
        self._flat: Optional[Dict[Var, Term]] = flat
        self._cache: Dict[Var, Term] = {}

    def _lookup(self, var: Var) -> Term:
        """Return the direct binding of ``var`` or the _MISSING sentinel."""
        node: Substitution = self
        while node._flat is None:
            if node._var == var:
                return node._value
            node = node._parent
        return node._flat.get(var, _MISSING)

    def _materialize(self) -> Dict[Var, Term]:
        if self._flat is None:
            chain = []
            node: Substitution = self
            while node._flat is None:
                chain.append((node._var, node._value))
                node = node._parent
            flat = dict(node._flat)
            for var, value in reversed(chain):
                flat[var] = value
            self._flat = flat
        return self._flat

    # -- Mapping interface -------------------------------------------------
    def __getitem__(self, var: Var) -> Term:
        value = self._lookup(var)
        if value is _MISSING:
            raise KeyError(var)
        return value

    def __iter__(self) -> Iterator[Var]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}={t!r}" for v, t in sorted(
            self._materialize().items(), key=lambda item: item[0].name))
        return f"{{{inner}}}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Substitution):
            return self._materialize() == other._materialize()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._materialize().items()))

    # -- operations --------------------------------------------------------
    def apply(self, term: Term) -> Term:
        """Apply this substitution to ``term``, resolving chains of bindings."""
        if isinstance(term, Var):
            cached = self._cache.get(term, _MISSING)
            if cached is not _MISSING:
                return cached
            seen = set()
            current: Term = term
            while isinstance(current, Var):
                value = self._lookup(current)
                if value is _MISSING:
                    break
                if current in seen:  # defensive: cycles cannot arise via unify()
                    raise ValueError(f"cyclic substitution at {current!r}")
                seen.add(current)
                current = value
            if isinstance(current, tuple):
                current = tuple(self.apply(sub) for sub in current)
            self._cache[term] = current
            return current
        if isinstance(term, tuple):
            return tuple(self.apply(sub) for sub in term)
        return term

    def resolve(self, term: Term) -> Term:
        """Dereference variable chains *shallowly*: follow ``var -> var ->
        value`` links but do not rebuild tuples.  Unification only needs the
        outermost shape of a term, so this avoids :meth:`apply`'s recursive
        tuple copies on the solver's hot path."""
        steps = 0
        while type(term) is Var:
            value = self._lookup(term)
            if value is _MISSING:
                return term
            term = value
            steps += 1
            if steps > self._size:  # defensive: unify() cannot build cycles
                raise ValueError(f"cyclic substitution at {term!r}")
        return term

    def bind(self, var: Var, value: Term) -> "Substitution":
        """Return a new substitution extended with ``var -> value``."""
        if not isinstance(var, Var):
            raise TypeError(f"substitution keys must be Var, got {var!r}")
        if self._lookup(var) is not _MISSING:
            raise ValueError(f"variable {var!r} already bound")
        _check_term(value)
        new = Substitution.__new__(Substitution)
        new._parent = self
        new._var = var
        new._value = value
        new._size = self._size + 1
        new._flat = None
        new._cache = {}
        return new

    def merged_with(self, other: "Substitution") -> Optional["Substitution"]:
        """Merge two substitutions, unifying on shared variables.

        Returns None when the substitutions conflict.
        """
        result: Optional[Substitution] = self
        for var, value in other.items():
            assert result is not None
            result = unify(var, value, result)
            if result is None:
                return None
        return result


EMPTY_SUBSTITUTION = Substitution()


def _occurs(var: Var, term: Term, subst: Substitution) -> bool:
    term = subst.apply(term)
    if isinstance(term, Var):
        return term == var
    if isinstance(term, tuple):
        return any(_occurs(var, sub, subst) for sub in term)
    return False


def unify(left: Term, right: Term,
          subst: Substitution = EMPTY_SUBSTITUTION) -> Optional[Substitution]:
    """Unify two terms under ``subst``; return the extended substitution.

    Returns None when the terms do not unify.  Atomic constants unify by
    Python equality with matching types — ``1`` and ``True`` are distinct
    here even though ``1 == True`` in Python, because certificate parameters
    must not silently coerce.
    """
    left = subst.resolve(left)
    right = subst.resolve(right)

    if isinstance(left, Var):
        if isinstance(right, Var) and right == left:
            return subst
        # Occurs check: only a tuple can contain the variable (an atomic
        # right cannot, and a distinct resolved variable never equals left).
        if isinstance(right, tuple) and _occurs(left, right, subst):
            return None
        return subst.bind(left, right)
    if isinstance(right, Var):
        return unify(right, left, subst)

    if isinstance(left, tuple) and isinstance(right, tuple):
        if len(left) != len(right):
            return None
        current: Optional[Substitution] = subst
        for sub_left, sub_right in zip(left, right):
            current = unify(sub_left, sub_right, current)
            if current is None:
                return None
        return current

    if isinstance(left, tuple) or isinstance(right, tuple):
        return None

    if type(left) is not type(right):
        # bool is a subclass of int; keep them distinct for parameters.
        if isinstance(left, bool) or isinstance(right, bool):
            return None
        if not (isinstance(left, (int, float)) and isinstance(right, (int, float))):
            return None
    return subst if left == right else None


def unify_sequences(left: Iterable[Term], right: Iterable[Term],
                    subst: Substitution = EMPTY_SUBSTITUTION,
                    ) -> Optional[Substitution]:
    """Unify two equal-length sequences of terms pair-wise.

    Pair-wise iteration (rather than wrapping both sides in tuples and
    unifying those) skips a tuple copy and a full :meth:`Substitution.apply`
    of each side per call.
    """
    if type(left) is not tuple:
        left = tuple(left)
    if type(right) is not tuple:
        right = tuple(right)
    if len(left) != len(right):
        return None
    current: Optional[Substitution] = subst
    for sub_left, sub_right in zip(left, right):
        current = unify(sub_left, sub_right, current)
        if current is None:
            return None
    return current
