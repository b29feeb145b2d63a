"""Memoised authorization grants: the Fig. 5 design applied to decisions.

Sect. 4 keeps a cached validation honest with an event channel: cache
the result, drop it when a change event names the credential.  A
:class:`DecisionCache` does the same for the *authorization* decision of
a warm invoke, so a repeated request skips the Horn-clause match.

* **Key** — ``(method, arguments, ((CRR string, signature), ...))`` for
  the presented credentials, in presentation order (:func:`decision_key`).
  Arguments are exact ``str`` / ``int`` / ``bytes`` / ``None`` values or
  tuples of them, so equal keys hold interchangeable arguments: a hit
  hands back the stored tuple, and warm invokes share one in their audit
  records.
* **Hit** — the entry was stored against the very rule tuple that
  ``ServicePolicy.authorization_rules_for`` returns now (``is``); adding a
  rule replaces that tuple, so a rule change misses with no version
  counter.
* **Only grants, only pure rules** — a denial is never stored, and the
  service stores a grant only while every rule of the method is
  :attr:`~repro.core.rules.AuthorizationRule.pure`: each constraint is a
  :class:`~repro.core.constraints.ComparisonConstraint`, which reads
  nothing but the substitution.  Clock, request environment and database
  lookups can change the answer without a credential event, so such
  methods always re-match.
* **Eviction** — a reverse index maps each CRR string to the keys that
  name it.  The owning service calls :meth:`DecisionCache.evict` from its
  revocation / re-issue handler; every evicted key also leaves the bucket
  of every other credential it names, so a long-lived credential's bucket
  does not grow with the short-lived ones presented beside it.

The cache sits *after* presentation validation: a revoked, expired,
silent or forged credential is refused before any lookup, so eviction
bounds memory and is not the safety argument.  It is volatile — never
mirrored to a store, empty after ``resume``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from .engine import PresentedCredential
from .rules import AuthorizationRule
from .terms import Term

__all__ = ["DECISION_CACHE_MAX", "DecisionCache", "decision_key"]

#: Entries held before the whole cache is cleared (a cap, not an LRU: in
#: steady state revocation events keep the cache far below it).
DECISION_CACHE_MAX = 16_384

DecisionKey = Tuple[str, Tuple[Term, ...], Tuple[Tuple[str, bytes], ...]]
Rules = Tuple[AuthorizationRule, ...]
Grant = Tuple[Rules, AuthorizationRule, Tuple[Term, ...]]

# Argument types for which equal means identical: dict equality agrees
# with unification and the stored tuple can stand in for the caller's.
# ``bool`` is out (``True == 1`` as a key, but they do not unify), so are
# floats (``-0.0 == 0.0``) and every subclass or foreign type, whose
# ``__eq__`` the cache cannot vouch for.
_PLAIN = frozenset({str, int, bytes, type(None)})


def _plain(term: Term) -> bool:
    kind = type(term)
    if kind in _PLAIN:
        return True
    return kind is tuple and all(map(_plain, term))


def decision_key(method: str, arguments: Tuple[Term, ...],
                 presented: Sequence[PresentedCredential]
                 ) -> Optional[DecisionKey]:
    """The cache key of one invoke, or None when it must not be cached
    (a variable, a bool, a float or a foreign type among the
    arguments)."""
    for argument in arguments:
        if type(argument) not in _PLAIN and not _plain(argument):
            return None
    return (method, arguments,
            tuple([(credential.certificate.ref.qualified,
                    credential.certificate.signature)
                   for credential in presented]))


class DecisionCache:
    """Authorization grants by :func:`decision_key`, with a CRR-string
    reverse index for eviction."""

    __slots__ = ("_grants", "_by_ref")

    def __init__(self) -> None:
        self._grants: Dict[DecisionKey, Grant] = {}
        self._by_ref: Dict[str, Set[DecisionKey]] = {}

    def lookup(self, key: DecisionKey, rules: Rules) -> Optional[Grant]:
        """``(rules, granting rule, stored arguments)`` when ``key`` was
        granted against this very ``rules`` tuple, else None."""
        entry = self._grants.get(key)
        if entry is not None and entry[0] is rules:
            return entry
        return None

    def store(self, key: DecisionKey, rules: Rules,
              rule: AuthorizationRule) -> None:
        grants = self._grants
        if len(grants) >= DECISION_CACHE_MAX:
            self.clear()
        grants[key] = (rules, rule, key[1])
        by_ref = self._by_ref
        for ref_string, _signature in key[2]:
            bucket = by_ref.get(ref_string)
            if bucket is None:
                by_ref[ref_string] = {key}
            else:
                bucket.add(key)

    def evict(self, ref_string: str) -> int:
        """Drop every grant that named the credential ``ref_string``, from
        the reverse-index bucket of each credential it named; returns the
        number of grants dropped."""
        keys = self._by_ref.pop(ref_string, None)
        if not keys:
            return 0
        grants, by_ref = self._grants, self._by_ref
        for key in keys:
            grants.pop(key, None)
            for other, _signature in key[2]:
                bucket = by_ref.get(other)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del by_ref[other]
        return len(keys)

    def clear(self) -> None:
        self._grants.clear()
        self._by_ref.clear()

    def __len__(self) -> int:
        return len(self._grants)
