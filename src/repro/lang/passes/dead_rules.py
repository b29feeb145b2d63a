"""OAS008/OAS009 — duplicate and shadowed rules.

Policies evolve by accretion (the paper's management thread [1] expects
"evolving policy" deployed across many services); two failure modes of
that accretion are detectable statically:

* OAS008 (*duplicate rule*) — a rule identical to an earlier rule for
  the same target: pure noise, and a review hazard because editing one
  copy silently leaves the other in force.
* OAS009 (*shadowed rule*) — a rule whose conditions are a strict
  superset of another rule's for the same target.  Whenever the stricter
  rule fires, the laxer one fires too, so the stricter rule never grants
  anything new — usually the residue of a tightening that forgot to
  delete the old rule (which still applies, defeating the tightening).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from ...core.rules import Condition
from ..diagnostics import Diagnostic
from ..universe import PolicyUniverse

__all__ = ["run"]


def _contains_all(superset: Sequence[Condition],
                  subset: Sequence[Condition]) -> bool:
    """Multiset containment by condition equality (spans excluded)."""
    pool = list(superset)
    for condition in subset:
        try:
            pool.remove(condition)
        except ValueError:
            return False
    return True


def _grouped(universe: PolicyUniverse):
    """Rules grouped per (service, head) with head-equality keys."""
    groups = {}
    for service, target, rule in universe.activation_rules():
        key = (service, "activation", str(target), rule.target)
        groups.setdefault(key, (str(target), []))[1].append(rule)
    for service, method, rule in universe.authorization_rules():
        key = (service, "authorization", method, rule.parameters)
        groups.setdefault(key, (f"{service}:{method}()", []))[1].append(rule)
    for service, name, rule in universe.appointment_rules():
        key = (service, "appointment", name, rule.parameters)
        groups.setdefault(
            key, (f"appointment {service}:{name}", []))[1].append(rule)
    for (service, _, _, _), (subject, rules) in groups.items():
        yield service, subject, rules


def run(universe: PolicyUniverse) -> Iterator[Diagnostic]:
    for service, subject, rules in _grouped(universe):
        path = universe.file_of(service)
        shadowed: List[int] = []
        for j, rule in enumerate(rules):
            for i, earlier in enumerate(rules[:j]):
                same_size = len(rule.conditions) == len(earlier.conditions)
                if same_size and _contains_all(rule.conditions,
                                               earlier.conditions):
                    yield Diagnostic(
                        "OAS008",
                        f"rule is identical to an earlier rule for "
                        f"{subject}; delete one copy",
                        subject=subject, file=path, span=rule.origin)
                    break
            else:
                for i, other in enumerate(rules):
                    if i == j or i in shadowed:
                        continue
                    if len(rule.conditions) > len(other.conditions) \
                            and _contains_all(rule.conditions,
                                              other.conditions):
                        laxer = ", ".join(str(c) for c in other.conditions) \
                            or "true"
                        yield Diagnostic(
                            "OAS009",
                            f"conditions are a strict superset of another "
                            f"rule for {subject} (<- {laxer}); this rule "
                            f"can never grant anything that rule does not",
                            subject=subject, file=path, span=rule.origin)
                        shadowed.append(j)
                        break
