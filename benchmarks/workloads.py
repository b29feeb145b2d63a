"""Shared workload builders and result recording for the benchmark harness.

Every ``bench_*.py`` module regenerates one experiment from DESIGN.md's
index.  Experiments report two kinds of numbers:

* **wall-clock micro-benchmarks** via pytest-benchmark (the usual table);
* **experiment series** — simulated time, message counts, admin operations,
  decision quality — written as small text tables to
  ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote them.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence

from repro.core import (
    ActivationRule,
    OasisService,
    PrerequisiteRole,
    Presentation,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.events import EventBroker
from repro.net import SimClock
from repro.netd.worlds import chain

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def record_result(experiment: str, lines: Sequence[str]) -> None:
    """Write an experiment's series table to benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


class ChainWorld:
    """A chain of services: svc-i's role requires svc-(i-1)'s (Fig. 1)."""

    def __init__(self, depth: int,
                 cache_validations: bool = True,
                 store_factory: Optional[Callable[[], object]] = None
                 ) -> None:
        self.clock = SimClock()
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.depth = depth
        # ``store_factory`` hands each service its own record store (the
        # persistence benchmarks compare backends); ``None`` keeps the
        # default behaviour (OASIS_STORE_BACKEND / storeless).
        self.services: List[OasisService] = [
            OasisService(policy, self.broker, self.registry, self.clock,
                         cache_validations=cache_validations,
                         **({} if store_factory is None
                            else {"store": store_factory()}))
            for policy in chain(depth)]

    def build_session(self, user: str = "user"):
        principal = Principal(user)
        session = principal.start_session(self.services[0], "role", [user])
        rmcs = [session.root_rmc]
        for service in self.services[1:]:
            rmcs.append(session.activate(service, "role"))
        return session, rmcs


class FanoutWorld:
    """Fig. 5 fan-out: one root service, one leaf service whose role takes
    the root role as a membership dependency.

    :meth:`new_tree` activates one root credential plus ``fanout`` leaf
    credentials that all hang off it — revoking the root must collapse
    exactly that subtree.  Trees for distinct users are fully unrelated, so
    keeping many of them live measures whether per-revocation cost depends
    on the amount of unrelated live state.
    """

    def __init__(self, cache_validations: bool = True) -> None:
        self.clock = SimClock()
        self.broker = EventBroker()
        self.registry = ServiceRegistry()

        root_policy = ServicePolicy(ServiceId("dom", "fan-root"))
        root_role = root_policy.define_role("role", 1)
        root_template = RoleTemplate(root_role, (Var("u"),))
        root_policy.add_activation_rule(ActivationRule(root_template))
        self.root = OasisService(root_policy, self.broker, self.registry,
                                 self.clock,
                                 cache_validations=cache_validations)

        leaf_policy = ServicePolicy(ServiceId("dom", "fan-leaf"))
        leaf_role = leaf_policy.define_role("role", 1)
        leaf_policy.add_activation_rule(ActivationRule(
            RoleTemplate(leaf_role, (Var("u"),)),
            (PrerequisiteRole(root_template, membership=True),)))
        self.leaf = OasisService(leaf_policy, self.broker, self.registry,
                                 self.clock,
                                 cache_validations=cache_validations)
        self._users = 0

    def new_tree(self, fanout: int):
        """Issue one root RMC with ``fanout`` dependents hanging off it.

        Activates directly against the services (no Session) so building a
        wide tree stays O(fanout): each leaf activation presents just the
        shared root credential.
        """
        self._users += 1
        principal = Principal(f"user-{self._users}")
        root_rmc = self.root.activate_role(
            principal.id, "role", [principal.id.value], [])
        presentation = [Presentation(root_rmc)]
        leaves = [self.leaf.activate_role(principal.id, "role", None,
                                          presentation)
                  for _ in range(fanout)]
        return root_rmc, leaves
