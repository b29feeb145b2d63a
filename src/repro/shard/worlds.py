"""Shard-aware demo worlds: module-level factories for workers.

A worker process *rebuilds* the world locally (policies hold closures;
nothing live crosses a process boundary) from a factory named on its
command line as ``module:function`` — importable by name in the child,
which is why these live in the package rather than in a test or
benchmark file.  The contract is that of :mod:`repro.netd.worlds`: each
factory takes the node's :class:`~repro.netd.worlds.NodeContext` first
(``ctx.shard`` / ``ctx.shards`` say which partition it serves), extra
arguments arrive as strings (``--world-arg``), and it returns an object
with a ``services`` mapping and optional ``handlers``.

:class:`ShardScaleWorld` is the sharded twin of the single-process
``ScaleWorld`` in ``benchmarks/workloads.py`` — same two services, same
roles, same 60/30/10 invoke/churn/collapse traffic mix — partitioned by
session stride so each worker owns a disjoint slice of the live
sessions.  The diamond and chain worlds carry only policy (credentials
are laid down by tests through the router's trusted bulk-issue path,
with dependency edges crossing shard boundaries on purpose).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional

from ..core import (ActivationRule, AuthorizationRule, PrerequisiteRole,
                    Presentation, PrincipalId, Role, RoleTemplate,
                    ServiceId, ServicePolicy, Var)
from ..core.access_log import AccessLog
from ..db import Database
from ..netd.worlds import NodeContext

__all__ = [
    "scale_policies",
    "ShardScaleWorld",
    "scale_world_factory",
    "graph_world_factory",
]


def scale_policies() -> Dict[str, Any]:
    """Fresh policy objects for the scale world (shared with its
    single-process twin so differential tests compare like with like):
    ``login`` defines the parameterless-prerequisite ``root`` role,
    ``resource`` defines the ``leaf`` role requiring root membership and
    guards a ``use`` method on it."""
    login_policy = ServicePolicy(ServiceId("scale", "login"))
    root_role = login_policy.define_role("root", 1)
    root_template = RoleTemplate(root_role, (Var("u"),))
    login_policy.add_activation_rule(ActivationRule(root_template))

    resource_policy = ServicePolicy(ServiceId("scale", "resource"))
    leaf_role = resource_policy.define_role("leaf", 1)
    leaf_template = RoleTemplate(leaf_role, (Var("u"),))
    resource_policy.add_activation_rule(ActivationRule(
        leaf_template,
        (PrerequisiteRole(root_template, membership=True),)))
    resource_policy.add_authorization_rule(AuthorizationRule(
        "use", (Var("u"),), (PrerequisiteRole(leaf_template),)))
    return {
        "login": login_policy,
        "resource": resource_policy,
        "root_role": root_role,
        "leaf_role": leaf_role,
    }


class ShardScaleWorld:
    """One worker's slice of the million-principal world.

    Handlers:

    * ``build`` — ``{"principals": N, "live": M}``: issue the worker's
      stride of root (and live leaf) credentials through the bulk APIs,
      keeping the client-side RMCs locally; returns slice counts.
    * ``traffic`` — ``{"rounds": R, "inner": K}``: run ``R`` timed
      rounds of ``K`` mixed ops (60% invoke / 30% leaf churn / 10% root
      collapse) over the local live sessions; returns wall/CPU seconds
      and per-round per-op microseconds, which the harness merges across
      workers.
    * ``live_count`` / ``state`` — accounting for differential checks.
    """

    CHUNK = 50_000

    def __init__(self, ctx: NodeContext,
                 access_log_capacity: Optional[int] = 10_000) -> None:
        self.ctx = ctx
        policies = scale_policies()
        self.root_role = policies["root_role"]
        self.leaf_role = policies["leaf_role"]
        self.db = Database("scale-db")
        self.db.create_table("accounts", ["principal", "tier"])
        self.login = ctx.service(
            policies["login"],
            access_log=AccessLog(capacity=access_log_capacity))
        self.resource = ctx.service(
            policies["resource"], databases={"main": self.db},
            access_log=AccessLog(capacity=access_log_capacity))
        self.resource.register_method("use", lambda user: f"ok[{user}]")
        self.services = {"login": self.login, "resource": self.resource}
        self.handlers = {
            "build": self.build,
            "traffic": self.traffic,
            "live_count": lambda _payload: self.live_credential_count(),
            "state": lambda _payload: self.state(),
        }
        # Client-side state for this worker's live sessions: parallel
        # lists, position i is local live session i.
        self.session_indices: List[int] = []
        self.session_principals: List[PrincipalId] = []
        self.session_roots: List[Any] = []
        self.session_leaves: List[Any] = []
        self._cursor = 0

    # -- construction -------------------------------------------------------
    def _slice(self, total: int) -> range:
        """This worker's stride of the global index space."""
        return range(self.ctx.shard, total, self.ctx.shards)

    def build(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        principals = int(payload["principals"])
        live = int(payload.get("live", 0))
        indices = list(self._slice(principals))
        self.db.put_many("accounts", [
            {"principal": f"p{index}", "tier": index % 4}
            for index in indices])
        for start in range(0, len(indices), self.CHUNK):
            chunk = indices[start:start + self.CHUNK]
            ids = [PrincipalId(f"p{index}") for index in chunk]
            roots = self.login.issue_rmcs_bulk([
                (pid, Role(self.root_role, (pid.value,)), (),
                 f"s{index}")
                for index, pid in zip(chunk, ids)])
            live_pairs = [(index, pid, root) for (index, pid), root
                          in zip(zip(chunk, ids), roots) if index < live]
            if live_pairs:
                leaves = self.resource.issue_rmcs_bulk([
                    (pid, Role(self.leaf_role, (pid.value,)),
                     (root.ref,), f"s{index}")
                    for index, pid, root in live_pairs])
                for (index, pid, root), leaf in zip(live_pairs, leaves):
                    self.session_indices.append(index)
                    self.session_principals.append(pid)
                    self.session_roots.append(root)
                    self.session_leaves.append(leaf)
        return {"principals": len(indices),
                "live": len(self.session_indices)}

    # -- mixed traffic ------------------------------------------------------
    def invoke_op(self) -> None:
        index = self._cursor % len(self.session_principals)
        self._cursor += 1
        self.resource.invoke(
            self.session_principals[index], "use",
            [self.session_principals[index].value],
            credentials=[Presentation(self.session_leaves[index])])

    def churn_op(self) -> None:
        index = self._cursor % len(self.session_principals)
        self._cursor += 1
        pid = self.session_principals[index]
        self.resource.revoke(self.session_leaves[index].ref, "churn")
        self.session_leaves[index] = self.resource.activate_role(
            pid, "leaf", None, [Presentation(self.session_roots[index])],
            session_id=f"s{self.session_indices[index]}")

    def root_revoke_op(self) -> None:
        index = self._cursor % len(self.session_principals)
        self._cursor += 1
        pid = self.session_principals[index]
        session = f"s{self.session_indices[index]}"
        self.login.revoke(self.session_roots[index].ref, "logout")
        root = self.login.issue_rmcs_bulk(
            [(pid, Role(self.root_role, (pid.value,)), (), session)])[0]
        leaf = self.resource.issue_rmcs_bulk(
            [(pid, Role(self.leaf_role, (pid.value,)), (root.ref,),
              session)])[0]
        self.session_roots[index] = root
        self.session_leaves[index] = leaf

    def mixed_op(self) -> None:
        slot = self._cursor % 10
        if slot < 6:
            self.invoke_op()
        elif slot < 9:
            self.churn_op()
        else:
            self.root_revoke_op()

    def traffic(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        if not self.session_principals:
            raise RuntimeError("traffic before build (or empty live slice)")
        rounds = int(payload.get("rounds", 3))
        inner = int(payload.get("inner", 100))
        mixed_op = self.mixed_op
        round_us: List[float] = []
        wall_started = time.perf_counter()
        cpu_started = time.process_time()
        for _ in range(rounds):
            started = time.perf_counter()
            for _ in range(inner):
                mixed_op()
            elapsed = time.perf_counter() - started
            round_us.append(elapsed / inner * 1e6)
        return {
            "ops": rounds * inner,
            "wall_s": time.perf_counter() - wall_started,
            "cpu_s": time.process_time() - cpu_started,
            "round_us": round_us,
        }

    # -- accounting ---------------------------------------------------------
    def live_credential_count(self) -> int:
        return (len(self.login.active_credentials())
                + len(self.resource.active_credentials()))

    def state(self) -> Dict[str, Any]:
        """Observable per-session state for differential comparison."""
        return {
            "live": self.live_credential_count(),
            "sessions": {
                f"s{index}": {
                    "root_active": self.login.is_active(root.ref),
                    "leaf_active": self.resource.is_active(leaf.ref),
                }
                for index, root, leaf in zip(self.session_indices,
                                             self.session_roots,
                                             self.session_leaves)
            },
        }


def scale_world_factory(ctx: NodeContext) -> ShardScaleWorld:
    return ShardScaleWorld(ctx)


class GraphShardWorld:
    """Policy world for dependency-graph tests: ``names`` services in
    one domain, each defining a unary ``role`` and a ``ping`` method
    guarded by it; credentials and their (possibly cross-shard)
    dependency edges are laid down by the tests through the router's
    trusted bulk-issue path."""

    def __init__(self, ctx: NodeContext, names: List[str]) -> None:
        self.ctx = ctx
        self.services = {}
        for name in names:
            policy = ServicePolicy(ServiceId("graph", name))
            role = policy.define_role("role", 1)
            template = RoleTemplate(role, (Var("u"),))
            policy.add_activation_rule(ActivationRule(template))
            policy.add_authorization_rule(AuthorizationRule(
                "ping", (Var("u"),), (PrerequisiteRole(template),)))
            service = ctx.service(
                policy, access_log=AccessLog(capacity=10_000))
            service.register_method("ping", lambda u: f"pong[{u}]")
            self.services[name] = service
        self.handlers: Dict[str, Any] = {}


def graph_world_factory(ctx: NodeContext, names: str) -> GraphShardWorld:
    """``names``: the service names, comma-joined (one ``--world-arg``)."""
    return GraphShardWorld(ctx, names.split(","))
