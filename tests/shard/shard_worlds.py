"""World factories only the sharded suite needs.  A worker is a separate
``repro serve`` process that imports its factory by name, so they live
in a module of their own (the autouse ``worlds_on_path`` fixture puts
this directory on the workers' ``PYTHONPATH``), not in a test file."""

from repro.core import (ActivationRule, AuthorizationRule, PrerequisiteRole,
                        RoleTemplate, ServiceId, ServicePolicy, Var)
from repro.core.access_log import AccessLog
from repro.core.state import ref_from_payload
from repro.events import CREDENTIAL_REVOKED
from repro.netd.worlds import World


def graph_world_factory(ctx, names):
    """Policy world for dependency-graph tests: one ``graph`` service per
    comma-joined name in ``names``, each defining a unary ``role`` and a
    ``ping`` method guarded by it.  Credentials and their (possibly
    cross-shard) dependency edges are laid down by the tests through the
    router's trusted bulk-issue path."""
    services = {}
    for name in names.split(","):
        policy = ServicePolicy(ServiceId("graph", name))
        template = RoleTemplate(policy.define_role("role", 1), (Var("u"),))
        policy.add_activation_rule(ActivationRule(template))
        policy.add_authorization_rule(AuthorizationRule(
            "ping", (Var("u"),), (PrerequisiteRole(template),)))
        service = ctx.service(policy, access_log=AccessLog(capacity=10_000))
        service.register_method("ping", lambda u: f"pong[{u}]")
        services[name] = service
    return World(services)


def faulty_graph_factory(ctx, names):
    """The graph world plus two refused ops with events already minted:
    ``revoke_then_fail`` revokes the credential it is handed and *then*
    fails; ``revoke_past_a_failing_listener`` revokes it while a broker
    subscriber that raises listens, so the failure comes out of the
    revocation's own delivery."""
    world = graph_world_factory(ctx, names)

    def revoke_then_fail(payload):
        ref = ref_from_payload(payload)
        world.services[ref.service.name].revoke(ref, "half done")
        raise RuntimeError("after the revoke")

    def fail(event):
        raise RuntimeError("a listener failed")

    def revoke_past_a_failing_listener(payload):
        ref = ref_from_payload(payload)
        listener = ctx.broker.subscribe(CREDENTIAL_REVOKED, fail)
        try:
            world.services[ref.service.name].revoke(ref, "listener fails")
        finally:
            listener.cancel()

    world.handlers["revoke_then_fail"] = revoke_then_fail
    world.handlers["revoke_past_a_failing_listener"] = \
        revoke_past_a_failing_listener
    return world


def unbuildable_on_shard_one(ctx, names):
    if ctx.shard == 1:
        raise RuntimeError("this world cannot be built")
    return graph_world_factory(ctx, names)
