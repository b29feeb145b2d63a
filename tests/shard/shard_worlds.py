"""World factories only the sharded suite needs.  A worker is a separate
``repro serve`` process that imports its factory by name, so they live
in a module of their own (the ``worlds_on_path`` fixture puts this
directory on the workers' ``PYTHONPATH``), not in a test file."""

from repro.core.state import ref_from_payload
from repro.shard.worlds import graph_world_factory


def faulty_graph_factory(ctx, names):
    """The graph world plus a handler that revokes the credential it is
    handed and *then* fails — a refused op with forwards already queued."""
    world = graph_world_factory(ctx, names)

    def revoke_then_fail(payload):
        ref = ref_from_payload(payload)
        world.services[ref.service.name].revoke(ref, "half done")
        raise RuntimeError("after the revoke")

    world.handlers["revoke_then_fail"] = revoke_then_fail
    return world


def unbuildable_on_shard_one(ctx, names):
    if ctx.shard == 1:
        raise RuntimeError("this world cannot be built")
    return graph_world_factory(ctx, names)
