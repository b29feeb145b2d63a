"""World factories for the traced run's served nodes.

A served node boots from ``module:factory``; in the traced run the
benchmark points it here instead of at ``repro.netd.worlds``.  Each
factory installs the span shim in that process, delegates to the stock
factory, and adds one ``handlers`` entry through which the runner pulls
the node's spans over the existing ``handler`` RPC — ``src/`` is not
touched.  The runner puts this directory on the nodes' ``PYTHONPATH``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.netd import worlds

import shim

#: ``handler`` RPC name the runner pulls spans through.
SPANS_HANDLER = "e2e_spans"


def _traced(factory: Callable[..., worlds.World]
            ) -> Callable[..., worlds.World]:
    def build(ctx: worlds.NodeContext, *args: Any) -> worlds.World:
        recorder = shim.install(ctx.node)
        world = factory(ctx, *args)
        handlers = dict(world.handlers)
        handlers[SPANS_HANDLER] = recorder.export
        return worlds.World(world.services, handlers)
    return build


bench_world = _traced(worlds.bench_world)
ehr_front = _traced(worlds.ehr_front)
ehr_records = _traced(worlds.ehr_records)
ehr_national = _traced(worlds.ehr_national)
