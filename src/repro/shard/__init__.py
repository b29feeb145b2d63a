"""Horizontal scale-out: sharded multi-worker OASIS (docs/scaling.md).

Partitions credential records and live sessions across N worker
processes by ``CredentialRef`` hash and carries revocation cascades
across shard boundaries as coalesced event batches, preserving the
single-process observable semantics (same grants, same cascade
completeness, same per-service audit streams).  The processes are
:mod:`repro.netd` nodes — there is one multi-process substrate — and
this package adds only what sharding needs.  See docs/scaling.md.

Layers:

* :mod:`repro.shard.partition` — stable hashing, ownership, and the
  rejection-sampling serial allocator that makes issuance agree with
  ownership.
* :mod:`repro.shard.worker` — :class:`ShardWorker`, the
  :class:`~repro.netd.server.OasisServer` a ``repro serve --shard I/N``
  process runs, and its :class:`Outbox`, the broker tap that queues
  every event the shard mints for the others.
* :mod:`repro.shard.router` — the coordinator (:class:`ShardRouter`): a
  :class:`~repro.netd.deploy.Supervisor` of workers that hands each
  worker's minted batches to every other worker, plus metric and trace
  merging.

No shard keeps a list of who depends on what it owns: every shard hears
every other shard's revocations, and the reverse-dependency index of its
own services — rebuilt from the store on restart — decides.

A shard's world is an ordinary :mod:`repro.netd.worlds` factory: the
node's context says which stride it serves (``ctx.shard``/``ctx.shards``),
as :class:`~repro.netd.worlds.ScaleWorld` shows.
"""

from .partition import (ShardedRefAllocator, shard_of_key, shard_of_ref,
                        stable_hash)
from .router import ShardRouter
from .worker import Outbox, ShardWorker

__all__ = [
    "Outbox",
    "ShardedRefAllocator",
    "shard_of_key",
    "shard_of_ref",
    "stable_hash",
    "ShardRouter",
    "ShardWorker",
]
