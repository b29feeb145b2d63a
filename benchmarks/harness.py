#!/usr/bin/env python
"""Machine-readable benchmark harness for the core evaluation fast path.

Runs the activation / invocation / revocation-cascade microbenchmarks plus
one representative workload per paper figure (FIG1-FIG5) and writes
``BENCH_CORE.json`` at the repository root: ops/sec and p50/p99 latency per
workload, plus the criteria under ``comparisons``.  Before/after numbers
across commits come from ``benchmarks/e2e/compare.py`` (parent's
``result.json`` vs the change's), not from old code kept beside the new.

Standalone — no pytest required::

    PYTHONPATH=src python benchmarks/harness.py [--quick] [--full] \
        [--output PATH]

``--quick`` shrinks round counts for CI smoke runs; numbers are noisier but
the file shape is identical.  ``--full`` additionally runs the opt-in
``scale_1m_principals`` tier (a bulk-built million-principal world).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(_HERE)
for _path in (os.path.join(_REPO, "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core import (  # noqa: E402
    CredentialIndex,
    EvaluationContext,
    Presentation,
    PresentedCredential,
    Principal,
    PrincipalId,
    Role,
    RoleMembershipCertificate,
    RoleName,
    RuleEngine,
    ServiceId,
    ServiceRegistry,
)
from repro.core.credentials import CredentialRef  # noqa: E402
from repro.crypto import ServiceSecret  # noqa: E402
from repro.domains import Deployment  # noqa: E402
from repro.events import EventBroker  # noqa: E402
from repro.net import SimClock  # noqa: E402
from repro.netd.worlds import NodeContext, ScaleWorld  # noqa: E402
from repro.scenarios import build_hospital  # noqa: E402

from workloads import ChainWorld, FanoutWorld  # noqa: E402

DEFAULT_OUTPUT = os.path.join(_REPO, "BENCH_CORE.json")
#: FIG5 depth-16 cascade: indexed dispatch + batched cascades vs the
#: seed baseline recorded in BENCH_CORE.json before the optimization.
CASCADE_SPEEDUP_CRITERION = 5.0
#: ``cascade_fig5_revoke_depth16`` as recorded by this harness before
#: indexed dispatch / batched cascades existed.
SEED_CASCADE_BASELINE_OPS = 147.35
#: FIG5 independence: per-revocation cost with 1000 unrelated live trees
#: may be at most this many times the cost with 100 (ideal ratio: 1.0).
INDEPENDENCE_CRITERION = 3.0
CHAIN_DEPTH = 16
#: Bulk world construction (issue_rmcs_bulk / put_many) vs the per-call
#: activate_role path, same resulting world: the median of this many
#: alternating pairs' ratios.
BULK_BUILD_SPEEDUP_CRITERION = 2.0
BULK_BUILD_PAIRS = 3
#: Persistence: activations over the SQLite write-behind backend may cost
#: at most this many times the storeless in-memory path (write-behind
#: buffering is what keeps the disk off the hot path).
PERSIST_ACTIVATION_OVERHEAD_CRITERION = 1.25
#: Sharded scale-out (repro.shard): aggregate mixed-traffic ops/sec at 4
#: workers must be at least this multiple of the 1-worker run through the
#: same machinery.  The aggregate is wall-clock when the host has a core
#: per worker; on smaller hosts it is the CPU-time-normalized capacity
#: aggregate (sum of each worker's ops per CPU-second — what dedicated
#: cores would deliver), with the mode recorded in the report.
SHARD_SCALING_CRITERION = 2.5
#: Worker counts the sharded tier measures by default.
SHARD_WORKER_COUNTS = (1, 2, 4)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over a sorted sample."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def measure(fn: Callable[..., object], *, rounds: int, inner: int,
            setup: Optional[Callable[[], object]] = None) -> Dict[str, float]:
    """Time ``fn`` over ``rounds`` rounds of ``inner`` calls each.

    With ``setup``, each round first builds fresh (untimed) state which is
    passed to ``fn`` — used for destructive operations such as revocation.
    Returns ops/sec over all timed work plus per-call p50/p99 latency
    (each round contributes its mean per-call latency as one sample).
    """
    perf_counter = time.perf_counter
    latencies: List[float] = []
    total_time = 0.0
    for _ in range(rounds):
        state = setup() if setup is not None else None
        if state is None:
            start = perf_counter()
            for _ in range(inner):
                fn()
            elapsed = perf_counter() - start
        else:
            start = perf_counter()
            for _ in range(inner):
                fn(state)
            elapsed = perf_counter() - start
        total_time += elapsed
        latencies.append(elapsed / inner)
    latencies.sort()
    total_ops = rounds * inner
    return {
        "ops_per_sec": round(total_ops / total_time, 2) if total_time else 0.0,
        "p50_us": round(_percentile(latencies, 0.50) * 1e6, 3),
        "p99_us": round(_percentile(latencies, 0.99) * 1e6, 3),
        "rounds": rounds,
        "ops_per_round": inner,
    }


# -- workload builders -------------------------------------------------------

def bench_fig1_activation(results: Dict[str, dict], *, rounds: int,
                          inner: int) -> None:
    """FIG1 depth-16 chain.

    Engine-level rule matching (credential validation already done), all 17
    chain RMCs presented; the engine's credential index must find the one
    matching prerequisite without a linear scan.  The index is built once,
    as the service builds it once per request for every rule it tries.
    """
    world = ChainWorld(CHAIN_DEPTH)
    session, rmcs = world.build_session()
    presented = tuple(PresentedCredential(rmc) for rmc in rmcs)
    index = CredentialIndex(presented)
    deepest = world.services[-1]
    rule = deepest.policy.activation_rules_for("role")[0]
    engine = RuleEngine(EvaluationContext())

    assert engine.match_activation(rule, None, presented,
                                   index=index) is not None

    results["activation_engine_fig1_depth16"] = dict(
        description=(f"engine-level activation match, depth-{CHAIN_DEPTH} "
                     f"prerequisite chain, {len(presented)} RMCs presented"),
        **measure(lambda: engine.match_activation(rule, None, presented,
                                                  index=index),
                  rounds=rounds, inner=inner))

    # End-to-end service activation (validation + match + RMC issue).
    credentials = [Presentation(rmc) for rmc in rmcs]
    principal_id = session.principal.id
    results["activation_service_fig1_depth16"] = dict(
        description=(f"end-to-end activate_role at the deepest service of "
                     f"the depth-{CHAIN_DEPTH} chain"),
        **measure(lambda: deepest.activate_role(principal_id, "role", None,
                                                credentials),
                  rounds=rounds, inner=inner))


def bench_fig2_entry_and_invocation(results: Dict[str, dict], *, rounds: int,
                                    inner: int) -> None:
    """FIG2: role entry and warm guarded invocation at the hospital."""
    world = build_hospital(Deployment(use_network=False))
    doctor = world.admit_doctor("d1", "p1")
    session = doctor.start_session(world.login, "logged_in_user", ["d1"])
    appointment = doctor.appointments()[0]
    entry_credentials = [Presentation(session.root_rmc),
                         Presentation(appointment, holder="d1")]
    treating = session.activate(world.records, "treating_doctor",
                                use_appointments=[appointment])
    use_credentials = [Presentation(session.root_rmc),
                       Presentation(treating)]

    results["activation_service_fig2_role_entry"] = dict(
        description=("treating_doctor entry: prerequisite RMC + appointment "
                     "+ database constraint, RMC issued per op"),
        **measure(lambda: world.records.activate_role(
            doctor.id, "treating_doctor", None, entry_credentials),
            rounds=rounds, inner=inner))

    world.records.invoke(doctor.id, "read_record", ["p1"],
                         credentials=use_credentials)  # warm caches
    results["invocation_fig2_read_record_warm"] = dict(
        description=("guarded read_record with warm validation and "
                     "signature caches"),
        **measure(lambda: world.records.invoke(
            doctor.id, "read_record", ["p1"], credentials=use_credentials),
            rounds=rounds, inner=inner))


def bench_fig3_cross_domain(results: Dict[str, dict], *, rounds: int,
                            inner: int) -> None:
    """FIG3: warm cross-domain request_EHR through the gateway."""
    from bench_fig3_cross_domain import build_world, gateway_call
    deployment, national_svc, gateways = build_world(1)
    gateway, gw_session, rmc, doctor_id, patient_id = gateways[0]
    gateway_call(national_svc, gateway, gw_session, rmc, doctor_id,
                 patient_id)  # warm the cache
    results["invocation_fig3_cross_domain_warm"] = dict(
        description=("cross-domain request_EHR with forwarded "
                     "treating_doctor RMC, warm ECR cache"),
        **measure(lambda: gateway_call(national_svc, gateway, gw_session,
                                       rmc, doctor_id, patient_id),
                  rounds=rounds, inner=inner))


def bench_fig4_certificates(results: Dict[str, dict], *, rounds: int,
                            inner: int) -> None:
    """FIG4: the certificate machinery itself (HMAC sign / verify)."""
    svc = ServiceId("hospital", "records")
    secret = ServiceSecret.generate()
    role = Role(RoleName(svc, "treating_doctor"), ("d1", "p1"))
    ref = CredentialRef(svc, 1)
    alice = PrincipalId("alice")
    rmc = RoleMembershipCertificate.issue(secret, svc, role, ref, alice, 0.0)

    results["crypto_fig4_rmc_sign"] = dict(
        description="issue (sign) one RMC",
        **measure(lambda: RoleMembershipCertificate.issue(
            secret, svc, role, ref, alice, 0.0),
            rounds=rounds, inner=inner))
    results["crypto_fig4_rmc_verify"] = dict(
        description="verify one RMC signature",
        **measure(lambda: rmc.verify(secret, alice),
                  rounds=rounds, inner=inner))


def bench_fig5_cascade(results: Dict[str, dict],
                       *, rounds: int) -> Dict[str, object]:
    """FIG5: revoking the session root collapses the depth-16 chain.

    Compared against the cascade rate recorded before indexed dispatch
    and batched cascades existed (``SEED_CASCADE_BASELINE_OPS``).
    """
    world = ChainWorld(CHAIN_DEPTH)
    counter = [0]

    def setup() -> RoleMembershipCertificate:
        counter[0] += 1
        session, _ = world.build_session(user=f"user-{counter[0]}")
        return session.root_rmc

    def revoke(root: RoleMembershipCertificate) -> None:
        world.services[0].revoke(root.ref, "logout")

    results["cascade_fig5_revoke_depth16"] = dict(
        description=(f"revoke the session root of a depth-{CHAIN_DEPTH} "
                     f"chain; batched cascade over indexed dispatch "
                     f"collapses every dependent role (session rebuilt per "
                     f"op, untimed)"),
        **measure(revoke, rounds=rounds, inner=1, setup=setup))

    opt_ops = results["cascade_fig5_revoke_depth16"]["ops_per_sec"]
    speedup = round(opt_ops / SEED_CASCADE_BASELINE_OPS, 2)
    return {
        "workload": "cascade_fig5_revoke_depth16",
        "optimized_ops_per_sec": opt_ops,
        "recorded_seed_baseline_ops_per_sec": SEED_CASCADE_BASELINE_OPS,
        "speedup": speedup,
        "criterion": (f">= {CASCADE_SPEEDUP_CRITERION}x vs recorded "
                      f"seed baseline"),
        "criterion_met": speedup >= CASCADE_SPEEDUP_CRITERION,
    }


def bench_fig5_fanout(results: Dict[str, dict],
                      *, quick: bool) -> Dict[str, object]:
    """FIG5 fan-out: wide subtrees, and independence from unrelated state.

    ``cascade_fanout_K``: one revocation collapses a subtree of K+1
    credentials (K dependents on one root) — throughput is reported per
    *collapsed credential* so widths are comparable.

    ``cascade_unrelated_K``: K unrelated two-credential trees stay live;
    each op revokes a fresh tree's root.  With indexed dispatch and the
    reverse dependency index, per-revocation cost must not grow with K —
    the independence comparison checks the 100-vs-1000 cost ratio.
    """
    for fanout, rounds in ((100, 3 if quick else 10),
                           (1000, 2 if quick else 5)):
        world = FanoutWorld()

        def setup(world=world, fanout=fanout):
            root_rmc, _ = world.new_tree(fanout)
            return root_rmc

        def revoke(root, world=world):
            world.root.revoke(root.ref, "logout")

        timing = measure(revoke, rounds=rounds, inner=1, setup=setup)
        # One op collapses fanout+1 credentials; report both rates.
        timing["credentials_per_sec"] = round(
            timing["ops_per_sec"] * (fanout + 1), 2)
        results[f"cascade_fanout_{fanout}"] = dict(
            description=(f"revoke a root with {fanout} dependents; one "
                         f"batched cascade collapses all {fanout + 1} "
                         f"credentials (tree rebuilt per op, untimed)"),
            **timing)

    unrelated_ops: Dict[int, float] = {}
    for standing, rounds in ((100, 5 if quick else 20),
                             (1000, 5 if quick else 20)):
        world = FanoutWorld()
        for _ in range(standing):
            world.new_tree(1)  # unrelated live state, never revoked

        def setup(world=world):
            root_rmc, _ = world.new_tree(1)
            return root_rmc

        def revoke(root, world=world):
            world.root.revoke(root.ref, "logout")

        results[f"cascade_unrelated_{standing}"] = dict(
            description=(f"revoke a fresh 2-credential tree while "
                         f"{standing} unrelated trees stay live — cost "
                         f"must not depend on unrelated state"),
            **measure(revoke, rounds=rounds, inner=1, setup=setup))
        unrelated_ops[standing] = \
            results[f"cascade_unrelated_{standing}"]["ops_per_sec"]

    ratio = (round(unrelated_ops[100] / unrelated_ops[1000], 2)
             if unrelated_ops[1000] else math.inf)
    return {
        "workload": "cascade_unrelated_100_vs_1000",
        "ops_per_sec_100_unrelated": unrelated_ops[100],
        "ops_per_sec_1000_unrelated": unrelated_ops[1000],
        "cost_ratio_1000_vs_100": ratio,
        "criterion": f"<= {INDEPENDENCE_CRITERION}x",
        "criterion_met": ratio <= INDEPENDENCE_CRITERION,
    }


def bench_obs_enabled(results: Dict[str, dict],
                      *, quick: bool) -> Dict[str, object]:
    """The enabled observability pipeline's cost on the FIG1 engine match
    and the FIG5 depth-16 cascade (informational; no criterion).

    The disabled pipeline has no separate code path to compare against:
    every operation has one body whose ``obs is None`` guards are part of
    the ordinary workloads' numbers.
    """
    from repro.obs import runtime as obs_runtime
    assert obs_runtime.pipeline() is None

    engine_rounds, inner = (5, 300) if quick else (8, 1000)
    cascade_rounds = 6 if quick else 8
    counter = [0]
    with obs_runtime.observed():
        world = ChainWorld(CHAIN_DEPTH)
        _session, rmcs = world.build_session(user="obs-enabled")
        presented = tuple(PresentedCredential(rmc) for rmc in rmcs)
        index = CredentialIndex(presented)
        rule = world.services[-1].policy.activation_rules_for("role")[0]
        engine = RuleEngine(EvaluationContext())

        def setup() -> RoleMembershipCertificate:
            counter[0] += 1
            session, _ = world.build_session(user=f"obs-user-{counter[0]}")
            return session.root_rmc

        def revoke(root: RoleMembershipCertificate) -> None:
            world.services[0].revoke(root.ref, "logout")

        engine_timing = measure(
            lambda: engine.match_activation(rule, None, presented,
                                            index=index),
            rounds=engine_rounds, inner=inner)
        cascade_timing = measure(revoke, rounds=cascade_rounds, inner=1,
                                 setup=setup)
    results["obs_enabled_activation_engine_fig1_depth16"] = dict(
        description=("FIG1 engine activation with the observability "
                     "pipeline ENABLED (spans, metrics and explained "
                     "access records live); informational"),
        **engine_timing)
    results["obs_enabled_cascade_fig5_revoke_depth16"] = dict(
        description=("FIG5 depth-16 cascade with the pipeline ENABLED; "
                     "informational"),
        **cascade_timing)

    return {
        "enabled_path_informational": {
            "activation_engine_fig1_depth16_ops_per_sec":
                engine_timing["ops_per_sec"],
            "cascade_fig5_revoke_depth16_ops_per_sec":
                cascade_timing["ops_per_sec"],
        },
    }


def _traced_build_bytes(builder: Callable[[], object]) -> int:
    """Heap bytes retained by ``builder()``'s result, via tracemalloc.

    Only allocations made inside the call are counted (tracing starts
    right before it), and a collection runs on both sides so transient
    garbage does not inflate the figure.  The built state is kept alive
    until after the final reading.
    """
    gc.collect()
    tracemalloc.start()
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    state = builder()
    gc.collect()
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del state
    gc.collect()
    return after - before


def bench_scale(results: Dict[str, dict], *, quick: bool,
                full: bool) -> Dict[str, object]:
    """Million-principal single-node scale tier.

    Two measurements:

    * ``scale_bulk_build`` comparison — constructing the same ScaleWorld
      through the bulk APIs (``issue_rmcs_bulk`` / ``put_many``) vs the
      per-call ``activate_role`` path, as the median ratio of
      ``BULK_BUILD_PAIRS`` alternating pairs of builds.
    * ``scale_100k_principals`` (always) and ``scale_1m_principals``
      (``--full`` only) workloads — mixed traffic (60% guarded invokes,
      30% leaf churn, 10% cross-service root revocation cascades) over a
      bulk-built world, with the world's tracemalloc bytes per live
      credential (CI gates it against the committed figure) and build
      time recorded alongside ops/sec and latency.
    """
    # -- bulk vs per-call world construction -----------------------------
    # Alternating pairs, gated on the median ratio: a single pair's ratio
    # flips across the bound on a loaded 2-CPU host.
    build_principals, build_live = (20_000, 2_000)
    bulk_runs: List[float] = []
    percall_runs: List[float] = []
    for _pair in range(BULK_BUILD_PAIRS):
        for runs, build in ((bulk_runs, ScaleWorld.build_bulk),
                            (percall_runs, ScaleWorld.build_percall)):
            world = _scale_world()
            gc.collect()
            start = time.perf_counter()
            build(world, build_principals, build_live)
            runs.append(time.perf_counter() - start)
            del world
    speedups = [round(percall / bulk, 2)
                for bulk, percall in zip(bulk_runs, percall_runs)]
    build_speedup = statistics.median(speedups)
    bulk_cmp: Dict[str, object] = {
        "workload": "scale_bulk_world_build",
        "principals": build_principals,
        "live_sessions": build_live,
        "bulk_build_seconds": round(statistics.median(bulk_runs), 3),
        "percall_build_seconds": round(statistics.median(percall_runs), 3),
        "speedups": speedups,
        "speedup": build_speedup,
        "criterion": f">= {BULK_BUILD_SPEEDUP_CRITERION}x",
        "criterion_met": build_speedup >= BULK_BUILD_SPEEDUP_CRITERION,
    }

    # -- scale workload tiers --------------------------------------------
    tiers = [("scale_100k_principals", 100_000, 10_000)]
    if full:
        tiers.append(("scale_1m_principals", 1_000_000, 100_000))
    rounds, inner = (3, 100) if quick else (5, 300)
    for name, principals, live in tiers:
        # Memory pass: the world is built once under tracemalloc (tracing
        # slows construction, so build time is taken from a separate
        # untraced build below).
        gc.collect()
        world_bytes = _traced_build_bytes(
            lambda p=principals, lv=live: _built_scale_world(p, lv))
        world = _scale_world()
        start = time.perf_counter()
        world.build_bulk(principals, live)
        build_seconds = time.perf_counter() - start
        live_credentials = world.live_credential_count()
        timing = measure(world.mixed_op, rounds=rounds, inner=inner)
        results[name] = dict(
            description=(f"{principals:,}-principal world "
                         f"({live:,} live resource sessions), bulk-built; "
                         f"mixed traffic: 60% guarded invocations, 30% "
                         f"leaf churn, 10% root revocation cascades"),
            principals=principals,
            live_sessions=live,
            live_credentials=live_credentials,
            build_seconds_bulk=round(build_seconds, 3),
            bytes_per_live_credential=round(
                world_bytes / live_credentials, 1),
            **timing)
        if name == "scale_1m_principals":
            bulk_cmp["bulk_build_1m_seconds"] = round(build_seconds, 3)
            bulk_cmp["bulk_build_1m_credentials"] = live_credentials
        del world
        gc.collect()
    return bulk_cmp


def _scale_world() -> ScaleWorld:
    """The unsharded scale world, in this process on a simulated clock."""
    return ScaleWorld(NodeContext("scale", EventBroker(), ServiceRegistry(),
                                  None, clock=SimClock()))


def _built_scale_world(principals: int, live: int) -> ScaleWorld:
    world = _scale_world()
    world.build_bulk(principals, live)
    return world


def bench_shard_scaling(results: Dict[str, dict], *, quick: bool,
                        full: bool,
                        worker_counts: Tuple[int, ...] = SHARD_WORKER_COUNTS
                        ) -> Dict[str, object]:
    """Multi-worker scale-out tier (repro.shard, ROADMAP item 3).

    For each worker count, a :class:`~repro.shard.ShardRouter` boots N
    worker processes (``repro serve --shard I/N`` nodes under its
    ``Supervisor``, reached over loopback TCP) hosting the ScaleWorld
    (each worker's context gives it a stride of the sessions, so every
    worker owns a disjoint live slice), bulk-builds the world
    concurrently, then runs the traffic concurrently — *inside* each
    worker, through a world handler, so no op crosses the transport —
    on all workers.  Two aggregates are recorded per run:

    * ``ops_per_sec_wall`` — total ops / coordinator wall time: the true
      concurrent throughput *on this host*.  It includes settling the
      traffic's revocations across shards: each worker's reply carries
      the events it minted, and the router delivers them to every other
      worker before the call returns;
    * ``ops_per_sec_capacity`` — sum over workers of ops per worker
      CPU-second, timed inside the handler (so without that delivery):
      the throughput N dedicated cores would deliver, which
      is the honest scaling figure when the host has fewer cores than
      workers (time-slicing caps wall-clock speedup at the core count).

    The headline ``ops_per_sec`` (and the ``shard_scaling`` criterion)
    uses wall when ``cpu_count >= workers``, capacity otherwise; the
    chosen ``aggregate_mode`` and the host ``cpu_count`` are recorded so
    the number is reproducible and auditable.
    """
    from repro.shard import ShardRouter

    cpu_count = os.cpu_count() or 1
    counts = tuple(sorted({1, *worker_counts}))
    tiers = [("scale_100k_principals_sharded", 100_000, 10_000)]
    if full:
        tiers.append(("scale_1m_principals_sharded", 1_000_000, 100_000))
    rounds, inner = (3, 100) if quick else (5, 300)
    shard_cmp: Dict[str, object] = {}
    for name, principals, live in tiers:
        by_workers: Dict[str, Dict[str, object]] = {}
        for workers in counts:
            gc.collect()
            with ShardRouter(workers, ScaleWorld) as router:
                start = time.perf_counter()
                router.call_handler_all("build", {
                    shard: {"principals": principals, "live": live}
                    for shard in range(workers)})
                build_seconds = time.perf_counter() - start
                start = time.perf_counter()
                runs = router.call_handler_all("traffic", {
                    shard: {"rounds": rounds, "inner": inner}
                    for shard in range(workers)})
                wall_seconds = time.perf_counter() - start
                live_credentials = router.live_credential_count()
            total_ops = sum(run["ops"] for run in runs.values())
            capacity = sum(run["ops"] / run["cpu_s"]
                           for run in runs.values() if run["cpu_s"] > 0)
            wall_rate = total_ops / wall_seconds if wall_seconds else 0.0
            mode = "wall" if cpu_count >= workers else "capacity"
            headline = wall_rate if mode == "wall" else capacity
            merged_us = sorted(value for run in runs.values()
                               for value in run["round_us"])
            by_workers[str(workers)] = {
                "workers": workers,
                "ops_per_sec": round(headline, 2),
                "ops_per_sec_wall": round(wall_rate, 2),
                "ops_per_sec_capacity": round(capacity, 2),
                "aggregate_mode": mode,
                "ops": total_ops,
                "p50_us": round(_percentile(merged_us, 0.50), 3),
                "p99_us": round(_percentile(merged_us, 0.99), 3),
                "build_seconds_bulk": round(build_seconds, 3),
                "live_credentials": live_credentials,
            }
        top = by_workers[str(counts[-1])]
        base = by_workers[str(counts[0])]
        # Speedup compares like with like: the metric the top run's mode
        # selected, from both runs (capacity@1 ~= wall@1 on an idle core,
        # but mixing modes would skew the ratio by the reply-wait slack).
        metric = ("ops_per_sec_wall" if top["aggregate_mode"] == "wall"
                  else "ops_per_sec_capacity")
        speedup = (round(top[metric] / base[metric], 2)
                   if base[metric] else math.inf)
        results[name] = dict(
            description=(f"{principals:,}-principal world sharded across "
                         f"worker processes by CredentialRef hash; "
                         f"concurrent mixed traffic (60% invoke, 30% leaf "
                         f"churn, 10% root cascade) per worker slice; "
                         f"headline figures are the "
                         f"{counts[-1]}-worker run"),
            principals=principals,
            live_sessions=live,
            workers=counts[-1],
            cpu_count=cpu_count,
            rounds=rounds,
            ops_per_round=inner,
            ops_per_sec=top["ops_per_sec"],
            p50_us=top["p50_us"],
            p99_us=top["p99_us"],
            aggregate_mode=top["aggregate_mode"],
            speedup_vs_1_worker=speedup,
            by_workers=by_workers,
        )
        if not shard_cmp:  # criterion rides on the first (quick) tier
            shard_cmp = {
                "workload": name,
                "workers_measured": list(counts),
                "cpu_count": cpu_count,
                "aggregate_mode": top["aggregate_mode"],
                "ops_per_sec_1_worker": base[metric],
                f"ops_per_sec_{counts[-1]}_workers": top[metric],
                "speedup": speedup,
                "criterion": (f">= {SHARD_SCALING_CRITERION}x aggregate "
                              f"ops/sec at {counts[-1]} workers vs 1 "
                              f"worker on mixed traffic"),
                "criterion_met": speedup >= SHARD_SCALING_CRITERION,
            }
    return shard_cmp


def bench_persistence(results: Dict[str, dict], *, quick: bool
                      ) -> Dict[str, object]:
    """Record-store backends: write-behind SQLite, memory mirror, restart.

    Three workload families:

    * ``persist_activate_1k`` — single-role activations (distinct
      principal per op) over a SQLite-file write-behind store, alongside
      identically-measured MemoryRecordStore and storeless variants.  The
      persisted-vs-storeless cost ratio is the persistence overhead
      comparison (criterion: <= 1.25x).
    * ``persist_cascade_depth16`` — the FIG5 depth-16 revocation cascade
      with every service in the chain running over its own SQLite store:
      each cascade durably journals its events before publishing and
      marks them done after.  Memory-mirror and storeless variants are
      measured alongside, informationally.
    * ``restart_resume_100k`` — bulk-build 100k credential records into a
      SQLite file, flush, close; measure a cold ``OasisService`` rebuild:
      state load, allocator watermark replay, secret restore.
    """
    import tempfile

    from repro.core import (ActivationRule, OasisService, RoleTemplate,
                            ServicePolicy, ServiceRegistry, Var)
    from repro.core.state import ServiceStateCodec
    from repro.db import MemoryRecordStore, SqliteRecordStore
    from repro.events import EventBroker

    def login_policy() -> "ServicePolicy":
        policy = ServicePolicy(ServiceId("persist", "login"))
        root = policy.define_role("root", 1)
        policy.add_activation_rule(
            ActivationRule(RoleTemplate(root, (Var("u"),))))
        return policy

    backends = ("storeless", "memory", "sqlite")
    activation_ops: Dict[str, float] = {}
    cascade_ops: Dict[str, float] = {}

    with tempfile.TemporaryDirectory(prefix="bench-persist-") as tmp:
        serial = [0]

        def make_store(backend: str):
            if backend == "storeless":
                return None
            if backend == "memory":
                return MemoryRecordStore(codec=ServiceStateCodec())
            serial[0] += 1
            return SqliteRecordStore(
                os.path.join(tmp, f"svc-{serial[0]}.db"),
                codec=ServiceStateCodec())

        def summarize(samples: List[float], inner: int) -> Dict[str, float]:
            """measure()-shaped summary over interleaved round samples,
            plus the best observed per-op cost for overhead ratios."""
            latencies = sorted(samples)
            total_time = sum(latencies) * inner
            total_ops = len(latencies) * inner
            return {
                "ops_per_sec": (round(total_ops / total_time, 2)
                                if total_time else 0.0),
                "p50_us": round(_percentile(latencies, 0.50) * 1e6, 3),
                "p99_us": round(_percentile(latencies, 0.99) * 1e6, 3),
                "min_us": round(latencies[0] * 1e6, 3),
                "rounds": len(latencies),
                "ops_per_round": inner,
            }

        perf_counter = time.perf_counter

        # -- activation over each backend (interleaved rounds) -----------
        rounds, inner = (4, 50) if quick else (12, 100)
        services = {backend: OasisService(login_policy(), EventBroker(),
                                          ServiceRegistry(),
                                          store=make_store(backend))
                    for backend in backends}
        activation_samples: Dict[str, List[float]] = \
            {backend: [] for backend in backends}
        counter = [0]
        for _ in range(rounds + 1):  # first interleaved pass is warmup
            for backend in backends:
                service = services[backend]
                users = []
                for _ in range(inner):
                    counter[0] += 1
                    users.append(f"user-{counter[0]}")
                start = perf_counter()
                for user in users:
                    service.activate_role(PrincipalId(user), "root",
                                          [user], [])
                activation_samples[backend].append(
                    (perf_counter() - start) / inner)
        names = {"sqlite": "persist_activate_1k",
                 "memory": "persist_activate_1k_memory",
                 "storeless": "persist_activate_1k_storeless"}
        descriptions = {
            "sqlite": ("single-role activations, distinct principal per "
                       "op, over a SQLite-file write-behind store "
                       "(records buffered, flushed every 1024); rounds "
                       "interleaved with the other backends"),
            "memory": ("same activations mirrored into the in-memory "
                       "record store"),
            "storeless": ("same activations with no record store attached "
                          "— the live-dict baseline"),
        }
        for backend in backends:
            results[names[backend]] = dict(
                description=descriptions[backend],
                backend=backend,
                **summarize(activation_samples[backend][1:], inner))
            activation_ops[backend] = results[names[backend]]["min_us"]
            if services[backend].store is not None:
                services[backend].store.close()

        # -- depth-16 cascade over each backend (interleaved rounds) -----
        cascade_rounds = 6 if quick else 20
        worlds = {backend: ChainWorld(CHAIN_DEPTH,
                                      store_factory=lambda b=backend:
                                      make_store(b))
                  for backend in backends}
        cascade_samples: Dict[str, List[float]] = \
            {backend: [] for backend in backends}
        for _ in range(cascade_rounds + 1):
            for backend in backends:
                world = worlds[backend]
                counter[0] += 1
                session, _ = world.build_session(
                    user=f"user-{counter[0]}")
                root = session.root_rmc
                start = perf_counter()
                world.services[0].revoke(root.ref, "logout")
                cascade_samples[backend].append(perf_counter() - start)
        names = {"sqlite": "persist_cascade_depth16",
                 "memory": "persist_cascade_depth16_memory",
                 "storeless": "persist_cascade_depth16_storeless"}
        for backend in backends:
            results[names[backend]] = dict(
                description=(f"depth-{CHAIN_DEPTH} revocation cascade with "
                             f"every chain service on the {backend} "
                             f"backend; SQLite journals each cascade "
                             f"durably before publishing"
                             if backend == "sqlite" else
                             f"depth-{CHAIN_DEPTH} revocation cascade, "
                             f"{backend} backend variant of the "
                             f"persistence comparison"),
                backend=backend,
                **summarize(cascade_samples[backend][1:], 1))
            cascade_ops[backend] = results[names[backend]]["min_us"]
            for service in worlds[backend].services:
                if service.store is not None:
                    service.store.close()

        # -- cold restart: rebuild a 100k-record world from the file -----
        records = 5_000 if quick else 100_000
        resume_path = os.path.join(tmp, "resume.db")
        root_name = RoleName(ServiceId("persist", "login"), "root")
        service = OasisService(login_policy(), EventBroker(),
                               ServiceRegistry(),
                               store=SqliteRecordStore(
                                   resume_path, codec=ServiceStateCodec()))
        service.issue_rmcs_bulk(
            [(PrincipalId(f"p{index}"), Role(root_name, (f"p{index}",)),
              (), f"s{index % 1000}")
             for index in range(records)])
        service.checkpoint()
        service.store.close()

        def resume_once() -> None:
            store = SqliteRecordStore(resume_path,
                                      codec=ServiceStateCodec())
            OasisService(login_policy(), EventBroker(), ServiceRegistry(),
                         store=store)
            store.close(flush=False)

        # One untimed pass to verify the rebuild and capture its size.
        probe_store = SqliteRecordStore(resume_path,
                                        codec=ServiceStateCodec())
        probe = OasisService(login_policy(), EventBroker(),
                             ServiceRegistry(), store=probe_store)
        resumed = len(probe._records)
        probe_store.close(flush=False)
        assert resumed == records, (resumed, records)

        resume_rounds = 2 if quick else 5
        results["restart_resume_100k"] = dict(
            description=("cold OasisService rebuild from a SQLite file "
                         "holding the full credential set: state load, "
                         "serial-watermark replay, secret restore"),
            records=records,
            **measure(resume_once, rounds=resume_rounds, inner=1))

    # Ratios compare best observed per-op cost (interleaved rounds, min).
    activation_ratio = round(
        activation_ops["sqlite"] / activation_ops["storeless"], 3)
    return {
        "workload": "persist_activate_1k",
        "sqlite_min_us": activation_ops["sqlite"],
        "storeless_min_us": activation_ops["storeless"],
        "cost_ratio": activation_ratio,
        "criterion": (f"<= {PERSIST_ACTIVATION_OVERHEAD_CRITERION}x "
                      f"activation cost vs the storeless path"),
        "criterion_met":
            activation_ratio <= PERSIST_ACTIVATION_OVERHEAD_CRITERION,
    }


def bench_verify_universe(results: Dict[str, dict], *, quick: bool) -> None:
    """Whole-universe symbolic verification over the largest scenario set.

    One deployment carrying every Sect. 5 world at once — hospital +
    national EHR, the visiting-doctor SLA pair, the Tate galleries, the
    genetic clinic — verified with the default property battery
    (no-escalation + revocation-sound).  Each op is the full pipeline:
    rule-graph compilation plus every fixpoint run the battery needs.
    """
    from repro.core import (
        ActivationRule, AppointmentCondition, AppointmentRule,
        AuthorizationRule, PrerequisiteRole, RoleTemplate, ServicePolicy,
        Var)
    from repro.domains import ServiceLevelAgreement, SlaTerm
    from repro.lang import PolicyUniverse
    from repro.lang.verify import verify_universe
    from repro.scenarios import (build_clinic, build_galleries,
                                 build_national_ehr)

    deployment = Deployment()
    build_hospital(deployment)
    build_national_ehr(deployment, "hospital")
    build_galleries(deployment)
    build_clinic(deployment)

    hr_policy = ServicePolicy(ServiceId("hospital", "hr"))
    officer = hr_policy.define_role("hr_officer", 0)
    hr_policy.add_activation_rule(ActivationRule(RoleTemplate(officer)))
    hr_policy.add_appointment_rule(AppointmentRule(
        "employed_as_doctor", (Var("d"), Var("h")),
        (PrerequisiteRole(RoleTemplate(officer)),)))
    hr = deployment.service(hr_policy)
    lab_policy = ServicePolicy(ServiceId("institute", "lab"))
    lab_policy.add_activation_rule(
        ActivationRule(RoleTemplate(lab_policy.define_role("director", 0))))
    lab_policy.add_authorization_rule(AuthorizationRule(
        "run_experiment", (),
        (PrerequisiteRole(RoleTemplate(
            lab_policy.define_role("visiting_doctor", 1), (Var("d"),))),)))
    lab = deployment.service(lab_policy)
    ServiceLevelAgreement(
        lab.id, hr.id,
        [SlaTerm("visiting_doctor", (Var("d"),),
                 AppointmentCondition(hr.id, "employed_as_doctor",
                                      (Var("d"), Var("h")),
                                      membership=True))]).install(lab)

    universe = PolicyUniverse(
        service.policy for service in deployment.registry.all_services())
    report = verify_universe(universe)  # warm + capture counters
    rounds, inner = (3, 5) if quick else (5, 20)
    results["verify_universe"] = dict(
        description=("whole-universe verification (graph compilation + "
                     "default no-escalation/revocation-sound battery) "
                     "over the combined Sect. 5 scenario deployment"),
        services=len(universe.services),
        atoms=len(report.graph.atoms),
        rule_edges=len(report.graph.edges),
        fixpoint_iterations=report.iterations,
        fixpoint_runs=report.fixpoint_runs,
        findings=len(report.diagnostics),
        **measure(lambda: verify_universe(universe),
                  rounds=rounds, inner=inner))


# -- driver ------------------------------------------------------------------

def run(quick: bool = False, full: bool = False,
        worker_counts: Tuple[int, ...] = SHARD_WORKER_COUNTS
        ) -> Dict[str, object]:
    scale = dict(rounds=5, inner=20) if quick else dict(rounds=30, inner=50)
    cascade_rounds = 5 if quick else 25
    results: Dict[str, dict] = {}

    bench_fig1_activation(results, **scale)
    bench_fig2_entry_and_invocation(results, **scale)
    bench_fig3_cross_domain(results, **scale)
    bench_fig4_certificates(results, **scale)
    cascade_cmp = bench_fig5_cascade(results, rounds=cascade_rounds)
    independence_cmp = bench_fig5_fanout(results, quick=quick)
    obs_cmp = bench_obs_enabled(results, quick=quick)
    bulk_cmp = bench_scale(results, quick=quick, full=full)
    shard_cmp = bench_shard_scaling(results, quick=quick, full=full,
                                    worker_counts=worker_counts)
    persist_cmp = bench_persistence(results, quick=quick)
    bench_verify_universe(results, quick=quick)

    # Every workload records how many workers produced it (1 unless the
    # sharded tier already said otherwise) — scaling runs must be
    # reproducible from the report alone.
    for entry in results.values():
        entry.setdefault("workers", 1)

    return {
        "schema": "bench-core/1",
        "generated_by": "benchmarks/harness.py",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "full": full,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "shard_worker_counts": sorted({1, *worker_counts}),
        "workloads": results,
        "comparisons": {
            "cascade_fig5_depth16": cascade_cmp,
            "cascade_unrelated_independence": independence_cmp,
            "obs_overhead": obs_cmp,
            "scale_bulk_build": bulk_cmp,
            "shard_scaling": shard_cmp,
            "persistence_activation_overhead": persist_cmp,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small round counts (CI smoke)")
    parser.add_argument("--full", action="store_true",
                        help=("also run the opt-in scale_1m_principals "
                              "tier (builds a million-principal world)"))
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"output path (default: {DEFAULT_OUTPUT})")
    parser.add_argument("--workers",
                        default=",".join(str(n) for n in SHARD_WORKER_COUNTS),
                        help=("comma-separated worker counts for the sharded "
                              "scale tier (1 is always included; default: "
                              "%(default)s)"))
    args = parser.parse_args(argv)
    try:
        worker_counts = tuple(sorted(
            {1, *(int(part) for part in args.workers.split(",") if part)}))
    except ValueError:
        parser.error(f"--workers must be comma-separated integers, "
                     f"got {args.workers!r}")
    if any(count < 1 for count in worker_counts):
        parser.error("--workers counts must be >= 1")

    report = run(quick=args.quick, full=args.full,
                 worker_counts=worker_counts)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")

    comparisons = report["comparisons"]
    print(f"wrote {args.output}")
    for name, entry in report["workloads"].items():
        print(f"  {name:44s} {entry['ops_per_sec']:>12,.0f} ops/s  "
              f"p50 {entry['p50_us']:>9.1f}us  p99 {entry['p99_us']:>9.1f}us")

    def verdict(entry: dict) -> str:
        return (f"(criterion {entry['criterion']}: "
                f"{'met' if entry['criterion_met'] else 'NOT met'})")

    cascade = comparisons["cascade_fig5_depth16"]
    independence = comparisons["cascade_unrelated_independence"]
    print(f"  fig5 depth-16 cascade speedup:    {cascade['speedup']}x "
          f"{verdict(cascade)}")
    print(f"  fig5 unrelated-state cost ratio:  "
          f"{independence['cost_ratio_1000_vs_100']}x "
          f"{verdict(independence)}")
    enabled = comparisons["obs_overhead"]["enabled_path_informational"]
    print("  obs enabled-path ops/s (informational): engine "
          f"{enabled['activation_engine_fig1_depth16_ops_per_sec']:,.0f}, "
          f"cascade {enabled['cascade_fig5_revoke_depth16_ops_per_sec']:,.0f}")
    bulk = comparisons["scale_bulk_build"]
    print(f"  scale bulk world build speedup:   {bulk['speedup']}x "
          f"(median of {bulk['speedups']}) {verdict(bulk)}")
    shard = comparisons["shard_scaling"]
    print(f"  shard {max(shard['workers_measured'])}-worker scaling "
          f"({shard['aggregate_mode']} mode, {shard['cpu_count']} cpu): "
          f"{shard['speedup']}x {verdict(shard)}")
    persist = comparisons["persistence_activation_overhead"]
    print(f"  sqlite activation cost ratio:     "
          f"{persist['cost_ratio']}x {verdict(persist)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
