"""ABL1 — validation caching with event invalidation (paper Sect. 4).

The design decision under ablation: "The service may cache the certificate
and the result of validation in order to reduce the communication overhead
of repeated callback.  This requires an event channel so that the issuer
can notify the service should the certificate be invalidated."

Three designs over the same workload (sessions invoking a guarded method,
with a configurable revocation rate):

* **cache + events** (OASIS): callback once, then cache hits; revocation
  events drop entries instantly — correct AND cheap;
* **pure callback**: correct but pays a callback per presentation;
* **cache without invalidation** (the broken strawman): cheap but honours
  revoked credentials forever — quantified as stale acceptances.

Series in ``benchmarks/results/ABL1.txt``: callbacks and stale acceptances
per 1000 invocations as the revocation rate sweeps.
"""

import pytest

from repro.core import CredentialRevoked, InvocationDenied, Presentation, Principal
from repro.domains import Deployment
from repro.scenarios import build_hospital

from workloads import record_result


def build_sessions(world, count):
    bundles = []
    for index in range(count):
        doctor = world.admit_doctor(f"d{index}", f"p{index}")
        session = doctor.start_session(world.login, "logged_in_user",
                                       [f"d{index}"])
        treating = session.activate(world.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        bundles.append((doctor, session, treating))
    return bundles


def run_workload(cache_validations, revocations, invocations=1000,
                 sessions=10):
    """Interleave invocations with revocations; return (callbacks, stale)."""
    world = build_hospital(Deployment(use_network=False),
                           cache_validations=cache_validations)
    bundles = build_sessions(world, sessions)
    world.records.stats.reset()
    revoke_every = invocations // (revocations + 1) if revocations else None
    revoked = set()
    stale_accepts = 0
    victim = 0
    for step in range(invocations):
        if revoke_every and step and step % revoke_every == 0 \
                and victim < len(bundles):
            doctor, session, treating = bundles[victim]
            world.login.revoke(session.root_rmc.ref, "scheduled")
            revoked.add(victim)
            victim += 1
        index = step % len(bundles)
        doctor, session, treating = bundles[index]
        credentials = [Presentation(session.root_rmc),
                       Presentation(treating)]
        try:
            world.records.invoke(doctor.id, "read_record",
                                 [f"p{index}"], credentials=credentials)
            if index in revoked:
                stale_accepts += 1
        except (CredentialRevoked, InvocationDenied):
            pass
    return world.records.stats.callbacks_made, stale_accepts


def test_abl1_series(benchmark):
    rows = ["ABL1: validation caching ablation "
            "(1000 invocations over 10 sessions)",
            "design                  revocations  callbacks  "
            "stale_accepts"]
    for revocations in (0, 5, 9):
        callbacks, stale = run_workload(True, revocations)
        rows.append(f"{'cache+events (OASIS)':22s}  {revocations:11d}  "
                    f"{callbacks:9d}  {stale:13d}")
        callbacks, stale = run_workload(False, revocations)
        rows.append(f"{'pure callback':22s}  {revocations:11d}  "
                    f"{callbacks:9d}  {stale:13d}")
    record_result("ABL1", rows)

    benchmark(lambda: run_workload(True, 0, invocations=50, sessions=2))


def test_abl1_cached_invocation(benchmark):
    world = build_hospital(Deployment(use_network=False),
                           cache_validations=True)
    (doctor, session, treating), = build_sessions(world, 1)
    credentials = [Presentation(session.root_rmc), Presentation(treating)]
    world.records.invoke(doctor.id, "read_record", ["p0"],
                         credentials=credentials)

    benchmark(lambda: world.records.invoke(
        doctor.id, "read_record", ["p0"], credentials=credentials))


def test_abl1_uncached_invocation(benchmark):
    world = build_hospital(Deployment(use_network=False),
                           cache_validations=False)
    (doctor, session, treating), = build_sessions(world, 1)
    credentials = [Presentation(session.root_rmc), Presentation(treating)]

    benchmark(lambda: world.records.invoke(
        doctor.id, "read_record", ["p0"], credentials=credentials))


def test_abl1_invalidation_latency(benchmark):
    """From revoke() to cache-drop is synchronous: measure it."""
    world = build_hospital(Deployment(use_network=False),
                           cache_validations=True)
    bundles = build_sessions(world, 50)

    refs = [session.root_rmc.ref for _, session, _ in bundles]
    victims = iter(refs)

    def revoke_one():
        try:
            ref = next(victims)
        except StopIteration:
            return
        world.login.revoke(ref, "bench")

    benchmark.pedantic(revoke_one, rounds=min(40, len(refs)), iterations=1)
