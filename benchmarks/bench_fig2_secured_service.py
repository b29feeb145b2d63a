"""FIG2 — a service secured by OASIS access control (paper Fig. 2).

Measures the four numbered paths of the figure:

* paths 1-2, role entry: credential validation + rule match + RMC issue;
* paths 3-4, service use: guarded invocation with (a) warm validation
  cache and (b) cold callback validation;
* the issuer side: cost of serving one callback validation.

Series written to ``benchmarks/results/FIG2.txt``: the cache's effect on
callback counts over 100 invocations.

Expected shape: invocation with warm cache ≈ local signature checks only;
cold-path invocation pays one callback per foreign credential.

Benchmarked calls use *fixed* credential lists (not a live Session) so
every round performs identical work.
"""

import pytest

from repro.core import Presentation, Principal
from repro.domains import Deployment
from repro.scenarios import build_hospital

from workloads import record_result


def doctor_presentations(world, doctor_id="d1", patient_id="p1"):
    """A fixed credential bundle: login RMC + allocation appointment."""
    doctor = world.admit_doctor(doctor_id, patient_id)
    session = doctor.start_session(world.login, "logged_in_user",
                                   [doctor_id])
    appointment = doctor.appointments()[0]
    entry_credentials = [
        Presentation(session.root_rmc),
        Presentation(appointment, holder=doctor_id),
    ]
    treating = session.activate(world.records, "treating_doctor",
                                use_appointments=[appointment])
    use_credentials = [Presentation(session.root_rmc),
                       Presentation(treating)]
    return doctor, entry_credentials, use_credentials


def test_fig2_path12_role_entry(benchmark):
    """Role entry: validate credentials, match rule, issue RMC."""
    world = build_hospital(Deployment(use_network=False))
    doctor, entry_credentials, _ = doctor_presentations(world)

    benchmark(lambda: world.records.activate_role(
        doctor.id, "treating_doctor", None, entry_credentials))


def test_fig2_path12_initial_role(benchmark):
    """Entry to an initial role: no prerequisite validation at all."""
    world = build_hospital(Deployment(use_network=False))
    principal = Principal("fresh")

    benchmark(lambda: world.login.activate_role(
        principal.id, "logged_in_user", ["fresh"]))


def test_fig2_path34_invocation_warm_cache(benchmark):
    """Guarded invocation when prior validations are cached (ECR held)."""
    world = build_hospital(Deployment(use_network=False))
    doctor, _, use_credentials = doctor_presentations(world)
    world.records.invoke(doctor.id, "read_record", ["p1"],
                         credentials=use_credentials)  # warm the cache

    benchmark(lambda: world.records.invoke(
        doctor.id, "read_record", ["p1"], credentials=use_credentials))


def test_fig2_path34_invocation_cold(benchmark):
    """Guarded invocation with caching disabled: callback every time."""
    world = build_hospital(Deployment(use_network=False),
                           cache_validations=False)
    doctor, _, use_credentials = doctor_presentations(world)

    benchmark(lambda: world.records.invoke(
        doctor.id, "read_record", ["p1"], credentials=use_credentials))


def test_fig2_callback_validation_served(benchmark):
    """Issuer-side cost of one callback validation of an RMC."""
    world = build_hospital(Deployment(use_network=False))
    doctor, entry_credentials, _ = doctor_presentations(world)
    rmc = entry_credentials[0].certificate

    benchmark(lambda: world.login._serve_validation(rmc, "d1", None))


def test_fig2_series(benchmark):
    """Record cache effectiveness for 100 invocations."""
    rows = ["FIG2: secured service (Fig. 2) — cache effect on callbacks",
            "mode        invocations  callbacks_made  cache_hits"]
    for cached in (True, False):
        world = build_hospital(Deployment(use_network=False),
                           cache_validations=cached)
        doctor, _, use_credentials = doctor_presentations(world)
        world.records.stats.reset()
        for _ in range(100):
            world.records.invoke(doctor.id, "read_record", ["p1"],
                                 credentials=use_credentials)
        rows.append(f"{'cache' if cached else 'no-cache':10s}  "
                    f"{world.records.stats.invocations:11d}  "
                    f"{world.records.stats.callbacks_made:14d}  "
                    f"{world.records.stats.cache_hits:10d}")
    record_result("FIG2", rows)

    world = build_hospital(Deployment(use_network=False))
    doctor, _, use_credentials = doctor_presentations(world)
    benchmark(lambda: world.records.invoke(
        doctor.id, "read_record", ["p1"], credentials=use_credentials))
