"""ABL3 — the cost of active membership monitoring (Sect. 4 / Fig. 5).

The paper's active security is not free: every membership-flagged
database constraint makes the service re-evaluate watches when a relevant
table changes, and time-based conditions need periodic sweeps.  This
ablation measures what that vigilance costs and what turning it off would
save (and lose):

* database-write overhead as the number of active watched roles grows
  (every insert/delete into a watched table triggers rechecks);
* sweep cost (`recheck_membership`) vs the number of active watches;
* the alternative — no monitoring — costs nothing on writes but leaves
  roles active after their conditions fail (quantified as stale roles).

Series in ``benchmarks/results/ABL3.txt``.
"""

import pytest

from repro.core import Principal
from repro.domains import Deployment
from repro.scenarios import build_hospital

from workloads import record_result


def build_watched_roles(world, count):
    sessions = []
    for index in range(count):
        doctor = world.admit_doctor(f"d{index}", f"p{index}")
        session = doctor.start_session(world.login, "logged_in_user",
                                       [f"d{index}"])
        session.activate(world.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        sessions.append(session)
    return sessions


@pytest.mark.parametrize("watches", [1, 10, 50])
def test_abl3_database_write_overhead(benchmark, watches):
    """Cost of one unrelated insert into a watched table, by watch count.

    Every write to 'registered' triggers a recheck of all watches on that
    table — the price of immediate revocation.
    """
    world = build_hospital(Deployment(use_network=False))
    build_watched_roles(world, watches)
    counter = [0]

    def unrelated_insert():
        counter[0] += 1
        world.db.insert("registered", doctor=f"x{counter[0]}",
                        patient=f"y{counter[0]}")

    benchmark(unrelated_insert)


@pytest.mark.parametrize("watches", [1, 10, 50])
def test_abl3_sweep_cost(benchmark, watches):
    """Cost of one full membership sweep, by watch count."""
    world = build_hospital(Deployment(use_network=False))
    build_watched_roles(world, watches)

    benchmark(world.records.recheck_membership)


def test_abl3_series(benchmark):
    rows = ["ABL3: membership monitoring cost and value (Sect. 4)",
            "watches  rechecks_per_write  sweep_rechecks"]
    for watches in (1, 10, 50):
        world = build_hospital(Deployment(use_network=False))
        build_watched_roles(world, watches)
        world.records.stats.reset()
        world.db.insert("registered", doctor="zz", patient="zz")
        per_write = world.records.stats.membership_rechecks
        world.records.stats.reset()
        world.records.recheck_membership()
        sweep = world.records.stats.membership_rechecks
        rows.append(f"{watches:7d}  {per_write:18d}  {sweep:14d}")

    # Value: with monitoring, a retracted fact kills the role instantly;
    # without, the role would stay active (simulate by counting roles
    # whose condition is false but record still active after retraction —
    # in OASIS this is always zero).
    world = build_hospital(Deployment(use_network=False))
    sessions = build_watched_roles(world, 10)
    for index in range(10):
        world.db.delete("registered", doctor=f"d{index}",
                        patient=f"p{index}")
    stale = sum(
        1 for session in sessions
        for rmc in session.held_rmcs()
        if rmc.role.role_name.name == "treating_doctor"
        and world.records.is_active(rmc.ref))
    rows.append("")
    rows.append(f"after retracting all 10 registrations, stale active "
                f"treating_doctor roles: {stale} (monitoring ON)")
    rows.append("without monitoring the same figure would be 10 — every "
                "role would outlive its conditions")
    record_result("ABL3", rows)
    assert stale == 0

    world = build_hospital(Deployment(use_network=False))
    build_watched_roles(world, 5)
    benchmark(world.records.recheck_membership)
