"""ABL2 — session-bound vs long-lived credentials (paper Sect. 4.1).

The design decision under ablation: "Session-based role activation is more
secure ... An implementation of long-lived role membership would carry the
same vulnerability to attack as OASIS appointment certificates."

Quantified here as the *theft window*: the time during which a stolen
credential remains exploitable.

* a stolen RMC is worthless immediately (principal-specific, session id);
* a stolen *anonymous* appointment certificate is exploitable until expiry
  or revocation — the window the paper accepts for long-lived credentials;
* a stolen *holder-bound* appointment certificate is worthless (the thief
  is not the holder);
* secret rotation ("re-issued, encrypted with a new server secret") closes
  the anonymous window at the cost of re-issuing live certificates —
  measured below.

Series in ``benchmarks/results/ABL2.txt``.
"""

import pytest

from repro.core import (
    CredentialInvalid,
    Presentation,
    Principal,
    SignatureInvalid,
)
from repro.domains import Deployment
from repro.scenarios import build_hospital

from workloads import record_result


def test_abl2_theft_window_series(benchmark):
    rows = ["ABL2: theft windows by credential design (Sect. 4.1)",
            "credential                         thief_succeeds  window"]

    # Stolen RMC: presented by a thief under their own session.
    world = build_hospital(Deployment(use_network=False))
    doctor = world.admit_doctor("d1", "p1")
    session = doctor.start_session(world.login, "logged_in_user", ["d1"])
    treating = session.activate(world.records, "treating_doctor",
                                use_appointments=doctor.appointments())
    thief = Principal("thief")
    try:
        world.records.invoke(thief.id, "read_record", ["p1"],
                             credentials=[Presentation(session.root_rmc),
                                          Presentation(treating)])
        stolen_rmc_works = True
    except Exception:
        stolen_rmc_works = False
    rows.append(f"{'RMC (session-bound)':33s}  {str(stolen_rmc_works):14s}"
                f"  zero")

    # Stolen holder-bound appointment.
    certificate = doctor.appointments()[0]
    world.db.insert("registered", doctor="thief", patient="p1")
    thief_session = thief.start_session(world.login, "logged_in_user",
                                        ["thief"])
    try:
        world.records.activate_role(
            thief.id, "treating_doctor", None,
            [Presentation(thief_session.root_rmc),
             Presentation(certificate, holder="d1")])
        bound_works = True
    except SignatureInvalid:
        bound_works = False
    rows.append(f"{'appointment (holder-bound)':33s}  {str(bound_works):14s}"
                f"  zero")

    # Stolen anonymous appointment: exploitable until revoked/rotated.
    admin = Principal("adm")
    admin_session = admin.start_session(world.login, "logged_in_user",
                                        ["adm"])
    admin_session.activate(world.admin, "administrator", ["adm"])
    anonymous = admin_session.issue_appointment(
        world.admin, "allocated", ["thief", "p1"])  # no holder binding
    try:
        world.records.activate_role(
            thief.id, "treating_doctor", None,
            [Presentation(thief_session.root_rmc),
             Presentation(anonymous)])
        anon_works = True
    except Exception:
        anon_works = False
    rows.append(f"{'appointment (anonymous)':33s}  {str(anon_works):14s}"
                f"  until revocation/rotation")

    # Rotation closes the window.
    world.admin.rotate_secret()
    try:
        world.records.activate_role(
            thief.id, "treating_doctor", None,
            [Presentation(thief_session.root_rmc),
             Presentation(anonymous)])
        after_rotation = True
    except CredentialInvalid:
        after_rotation = False
    rows.append(f"{'  ... after secret rotation':33s}  "
                f"{str(after_rotation):14s}  closed")
    record_result("ABL2", rows)

    assert not stolen_rmc_works
    assert not bound_works
    assert anon_works          # the honest cost of anonymity
    assert not after_rotation  # and its mitigation

    benchmark(lambda: world.admin.secret.generation)


def test_abl2_rotation_and_reissue_cost(benchmark):
    """Rotating the secret forces re-issue of live appointments; measure
    re-issuing 100 certificates."""
    world = build_hospital(Deployment(use_network=False))
    admin = Principal("adm")
    admin_session = admin.start_session(world.login, "logged_in_user",
                                        ["adm"])
    admin_session.activate(world.admin, "administrator", ["adm"])
    certificates = [
        admin_session.issue_appointment(world.admin, "allocated",
                                        [f"d{i}", f"p{i}"], holder=f"d{i}")
        for i in range(100)]

    def rotate_and_reissue():
        world.admin.rotate_secret()
        return [world.admin.reissue_appointment(cert)
                for cert in certificates]

    fresh = benchmark(rotate_and_reissue)
    assert len(fresh) == 100


def test_abl2_stolen_rmc_rejection_cost(benchmark):
    """How quickly is a theft attempt rejected (it is the cheap path)."""
    world = build_hospital(Deployment(use_network=False))
    doctor = world.admit_doctor("d1", "p1")
    session = doctor.start_session(world.login, "logged_in_user", ["d1"])
    thief = Principal("thief")
    stolen = [Presentation(session.root_rmc)]

    def attempt():
        try:
            world.login.activate_role(thief.id, "logged_in_user",
                                      ["thief"], stolen)
        except Exception:
            return False
        return True

    assert not attempt()
    benchmark(attempt)
