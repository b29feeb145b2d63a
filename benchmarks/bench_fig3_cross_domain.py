"""FIG3 — an OASIS session with cross-domain calls (paper Fig. 3).

Rebuilds the hospital -> national EHR topology on the simulated network
and measures:

* wall-clock cost of one ``request_EHR`` through the gateway;
* the *simulated* latency and message cost of cold vs warm calls (cold
  pays an inter-domain callback to validate the forwarded treating_doctor
  RMC; warm rides the ECR-backed cache);
* a sweep over the number of hospitals sharing the national service.

Series in ``benchmarks/results/FIG3.txt``.  Expected shape: warm calls cost
~0 network messages beyond the request itself; the national service scales
linearly in hospitals with per-hospital state only.
"""

import pytest

from repro.core import (
    ActivationRule,
    Presentation,
    PrerequisiteRole,
    Principal,
    RoleName,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.domains import Deployment
from repro.netd.worlds import patient_records_for, shipped_policy

from workloads import record_result


def build_world(n_hospitals=1):
    deployment = Deployment()
    registry = deployment.service(shipped_policy("ehr/registry"))
    names = [f"hospital-{index}" for index in range(n_hospitals)]

    hospitals = []
    for name in names:
        login = deployment.service(
            shipped_policy("ehr/login", domains={"hospital": name}))
        # Treating needs a login only here: no admin, no allocation.
        records_policy = ServicePolicy(ServiceId(name, "records"))
        treating = records_policy.define_role("treating_doctor", 2)
        logged_in = RoleName(login.id, "logged_in_user")
        records_policy.add_activation_rule(ActivationRule(
            RoleTemplate(treating, (Var("d"), Var("p"))),
            (PrerequisiteRole(RoleTemplate(logged_in, (Var("d"),)),
                              membership=True),)))
        records = deployment.service(records_policy)
        hospitals.append((login, records))

    national_svc = deployment.service(patient_records_for(names))
    national_svc.register_method("request_EHR", lambda p: f"EHR[{p}]")

    registrar_session = Principal("registrar").start_session(registry,
                                                             "registrar")
    gateways = []
    for index, (login, records) in enumerate(hospitals):
        accreditation = registrar_session.issue_appointment(
            registry, "accredited_hospital", [f"hospital-{index}"],
            holder=f"gateway-{index}")
        gateway = Principal(f"gateway-{index}")
        gateway.store_appointment(accreditation)
        gw_session = gateway.start_session(
            national_svc, "hospital", use_appointments=[accreditation])

        doctor = Principal(f"dr-{index}")
        doctor_session = doctor.start_session(login, "logged_in_user",
                                              [f"dr-{index}"])
        rmc = doctor_session.activate(records, "treating_doctor",
                                      [f"dr-{index}", f"p-{index}"])
        gateways.append((gateway, gw_session, rmc, f"dr-{index}",
                         f"p-{index}"))
    return deployment, national_svc, gateways


def gateway_call(national_svc, gateway, gw_session, rmc, doctor_id,
                 patient_id):
    return national_svc.invoke(
        gateway.id, "request_EHR", [patient_id],
        credentials=[Presentation(gw_session.root_rmc),
                     Presentation(rmc, on_behalf_of=doctor_id)])


def test_fig3_request_ehr_warm(benchmark):
    deployment, national_svc, gateways = build_world(1)
    gateway, gw_session, rmc, doctor_id, patient_id = gateways[0]
    gateway_call(national_svc, gateway, gw_session, rmc, doctor_id,
                 patient_id)  # warm the cache

    benchmark(lambda: gateway_call(national_svc, gateway, gw_session, rmc,
                                   doctor_id, patient_id))


def test_fig3_full_session_setup(benchmark):
    """Accredit + activate hospital role + doctor session, single hospital."""
    benchmark(lambda: build_world(1))


def test_fig3_series(benchmark):
    rows = ["FIG3: cross-domain EHR session (Fig. 3)"]

    # Cold vs warm network cost for one request_EHR.
    deployment, national_svc, gateways = build_world(1)
    gateway, gw_session, rmc, doctor_id, patient_id = gateways[0]
    stats = deployment.network.stats
    stats.reset()
    t0 = deployment.clock.now()
    gateway_call(national_svc, gateway, gw_session, rmc, doctor_id,
                 patient_id)
    cold = (deployment.clock.now() - t0, stats.messages)
    stats.reset()
    t0 = deployment.clock.now()
    gateway_call(national_svc, gateway, gw_session, rmc, doctor_id,
                 patient_id)
    warm = (deployment.clock.now() - t0, stats.messages)
    rows.append("call   sim_latency_ms  network_messages")
    rows.append(f"cold   {1000 * cold[0]:14.1f}  {cold[1]:16d}")
    rows.append(f"warm   {1000 * warm[0]:14.1f}  {warm[1]:16d}")

    # Hospital sweep: national-service work grows linearly, per-call cost flat.
    rows.append("")
    rows.append("hospitals  total_sim_ms_for_one_call_each  msgs")
    for count in (1, 2, 4, 8):
        deployment, national_svc, gateways = build_world(count)
        deployment.network.stats.reset()
        t0 = deployment.clock.now()
        for gateway, gw_session, rmc, doctor_id, patient_id in gateways:
            gateway_call(national_svc, gateway, gw_session, rmc,
                         doctor_id, patient_id)
        rows.append(f"{count:9d}  {1000 * (deployment.clock.now() - t0):30.1f}"
                    f"  {deployment.network.stats.messages:4d}")
    record_result("FIG3", rows)

    deployment, national_svc, gateways = build_world(1)
    gateway, gw_session, rmc, doctor_id, patient_id = gateways[0]
    benchmark(lambda: gateway_call(national_svc, gateway, gw_session, rmc,
                                   doctor_id, patient_id))
