"""The policies that served nodes run are analysed, not only the files.

`repro serve` worlds build their services from the Python builders in
:mod:`repro.netd.worlds`, never from `.oasis` files, so the strict lint
and verify gates over `examples/policies/` do not read them.  These
tests put the same lint passes and verifier over the built policies.
"""

import pytest

from repro.lang import PolicyUniverse, run_passes
from repro.lang.verify import verify_universe
from repro.netd.worlds import (
    admin_policy,
    chain_policies,
    login_policy,
    national_policy,
    records_policy,
    registry_policy,
    scale_policies,
)

WORLDS = {
    # Fig. 3 across the three EHR nodes (ehr_front, ehr_records,
    # ehr_national).
    "ehr": lambda: [login_policy(), admin_policy(), records_policy(),
                    registry_policy(), national_policy()],
    # The Fig. 5 chain at the benchmark's depth.
    "chain": lambda: chain_policies(16),
    "scale": scale_policies,
}

# Fig. 3 by design: a doctor reaches the records only through the
# administrator's `allocated` appointment, and the national EHR only
# through that plus the registry's `accredited_hospital` — an appointment
# chain crossing services with no direct activation path.
EHR_ESCALATIONS = {
    "privilege hospital/records.read_record",
    "privilege national-ehr/patient-records.request_EHR",
    "privilege national-ehr/patient-records.append_to_EHR",
}


@pytest.fixture(params=sorted(WORLDS))
def world(request):
    return request.param, PolicyUniverse(WORLDS[request.param]())


def test_served_policies_lint_without_errors_or_warnings(world):
    _, universe = world
    findings = [d for d in run_passes(universe)
                if d.severity in ("error", "warning")]
    assert findings == []


def test_served_policies_verify_to_their_known_findings(world):
    name, universe = world
    diagnostics = verify_universe(universe, ()).diagnostics
    assert all(d.code == "OAS101" for d in diagnostics)
    expected = EHR_ESCALATIONS if name == "ehr" else set()
    assert sorted(d.subject for d in diagnostics) == sorted(expected)
