"""The policies that served nodes run are the files the gates analyse.

`repro serve` worlds compile the `.oasis` files shipped in
`src/repro/netd/policies/`, and CI's strict `lint` and `verify` gates
read those same files.  These tests put the lint passes and the verifier
over what the worlds load, and check that a hole seeded into a shipped
file fails the gates.
"""

import os
import shutil

import pytest

from repro.lang import PolicyUniverse, load_units, run_passes
from repro.lang.cli import main
from repro.lang.verify import verify_universe
from repro.netd.worlds import POLICY_DIR, chain


def _files(name):
    return PolicyUniverse.from_units(
        load_units([os.path.join(POLICY_DIR, name)], allow_unresolved=True))


WORLDS = {
    # Fig. 3 across the three EHR nodes (ehr_front, ehr_records,
    # ehr_national).
    "ehr": lambda: _files("ehr"),
    "bench": lambda: _files("bench"),
    # The Fig. 5 chain at the benchmark's depth, compiled from the text
    # it generates.
    "chain": lambda: PolicyUniverse(chain(16)),
    "scale": lambda: _files("scale"),
}

# Fig. 3 by design: a doctor reaches the records only through the
# administrator's `allocated` appointment, and the national EHR only
# through that plus the registry's `accredited_hospital` — an appointment
# chain crossing services with no direct activation path.  Each file
# carries an `# oasis: ignore[OAS101]` pragma on these rules.
EHR_ESCALATIONS = {
    "privilege hospital/records.read_record",
    "privilege national-ehr/patient-records.request_EHR",
    "privilege national-ehr/patient-records.append_to_EHR",
}


@pytest.fixture(params=sorted(WORLDS))
def world(request):
    return request.param, WORLDS[request.param]()


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


def test_a_hole_seeded_into_a_shipped_file_fails_the_gates(tmp_path,
                                                             capsys):
    shutil.copytree(os.path.join(POLICY_DIR, "ehr"), tmp_path / "ehr")
    records = tmp_path / "ehr" / "records.oasis"
    text = records.read_text()
    held = "hospital/login:logged_in_user(d)*"
    assert text.count(held) == 1
    line = text[:text.index(held)].count("\n") + 1
    # Logging out no longer deactivates treating_doctor.
    records.write_text(text.replace(held, held[:-1]))

    # The gates run --strict: OAS102 and OAS006 are warnings.
    assert main(["verify", "--strict", str(tmp_path / "ehr")]) == 1
    out = capsys.readouterr().out
    assert f"{records}:{line}:5: warning[OAS102]" in out

    assert main(["lint", "--strict", str(tmp_path / "ehr")]) == 1
    assert "[OAS006]" in capsys.readouterr().out
