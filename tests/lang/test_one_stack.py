"""lint, reach and verify are one stack: one universe, one rule graph,
one fixpoint — so their verdicts agree by construction."""

import itertools
import json
import os

import pytest

from repro.lang import PolicyUniverse, load_policies, run_passes
from repro.lang.cli import main
from repro.lang.loader import discover_policy_files, load_units
from repro.lang.verify import verify_universe
from repro.netd.worlds import POLICY_DIR
from repro.policy import parse_policy

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
# The golden fixtures beside the hospital's shipped login, admin and
# database-backed records, in basename order (the subsets' ids).
POLICY_FILES = sorted(
    discover_policy_files(os.path.join(REPO_ROOT, "examples", "policies"))
    + [os.path.join(POLICY_DIR, name)
       for name in ("ehr/login.oasis", "ehr/admin.oasis",
                    "hospital/records.oasis")],
    key=os.path.basename)
SUBSETS = [list(subset)
           for size in range(1, len(POLICY_FILES) + 1)
           for subset in itertools.combinations(POLICY_FILES, size)]


def universe_of(*texts):
    return PolicyUniverse(parse_policy(text, allow_unresolved=True)
                          for text in texts)


def oas004_subjects(universe):
    return {d.subject for d in run_passes(universe) if d.code == "OAS004"}


def _subset_id(paths):
    return "+".join(os.path.basename(p)[:-len(".oasis")] for p in paths)


class TestAgreement:
    def test_all_subsets_enumerated(self):
        assert len(POLICY_FILES) == 5 and len(SUBSETS) == 31

    @pytest.mark.parametrize("paths", SUBSETS, ids=_subset_id)
    def test_lint_verify_and_reach_agree(self, paths, capsys):
        universe = PolicyUniverse.from_units(
            load_units(paths, allow_unresolved=True))
        lint = oas004_subjects(universe)

        # verify: cannot-reach(anyone, R) holds <=> no OAS100 refutes it
        # (an OAS100's subject is the property it refutes).
        roles = {str(role) for role in universe.all_roles()}
        properties = {f"cannot-reach(anyone, {role})": role
                      for role in roles}
        report = verify_universe(universe, list(properties))
        refuted = {properties[d.subject] for d in report.diagnostics
                   if d.code == "OAS100"}
        assert roles - refuted == lint

        # reach: the UNREACHABLE lines are exactly the OAS004 subjects.
        assert main(["reach"] + paths) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {line.split()[1] for line in lines
                if line.startswith("UNREACHABLE")} == lint
        assert len(lines) == len(roles)


class TestVerdictChanges:
    def test_unissuable_appointment_chain_is_unreachable(self):
        # (b): a declared appointment kind is available only if one of its
        # appointment rules is itself derivable.
        universe = universe_of("""
        service dom/a
        role boss(b)
        role holder(u)
        activate boss(b) <- dom/a:nobody(b)*
        appoint cert(u) <- boss(b)
        activate holder(u) <- appointment dom/a:cert(u)*
        authorize use() <- holder(u)
        """)
        assert oas004_subjects(universe) == {"dom/a:boss", "dom/a:holder"}

    def test_two_service_cycle(self):
        universe = universe_of("""
        service dom/a
        role ra(u)
        activate ra(u) <- dom/b:rb(u)*
        """, """
        service dom/b
        role rb(u)
        activate rb(u) <- dom/a:ra(u)*
        """)
        diagnostics = run_passes(universe)
        cycles = [d for d in diagnostics if d.code == "OAS005"]
        assert len(cycles) == 1
        assert "dom/a:ra" in cycles[0].subject
        assert "dom/b:rb" in cycles[0].subject
        assert oas004_subjects(universe) == {"dom/a:ra", "dom/b:rb"}


class TestLoadedUniverseKeepsPositions:
    def test_load_policies_findings_match_cli_lint(self, capsys):
        buggy = os.path.join(REPO_ROOT, "examples", "policies",
                             "buggy_clinic.oasis")
        _, universe = load_policies([buggy], allow_unresolved=True)
        got = {(d.code, d.file, d.span.line, d.span.column)
               for d in universe.diagnose()}
        assert main(["lint", buggy, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert got == {(e["code"], e["file"], e["line"], e["column"])
                       for e in payload["diagnostics"]}
        assert all(file == buggy for _, file, _, _ in got)
