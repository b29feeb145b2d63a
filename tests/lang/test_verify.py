"""Tests for the whole-universe symbolic verifier: rule graph,
fixpoint, witnesses, properties, and the ``verify`` CLI."""

import json
import os

import pytest

from repro.lang.cli import main
from repro.lang.loader import load_unit
from repro.lang.universe import PolicyUniverse
from repro.lang.verify import (
    Atom,
    PropertyError,
    build_graph,
    chain_depth,
    find_path_through,
    parse_property,
    parse_ref,
    render,
    run_fixpoint,
    services_of,
    to_dict,
    uses_appointment_edge,
    verify_universe,
    witness_for,
)
from repro.netd.worlds import POLICY_DIR as SHIPPED_DIR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
POLICY_DIR = os.path.join(REPO_ROOT, "examples", "policies")
BUGGY_PAIR = [os.path.join(POLICY_DIR, "buggy_clinic.oasis"),
              os.path.join(POLICY_DIR, "buggy_clinic_hr.oasis")]
# The hospital's shipped login and admin and its database-backed records.
CLEAN_TRIO = [os.path.join(SHIPPED_DIR, name)
              for name in ("ehr/login.oasis", "ehr/admin.oasis",
                           "hospital/records.oasis")]
SNAPSHOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "snapshots", "escalation_witness.txt")


def _universe(paths):
    units = [load_unit(path, allow_unresolved=True) for path in paths]
    return PolicyUniverse.from_units(units)


def _relative_paths(text):
    return text.replace(REPO_ROOT + os.sep, "")


@pytest.fixture(scope="module")
def trio_graph():
    return build_graph(_universe(CLEAN_TRIO))


@pytest.fixture(scope="module")
def buggy_graph():
    return build_graph(_universe(BUGGY_PAIR))


# -- the rule graph ------------------------------------------------------------

class TestGraph:
    def test_atoms_cover_roles_appointments_privileges(self, trio_graph):
        names = {str(atom) for atom in trio_graph.atoms}
        assert "role hospital/login:logged_in_user" in names
        assert "role hospital/records:treating_doctor" in names
        assert "appointment hospital/admin:allocated/2" in names
        assert "privilege hospital/records.read_record" in names

    def test_every_rule_becomes_an_edge(self, trio_graph):
        kinds = sorted(edge.kind for edge in trio_graph.edges)
        # login activate, admin activate+appoint, records activate+authorize
        assert kinds == ["activation", "activation", "activation",
                        "appointment", "authorization"]

    def test_in_universe_atoms_are_not_external(self, trio_graph):
        assert not trio_graph.external

    def test_out_of_universe_reference_is_external(self):
        graph = build_graph(_universe(
            [os.path.join(SHIPPED_DIR, "hospital", "records.oasis"),
             os.path.join(SHIPPED_DIR, "ehr", "login.oasis")]))
        external = {str(atom) for atom in graph.external}
        assert external == {"appointment hospital/admin:allocated/2"}

    def test_unknown_local_role_is_internal_but_underivable(
            self, buggy_graph):
        ghost = Atom.role(next(s for s in buggy_graph.services
                               if s.name == "main"), "ghost", 1)
        assert ghost in buggy_graph.atoms
        assert ghost not in buggy_graph.external
        assert not run_fixpoint(buggy_graph).derivable(ghost)

    def test_signature_single_type(self, trio_graph):
        allocated = next(a for a in trio_graph.appointments()
                         if a.name == "allocated")
        # only variables observed -> unknown types, arity preserved
        assert trio_graph.signature(allocated).endswith("(?, ?)")

    def test_signature_conflicting_types_stay_unknown(self, buggy_graph):
        allocated = next(a for a in buggy_graph.appointments()
                         if a.name == "allocated")
        # "ward-7" (string) vs 7 (number) at position 2
        assert buggy_graph.signature(allocated).endswith("(?, ?)")

    def test_constraints_counted_not_modelled(self, trio_graph):
        (edge,) = [e for e in trio_graph.edges
                   if e.target.name == "treating_doctor"]
        assert edge.constraint_count == 1
        assert len(edge.conditions) == 2


# -- the fixpoint --------------------------------------------------------------

class TestFixpoint:
    def test_clean_trio_closure_is_total(self, trio_graph):
        full = run_fixpoint(trio_graph)
        for atom in trio_graph.atoms:
            assert full.derivable(atom), atom
        assert full.iterations >= 2

    def test_underivable_atoms_stay_out(self, buggy_graph):
        full = run_fixpoint(buggy_graph)
        underivable = {str(a) for a in buggy_graph.atoms
                       if not full.derivable(a)}
        assert "role clinic/main:ghost" in underivable
        assert "appointment clinic/main:never_issued/1" in underivable
        assert "role clinic/main:ward_clerk" in underivable
        assert "role clinic/main:mascot" in underivable
        assert "role clinic/main:auditor" in underivable

    def test_base_closure_disables_appointment_rules(self, trio_graph):
        base = run_fixpoint(trio_graph, use_appointment_rules=False)
        read_record = trio_graph.privileges()[0]
        assert not base.derivable(read_record)
        logged_in = next(a for a in trio_graph.roles()
                         if a.name == "logged_in_user")
        assert base.derivable(logged_in)

    def test_assumptions_seed_the_closure(self, trio_graph):
        allocated = next(a for a in trio_graph.appointments()
                         if a.name == "allocated")
        seeded = run_fixpoint(trio_graph, frozenset({allocated}),
                              use_appointment_rules=False)
        read_record = trio_graph.privileges()[0]
        assert seeded.derivable(read_record)
        assert seeded.reason[allocated] == "assumed"

    def test_membership_revocation_collapses_derivations(self, trio_graph):
        logged_in = next(a for a in trio_graph.roles()
                         if a.name == "logged_in_user")
        revoked = run_fixpoint(trio_graph, revoked=frozenset({logged_in}))
        read_record = trio_graph.privileges()[0]
        assert not revoked.derivable(read_record)
        assert not revoked.derivable(logged_in)

    def test_passive_conditions_survive_with_survivors(self, buggy_graph):
        receptionist = next(a for a in buggy_graph.roles()
                            if a.name == "receptionist")
        doctor = next(a for a in buggy_graph.roles()
                      if a.name == "doctor")
        full = run_fixpoint(buggy_graph)
        strict = run_fixpoint(buggy_graph,
                              revoked=frozenset({receptionist}))
        assert not strict.derivable(doctor)
        surviving = run_fixpoint(buggy_graph,
                                 revoked=frozenset({receptionist}),
                                 survivors=set(full.cost))
        # doctor <- receptionist is passive: pre-revocation holders keep it
        assert surviving.derivable(doctor)

    def test_delegation_depth_counts_appointment_edges(self, trio_graph):
        full = run_fixpoint(trio_graph)
        read_record = trio_graph.privileges()[0]
        assert full.depth[read_record] == 1
        administrator = next(a for a in trio_graph.roles()
                             if a.name == "administrator")
        assert full.depth[administrator] == 0


# -- witnesses -----------------------------------------------------------------

class TestWitness:
    def test_witness_size_equals_min_cost(self, trio_graph, buggy_graph):
        for graph in (trio_graph, buggy_graph):
            full = run_fixpoint(graph)
            for atom in graph.atoms:
                if full.derivable(atom):
                    assert witness_for(full, atom).size() == \
                        full.cost[atom], atom

    def test_underivable_atom_has_no_witness(self, buggy_graph):
        full = run_fixpoint(buggy_graph)
        ghost = next(a for a in buggy_graph.roles() if a.name == "ghost")
        with pytest.raises(ValueError, match="not derivable"):
            witness_for(full, ghost)

    def test_render_carries_provenance(self, buggy_graph):
        full = run_fixpoint(buggy_graph)
        prescribe = next(a for a in buggy_graph.privileges()
                         if a.name == "prescribe")
        text = _relative_paths(render(witness_for(full, prescribe)))
        assert "buggy_clinic.oasis:71:1" in text
        assert "buggy_clinic_hr.oasis:18:1" in text
        assert "via appointment rule" in text

    def test_golden_escalation_witness(self, buggy_graph):
        full = run_fixpoint(buggy_graph)
        prescribe = next(a for a in buggy_graph.privileges()
                         if a.name == "prescribe")
        witness = witness_for(full, prescribe)
        assert uses_appointment_edge(witness)
        assert chain_depth(witness) == 1
        assert {str(s) for s in services_of(witness)} == \
            {"clinic/main", "clinic/hr"}
        rendered = _relative_paths(render(witness)) + "\n"
        with open(SNAPSHOT, "r", encoding="utf-8") as handle:
            assert rendered == handle.read()

    def test_to_dict_roundtrips_structure(self, buggy_graph):
        full = run_fixpoint(buggy_graph)
        prescribe = next(a for a in buggy_graph.privileges()
                         if a.name == "prescribe")
        payload = to_dict(witness_for(full, prescribe))
        assert payload["atom"] == "privilege clinic/main.prescribe"
        assert payload["rule"]["kind"] == "authorization"
        chain = payload
        kinds = []
        while "children" in chain:
            chain = chain["children"][0]
            kinds.append(chain.get("rule", {}).get("kind"))
        assert "appointment" in kinds

    def test_find_path_through_pins_an_edge(self, buggy_graph):
        full = run_fixpoint(buggy_graph)
        read_chart = next(a for a in buggy_graph.privileges()
                          if a.name == "read_chart")
        # the shadowed doctor rule at line 44 is never min-cost
        (edge,) = [e for e in buggy_graph.edges
                   if e.kind == "activation" and e.origin is not None
                   and e.origin.line == 44]
        pins = find_path_through(full, read_chart, edge)
        assert pins is not None
        witness = witness_for(full, read_chart, pins)
        assert "buggy_clinic.oasis:44:1" in _relative_paths(render(witness))

    def test_find_path_through_unreachable_edge(self, buggy_graph):
        full = run_fixpoint(buggy_graph)
        prescribe = next(a for a in buggy_graph.privileges()
                         if a.name == "prescribe")
        edges = [e for e in buggy_graph.edges
                 if e.target.name == "ward_clerk"]
        assert edges
        for edge in edges:
            assert find_path_through(full, prescribe, edge) is None


# -- property parsing ----------------------------------------------------------

class TestPropertyParsing:
    def test_ref_forms(self, trio_graph):
        role = parse_ref("role hospital/login:logged_in_user", trio_graph)
        assert role.kind == "role"
        appointment = parse_ref("appointment hospital/admin:allocated/2",
                                trio_graph)
        assert appointment.kind == "appointment"
        privilege = parse_ref("hospital/records.read_record", trio_graph)
        assert privilege.kind == "privilege"
        bare = parse_ref("hospital/admin:allocated", trio_graph)
        assert bare == appointment

    def test_bare_ref_prefers_role(self, trio_graph):
        atom = parse_ref("hospital/records:treating_doctor", trio_graph)
        assert atom.kind == "role"

    def test_unknown_ref_rejected(self, trio_graph):
        with pytest.raises(PropertyError, match="unknown"):
            parse_ref("role hospital/login:no_such_role", trio_graph)
        with pytest.raises(PropertyError, match="malformed"):
            parse_ref("just-a-word", trio_graph)

    def test_property_forms(self, trio_graph):
        prop = parse_property(
            "can-reach(anyone, hospital/records.read_record)", trio_graph)
        assert prop.kind == "can-reach"
        assert prop.subjects == frozenset()
        assert prop.target is not None
        prop = parse_property(
            "cannot-reach(role hospital/login:logged_in_user + "
            "appointment hospital/admin:allocated, "
            "hospital/records.read_record)", trio_graph)
        assert len(prop.subjects) == 2
        assert parse_property("delegation-depth<=3", trio_graph).bound == 3
        assert parse_property("no-escalation", trio_graph).kind == \
            "no-escalation"

    def test_bad_property_rejected(self, trio_graph):
        with pytest.raises(PropertyError, match="unrecognised property"):
            parse_property("always-safe", trio_graph)
        with pytest.raises(PropertyError, match="malformed"):
            parse_property("can-reach(anyone, nonsense)", trio_graph)


# -- the property checks -------------------------------------------------------

class TestProperties:
    def test_default_battery_flags_buggy_pair(self):
        report = verify_universe(_universe(BUGGY_PAIR))
        codes = {d.code for d in report.diagnostics}
        assert codes == {"OAS101", "OAS102"}

    def test_escalation_diagnostic_details(self):
        report = verify_universe(_universe(BUGGY_PAIR), ["no-escalation"])
        (finding,) = report.diagnostics
        assert finding.code == "OAS101"
        assert finding.subject == "privilege clinic/main.prescribe"
        assert finding.span is not None
        assert (finding.span.line, finding.span.column) == (71, 1)
        assert finding.file.endswith("buggy_clinic.oasis")
        assert "clinic/hr" in finding.message
        assert "med_badge" in finding.notes
        assert any(rel.span is not None and rel.span.line == 18
                   for rel in finding.related)

    def test_single_service_appointment_loop_is_not_escalation(self):
        # read_chart needs the allocated appointment, but everything stays
        # inside clinic/main: no cross-service chain, no OAS101.
        report = verify_universe(_universe(BUGGY_PAIR), ["no-escalation"])
        assert all(d.subject != "privilege clinic/main.read_chart"
                   for d in report.diagnostics)

    def test_revocation_soundness_holes(self):
        report = verify_universe(_universe(BUGGY_PAIR),
                                 ["revocation-sound"])
        positions = {(d.span.line, d.span.column)
                     for d in report.diagnostics}
        assert (32, 23) in positions   # doctor <- receptionist (passive)
        assert all(d.code == "OAS102" for d in report.diagnostics)
        anchor = next(d for d in report.diagnostics
                      if (d.span.line, d.span.column) == (32, 23))
        assert "read_chart" in anchor.message
        assert anchor.notes  # witness pinned through the passive edge

    def test_clean_trio_passes_defaults(self):
        # (the OAS101 on read_record is pragma-suppressed in the file;
        # verify_universe itself reports it — suppression is the
        # reporter/CLI layer's job)
        report = verify_universe(_universe(CLEAN_TRIO))
        assert {d.code for d in report.diagnostics} <= {"OAS101"}

    def test_can_reach_holds(self):
        report = verify_universe(
            _universe(CLEAN_TRIO),
            ["can-reach(anyone, hospital/records.read_record)"])
        assert report.diagnostics == []

    def test_cannot_reach_refuted_with_witness(self):
        report = verify_universe(
            _universe(CLEAN_TRIO),
            ["cannot-reach(anyone, hospital/records.read_record)"])
        (finding,) = report.diagnostics
        assert finding.code == "OAS100"
        assert "reaches privilege hospital/records.read_record" in \
            finding.message
        assert "via appointment rule" in finding.notes

    def test_can_reach_refuted_for_underivable(self):
        report = verify_universe(
            _universe(BUGGY_PAIR),
            ["can-reach(anyone, role clinic/main:mascot)"])
        (finding,) = report.diagnostics
        assert finding.code == "OAS100"
        assert "cannot reach" in finding.message

    def test_delegation_depth_bound(self):
        ok = verify_universe(_universe(CLEAN_TRIO),
                             ["delegation-depth<=1"])
        assert ok.diagnostics == []
        tight = verify_universe(_universe(CLEAN_TRIO),
                                ["delegation-depth<=0"])
        (finding,) = tight.diagnostics
        assert finding.code == "OAS103"
        assert finding.subject == "privilege hospital/records.read_record"
        assert "requires 1 delegation" in finding.message

    def test_assume_revoked_blocks_membership_chains(self):
        report = verify_universe(
            _universe(CLEAN_TRIO),
            ["can-reach(anyone, hospital/records.read_record)"],
            assume_revoked=["role hospital/login:logged_in_user"])
        assert any(d.code == "OAS100" and "cannot reach" in d.message
                   for d in report.diagnostics)

    def test_assume_revoked_reports_passive_survivors(self):
        report = verify_universe(
            _universe(BUGGY_PAIR), ["revocation-sound"],
            assume_revoked=["role clinic/main:receptionist"])
        survivors = [d for d in report.diagnostics if d.code == "OAS104"]
        (finding,) = survivors
        assert finding.subject == "privilege clinic/main.read_chart"
        assert "held before revocation" in finding.notes

    def test_report_counters(self):
        report = verify_universe(_universe(CLEAN_TRIO))
        assert report.fixpoint_runs >= 2
        assert report.iterations >= report.fixpoint_runs
        assert len(report.graph.edges) == 5


# -- the verify CLI ------------------------------------------------------------

class TestVerifyCli:
    def test_buggy_pair_fails_with_oas1xx(self, capsys):
        status = main(["verify", "--format", "json"] + BUGGY_PAIR)
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {entry["code"] for entry in payload["diagnostics"]}
        assert codes == {"OAS101", "OAS102"}
        escalation = next(e for e in payload["diagnostics"]
                          if e["code"] == "OAS101")
        assert escalation["line"] == 71
        assert "notes" in escalation
        assert escalation["related"]

    def test_clean_trio_passes_strict_via_pragma(self, capsys):
        # records.oasis carries `# oasis: ignore[OAS101]` on the authorize
        # rule: the admin-allocation chain is the design.
        status = main(["verify", "--strict"] + CLEAN_TRIO)
        assert status == 0
        assert "verify: ok" in capsys.readouterr().out

    def test_pragma_suppresses_oas1xx(self, tmp_path, capsys):
        (tmp_path / "a.oasis").write_text(
            "service d/a\n"
            "role boss(u)\n"
            "role worker(u)\n"
            "activate boss(u)\n"
            "activate worker(u) <- appointment d/b:badge(u)*\n"
            "# oasis: ignore[OAS101]\n"
            "authorize work() <- worker(u)*\n")
        (tmp_path / "b.oasis").write_text(
            "service d/b\n"
            "role hr(u)\n"
            "activate hr(u) <- d/a:boss(u)*\n"
            "appoint badge(u) <- hr(u)\n")
        status = main(["verify", "--strict", str(tmp_path)])
        assert status == 0
        capsys.readouterr()
        status = main(["verify", "--strict", "--format", "json",
                       str(tmp_path / "a.oasis"), str(tmp_path / "b.oasis")])
        assert status == 0

    def test_unknown_property_is_usage_error(self, capsys):
        status = main(["verify", "--property", "always-safe"] + CLEAN_TRIO)
        assert status == 2
        assert "unrecognised property" in capsys.readouterr().err

    def test_unknown_revoked_ref_is_usage_error(self, capsys):
        status = main(["verify", "--assume-revoked", "role x/y:zzz"]
                      + CLEAN_TRIO)
        assert status == 2
        assert "unknown" in capsys.readouterr().err

    def test_unknown_select_code_is_usage_error(self, capsys):
        status = main(["verify", "--select", "OAS999"] + CLEAN_TRIO)
        assert status == 2

    def test_sarif_output(self, capsys):
        status = main(["verify", "--format", "sarif"] + BUGGY_PAIR)
        assert status == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "oasis-policy-verify"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"OAS100", "OAS101", "OAS102", "OAS103",
                "OAS104"} <= rule_ids
        results = log["runs"][0]["results"]
        assert any(r.get("relatedLocations") for r in results)

    def test_parse_failure_surfaces_as_oas000(self, tmp_path, capsys):
        bad = tmp_path / "bad.oasis"
        bad.write_text("service hospital/x\nrole !bad\n")
        status = main(["verify", str(bad), "--format", "json"])
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"][0]["code"] == "OAS000"


class TestInternalErrorExitCode:
    def test_lint_internal_error_exits_2(self, capsys, monkeypatch):
        import repro.lang.cli as cli

        def boom(context):
            raise RuntimeError("pass framework exploded")

        monkeypatch.setattr(cli, "run_passes", boom)
        status = main(["lint"] + CLEAN_TRIO)
        assert status == 2
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "pass framework exploded" in err

    def test_verify_internal_error_exits_2(self, capsys, monkeypatch):
        from repro.lang.verify import properties

        def boom(graph, *args, **kwargs):
            raise RuntimeError("fixpoint diverged")

        monkeypatch.setattr(properties, "run_fixpoint", boom)
        status = main(["verify"] + CLEAN_TRIO)
        assert status == 2
        assert "internal error" in capsys.readouterr().err
