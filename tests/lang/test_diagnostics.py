"""Tests for the static-analysis framework: diagnostics, spans,
suppression, reporters, and the ``lint`` CLI gate."""

import json
import os

import pytest

from repro.core.rules import SourceSpan
from repro.policy import parse_policy
from repro.lang.cli import main
from repro.lang.diagnostics import (
    CODES,
    CODES_BY_NAME,
    Diagnostic,
    collect_suppressions,
    filter_diagnostics,
    is_suppressed,
    render_excerpt,
    render_json,
    render_sarif,
    render_text,
)
from repro.lang.loader import load_unit
from repro.policy.parser import ParseError, parse_document
from repro.lang.passes import run_passes
from repro.lang.universe import PolicyUniverse
from repro.netd.worlds import POLICY_DIR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BUGGY = os.path.join(REPO_ROOT, "examples", "policies",
                     "buggy_clinic.oasis")
CLEAN = [os.path.join(POLICY_DIR, name)
         for name in ("ehr/admin.oasis", "ehr/login.oasis",
                      "hospital/records.oasis")]


# -- the code registry ---------------------------------------------------------

class TestCodeRegistry:
    def test_codes_are_stable(self):
        lint_codes = {f"OAS{i:03d}" for i in range(13)}
        verify_codes = {f"OAS{i}" for i in range(100, 105)}
        assert set(CODES) == lint_codes | verify_codes

    def test_slugs_match_legacy_finding_codes(self):
        # The slugs `check` prints and --select accepts must stay stable.
        for slug in ("range-restriction", "unknown-role",
                     "unissuable-appointment", "unreachable-role",
                     "prerequisite-cycle", "passive-dependency",
                     "duplicate-rule", "privilege-less-role"):
            assert slug in CODES_BY_NAME

    def test_every_code_has_valid_severity(self):
        for info in CODES.values():
            assert info.severity in ("error", "warning", "info")


class TestDiagnostic:
    def test_defaults_severity_from_code(self):
        assert Diagnostic("OAS006", "m").severity == "warning"
        assert Diagnostic("OAS002", "m").severity == "error"
        assert Diagnostic("OAS012", "m").severity == "info"

    def test_severity_override(self):
        assert Diagnostic("OAS006", "m", severity="error").severity == "error"

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic("OAS999", "m")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Diagnostic("OAS006", "m", severity="fatal")

    def test_str_includes_location_code_subject(self):
        diagnostic = Diagnostic("OAS006", "the message", subject="a:b",
                                file="p.oasis",
                                span=SourceSpan(3, 7, 3, 10))
        assert str(diagnostic) == (
            "p.oasis:3:7: warning[OAS006] a:b: the message")

    def test_name_is_slug(self):
        assert Diagnostic("OAS007", "m").name == "revocation-gap"


# -- span threading ------------------------------------------------------------

class TestSpanThreading:
    TEXT = """service hospital/login
role logged_in_user(u)
role doctor(u)
activate doctor(u) <- logged_in_user(u)*
"""

    def test_rule_origin_span(self):
        policy = parse_policy(self.TEXT)
        (rule,) = policy.activation_rules_for("doctor")
        assert rule.origin is not None
        assert (rule.origin.line, rule.origin.column) == (4, 1)
        assert rule.origin.end_line == 4

    def test_condition_origin_span(self):
        policy = parse_policy(self.TEXT)
        (rule,) = policy.activation_rules_for("doctor")
        (condition,) = rule.conditions
        assert (condition.origin.line, condition.origin.column) == (4, 23)
        # end column is exclusive and covers "logged_in_user(u)*"
        assert condition.origin.end_column == 23 + len("logged_in_user(u)*")

    def test_spans_do_not_affect_equality(self):
        with_spans = parse_policy(self.TEXT)
        (spanned,) = with_spans.activation_rules_for("doctor")
        shifted = "# a leading comment moves every line down\n" + self.TEXT
        (moved,) = parse_policy(shifted).activation_rules_for("doctor")
        assert spanned == moved
        assert spanned.origin != moved.origin


# -- parse errors carry positions ----------------------------------------------

class TestParseErrorPositions:
    def test_parse_error_has_line_and_column(self):
        with pytest.raises(ParseError) as excinfo:
            parse_document("service hospital/login\nrole !bad\n")
        assert excinfo.value.line == 2
        assert excinfo.value.column >= 1
        assert "line 2" in str(excinfo.value)

    def test_cli_check_prints_caret(self, tmp_path, capsys):
        bad = tmp_path / "bad.oasis"
        bad.write_text("service hospital/x\nrole !bad\nrole ok(u)\n")
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:2:" in out
        assert "^" in out

    def test_cli_format_prints_caret(self, tmp_path, capsys):
        bad = tmp_path / "bad.oasis"
        bad.write_text("service hospital/x\nrole !bad\nrole ok(u)\n")
        assert main(["format", str(bad)]) == 1
        assert "^" in capsys.readouterr().err

    def test_lint_turns_parse_error_into_oas000(self, tmp_path, capsys):
        bad = tmp_path / "bad.oasis"
        bad.write_text("service hospital/x\nrole !bad\nrole ok(u)\n")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["diagnostics"]
        assert entry["code"] == "OAS000"
        assert entry["severity"] == "error"
        assert entry["line"] == 2


# -- suppression pragmas -------------------------------------------------------

class TestSuppression:
    def test_end_of_line_pragma(self):
        table = collect_suppressions("a\nb  # oasis: ignore[OAS006]\n")
        assert table == {2: frozenset({"OAS006"})}

    def test_comment_only_line_applies_to_next(self):
        table = collect_suppressions("# oasis: ignore[OAS006, OAS009]\nb\n")
        assert table == {2: frozenset({"OAS006", "OAS009"})}

    def test_bare_ignore_suppresses_everything(self):
        table = collect_suppressions("b  # oasis: ignore\n")
        assert table == {1: frozenset()}
        diagnostic = Diagnostic("OAS004", "m", span=SourceSpan(1, 1, 1, 2))
        assert is_suppressed(diagnostic, table)

    def test_other_codes_not_suppressed(self):
        table = collect_suppressions("b  # oasis: ignore[OAS006]\n")
        hit = Diagnostic("OAS006", "m", span=SourceSpan(1, 1, 1, 2))
        miss = Diagnostic("OAS009", "m", span=SourceSpan(1, 1, 1, 2))
        assert is_suppressed(hit, table)
        assert not is_suppressed(miss, table)

    def test_spanless_diagnostic_never_suppressed(self):
        table = {1: frozenset()}
        assert not is_suppressed(Diagnostic("OAS006", "m"), table)

    def test_pragma_silences_lint_finding(self, tmp_path, capsys):
        text = ("service hospital/x\n"
                "role a(u)\n"
                "role b(u)\n"
                "activate a(u)\n"
                "activate b(u) <- a(u)  # oasis: ignore[OAS006, OAS012]\n")
        path = tmp_path / "x.oasis"
        path.write_text(text)
        status = main(["lint", str(path), "--strict", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        codes = {entry["code"] for entry in payload["diagnostics"]}
        assert "OAS006" not in codes
        # the OAS012 on role a (line 4) is NOT covered by the pragma
        assert status == 0 or codes <= {"OAS012"}


# -- select / ignore -----------------------------------------------------------

class TestFilters:
    def _diags(self):
        return [Diagnostic("OAS006", "m", file="f"),
                Diagnostic("OAS012", "m", file="f")]

    def test_select_by_code(self):
        kept = filter_diagnostics(self._diags(), {}, select=["OAS006"])
        assert [d.code for d in kept] == ["OAS006"]

    def test_select_by_slug(self):
        kept = filter_diagnostics(self._diags(), {},
                                  select=["privilege-less-role"])
        assert [d.code for d in kept] == ["OAS012"]

    def test_ignore(self):
        kept = filter_diagnostics(self._diags(), {}, ignore=["OAS012"])
        assert [d.code for d in kept] == ["OAS006"]

    def test_comma_separated(self):
        kept = filter_diagnostics(self._diags(), {},
                                  ignore=["OAS006,OAS012"])
        assert kept == []

    def test_unknown_code_raises(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            filter_diagnostics(self._diags(), {}, select=["OAS999"])


# -- reporters -----------------------------------------------------------------

class TestReporters:
    DIAG = Diagnostic("OAS006", "the message", subject="s:r",
                      file="p.oasis", span=SourceSpan(2, 5, 2, 9))
    SOURCE = {"p.oasis": "line one\nline two is here\n"}

    def test_excerpt_caret_width(self):
        excerpt = render_excerpt("abcdef\n", 1, 2, 1, 5)
        assert excerpt.splitlines()[1].strip() == "^^^"

    def test_excerpt_out_of_range(self):
        assert render_excerpt("abc\n", 9, 1) == ""

    def test_text_report_includes_excerpt(self):
        report = render_text([self.DIAG], self.SOURCE)
        assert "p.oasis:2:5: warning[OAS006] s:r: the message" in report
        assert "line two is here" in report
        assert "^^^^" in report

    def test_json_report(self):
        payload = json.loads(render_json([self.DIAG]))
        assert payload["version"] == 1
        (entry,) = payload["diagnostics"]
        assert entry["code"] == "OAS006"
        assert entry["name"] == "passive-dependency"
        assert (entry["line"], entry["column"]) == (2, 5)
        assert (entry["end_line"], entry["end_column"]) == (2, 9)


# SARIF property subset we rely on, checked with jsonschema when present.
_SARIF_MINI_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                                "properties": {
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id", "name"],
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "level", "message"],
                            "properties": {
                                "level": {"enum": ["error", "warning",
                                                   "note", "none"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def _log(self):
        return json.loads(render_sarif([TestReporters.DIAG]))

    def test_validates_against_schema_subset(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(self._log(), _SARIF_MINI_SCHEMA)

    def test_structure(self):
        log = self._log()
        assert log["version"] == "2.1.0"
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "oasis-policy-lint"
        assert [rule["id"] for rule in driver["rules"]] == sorted(CODES)
        assert driver["rules"][6]["name"] == "PassiveDependency"

    def test_result_links_rule_and_region(self):
        log = self._log()
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "OAS006"
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["rules"][result["ruleIndex"]]["id"] == "OAS006"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 2, "startColumn": 5,
                          "endLine": 2, "endColumn": 9}

    def test_info_maps_to_note(self):
        log = json.loads(render_sarif([Diagnostic("OAS012", "m")]))
        assert log["runs"][0]["results"][0]["level"] == "note"


# -- the golden fixture --------------------------------------------------------

#: Every defect seeded into buggy_clinic.oasis: (code, line, column).
EXPECTED_BUGGY_FINDINGS = {
    ("OAS001", 20, 1),    # nurse: `ward` unbound
    ("OAS002", 24, 24),   # ghost prerequisite
    ("OAS003", 28, 27),   # never_issued appointment
    ("OAS004", 24, 1),    # auditor unreachable (ghost)
    ("OAS004", 28, 1),    # ward_clerk unreachable
    ("OAS004", 50, 1),    # mascot unreachable
    ("OAS005", 32, 1),    # doctor <-> surgeon cycle
    ("OAS005", 50, 1),    # mascot <-> ward_clerk cycle
    ("OAS006", 24, 24),   # auditor passively depends on ghost
    ("OAS006", 32, 23),   # doctor passively depends on receptionist
    ("OAS006", 44, 23),   # ...again in the shadowed rule
    ("OAS006", 44, 40),   # ...and on surgeon
    ("OAS007", 36, 24),   # surgeon revocation gap through doctor
    ("OAS008", 39, 1),    # duplicated surgeon rule
    ("OAS009", 44, 1),    # shadowed doctor rule
    ("OAS010", 50, 23),   # receptionist arity dodge
    ("OAS011", 59, 1),    # allocated parameter 2: number vs string
    ("OAS012", 20, 1),    # nurse privilege-less
    ("OAS012", 24, 1),    # auditor privilege-less
}


class TestBuggyFixture:
    def test_every_code_fires_at_expected_position(self, capsys):
        status = main(["lint", BUGGY, "--format", "json"])
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        got = {(e["code"], e["line"], e["column"])
               for e in payload["diagnostics"]}
        assert got == EXPECTED_BUGGY_FINDINGS

    def test_all_codes_covered(self):
        # Per-file lint codes only; the OAS1xx whole-universe codes are
        # exercised by tests/lang/test_verify.py instead.
        exercised = {code for code, _, _ in EXPECTED_BUGGY_FINDINGS}
        lint_codes = {code for code in CODES if code < "OAS100"}
        assert exercised == lint_codes - {"OAS000"}

    def test_diagnose_matches_run_passes(self):
        unit = load_unit(BUGGY, allow_unresolved=True)
        diagnostics = run_passes(PolicyUniverse.from_units([unit]))
        got = {(d.code, d.span.line, d.span.column) for d in diagnostics
               if d.span is not None}
        assert got == EXPECTED_BUGGY_FINDINGS

    def test_diagnose_sees_same_findings(self):
        unit = load_unit(BUGGY, allow_unresolved=True)
        findings = PolicyUniverse.from_units([unit]).diagnose()
        assert {d.name for d in findings} == {
            CODES[code].name for code, _, _ in EXPECTED_BUGGY_FINDINGS}

    def test_sarif_output_for_fixture_is_schema_clean(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        main(["lint", BUGGY, "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        jsonschema.validate(log, _SARIF_MINI_SCHEMA)
        assert len(log["runs"][0]["results"]) == len(EXPECTED_BUGGY_FINDINGS)


# -- the lint CLI gate ---------------------------------------------------------

class TestLintCli:
    def test_clean_policies_pass_strict(self, capsys):
        status = main(["lint", "--strict"] + CLEAN)
        assert status == 0
        assert "lint: clean" in capsys.readouterr().out

    @pytest.mark.parametrize("path", CLEAN, ids=os.path.basename)
    def test_each_deployed_policy_lints_clean_alone(self, path, capsys):
        # A deployable policy must lint clean without its neighbours:
        # credentials of services outside the universe are assumed
        # obtainable, so a partial universe raises no OAS004.
        assert main(["lint", "--strict", path]) == 0

    def test_warning_only_policy(self, tmp_path, capsys):
        text = ("service hospital/x\n"
                "role a(u)\n"
                "role b(u)\n"
                "activate a(u)\n"
                "activate b(u) <- a(u)\n"
                "authorize use() <- b(u)\n")
        path = tmp_path / "x.oasis"
        path.write_text(text)
        assert main(["lint", str(path)]) == 0
        capsys.readouterr()
        assert main(["lint", str(path), "--strict"]) == 1

    def test_select_restricts_output(self, capsys):
        status = main(["lint", BUGGY, "--select", "OAS008",
                       "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert {e["code"] for e in payload["diagnostics"]} == {"OAS008"}
        # OAS008 is a warning, so without --strict the gate passes
        assert status == 0

    def test_unknown_select_code_is_usage_error(self, capsys):
        assert main(["lint", BUGGY, "--select", "OAS999"]) == 2
        assert "unknown diagnostic code" in capsys.readouterr().err

    def test_no_policy_files_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path)]) == 2

    def test_duplicate_service_reported_as_oas000(self, tmp_path, capsys):
        text = "service hospital/x\nrole a(u)\nactivate a(u)\n"
        (tmp_path / "one.oasis").write_text(text)
        (tmp_path / "two.oasis").write_text(text)
        status = main(["lint", str(tmp_path), "--format", "json"])
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        codes = [e["code"] for e in payload["diagnostics"]]
        assert "OAS000" in codes
