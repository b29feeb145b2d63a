"""Tests for the policy file loader and the CLI tooling."""

import os

import pytest

from repro.lang import load_policies, load_policy_file
from repro.lang.cli import main

LOGIN = """service hospital/login
role logged_in_user(u)
activate logged_in_user(u)
"""

ADMIN = """service hospital/admin
role administrator(u)
activate administrator(u) <- hospital/login:logged_in_user(u)*
appoint allocated(d, p) <- administrator(a)
"""

BROKEN = """service hospital/broken
role needs_ghost(u)
activate needs_ghost(u) <- hospital/login:ghost(u)*
"""


@pytest.fixture
def policy_dir(tmp_path):
    (tmp_path / "login.oasis").write_text(LOGIN)
    (tmp_path / "admin.oasis").write_text(ADMIN)
    (tmp_path / "notes.txt").write_text("not a policy")
    return tmp_path


class TestLoader:
    def test_load_single_file(self, policy_dir):
        policy = load_policy_file(str(policy_dir / "login.oasis"))
        assert policy.defines_role("logged_in_user")

    def test_load_directory_discovers_oasis_files(self, policy_dir):
        policies, universe = load_policies([str(policy_dir)])
        assert len(policies) == 2
        assert len(universe.all_roles()) == 2

    def test_duplicate_service_rejected(self, policy_dir):
        (policy_dir / "dup.oasis").write_text(LOGIN)
        with pytest.raises(ValueError, match="already defined"):
            load_policies([str(policy_dir)])

    def test_mixed_files_and_directories(self, policy_dir, tmp_path):
        extra_dir = tmp_path / "extra"
        extra_dir.mkdir()
        (extra_dir / "records.oasis").write_text(
            "service hospital/records\nrole r(u)\nactivate r(u)\n")
        policies, _ = load_policies(
            [str(policy_dir / "login.oasis"), str(extra_dir)])
        assert len(policies) == 2


class TestCli:
    def test_check_clean(self, policy_dir, capsys):
        status = main(["check", str(policy_dir)])
        out = capsys.readouterr().out
        assert status == 0
        assert "lint: clean (2 file(s), 2 service(s))" in out

    def test_check_reports_errors(self, policy_dir, capsys):
        (policy_dir / "broken.oasis").write_text(BROKEN)
        status = main(["check", str(policy_dir)])
        out = capsys.readouterr().out
        assert status == 1
        assert "broken.oasis:3:28: error[OAS002]" in out

    def test_check_parse_failure(self, tmp_path, capsys):
        (tmp_path / "bad.oasis").write_text("this is not policy")
        status = main(["check", str(tmp_path)])
        assert status == 1
        assert "bad.oasis:1:1: error[OAS000]" in capsys.readouterr().out

    def test_format_prints_canonical(self, policy_dir, capsys):
        status = main(["format", str(policy_dir / "login.oasis")])
        out = capsys.readouterr().out
        assert status == 0
        assert out.startswith("service hospital/login")

    def test_format_write_in_place(self, policy_dir):
        target = policy_dir / "login.oasis"
        original = target.read_text()
        status = main(["format", "--write", str(target)])
        assert status == 0
        reformatted = target.read_text()
        assert "service hospital/login" in reformatted
        # idempotent
        main(["format", "--write", str(target)])
        assert target.read_text() == reformatted

    def test_format_missing_file(self, capsys):
        assert main(["format", "/nonexistent.oasis"]) == 1

    def test_check_strict_fails_on_warnings(self, policy_dir, capsys):
        # A credential held without the membership flag is a warning:
        # plain check passes but --strict gates on it.
        (policy_dir / "audit.oasis").write_text(
            "service hospital/audit\n"
            "role auditor(u)\n"
            "activate auditor(u) <- hospital/login:logged_in_user(u)\n"
            "authorize view() <- auditor(a)\n")
        assert main(["check", str(policy_dir)]) == 0
        capsys.readouterr()
        status = main(["check", "--strict", str(policy_dir)])
        out = capsys.readouterr().out
        assert status == 1
        assert "warning[OAS006]" in out

    def test_check_strict_passes_when_clean(self, tmp_path, capsys):
        (tmp_path / "clean.oasis").write_text(
            "service hospital/clean\n"
            "role a(u)\n"
            "activate a(u)\n"
            "authorize use() <- a(u)\n")
        assert main(["check", "--strict", str(tmp_path)]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_check_is_lint(self, tmp_path, capsys):
        # One gate: `check` honours the pragmas, filters and reporters
        # `lint` does, with the same exit status and the same report.
        (tmp_path / "login.oasis").write_text(LOGIN)
        (tmp_path / "audit.oasis").write_text(
            "service hospital/audit\n"
            "role auditor(u)\n"
            "activate auditor(u) <- hospital/login:logged_in_user(u)"
            "  # oasis: ignore[OAS006]\n"
            "authorize view() <- auditor(a)\n")
        runs = {}
        for argv in (["--strict"], ["--strict", "--format", "json"],
                     ["--select", "OAS006"]):
            for command in ("check", "lint"):
                status = main([command, *argv, str(tmp_path)])
                runs[command] = (status, capsys.readouterr())
            assert runs["check"] == runs["lint"], argv
        assert runs["lint"][0] == 0
        assert runs["lint"][1].out.startswith("lint: clean")

    def test_graph(self, policy_dir, capsys):
        status = main(["graph", str(policy_dir)])
        out = capsys.readouterr().out
        assert status == 0
        assert ("hospital/login:logged_in_user -> "
                "hospital/admin:administrator") in out

    def test_graph_lists_each_edge_once(self, policy_dir, capsys):
        main(["graph", str(policy_dir)])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(set(lines)) == 1
        assert all(" -> " in line for line in lines)

    def test_reach(self, policy_dir, capsys):
        status = main(["reach", str(policy_dir)])
        out = capsys.readouterr().out
        assert status == 0
        assert "reachable" in out
        assert "UNREACHABLE" not in out

    def test_reach_marks_unreachable_roles(self, policy_dir, capsys):
        (policy_dir / "broken.oasis").write_text(BROKEN)
        status = main(["reach", str(policy_dir)])
        out = capsys.readouterr().out
        assert status == 0
        assert "UNREACHABLE  hospital/broken:needs_ghost" in out
        assert "reachable    hospital/login:logged_in_user" in out

    @pytest.mark.parametrize("command", ["graph", "reach"])
    def test_report_names_an_unparsable_file(self, policy_dir, capsys,
                                             command):
        (policy_dir / "bad.oasis").write_text(
            "service hospital/bad\nrole r(u)\nactivate r(u) <- $\n")
        status = main([command, str(policy_dir)])
        captured = capsys.readouterr()
        assert status == 1
        assert "bad.oasis:3:18: error[OAS000]" in captured.out
        assert "internal error" not in captured.err

    @pytest.mark.parametrize("command", ["graph", "reach"])
    def test_report_names_a_duplicated_service(self, policy_dir, capsys,
                                               command):
        (policy_dir / "dup.oasis").write_text(LOGIN)
        status = main([command, str(policy_dir)])
        captured = capsys.readouterr()
        assert status == 1
        assert "error[OAS000]" in captured.out
        assert "service hospital/login already defined" in captured.out
        assert "internal error" not in captured.err

    @pytest.mark.parametrize("command", ["graph", "reach"])
    def test_report_of_no_policy_files_is_a_usage_error(self, tmp_path,
                                                        capsys, command):
        (tmp_path / "notes.txt").write_text("not a policy")
        assert main([command, str(tmp_path)]) == 2
        assert ("no .oasis policy files found"
                in capsys.readouterr().err)

    def test_lint_clean(self, tmp_path, capsys):
        (tmp_path / "clean.oasis").write_text(
            "service hospital/clean\n"
            "role a(u)\n"
            "activate a(u)\n"
            "authorize use() <- a(u)\n")
        status = main(["lint", "--strict", str(tmp_path)])
        assert status == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_lint_reports_errors_with_positions(self, policy_dir, capsys):
        (policy_dir / "broken.oasis").write_text(BROKEN)
        status = main(["lint", str(policy_dir)])
        out = capsys.readouterr().out
        assert status == 1
        assert "error[OAS002]" in out
        assert "broken.oasis:3:28:" in out
