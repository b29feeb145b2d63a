"""Tests for cross-service policy analysis."""

import pytest

from repro.core import ServiceId
from repro.lang import PolicyUniverse
from repro.lang.verify import Atom, build_graph, run_fixpoint
from repro.policy import parse_policy


def universe_of(*texts):
    return PolicyUniverse(parse_policy(text, allow_unresolved=True)
                          for text in texts)


def reachable_roles(universe, **fixpoint_options):
    """Names of the defined roles derivable in the one closure."""
    closure = run_fixpoint(build_graph(universe), **fixpoint_options)
    return {str(role) for role in universe.all_roles()
            if closure.role_reachable(role)}


def unreachable_roles(universe):
    return sorted({str(role) for role in universe.all_roles()}
                  - reachable_roles(universe))


ALLOCATED = Atom.appointment(ServiceId("hospital", "admin"), "allocated", 2)


LOGIN = """
service hospital/login
role logged_in_user(u)
activate logged_in_user(u)
"""

ADMIN = """
service hospital/admin
role administrator(u)
activate administrator(u) <- hospital/login:logged_in_user(u)*
appoint allocated(d, p) <- administrator(a)
"""

RECORDS = """
service hospital/records
role treating_doctor(d, p)
activate treating_doctor(d, p) <-
    hospital/login:logged_in_user(d)*,
    appointment hospital/admin:allocated(d, p)*,
    where registered(d, p)*
authorize read_record(p) <- treating_doctor(d, p)
"""


class TestStructure:
    def test_all_roles(self):
        universe = universe_of(LOGIN, ADMIN, RECORDS)
        names = [str(role) for role in universe.all_roles()]
        assert "hospital/login:logged_in_user" in names
        assert "hospital/records:treating_doctor" in names

    def test_duplicate_policy_rejected(self):
        with pytest.raises(ValueError):
            universe_of(LOGIN, LOGIN)

    def test_dependency_graph(self):
        universe = universe_of(LOGIN, ADMIN, RECORDS)
        edges = {(str(a), str(b))
                 for a, b in build_graph(universe).role_edges()}
        assert ("hospital/login:logged_in_user",
                "hospital/admin:administrator") in edges
        assert ("hospital/login:logged_in_user",
                "hospital/records:treating_doctor") in edges

    def test_appointments_defined_and_required(self):
        graph = build_graph(universe_of(LOGIN, ADMIN, RECORDS))
        # defined: some appointment rule derives it; required: some rule
        # has it as a credential condition.
        assert ALLOCATED in graph.edges_by_target
        assert ALLOCATED in {condition.atom for edge in graph.edges
                             for condition in edge.conditions}


class TestReachability:
    def test_full_chain_reachable(self):
        universe = universe_of(LOGIN, ADMIN, RECORDS)
        assert "hospital/records:treating_doctor" in reachable_roles(universe)
        assert unreachable_roles(universe) == []

    def test_missing_appointment_makes_role_unreachable(self):
        # No admin service in the universe: 'allocated' is an external
        # credential, assumed obtainable, so the role counts as reachable
        # unless the appointment is explicitly taken away.
        universe = universe_of(LOGIN, RECORDS)
        assert "hospital/records:treating_doctor" in reachable_roles(universe)
        restricted = reachable_roles(universe,
                                     revoked=frozenset({ALLOCATED}))
        assert "hospital/records:treating_doctor" not in restricted

    def test_explicit_appointments_enable_roles(self):
        # A universe where nothing can issue 'allocated' (the issuer is
        # analysed and has no appointment rule): only the assumption that
        # the principal holds the certificate enables the role.
        mute_admin = "service hospital/admin\n"
        universe = universe_of(LOGIN, mute_admin, RECORDS)
        assert "hospital/records:treating_doctor" not in \
            reachable_roles(universe)
        assert "hospital/records:treating_doctor" in reachable_roles(
            universe, assumptions=frozenset({ALLOCATED}))

    def test_cycle_roles_unreachable(self):
        a = """
        service dom/a
        role ra(u)
        activate ra(u) <- dom/b:rb(u)
        """
        b = """
        service dom/b
        role rb(u)
        activate rb(u) <- dom/a:ra(u)
        """
        universe = universe_of(a, b)
        assert len(unreachable_roles(universe)) == 2


class TestCycles:
    def test_no_cycles_in_hospital(self):
        graph = build_graph(universe_of(LOGIN, ADMIN, RECORDS))
        assert graph.role_cycles() == []

    def test_two_role_cycle_found(self):
        a = """
        service dom/a
        role ra(u)
        activate ra(u) <- dom/b:rb(u)
        """
        b = """
        service dom/b
        role rb(u)
        activate rb(u) <- dom/a:ra(u)
        """
        cycles = build_graph(universe_of(a, b)).role_cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 2


class TestLint:
    def test_clean_universe(self):
        findings = universe_of(LOGIN, ADMIN, RECORDS).diagnose()
        assert all(f.severity != "error" for f in findings)

    def test_passive_dependency_warning(self):
        passive = """
        service hospital/audit
        role auditor(u)
        activate auditor(u) <- hospital/login:logged_in_user(u)
        """
        findings = universe_of(LOGIN, passive).diagnose()
        codes = [f.name for f in findings if f.severity == "warning"]
        assert "passive-dependency" in codes

    def test_unknown_role_error(self):
        broken = """
        service hospital/x
        role needs_ghost(u)
        activate needs_ghost(u) <- hospital/login:ghost_role(u)*
        """
        findings = universe_of(LOGIN, broken).diagnose()
        assert any(f.name == "unknown-role" and f.severity == "error"
                   for f in findings)

    def test_unissuable_appointment_error(self):
        broken = """
        service hospital/x
        role needs_cert(u)
        activate needs_cert(u) <-
            appointment hospital/login:never_issued(u)*
        """
        findings = universe_of(LOGIN, broken).diagnose()
        assert any(f.name == "unissuable-appointment" for f in findings)

    def test_unreachable_role_error(self):
        cyc = """
        service dom/a
        role ra(u)
        activate ra(u) <- dom/a2:never(u)*
        """
        # dom/a2 is unknown to the universe -> its policy cannot be
        # inspected, so the prerequisite is assumed obtainable (the rule
        # verify and OAS002/OAS003 apply too): NOT unreachable.
        findings = universe_of(cyc).diagnose()
        assert not any(f.name == "unreachable-role" for f in findings)

    def test_unreachable_role_error_in_universe(self):
        # The in-universe twin: dom/a is analysed and defines no `never`,
        # so the reference dangles (OAS002) and the role is dead (OAS004).
        broken = """
        service dom/a
        role ra(u)
        activate ra(u) <- dom/a:never(u)*
        """
        findings = universe_of(broken).diagnose()
        assert any(f.name == "unknown-role" for f in findings)
        assert any(f.name == "unreachable-role" and f.severity == "error"
                   for f in findings)

    def test_privilege_less_role_info(self):
        idle = """
        service dom/idle
        role ornament(u)
        activate ornament(u)
        """
        findings = universe_of(idle).diagnose()
        assert any(f.name == "privilege-less-role" for f in findings)
