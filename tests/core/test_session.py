"""Tests for client-side sessions and principals."""

import pytest

from repro.core import Principal, SessionError
from repro.domains import Deployment
from repro.scenarios import build_hospital


class TestPrincipal:
    def test_wallet_stores_and_filters(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        assert len(doctor.appointments()) == 1
        assert doctor.appointments("allocated")[0].name == "allocated"
        assert doctor.appointments("other") == []

    def test_drop_appointment(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        ref = doctor.appointments()[0].ref
        assert doctor.drop_appointment(ref)
        assert not doctor.drop_appointment(ref)
        assert doctor.appointments() == []

    def test_with_keys_sets_fingerprint(self):
        principal = Principal("alice")
        assert principal.key_fingerprint is None
        principal.with_keys(bits=128)
        assert principal.key_fingerprint is not None

    def test_repr(self):
        assert "alice" in repr(Principal("alice"))


class TestSessionLifecycle:
    def test_session_ids_are_unique(self, hospital):
        a = Principal("a").start_session(hospital.login, "logged_in_user",
                                         ["a"])
        b = Principal("b").start_session(hospital.login, "logged_in_user",
                                         ["b"])
        assert a.session_id != b.session_id

    def test_session_id_recorded_in_credential_record(self, hospital):
        session = Principal("a").start_session(
            hospital.login, "logged_in_user", ["a"])
        record = hospital.login.credential_record(session.root_rmc.ref)
        assert record.session_id == session.session_id

    def test_active_roles_reflect_cascade(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        assert len(session.active_roles()) == 2
        hospital.db.delete("registered", doctor="d1", patient="p1")
        names = [r.role_name.name for r in session.active_roles()]
        assert names == ["logged_in_user"]

    def test_logout_terminates_session(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        session.logout()
        assert session.terminated
        assert session.active_rmcs() == []

    def test_terminated_session_refuses_use(self, hospital):
        session = Principal("a").start_session(
            hospital.login, "logged_in_user", ["a"])
        session.logout()
        with pytest.raises(SessionError):
            session.activate(hospital.records, "treating_doctor",
                             ["a", "p"])
        with pytest.raises(SessionError):
            session.invoke(hospital.records, "read_record", ["p"])
        with pytest.raises(SessionError):
            session.logout()

    def test_deactivate_non_root_keeps_session_alive(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        assert session.deactivate(treating)
        assert not session.terminated
        assert [r.role_name.name for r in session.active_roles()] \
            == ["logged_in_user"]

    def test_deactivate_foreign_rmc_rejected(self, hospital):
        session_a = Principal("a").start_session(
            hospital.login, "logged_in_user", ["a"])
        session_b = Principal("b").start_session(
            hospital.login, "logged_in_user", ["b"])
        with pytest.raises(SessionError):
            session_a.deactivate(session_b.root_rmc)

    def test_dependency_edges_form_tree(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        edges = session.dependency_edges()
        assert (session.root_rmc.ref, treating.ref) in edges

    def test_holds_role(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        rmc = session.activate(hospital.records, "treating_doctor",
                               use_appointments=doctor.appointments())
        assert session.holds_role(rmc.role)
        hospital.records.revoke(rmc.ref)
        assert not session.holds_role(rmc.role)

    def test_reactivation_after_collapse(self, hospital):
        """Deactivated roles can be re-entered while conditions hold."""
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        first = session.activate(hospital.records, "treating_doctor",
                                 use_appointments=doctor.appointments())
        hospital.records.revoke(first.ref, "temporary suspension")
        second = session.activate(hospital.records, "treating_doctor",
                                  use_appointments=doctor.appointments())
        assert second.ref != first.ref
        assert hospital.records.is_active(second.ref)

    def test_on_deactivation_notifies_on_cascade(self, hospital):
        """Push-based: the session hears about a collapse immediately."""
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        events = []
        session.on_deactivation(
            lambda rmc, reason: events.append((str(rmc.role), reason)))
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        hospital.db.delete("registered", doctor="d1", patient="p1")
        assert len(events) == 1
        role, reason = events[0]
        assert "treating_doctor" in role
        assert "became false" in reason

    def test_on_deactivation_covers_prior_rmcs(self, hospital):
        """Handlers registered late still watch already-held roles."""
        session = Principal("u").start_session(hospital.login,
                                               "logged_in_user", ["u"])
        events = []
        session.on_deactivation(lambda rmc, reason: events.append(reason))
        hospital.login.revoke(session.root_rmc.ref, "admin kick")
        assert events == ["admin kick"]

    def test_on_deactivation_fires_once_per_role(self, hospital):
        session = Principal("u").start_session(hospital.login,
                                               "logged_in_user", ["u"])
        events = []
        session.on_deactivation(lambda rmc, reason: events.append(1))
        hospital.login.revoke(session.root_rmc.ref, "x")
        hospital.login.revoke(session.root_rmc.ref, "x")  # idempotent
        assert events == [1]

    def test_logout_notifies_whole_tree(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        names = []
        session.on_deactivation(
            lambda rmc, reason: names.append(rmc.role.role_name.name))
        session.logout()
        assert sorted(names) == ["logged_in_user", "treating_doctor"]

    def test_bound_key_flows_into_rmc(self, hospital):
        principal = Principal("alice").with_keys(bits=128)
        session = principal.start_session(hospital.login, "logged_in_user",
                                          ["alice"])
        assert session.root_rmc.bound_key == principal.key_fingerprint


class TestWatchSubscriptionLifecycle:
    """The session must not leak broker subscriptions (satellite fix)."""

    def _watched_session(self, hospital, doctor):
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.on_deactivation(lambda rmc, reason: None)
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        return session

    def test_logout_releases_all_watch_subscriptions(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = self._watched_session(hospital, doctor)
        assert session._watch_subs
        session.logout()
        assert session._watch_subs == {}

    def test_watched_session_leaves_no_residue_on_broker(self):
        """After logout, a session that registered deactivation handlers
        leaves exactly as many broker subscriptions behind as one that
        never watched anything."""
        counts = []
        for watch in (False, True):
            deployment = Deployment(use_network=False)
            world = build_hospital(deployment)
            doctor = world.admit_doctor("d1", "p1")
            session = doctor.start_session(world.login, "logged_in_user",
                                           ["d1"])
            if watch:
                session.on_deactivation(lambda rmc, reason: None)
            session.activate(world.records, "treating_doctor",
                             use_appointments=doctor.appointments())
            session.logout()
            counts.append(deployment.broker.subscriber_count())
        assert counts[0] == counts[1]

    def test_issuer_revocation_cancels_that_watch(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = self._watched_session(hospital, doctor)
        before = len(session._watch_subs)
        hospital.db.delete("registered", doctor="d1", patient="p1")
        assert len(session._watch_subs) == before - 1

    def test_dead_rmcs_pruned_from_live_view(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        assert treating.ref in session._rmcs
        hospital.records.revoke(treating.ref, "suspension")
        session.active_rmcs()
        assert treating.ref not in session._rmcs
        # History keeps the dead credential for audit/inspection.
        assert treating in session.held_rmcs()

    def test_root_survives_pruning_for_logout(self, hospital):
        session = Principal("u").start_session(hospital.login,
                                               "logged_in_user", ["u"])
        root = session.root_rmc
        hospital.login.revoke(root.ref, "admin kick")
        session.active_rmcs()
        assert session.root_rmc is root
        session.logout()
        assert session.terminated
