"""Tests for active revocation: membership monitoring and the Fig. 5 cascade."""

import pytest

from repro.core import (
    ActivationRule,
    ConstraintCondition,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    TimeWindowConstraint,
    Var,
)


class TestMembershipCascade:
    def test_login_revocation_collapses_dependent_role(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        assert hospital.records.is_active(treating.ref)
        hospital.login.revoke(session.root_rmc.ref, "forced logout")
        assert not hospital.records.is_active(treating.ref)

    def test_cascade_reason_recorded(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        hospital.login.revoke(session.root_rmc.ref, "forced logout")
        record = hospital.records.credential_record(treating.ref)
        assert "membership dependency" in record.revoked_reason
        assert "forced logout" in record.revoked_reason

    def test_appointment_revocation_collapses_role(self, hospital):
        """The allocation appointment is in the membership rule, so its
        revocation (patient reallocated) deactivates treating_doctor."""
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        hospital.admin.revoke(doctor.appointments()[0].ref, "reallocated")
        assert not hospital.records.is_active(treating.ref)
        # ...but the login role does not depend on the appointment.
        assert hospital.login.is_active(session.root_rmc.ref)

    def test_database_retraction_revokes_immediately(self, hospital):
        """No polling: deleting the registration fact fires the listener."""
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        hospital.db.delete("registered", doctor="d1", patient="p1")
        assert not hospital.records.is_active(treating.ref)
        record = hospital.records.credential_record(treating.ref)
        assert "membership condition became false" in record.revoked_reason

    def test_unrelated_database_change_does_not_revoke(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        treating = session.activate(hospital.records, "treating_doctor",
                                    use_appointments=doctor.appointments())
        hospital.db.insert("registered", doctor="d2", patient="p2")
        hospital.db.delete("registered", doctor="d2", patient="p2")
        assert hospital.records.is_active(treating.ref)

    def test_revoke_unknown_ref_returns_false(self, hospital):
        from repro.core import CredentialRef

        assert not hospital.records.revoke(
            CredentialRef(hospital.records.id, 424242))

    def test_double_revoke_returns_false(self, hospital):
        _, session = _login(hospital, "u")
        ref = session.root_rmc.ref
        assert hospital.login.revoke(ref)
        assert not hospital.login.revoke(ref)

    def test_cascade_counted_in_stats(self, hospital):
        doctor = hospital.admit_doctor("d1", "p1")
        session = doctor.start_session(hospital.login, "logged_in_user",
                                       ["d1"])
        session.activate(hospital.records, "treating_doctor",
                         use_appointments=doctor.appointments())
        before = hospital.records.stats.cascade_revocations
        hospital.login.revoke(session.root_rmc.ref, "x")
        assert hospital.records.stats.cascade_revocations == before + 1


def _login(hospital, uid):
    principal = Principal(uid)
    return principal, principal.start_session(
        hospital.login, "logged_in_user", [uid])


class TestDeepCascade:
    """A chain of services each requiring the previous one's role —
    Fig. 1's dependency tree, stretched."""

    @staticmethod
    def build_chain(hospital, deployment, depth):
        services = [hospital.login]
        previous_role = RoleTemplate(
            hospital.login.policy.define_role("logged_in_user", 1),
            (Var("uid"),))
        for level in range(depth):
            service_id = ServiceId("hospital", f"chain-{level}")
            policy = ServicePolicy(service_id)
            role = policy.define_role("level", 1)
            policy.add_activation_rule(ActivationRule(
                RoleTemplate(role, (Var("uid"),)),
                (PrerequisiteRole(previous_role, membership=True),)))
            service = deployment.service(policy)
            services.append(service)
            previous_role = RoleTemplate(role, (Var("uid"),))
        return services

    def test_chain_collapse_from_root(self, hospital, deployment):
        depth = 8
        services = self.build_chain(hospital, deployment, depth)
        _, session = _login(hospital, "u")
        rmcs = [session.root_rmc]
        for service in services[1:]:
            rmcs.append(session.activate(service, "level"))
        assert all(s.is_active(r.ref) for s, r in zip(services, rmcs))
        hospital.login.revoke(rmcs[0].ref, "logout")
        assert all(not s.is_active(r.ref)
                   for s, r in zip(services, rmcs))

    def test_chain_collapse_from_middle(self, hospital, deployment):
        services = self.build_chain(hospital, deployment, 6)
        _, session = _login(hospital, "u")
        rmcs = [session.root_rmc]
        for service in services[1:]:
            rmcs.append(session.activate(service, "level"))
        cut = 3
        services[cut].revoke(rmcs[cut].ref, "cut here")
        # Everything above the cut survives; everything below collapses.
        for index, (service, rmc) in enumerate(zip(services, rmcs)):
            expected = index < cut
            assert service.is_active(rmc.ref) is expected


class TestTimeBasedMembership:
    def build_night_service(self, hospital, deployment):
        service_id = ServiceId("hospital", "night-desk")
        policy = ServicePolicy(service_id)
        login_role = RoleTemplate(
            hospital.login.policy.define_role("logged_in_user", 1),
            (Var("uid"),))
        role = policy.define_role("night_operator", 1)
        policy.add_activation_rule(ActivationRule(
            RoleTemplate(role, (Var("uid"),)),
            (PrerequisiteRole(login_role, membership=True),
             ConstraintCondition(
                 TimeWindowConstraint(22 * 3600, 6 * 3600),
                 membership=True))))
        return deployment.service(policy)

    def test_role_expires_with_window_on_sweep(self, hospital, deployment):
        night = self.build_night_service(hospital, deployment)
        deployment.clock.advance(23 * 3600)  # 23:00
        _, session = _login(hospital, "op")
        rmc = session.activate(night, "night_operator")
        assert night.is_active(rmc.ref)
        deployment.clock.advance(8 * 3600)  # 07:00 — outside window
        revoked = night.recheck_membership()
        assert revoked == 1
        assert not night.is_active(rmc.ref)

    def test_sweep_spares_roles_still_inside_window(self, hospital,
                                                    deployment):
        night = self.build_night_service(hospital, deployment)
        deployment.clock.advance(23 * 3600)
        _, session = _login(hospital, "op")
        rmc = session.activate(night, "night_operator")
        deployment.clock.advance(3600)  # 00:00 — still night
        assert night.recheck_membership() == 0
        assert night.is_active(rmc.ref)

    def test_scheduler_driven_sweep(self, hospital, deployment):
        """The deployment pattern: a periodic scheduler job runs the sweep."""
        night = self.build_night_service(hospital, deployment)
        deployment.clock.advance(23 * 3600)
        _, session = _login(hospital, "op")
        rmc = session.activate(night, "night_operator")
        deployment.scheduler.schedule_periodic(
            600, lambda: night.recheck_membership())
        deployment.scheduler.run_for(10 * 3600)
        assert not night.is_active(rmc.ref)
        record = night.credential_record(rmc.ref)
        assert "became false" in record.revoked_reason
