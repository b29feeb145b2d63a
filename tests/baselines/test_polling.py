"""Tests for the polling-revocation baseline and its staleness window."""

import pytest

from repro.baselines import PollingValidator
from repro.core import Principal


@pytest.fixture
def setup(hospital, deployment):
    session = Principal("u1").start_session(hospital.login,
                                            "logged_in_user", ["u1"])
    validator = PollingValidator(
        deployment.scheduler, interval=10.0,
        lookup=lambda ref: deployment.registry.lookup(ref.service))
    validator.watch(session.root_rmc.ref)
    return hospital, session, validator


class TestPollingValidator:
    def test_initial_watch_checks_immediately(self, setup):
        hospital, session, validator = setup
        assert validator.is_valid(session.root_rmc.ref)
        assert validator.callbacks_made == 1

    def test_unwatched_ref_invalid(self, setup):
        from repro.core import CredentialRef

        _, _, validator = setup
        assert not validator.is_valid(
            CredentialRef(setup[0].login.id, 999))

    def test_staleness_window(self, setup, deployment):
        """Between polls, a revoked credential is still reported valid —
        exactly the window the event-based design eliminates."""
        hospital, session, validator = setup
        validator.start()
        hospital.login.revoke(session.root_rmc.ref, "gone")
        assert validator.is_valid(session.root_rmc.ref)  # stale!
        deployment.scheduler.run_for(10.0)  # next poll fires
        assert not validator.is_valid(session.root_rmc.ref)

    def test_event_driven_counterpart_has_no_window(self, setup):
        """Contrast: the issuer's own record flips at the instant of
        revocation, which is what ECR subscribers see."""
        hospital, session, validator = setup
        hospital.login.revoke(session.root_rmc.ref, "gone")
        assert not hospital.login.is_active(session.root_rmc.ref)

    def test_polls_cost_callbacks_without_changes(self, setup, deployment):
        hospital, session, validator = setup
        validator.start()
        deployment.scheduler.run_for(100.0)
        # 10 polls x 1 watched credential, plus the initial watch check.
        assert validator.polls == 10
        assert validator.callbacks_made == 11

    def test_stop_halts_polling(self, setup, deployment):
        hospital, _, validator = setup
        validator.start()
        deployment.scheduler.run_for(20.0)
        validator.stop()
        polls = validator.polls
        deployment.scheduler.run_for(50.0)
        assert validator.polls == polls

    def test_start_is_idempotent(self, setup, deployment):
        hospital, _, validator = setup
        validator.start()
        validator.start()
        deployment.scheduler.run_for(10.0)
        assert validator.polls == 1

    def test_interval_must_be_positive(self, hospital, deployment):
        with pytest.raises(ValueError):
            PollingValidator(deployment.scheduler, 0,
                             lambda ref: hospital.login)
