"""Shared fixtures: a canonical hospital deployment used across the suite.

``hospital`` is :func:`repro.scenarios.build_hospital`, the paper's
running example (Sect. 2/3): a hospital domain with a login service
(initial role ``logged_in_user``), an admin service (role
``administrator``, appointment ``allocated`` — the screening
nurse/administrator allocating a patient to a doctor) and a records
service (parametrised role ``treating_doctor(doc, pat)`` guarded by a
registration database and a patient exclusion list), built on the
``deployment`` fixture: a simulated clock and scheduler, no network.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.domains import Deployment
from repro.scenarios import HospitalScenario, build_hospital

#: ``HYPOTHESIS_PROFILE=ci`` loads a deep profile for the differential
#: property tests (a CI step sets it and runs those modules); unset, the
#: default profile and every test's own example count apply.
CI_PROFILE = os.environ.get("HYPOTHESIS_PROFILE") == "ci"
settings.register_profile("ci", max_examples=2000, deadline=None)
if CI_PROFILE:
    settings.load_profile("ci")


def examples(count: int) -> int:
    """``max_examples`` for a differential property test: ``count``, or
    the ci profile's when that profile is loaded."""
    return settings.default.max_examples if CI_PROFILE else count


@pytest.fixture
def deployment() -> Deployment:
    return Deployment(use_network=False)


@pytest.fixture
def hospital(deployment) -> HospitalScenario:
    return build_hospital(deployment)


@pytest.fixture
def hospital_nocache(deployment) -> HospitalScenario:
    return build_hospital(deployment, cache_validations=False)
