"""Shared fixtures: a canonical hospital deployment used across the suite.

The fixture mirrors the paper's running example (Sect. 2/3): a hospital
domain with a login service (initial role ``logged_in_user``), an admin
service (role ``administrator``, appointment ``allocated`` — the screening
nurse/administrator allocating a patient to a doctor) and a records service
(parametrised role ``treating_doctor(doc, pat)`` guarded by a registration
database and a patient exclusion list).  The policies are the ones
:mod:`repro.scenarios` builds its hospital from, here on one broker with
no network.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest
from hypothesis import settings

from repro.core import OasisService, Principal, ServiceRegistry
from repro.db import Database
from repro.events import EventBroker
from repro.net import Scheduler, SimClock
from repro.netd.worlds import shipped_policy
from repro.scenarios.healthcare import RECORDS_CONSTRAINTS

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


@dataclass
class Hospital:
    """The assembled hospital deployment handed to tests."""

    clock: SimClock
    scheduler: Scheduler
    broker: EventBroker
    registry: ServiceRegistry
    db: Database
    login: OasisService
    admin: OasisService
    records: OasisService

    def new_doctor(self, doctor_id: str, patient_id: str) -> Principal:
        """Register and allocate a doctor for ``patient_id``; returns the
        doctor principal with the allocation appointment in its wallet."""
        self.db.insert("registered", doctor=doctor_id, patient=patient_id)
        admin_principal = Principal(f"admin-of-{doctor_id}")
        session = admin_principal.start_session(
            self.login, "logged_in_user", [admin_principal.id.value])
        session.activate(self.admin, "administrator",
                         [admin_principal.id.value])
        certificate = session.issue_appointment(
            self.admin, "allocated", [doctor_id, patient_id],
            holder=doctor_id)
        doctor = Principal(doctor_id)
        doctor.store_appointment(certificate)
        return doctor


def build_hospital(cache_validations: bool = True) -> Hospital:
    clock = SimClock()
    scheduler = Scheduler(clock)
    broker = EventBroker()
    registry = ServiceRegistry()

    db = Database("hospital-db")
    db.create_table("registered", ["doctor", "patient"])
    db.create_table("excluded", ["patient", "doctor"])

    def service(policy, **kwargs):
        return OasisService(policy, broker, registry, clock,
                            cache_validations=cache_validations, **kwargs)

    login = service(shipped_policy("ehr/login"))
    admin = service(shipped_policy("ehr/admin"))
    records = service(shipped_policy("hospital/records", RECORDS_CONSTRAINTS),
                      databases={"main": db})
    records.register_method("read_record", lambda pat: f"EHR[{pat}]")

    return Hospital(clock=clock, scheduler=scheduler, broker=broker,
                    registry=registry, db=db, login=login, admin=admin,
                    records=records)


@pytest.fixture
def hospital() -> Hospital:
    return build_hospital()


@pytest.fixture
def hospital_nocache() -> Hospital:
    return build_hospital(cache_validations=False)
