"""An OASIS-*aware* service: guards methods without defining any roles.

Sect. 3: "Services may also be OASIS-aware and specify roles of other
services as credentials to authorise their use, without themselves
defining roles."  Such a service has authorization rules only — all
credentials it accepts are foreign, validated by callback.
"""

import pytest

from repro.core import (
    AuthorizationRule,
    InvocationDenied,
    PrerequisiteRole,
    Principal,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    Var,
)
from repro.domains import Deployment
from repro.lang import PolicyUniverse
from repro.scenarios import build_hospital


@pytest.fixture
def world():
    deployment = Deployment()
    hospital = build_hospital(deployment)

    # A pharmacy-usage printer: no roles of its own, but only treating
    # doctors (a foreign role) may print prescriptions.
    policy = ServicePolicy(ServiceId("printing", "prescriptions"))
    treating = RoleTemplate(
        hospital.records.policy.define_role("treating_doctor", 2),
        (Var("d"), Var("p")))
    policy.add_authorization_rule(AuthorizationRule(
        "print_prescription", (Var("p"), Var("drug")),
        (PrerequisiteRole(treating),)))
    printer = deployment.service(policy)
    printer.register_method(
        "print_prescription", lambda p, drug: f"Rx[{drug} for {p}]")
    return deployment, hospital, printer


class TestOasisAwareService:
    def test_defines_no_roles(self, world):
        _, _, printer = world
        assert printer.policy.role_names == []
        # No roles, no activation rules: nothing for the lint to flag.
        assert PolicyUniverse([printer.policy]).diagnose() == []

    def test_foreign_role_authorises_use(self, world):
        deployment, hospital, printer = world
        doctor = hospital.admit_doctor("d1", "p1")
        session = hospital.treating_session(doctor)
        result = session.invoke(printer, "print_prescription",
                                ["p1", "amoxicillin"])
        assert result == "Rx[amoxicillin for p1]"

    def test_parameter_join_restricts_to_own_patients(self, world):
        deployment, hospital, printer = world
        doctor = hospital.admit_doctor("d1", "p1")
        session = hospital.treating_session(doctor)
        with pytest.raises(InvocationDenied):
            session.invoke(printer, "print_prescription",
                           ["p2", "amoxicillin"])

    def test_nobody_can_activate_anything_here(self, world):
        _, _, printer = world
        from repro.core import UnknownRole

        with pytest.raises(UnknownRole):
            Principal("x").start_session(printer, "any_role")

    def test_revocation_reaches_aware_service(self, world):
        deployment, hospital, printer = world
        doctor = hospital.admit_doctor("d1", "p1")
        session = hospital.treating_session(doctor)
        session.invoke(printer, "print_prescription", ["p1", "x"])
        hospital.db.delete("registered", doctor="d1", patient="p1")
        from repro.core import CredentialRevoked

        with pytest.raises((CredentialRevoked, InvocationDenied)):
            session.invoke(printer, "print_prescription", ["p1", "x"])
