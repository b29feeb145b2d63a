"""Refusal bookkeeping: activate, invoke and appoint refuse alike.

Whatever refuses a guarded decision — an invalid presented credential,
an undefined name, a non-ground request or no matching rule — leaves
the same evidence: one count in the kind's ``ServiceStats`` field (which
the ``oasis_*_total`` family reads), an ``error`` span, and exactly one
access record: ``validation-failed`` for a credential, the kind's
``*-denied`` record otherwise.
"""

import pytest

from repro.core import Principal
from repro.core.access_log import AccessKind
from repro.core.exceptions import (ActivationDenied, AppointmentDenied,
                                   CredentialRevoked, InvocationDenied,
                                   PolicyError, UnknownMethod, UnknownRole)
from repro.core.service import Presentation
from repro.core.terms import Var
from repro.domains import Deployment
from repro.obs.runtime import observed
from repro.scenarios import build_hospital


#: Per kind, keyed by its span name: the ServiceStats field, the outcome
#: family that reads it (None: reported through ``oasis_service_stats``
#: only), and the denial record.
KINDS = {
    "activate_role": ("activations_denied", "oasis_activations_total",
                      AccessKind.ACTIVATION_DENIED),
    "invoke": ("invocations_denied", "oasis_invocations_total",
               AccessKind.INVOCATION_DENIED),
    "issue_appointment": ("appointments_denied", None,
                          AccessKind.APPOINTMENT_DENIED),
}


class _World:
    """An observed hospital, a logged-out RMC (a foreign credential the
    admin and records services must call back for) and a live
    administrator RMC (local to admin)."""

    def __init__(self, obs):
        self.obs = obs
        self.hospital = build_hospital(Deployment(use_network=False))
        login, admin = self.hospital.login, self.hospital.admin
        self.alice = Principal("alice").id
        self.revoked = login.activate_role(self.alice, "logged_in_user",
                                           ["alice"])
        login.revoke(self.revoked.ref, "logout")
        live = login.activate_role(self.alice, "logged_in_user", ["alice"])
        self.administrator = admin.activate_role(
            self.alice, "administrator", ["alice"], [Presentation(live)])

    def sample(self, family, service, outcome):
        (found,) = [sample["value"]
                    for entry in self.obs.metrics.collect()
                    if entry["name"] == family
                    for sample in entry["samples"]
                    if sample["labels"] == {"service": str(service.id),
                                            "outcome": outcome}]
        return found


def _request(world, kind, cause):
    """``(service, exception, attempt)`` for one cell of the table."""
    alice, admin, records = (world.alice, world.hospital.admin,
                             world.hospital.records)
    revoked = [Presentation(world.revoked)]
    return {
        ("activate_role", "credential"): (
            admin, CredentialRevoked, lambda: admin.activate_role(
                alice, "administrator", ["alice"], revoked)),
        ("activate_role", "undefined"): (
            admin, UnknownRole, lambda: admin.activate_role(
                alice, "surgeon")),
        ("activate_role", "non-ground"): (
            admin, PolicyError, lambda: admin.activate_role(
                alice, "administrator", [Var("u")])),
        ("activate_role", "no-rule-matches"): (
            admin, ActivationDenied, lambda: admin.activate_role(
                alice, "administrator", ["alice"])),
        ("invoke", "credential"): (
            records, CredentialRevoked, lambda: records.invoke(
                alice, "read_record", ["p1"], revoked)),
        ("invoke", "undefined"): (
            records, UnknownMethod, lambda: records.invoke(
                alice, "no_such_method", ["p1"])),
        ("invoke", "non-ground"): (
            records, PolicyError, lambda: records.invoke(
                alice, "read_record", [Var("p")])),
        ("invoke", "no-rule-matches"): (
            records, InvocationDenied, lambda: records.invoke(
                alice, "read_record", ["p1"])),
        ("issue_appointment", "credential"): (
            admin, CredentialRevoked, lambda: admin.issue_appointment(
                alice, "allocated", ["d1", "p1"], revoked)),
        ("issue_appointment", "undefined"): (
            admin, AppointmentDenied, lambda: admin.issue_appointment(
                alice, "nothing", [])),
        ("issue_appointment", "non-ground"): (
            admin, PolicyError, lambda: admin.issue_appointment(
                alice, "allocated", [Var("d"), "p1"],
                [Presentation(world.administrator)])),
        ("issue_appointment", "no-rule-matches"): (
            admin, AppointmentDenied, lambda: admin.issue_appointment(
                alice, "allocated", ["d1", "p1"])),
    }[kind, cause]


@pytest.mark.parametrize("cause", ["credential", "undefined", "non-ground",
                                   "no-rule-matches"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_refusal_is_counted_spanned_and_recorded_once(kind, cause):
    field, family, denial_kind = KINDS[kind]
    with observed() as obs:
        world = _World(obs)
        service, denied, attempt = _request(world, kind, cause)
        count = getattr(service.stats, field)
        records = len(service.access_log)
        with pytest.raises(denied) as raised:
            attempt()
    assert getattr(service.stats, field) == count + 1
    if family is not None:
        assert world.sample(family, service, "denied") \
            == getattr(service.stats, field)
    span = obs.tracer.spans(name=kind)[-1]
    assert (span.status, span.attrs["error"]) == ("error", str(raised.value))
    new = list(service.access_log)[records:]
    assert len(new) == 1
    (record,) = new
    if cause == "credential":
        assert record.kind == AccessKind.VALIDATION_FAILED
    else:
        assert (record.kind, record.reason) == (denial_kind,
                                                str(raised.value))
    assert record.trace_id == span.trace_id


def test_granted_counts_are_read_from_service_stats():
    """``outcome="granted"`` is ``rmcs_issued`` and ``invocations``: one
    count per ``activation`` / ``invocation`` record, bulk-minted RMCs
    included."""
    with observed() as obs:
        world = _World(obs)
        hospital = world.hospital
        hospital.login.issue_rmcs_bulk(
            [(world.alice, world.revoked.role, (), None)])
        doctor = hospital.admit_doctor("d1", "p1")
        session = hospital.treating_session(doctor)
        session.invoke(hospital.records, "read_record", ["p1"])
    for service in hospital.services.values():
        kinds = [record.kind for record in service.access_log]
        assert world.sample("oasis_activations_total", service, "granted") \
            == service.stats.rmcs_issued == kinds.count(AccessKind.ACTIVATION)
        assert world.sample("oasis_invocations_total", service, "granted") \
            == service.stats.invocations \
            == kinds.count(AccessKind.INVOCATION)
    assert hospital.records.stats.invocations == 1


@pytest.mark.parametrize("kind", ["activate_role", "issue_appointment"])
def test_an_undefined_name_costs_no_callback(kind):
    """The name is resolved before any presentation is validated: a
    foreign credential presented for an undefined role or appointment is
    never called back for."""
    with observed() as obs:
        world = _World(obs)
        hospital, alice = world.hospital, world.alice
        live = hospital.login.activate_role(alice, "logged_in_user",
                                            ["alice"])
        service = hospital.records if kind == "activate_role" \
            else hospital.admin
        callbacks = service.stats.callbacks_made
        with pytest.raises((UnknownRole, AppointmentDenied)):
            if kind == "activate_role":
                service.activate_role(alice, "surgeon", None,
                                      [Presentation(live)])
            else:
                service.issue_appointment(alice, "nothing", [],
                                          [Presentation(live)])
    assert service.stats.callbacks_made == callbacks
    (record,) = service.access_log.denials()
    assert record.attempts[-1].failure_kind == "no-rule"
