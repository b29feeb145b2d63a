"""The ``audit`` op answers "why was this request denied" over the wire.

A node whose services were built under a pipeline explains each decision
on its access record; the ``audit`` op returns that record's trace id and
rule attempts beside the five columns it always had, so an operator
reads the failing condition from a socket, not a debugger.
"""

import pytest

from repro.core import OasisService, ServiceRegistry
from repro.core.access_log import AccessKind
from repro.core.constraints import ComparisonConstraint, ConstraintRegistry
from repro.core.exceptions import (ActivationDenied, AppointmentDenied,
                                   CredentialRevoked)
from repro.events import EventBroker
from repro.netd.client import OasisClient
from repro.netd.server import OasisServer
from repro.obs.runtime import observed
from repro.policy import parse_policy

LOGIN = "service dom/login\nrole logged_in(u)\nactivate logged_in(u)\n"
DESK = ("service dom/desk\nrole clerk(u)\n"
        "activate clerk(u) <- dom/login:logged_in(u)*\n"
        "appoint referral(p) <- clerk(u), where differs(p, u)\n")


def _constraints():
    registry = ConstraintRegistry()
    registry.register("differs",
                      lambda a, b: ComparisonConstraint(a, "!=", b))
    return registry


@pytest.fixture
def client():
    with observed() as obs:
        broker, registry = EventBroker(), ServiceRegistry()
        services = {"login": OasisService(parse_policy(LOGIN), broker,
                                          registry),
                    "desk": OasisService(parse_policy(DESK, _constraints()),
                                         broker, registry)}
    server = OasisServer("clinic", services, broker=broker,
                         pipeline=obs).start()
    client = OasisClient("127.0.0.1", server.port, peer="clinic").connect()
    yield client
    client.close()
    server.close()


def _rows(client, service, kind):
    return client.call("audit", service=service, kind=kind)["records"]


def test_a_denied_activation_row_names_its_failing_condition(client):
    with pytest.raises(ActivationDenied):
        client.activate("desk", "alice", "clerk", ["alice"])
    (row,) = _rows(client, "desk", AccessKind.ACTIVATION_DENIED)
    _ts, kind, principal, subject, reason, trace_id, attempts = row
    assert (kind, principal, subject) \
        == (AccessKind.ACTIVATION_DENIED, "alice", "clerk")
    assert reason and trace_id
    (attempt,) = attempts
    assert attempt["outcome"] == "failed"
    assert attempt["failure_kind"] == "no-candidates"
    assert "dom/login:logged_in" in attempt["failed_condition"]


def test_granted_and_invalid_rows_explain_themselves(client):
    login = client.activate("login", "alice", "logged_in", ["alice"])
    client.activate("desk", "alice", "clerk", ["alice"],
                    credentials=[login])
    (granted,) = _rows(client, "desk", AccessKind.ACTIVATION)
    (matched,) = granted[6]
    assert matched["outcome"] == "matched"
    assert matched["detail"] == "credential_ref=dom/desk#1"

    client.revoke(login.ref, "logout")
    with pytest.raises(CredentialRevoked):
        client.activate("desk", "alice", "clerk", ["alice"],
                        credentials=[login])
    (row,) = _rows(client, "desk", AccessKind.VALIDATION_FAILED)
    assert row[3] == str(login.ref)
    assert row[5]
    (attempt,) = row[6]
    assert attempt["failure_kind"] == "credential-invalid"
    assert "'clerk'" in attempt["detail"]


def test_appointment_rows_name_the_failing_condition(client):
    """A refused appointment's row names the condition that failed and
    its kind; a granted one names the rule and the appointment issued."""
    with pytest.raises(AppointmentDenied):
        client.appoint("desk", "alice", "referral", ["bob"])
    (row,) = _rows(client, "desk", AccessKind.APPOINTMENT_DENIED)
    _ts, kind, principal, subject, _reason, trace_id, attempts = row
    assert (kind, principal, subject) \
        == (AccessKind.APPOINTMENT_DENIED, "alice", "referral")
    assert trace_id
    (attempt,) = attempts
    assert attempt["outcome"] == "failed"
    assert attempt["failure_kind"] == "no-candidates"
    assert "clerk" in attempt["failed_condition"]

    login = client.activate("login", "alice", "logged_in", ["alice"])
    clerk = client.activate("desk", "alice", "clerk", ["alice"],
                            credentials=[login])
    with pytest.raises(AppointmentDenied):
        client.appoint("desk", "alice", "referral", ["alice"],
                       credentials=[clerk])
    _first, (*_, attempts) = _rows(client, "desk",
                                   AccessKind.APPOINTMENT_DENIED)
    (attempt,) = attempts
    assert attempt["failure_kind"] == "constraint"
    assert "!=" in attempt["failed_condition"]

    client.appoint("desk", "alice", "referral", ["bob"],
                   credentials=[clerk])
    (granted,) = _rows(client, "desk", AccessKind.APPOINTMENT)
    (matched,) = granted[6]
    assert matched["outcome"] == "matched"
    assert matched["detail"] == "credential_ref=dom/desk#2"
