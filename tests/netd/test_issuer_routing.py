"""A callback is routed by the certificate's issuer, and that is safe.

A ``validate_many`` entry is ``{cert, principal, holder}``: the node hands
it to the hosted service whose id is the decoded certificate's
``issuer``.  That service checks the certificate against its own records
and verifies the MAC under its own secret, so a caller who edits the
issuer field cannot make another service vouch for the certificate.
"""

import json

import pytest

from repro.core import wire
from repro.core.exceptions import CredentialInvalid
from repro.core.policy import ServicePolicy
from repro.core.rules import ActivationRule
from repro.core.service import OasisService, Presentation, ServiceRegistry
from repro.core.terms import Var
from repro.core.types import PrincipalId, RoleTemplate, ServiceId
from repro.events import EventBroker
from repro.netd.client import RemoteNetwork
from repro.netd.worlds import ehr_front

from netd_helpers import Node


def free_role(service_id, name="guest"):
    policy = ServicePolicy(service_id)
    role = policy.define_role(name, 1)
    policy.add_activation_rule(
        ActivationRule(RoleTemplate(role, (Var("u"),))))
    return policy


@pytest.fixture
def front():
    """Hospital login and admin, hosted by one node."""
    node = Node("front", ehr_front)
    yield node
    node.close()


@pytest.fixture
def ghost():
    """A certificate whose issuer no node hosts."""
    service = OasisService(free_role(ServiceId("nowhere", "ghost")),
                           EventBroker(), ServiceRegistry())
    return service.activate_role(PrincipalId("alice"), "guest", ["alice"])


def entry(certificate_text, principal="adm"):
    return {"cert": certificate_text, "principal": principal,
            "holder": None}


def validate_many(node, *entries):
    client = node.client()
    try:
        return client.call("validate_many", entries=list(entries))["entries"]
    finally:
        client.close()


def edited_issuer_verdicts(front):
    """The verdicts for a login RMC whose text names admin as its issuer,
    and for the same RMC unedited."""
    client = front.client()
    login = client.activate("login", "adm", "logged_in_user", ["adm"])
    admin = client.activate("admin", "adm", "administrator", ["adm"],
                            credentials=[login])
    client.close()
    # Same serial: the edited ref names admin's live record, so only the
    # MAC stands between the edit and a ``true``.
    assert login.ref.serial == admin.ref.serial
    data = json.loads(wire.certificate_text(login))
    data["issuer"] = {"domain": "hospital", "name": "admin"}
    edited = json.dumps(data, separators=(",", ":"))
    return validate_many(front, entry(edited),
                         entry(wire.certificate_text(login)))


def test_an_edited_issuer_gets_a_typed_refusal(front):
    edited, honest = edited_issuer_verdicts(front)
    assert edited is not True
    assert edited["type"] == "SignatureInvalid"
    assert honest is True


def test_an_issuer_the_node_does_not_host_fails_only_its_entry(front, ghost):
    client = front.client()
    login = client.activate("login", "adm", "logged_in_user", ["adm"])
    client.close()
    stray, honest = validate_many(
        front, entry(wire.certificate_text(ghost), "alice"),
        entry(wire.certificate_text(login)))
    assert stray["type"] == "CredentialInvalid"
    assert "does not host issuer nowhere/ghost" in stray["message"]
    assert honest is True


def test_no_route_fails_closed_without_a_callback_rpc(front, ghost):
    network = RemoteNetwork(
        "consumer", peers={"front": ("127.0.0.1", front.port)})
    try:
        door = OasisService(free_role(ServiceId("consumer", "door")),
                            EventBroker(), ServiceRegistry(),
                            network=network)
        with pytest.raises(CredentialInvalid, match="unreachable"):
            door.activate_role(PrincipalId("alice"), "guest", ["alice"],
                               [Presentation(ghost)])
        assert door.stats.callbacks_made == 1
        assert network.callback_rpcs == 0
        assert not door._validation_cache
        assert all(service.stats.callbacks_served == 0
                   for service in front.world.services.values())
    finally:
        network.close()


def skip_everything(_service, _certificate, _principal_value, _holder):
    """Mutant: the issuer checks nothing."""


def check_the_record_only(service, certificate, _principal_value, _holder):
    """Mutant: the issuer checks that the named record is live but not
    that the certificate is its own (no MAC under its secret)."""
    record = service._records.get(certificate.ref)
    if record is None or not record.active:
        raise CredentialInvalid(f"no live record for {certificate.ref}")


@pytest.mark.parametrize("mutant", [skip_everything, check_the_record_only],
                         ids=["skip-everything", "record-only"])
def test_a_check_that_skips_the_issuer_is_killed(front, monkeypatch,
                                                  mutant):
    """With either mutant in place of ``_check_certificate`` the edited
    issuer comes back ``true``, so the refusal test above fails.  (The
    ``certificate.issuer != self.id`` guard on its own is no mutant a
    test can kill: every path reaches ``_check_certificate`` through
    that id, and records are keyed by a ref that names the issuer.)"""
    monkeypatch.setattr(OasisService, "_check_certificate", mutant)
    edited, honest = edited_issuer_verdicts(front)
    assert edited is True
    assert honest is True
