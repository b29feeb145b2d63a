"""One callback-validation path in every deployment shape.

The same presentation matrix goes through three worlds that differ only
in how a foreign certificate reaches its issuer:

* ``registry`` — no network: the consumer's ``ServiceRegistry`` answers;
* ``sim`` — a ``SimNetwork``: the issuer found in the registry, one
  simulated round trip per certificate;
* ``remote`` — a ``RemoteNetwork`` over loopback: the issuer is hosted by
  a served node, reached by one ``validate_many`` RPC.

The matrix is every ordered pair of five presentations — own ok, own
tampered, foreign ok, foreign revoked, foreign from an issuer nobody
hosts.  Each shape must raise the same type, audit the same
``VALIDATION_FAILED`` subject, count the same ``callbacks_made`` and
cache the same entries, and all three must match a written-down oracle.
"""

import dataclasses
import itertools

import pytest

from repro.core.access_log import AccessKind
from repro.core.exceptions import (
    CredentialInvalid,
    CredentialRevoked,
    SignatureInvalid,
)
from repro.core.policy import ServicePolicy
from repro.core.rules import ActivationRule
from repro.core.service import OasisService, Presentation, ServiceRegistry
from repro.core.terms import Var
from repro.core.types import PrincipalId, RoleTemplate, ServiceId
from repro.events import EventBroker
from repro.net import SimNetwork
from repro.netd.client import RemoteNetwork
from repro.netd.worlds import World

from netd_helpers import Node

ISSUER = ServiceId("home", "login")
CONSUMER = ServiceId("away", "door")
GHOST = ServiceId("nowhere", "ghost")
ALICE = PrincipalId("alice")

KINDS = ("own-ok", "own-tampered", "foreign-ok", "foreign-revoked",
         "unknown-issuer")
FOREIGN = {"foreign-ok", "foreign-revoked", "unknown-issuer"}
#: What each failing presentation raises on its own.
FAILURES = {"own-tampered": SignatureInvalid,
            "foreign-revoked": CredentialRevoked,
            "unknown-issuer": CredentialInvalid}


def free_roles(service_id, *roles):
    """A policy whose roles anyone may activate."""
    policy = ServicePolicy(service_id)
    for name in roles:
        role = policy.define_role(name, 1)
        policy.add_activation_rule(
            ActivationRule(RoleTemplate(role, (Var("u"),))))
    return policy


def consumer(registry, network=None):
    return OasisService(free_roles(CONSUMER, "member", "guest"),
                        EventBroker(), registry, network=network)


@pytest.fixture(scope="module")
def ghost_certificate():
    """Issued by a service that no shape's consumer can reach."""
    ghost = OasisService(free_roles(GHOST, "user"), EventBroker(),
                         ServiceRegistry())
    return ghost.activate_role(ALICE, "user", ["alice"])


@pytest.fixture(scope="module")
def issuer_node():
    node = Node("home", lambda ctx: World(
        {"login": ctx.service(free_roles(ISSUER, "user"))}))
    yield node
    node.close()


def registry_shape(_node):
    registry = ServiceRegistry()
    issuer = OasisService(free_roles(ISSUER, "user"), EventBroker(),
                          registry)
    return issuer, consumer(registry), None


def sim_shape(_node):
    registry, network = ServiceRegistry(), SimNetwork()
    issuer = OasisService(free_roles(ISSUER, "user"), EventBroker(),
                          registry, network=network)
    return issuer, consumer(registry, network), None


def remote_shape(node):
    network = RemoteNetwork("away", peers={"home": ("127.0.0.1", node.port)})
    return node.world.services["login"], consumer(ServiceRegistry(),
                                                  network), network


SHAPES = {"registry": registry_shape, "sim": sim_shape,
          "remote": remote_shape}


def certificates(issuer, door, ghost_certificate):
    own = door.activate_role(ALICE, "member", ["alice"])
    spare = door.activate_role(ALICE, "member", ["alice"])
    foreign = issuer.activate_role(ALICE, "user", ["alice"])
    revoked = issuer.activate_role(ALICE, "user", ["alice"])
    issuer.revoke(revoked.ref, "logged out")
    return {"own-ok": own,
            "own-tampered": dataclasses.replace(
                spare, issued_at=spare.issued_at + 1),
            "foreign-ok": foreign,
            "foreign-revoked": revoked,
            "unknown-issuer": ghost_certificate}


def observe(shape, node, ghost_certificate, order):
    """(raised type, audited subjects, callbacks_made, cached entries) of
    one activation presenting ``order``, labelled by kind."""
    issuer, door, network = SHAPES[shape](node)
    try:
        presented = certificates(issuer, door, ghost_certificate)
        label = {str(presented[kind].ref): kind for kind in order}
        raised = None
        try:
            door.activate_role(ALICE, "guest", ["alice"],
                               [Presentation(presented[kind])
                                for kind in order])
        except CredentialInvalid as failure:
            raised = type(failure)
        audited = [label[entry.subject] for entry in door.access_log.query(
            kind=AccessKind.VALIDATION_FAILED)]
        cached = {label[key]: sorted(entries) for key, entries
                  in door._validation_cache.items()}
        return raised, audited, door.stats.callbacks_made, cached
    finally:
        if network is not None:
            network.close()


def oracle(order):
    """An own presentation that fails stops the loop; a foreign failure
    before it still outranks it; every foreign miss checked is one
    callback, and only ``foreign-ok`` is cached."""
    checked = list(order)
    if "own-tampered" in checked:
        checked = checked[:checked.index("own-tampered") + 1]
    failing = [kind for kind in checked if kind in FAILURES]
    first = failing[0] if failing else None
    cached = {"foreign-ok": [("alice", None)]} \
        if "foreign-ok" in checked else {}
    return (FAILURES.get(first), [first] if first else [],
            sum(kind in FOREIGN for kind in checked), cached)


@pytest.mark.parametrize("order", list(itertools.permutations(KINDS, 2)),
                         ids="+".join)
def test_every_shape_decides_like_the_oracle(issuer_node, ghost_certificate,
                                             order):
    outcomes = {shape: observe(shape, issuer_node, ghost_certificate, order)
                for shape in SHAPES}
    assert outcomes["sim"] == outcomes["registry"]
    assert outcomes["remote"] == outcomes["registry"]
    assert outcomes["registry"] == oracle(order)
