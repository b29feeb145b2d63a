"""One callback RPC per issuing peer: ``validate_many`` semantics.

A records node validates a ``treating_doctor`` activation's two foreign
presentations — a login RMC and an ``allocated`` appointment, both
issued by services on the front node — in ONE ``validate_many`` RPC.
Batching must not change what a request decides: the first failing
presentation in presentation order is the one raised and audited, every
success is cached, and a peer that cannot be reached or answers with the
wrong number of verdicts fails every entry closed.
"""

import dataclasses

import pytest

from repro.core.access_log import AccessKind
from repro.core.exceptions import (
    ActivationDenied,
    CredentialInvalid,
    CredentialRevoked,
    SignatureInvalid,
)
from repro.core.service import Presentation
from repro.core.types import ServiceId
from repro.netd.worlds import ehr_front, ehr_records

from netd_helpers import Node


@pytest.fixture
def fleet():
    """Front and records nodes.  No event channel joins them, so a
    revocation at front reaches records only through a callback."""
    front = Node("front", ehr_front)
    records = Node("records", ehr_records,
                   peers={"front": ("127.0.0.1", front.port)})
    # Route discovery (one ``services`` RPC) happens here, not inside
    # the requests the tests count.
    assert records.network._route(ServiceId("hospital", "login")) == "front"
    clients = {"front": front.client(), "records": records.client()}
    yield front, records, clients
    for client in clients.values():
        client.close()
    records.close()
    front.close()


def credentials(front_client, doctor="dr", patient="pt"):
    """A login RMC and an allocation for ``doctor``, issued by front."""
    login = front_client.activate("login", doctor, "logged_in_user",
                                  [doctor])
    admin_login = front_client.activate("login", "adm", "logged_in_user",
                                        ["adm"])
    admin = front_client.activate("admin", "adm", "administrator", ["adm"],
                                  credentials=[admin_login])
    allocation = front_client.appoint("admin", "adm", "allocated",
                                      [doctor, patient],
                                      credentials=[admin], holder=doctor)
    return login, allocation


def activate(records_client, presented, doctor="dr", patient="pt"):
    return records_client.activate("records", doctor, "treating_doctor",
                                   [doctor, patient], credentials=presented)


def service(node):
    return node.world.services["records"]


def callbacks(node):
    return node.server.stats()["callbacks"]


def failures(node):
    return [(entry.subject, entry.reason) for entry
            in service(node).access_log.query(
                kind=AccessKind.VALIDATION_FAILED)]


def patch_verdicts(monkeypatch, front, rewrite):
    """Make front answer ``validate_many`` with ``rewrite(verdicts)``."""
    honest = front.server._op_validate_many
    monkeypatch.setattr(front.server, "_op_validate_many", lambda frame: {
        "entries": rewrite(honest(frame)["entries"])})


def test_two_presentations_from_one_peer_cost_one_rpc(fleet):
    front, records, clients = fleet
    login, allocation = credentials(clients["front"])
    requests = front.server.requests
    activate(clients["records"], [login, Presentation(allocation,
                                                      holder="dr")])
    assert callbacks(records) == {"rpcs": 1, "entries": 2}
    assert front.server.requests == requests + 1
    assert service(records).stats.callbacks_made == 2
    assert service(records).validation_cache_size == 2
    # Cached: the next activation calls nobody.
    activate(clients["records"], [login, Presentation(allocation,
                                                      holder="dr")])
    assert callbacks(records) == {"rpcs": 1, "entries": 2}


def test_a_single_entry(fleet):
    front, records, clients = fleet
    login, _allocation = credentials(clients["front"])
    with pytest.raises(ActivationDenied):
        activate(clients["records"], [login])
    assert callbacks(records) == {"rpcs": 1, "entries": 1}
    assert service(records).validation_cache_size == 1


@pytest.mark.parametrize("login_first", [True, False],
                         ids=["login-first", "allocation-first"])
def test_the_first_failing_presentation_is_raised_and_audited(
        fleet, login_first):
    front, records, clients = fleet
    login, allocation = credentials(clients["front"])
    clients["front"].revoke(login.ref, "logged out")
    # A copy bound to a different holder: its signature cannot verify.
    stolen = Presentation(dataclasses.replace(allocation, holder="thief"),
                          holder="thief")
    presented = [login, stolen] if login_first else [stolen, login]
    first, expected = (login, CredentialRevoked) if login_first \
        else (stolen.certificate, SignatureInvalid)
    with pytest.raises(CredentialInvalid) as raised:
        activate(clients["records"], presented)
    assert type(raised.value) is expected
    ((subject, _reason),) = failures(records)
    assert subject == str(first.ref)
    assert callbacks(records) == {"rpcs": 1, "entries": 2}


def test_a_remote_failure_outranks_a_later_local_one(fleet):
    """The records node checks its own certificate before the batch goes
    out, but an earlier foreign presentation that fails still wins."""
    front, records, clients = fleet
    login, allocation = credentials(clients["front"])
    treating = activate(clients["records"], [login, Presentation(
        allocation, holder="dr")])
    _login, discharged = credentials(clients["front"], patient="pt2")
    clients["front"].revoke(discharged.ref, "discharged")
    forged = dataclasses.replace(treating, issued_at=treating.issued_at + 1)
    with pytest.raises(CredentialRevoked):
        activate(clients["records"], [Presentation(discharged, holder="dr"),
                                      forged], patient="pt2")
    ((subject, _reason),) = failures(records)
    assert subject == str(discharged.ref)


def test_a_partial_failure_caches_the_success(fleet):
    front, records, clients = fleet
    login, allocation = credentials(clients["front"])
    clients["front"].revoke(allocation.ref, "discharged")
    with pytest.raises(CredentialRevoked):
        activate(clients["records"], [login, Presentation(allocation,
                                                          holder="dr")])
    cache = service(records)._validation_cache
    assert set(cache) == {login.ref.qualified}
    assert callbacks(records) == {"rpcs": 1, "entries": 2}


@pytest.mark.parametrize("rewrite", [
    lambda verdicts: verdicts[:-1],
    lambda verdicts: verdicts + [True],
    lambda verdicts: [],
], ids=["short", "long", "empty"])
def test_a_wrong_verdict_count_fails_every_entry_closed(
        fleet, monkeypatch, rewrite):
    front, records, clients = fleet
    login, allocation = credentials(clients["front"])
    patch_verdicts(monkeypatch, front, rewrite)
    with pytest.raises(CredentialInvalid, match="unreachable"):
        activate(clients["records"], [login, Presentation(allocation,
                                                          holder="dr")])
    assert service(records).validation_cache_size == 0
    ((subject, _reason),) = failures(records)
    assert subject == str(login.ref)


@pytest.mark.parametrize("verdict", [1, "true", None, False, [True]])
def test_only_a_literal_true_verdict_validates(fleet, monkeypatch, verdict):
    front, records, clients = fleet
    login, allocation = credentials(clients["front"])
    patch_verdicts(monkeypatch, front,
                   lambda verdicts: [True, verdict])
    with pytest.raises(CredentialInvalid, match="did not validate"):
        activate(clients["records"], [login, Presentation(allocation,
                                                          holder="dr")])
    # The entry that said ``true`` is cached, the other is not.
    assert set(service(records)._validation_cache) == {login.ref.qualified}


def test_an_unreachable_peer_fails_every_entry_closed(fleet):
    front, records, clients = fleet
    login, allocation = credentials(clients["front"])
    front.close()  # the route stays known: the peer is down, not unknown
    with pytest.raises(CredentialInvalid, match="unreachable"):
        activate(clients["records"], [login, Presentation(allocation,
                                                          holder="dr")])
    assert service(records).validation_cache_size == 0
    assert service(records).stats.callbacks_made == 2
    assert callbacks(records) == {"rpcs": 1, "entries": 2}
