"""Cached validations and verified signatures are bound to the certificate.

The holder's validation cache is keyed by (CRR, requester, holder claim)
and the issuer's signature cache by (CRR, principal, holder claim, secret
generation): neither key names the certificate's content.  A copy of a
certificate whose validation is cached, with one field changed but the
same ref and signature, must still go back to its issuer — and fail
there — not ride the cached entry.  Sect. 4.1's tampering guarantee must
hold in-process, over sockets and for a validation cached again after a
restart; a mutant whose binding check always passes is killed by every
deployment shape below.
"""

import dataclasses
import time

import pytest

from repro.core import (
    ActivationRule,
    OasisService,
    Presentation,
    PrerequisiteRole,
    PrincipalId,
    Role,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    SignatureInvalid,
    Var,
)
from repro.core import service as service_module
from repro.core.state import ServiceStateCodec
from repro.db import MemoryRecordStore, SqliteRecordStore
from repro.events import EventBroker
from repro.netd.client import OasisClient, RemoteNetwork
from repro.netd.server import OasisServer
from repro.netd.worlds import NodeContext, ehr_front, ehr_national, ehr_records


def refused(operation):
    """True when ``operation`` is refused as a forgery, False when it is
    granted (anything else is a bug and propagates)."""
    try:
        operation()
    except SignatureInvalid:
        return True
    return False


def tampered_fig3(front, records, national):
    """The Fig. 3 script up to one legitimate ``request_EHR``, then a
    ``treating_doctor`` RMC edited to name another patient.  Returns
    whether each tampered use was refused."""
    registrar = national.activate("registry", "registrar", "registrar")
    accreditation = national.appoint(
        "registry", "registrar", "accredited_hospital", ["addenbrookes"],
        credentials=[registrar], holder="gateway")
    gateway = national.activate(
        "patient-records", "gateway", "hospital", ["addenbrookes"],
        credentials=[Presentation(accreditation, holder="gateway")])
    admin_login = front.activate("login", "admin", "logged_in_user",
                                 ["admin"])
    admin = front.activate("admin", "admin", "administrator", ["admin"],
                           credentials=[admin_login])

    def treating_doctor(patient):
        allocation = front.appoint("admin", "admin", "allocated",
                                   ["dr", patient], credentials=[admin],
                                   holder="dr")
        login = front.activate("login", "dr", "logged_in_user", ["dr"])
        return records.activate(
            "records", "dr", "treating_doctor", ["dr", patient],
            credentials=[login, Presentation(allocation, holder="dr")])

    def request_ehr(certificate, patient):
        return national.invoke(
            "patient-records", "gateway", "request_EHR", [patient],
            credentials=[gateway, Presentation(certificate,
                                               on_behalf_of="dr")])

    def edit(certificate, patient):
        return dataclasses.replace(certificate, role=Role(
            certificate.role.role_name, ("dr", patient)))

    treating = treating_doctor("p1")
    # Caches the validation at national and the signature at records.
    assert request_ehr(treating, "p1") == ["2019: appendectomy",
                                           "2023: allergy noted"]
    tampered = edit(treating, "p-celebrity")
    never_cached = edit(treating_doctor("p2"), "p-celebrity")
    return {
        "request_EHR": refused(lambda: request_ehr(tampered,
                                                   "p-celebrity")),
        "read_record": refused(lambda: records.invoke(
            "records", "dr", "read_record", ["p-celebrity"],
            credentials=[tampered])),
        "never_cached": refused(lambda: request_ehr(never_cached,
                                                    "p-celebrity")),
    }


class LocalClient:
    """The ``OasisClient`` calls the script makes, on in-process
    services."""

    def __init__(self, services):
        self.services = services

    @staticmethod
    def _presented(credentials):
        return [credential if isinstance(credential, Presentation)
                else Presentation(credential) for credential in credentials]

    def activate(self, service, principal, role, parameters=None,
                 credentials=()):
        return self.services[service].activate_role(
            PrincipalId(principal), role, parameters,
            self._presented(credentials))

    def appoint(self, service, appointer, name, parameters, credentials=(),
                holder=None):
        return self.services[service].issue_appointment(
            PrincipalId(appointer), name, parameters,
            self._presented(credentials), holder=holder)

    def invoke(self, service, principal, method, arguments=(),
               credentials=()):
        return self.services[service].invoke(
            PrincipalId(principal), method, arguments,
            self._presented(credentials))


def in_process():
    ctx = NodeContext("inproc", EventBroker(), ServiceRegistry(), None)
    services = {}
    for factory in (ehr_front, ehr_records, ehr_national):
        services.update(factory(ctx).services)
    client = LocalClient(services)
    return tampered_fig3(client, client, client)


def served():
    """Front, records and national as served nodes over loopback; records
    and national validate by callback over TCP."""
    servers, clients, networks = [], [], []
    peers = {}
    try:
        for name, factory, upstream in (
                ("front", ehr_front, None),
                ("records", ehr_records, "front"),
                ("national", ehr_national, "records")):
            network = RemoteNetwork(name, peers={
                upstream: peers[upstream]} if upstream else {})
            networks.append(network)
            world = factory(NodeContext(name, EventBroker(),
                                        ServiceRegistry(), network,
                                        clock=time.time))
            server = OasisServer(name, world.services, network=network)
            servers.append(server.start())
            peers[name] = ("127.0.0.1", server.port)
            clients.append(OasisClient("127.0.0.1", server.port, peer=name))
        return tampered_fig3(*clients)
    finally:
        for closable in clients + servers + networks:
            closable.close()


def resumed(backend, tmp_path):
    """A portal caches a login RMC's validation, both services restart
    from their stores, one presentation caches it again, then an edited
    copy of the RMC is presented."""
    def open_store(name):
        if backend == "sqlite":
            return SqliteRecordStore(str(tmp_path / f"{name}.db"),
                                     codec=ServiceStateCodec())
        return MemoryRecordStore(ServiceStateCodec())

    login_policy = ServicePolicy(ServiceId("dom", "login"))
    logged_in = login_policy.define_role("logged_in_user", 1)
    login_policy.add_activation_rule(
        ActivationRule(RoleTemplate(logged_in, (Var("u"),))))
    portal_policy = ServicePolicy(ServiceId("dom", "portal"))
    visitor = portal_policy.define_role("visitor", 1)
    portal_policy.add_activation_rule(ActivationRule(
        RoleTemplate(visitor, (Var("u"),)),
        (PrerequisiteRole(RoleTemplate(logged_in, (Var("u"),))),)))

    broker, registry = EventBroker(), ServiceRegistry()
    login = OasisService(login_policy, broker, registry,
                         store=open_store("login"))
    portal = OasisService(portal_policy, broker, registry,
                          store=open_store("portal"))
    alice = PrincipalId("alice")
    rmc = login.activate_role(alice, "logged_in_user", ["alice"])
    portal.activate_role(alice, "visitor", ["alice"], [Presentation(rmc)])
    stores = {"login": login.store, "portal": portal.store}
    if backend == "sqlite":
        for name, store in stores.items():
            store.close()  # a clean stop: everything flushed
            stores[name] = open_store(name)

    broker, registry = EventBroker(), ServiceRegistry()
    OasisService(login_policy, broker, registry, store=stores["login"])
    portal = OasisService(portal_policy, broker, registry,
                          store=stores["portal"])
    try:
        assert portal.validation_cache_size == 0  # volatile
        callbacks = portal.stats.callbacks_made
        portal.activate_role(alice, "visitor", ["alice"], [Presentation(rmc)])
        assert portal.stats.callbacks_made == callbacks + 1
        assert portal.validation_cache_size == 1  # cached again, bound
        edited = dataclasses.replace(rmc, role=Role(rmc.role.role_name,
                                                    ("root",)))
        return {"visitor": refused(lambda: portal.activate_role(
            alice, "visitor", ["root"], [Presentation(edited)]))}
    finally:
        for store in stores.values():
            store.close()


SHAPES = {
    "in-process": lambda tmp_path: in_process(),
    "served": lambda tmp_path: served(),
    "resumed-memory": lambda tmp_path: resumed("memory", tmp_path),
    "resumed-sqlite": lambda tmp_path: resumed("sqlite", tmp_path),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_an_edited_copy_of_a_cached_certificate_is_refused(shape, tmp_path):
    outcomes = SHAPES[shape](tmp_path)
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_tests_kill_a_binding_check_that_always_passes(
        shape, tmp_path, monkeypatch):
    monkeypatch.setattr(service_module, "same_certificate",
                        lambda held, presented: True)
    outcomes = SHAPES[shape](tmp_path)
    # Every edited copy of a CACHED certificate now rides the cache...
    assert not any(refused for use, refused in outcomes.items()
                   if use != "never_cached"), outcomes
    # ...while one that was never cached still reaches its issuer.
    assert outcomes.get("never_cached", True)
