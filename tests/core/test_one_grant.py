"""Every credential is granted through one function.

``activate_role``, ``issue_appointment`` and the trusted
``issue_rmcs_bulk`` mint all install their credential records through
``OasisService._grant`` (Fig. 4: an RMC has one shape however it was
issued), so a bulk-minted record is the record an activation makes.  A
trusted mint cannot leave a membership constraint unwatched: it refuses a
role whose activation rules carry one.
"""

import dataclasses

import pytest

from repro.core import (
    AppointmentRule,
    OasisService,
    PolicyError,
    PrerequisiteRole,
    Presentation,
    PrincipalId,
    Role,
    RoleName,
    RoleTemplate,
    ServiceRegistry,
    Var,
)
from repro.core.access_log import AccessKind
from repro.crypto import ServiceSecret
from repro.events import EventBroker

from test_bulk_apis import World
from test_fact_retraction import DAN, policy, seeded_facts


def treating_service(membership):
    return OasisService(policy(membership), EventBroker(), ServiceRegistry(),
                        databases=seeded_facts())


def treating_role(service):
    return Role(RoleName(service.id, "treating_doctor"), ("dan", "p1"))


def test_bulk_mint_refuses_a_role_with_membership_constraints():
    service = treating_service(membership=True)
    with pytest.raises(PolicyError, match="treating_doctor"):
        service.issue_rmcs_bulk([(DAN, treating_role(service), (), None)])
    assert not service._records
    assert service.stats.rmcs_issued == 0
    assert list(service.access_log) == []
    # No serial was consumed: the next grant takes the first one.
    rmc = service.activate_role(DAN, "treating_doctor", ["dan", "p1"])
    assert rmc.ref.serial == 1


def test_bulk_mint_takes_unwatched_constraints_and_undefined_roles():
    service = treating_service(membership=False)
    ghost = Role(RoleName(service.id, "ghost"), ())
    rmcs = service.issue_rmcs_bulk([(DAN, treating_role(service), (), None),
                                    (DAN, ghost, (), None)])
    assert [rmc.ref.serial for rmc in rmcs] == [1, 2]
    assert service.stats.rmcs_issued == 2


def test_every_grant_path_calls_the_one_grant(monkeypatch):
    world = World(ServiceSecret.generate(), ServiceSecret.generate())
    world.login.policy.add_appointment_rule(AppointmentRule(
        "pass", (), (PrerequisiteRole(RoleTemplate(world.root_role,
                                                   (Var("u"),))),)))
    calls = []
    grant = OasisService._grant

    def counted(service, kind, entries, *args, **kwargs):
        calls.append((kind.span, len(entries)))
        return grant(service, kind, entries, *args, **kwargs)

    monkeypatch.setattr(OasisService, "_grant", counted)
    root = world.login.activate_role(PrincipalId("p0"), "root", ["p0"])
    world.login.issue_appointment(PrincipalId("p0"), "pass", (),
                                  [Presentation(root)], holder="p9")
    world.login.issue_rmcs_bulk([
        (PrincipalId(f"p{index}"), Role(world.root_role, (f"p{index}",)),
         (), None) for index in (1, 2)])
    assert calls == [("activate_role", 1), ("issue_appointment", 1),
                     ("activate_role", 2)]


def test_bulk_minted_record_is_the_activated_record():
    world = World(ServiceSecret.generate(), ServiceSecret.generate())
    p0 = PrincipalId("p0")
    root = world.login.activate_role(p0, "root", ["p0"], session_id="s0")
    other_root = world.login.activate_role(p0, "root", ["p0"],
                                           session_id="s0")
    activated = world.resource.activate_role(
        p0, "leaf", None, [Presentation(root)], session_id="s0")
    (minted,) = world.resource.issue_rmcs_bulk([
        (p0, Role(world.leaf_role, ("p0",)), (other_root.ref,), "s0")])
    assert minted.role == activated.role

    def fields(rmc):
        record = world.resource.credential_record(rmc.ref)
        return {field.name: getattr(record, field.name)
                for field in dataclasses.fields(record)}

    activated_fields, minted_fields = fields(activated), fields(minted)
    assert activated_fields["membership_dependencies"] == (root.ref,)
    assert minted_fields["membership_dependencies"] == (other_root.ref,)
    for caller_supplied in ("ref", "issued_at", "membership_dependencies"):
        del activated_fields[caller_supplied], minted_fields[caller_supplied]
    assert minted_fields == activated_fields

    rows = [(row.kind, row.principal, row.subject, row.detail, row.reason)
            for row in world.resource.access_log
            if row.kind == AccessKind.ACTIVATION]
    assert len(rows) == 2 and rows[0] == rows[1]
