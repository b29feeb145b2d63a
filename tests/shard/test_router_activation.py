"""Role activation through the router: ``activate_role`` and
``activate_roles_bulk`` place each new credential on its owning shard
(the session key's, or the presented credential's) and grant what a
single-process service grants; ``stats()`` reports every worker."""

from repro.core import ActivationRequest, Presentation, PrincipalId
from repro.shard import ShardRouter, shard_of_key, shard_of_ref
from shard_worlds import graph_world_factory

from test_shard_differential import in_process

ALICE = PrincipalId("alice")
SESSIONS = ["s0", "s1", "s2", "s3", "s4", "s5"]


def outcome(certificate):
    """What a grant says, minus the serial (allocators differ by shard)."""
    return (certificate.issuer, certificate.ref.service, certificate.role)


def test_activation_lands_on_the_owning_shard():
    requests = [ActivationRequest(ALICE, "role", ["alice"],
                                  session_id=session)
                for session in SESSIONS]
    plain = in_process(graph_world_factory, "A,B").services["A"]
    plain_single = plain.activate_role(ALICE, "role", ["alice"],
                                       session_id="s-single")
    plain_bulk = plain.activate_roles_bulk(requests)

    with ShardRouter(2, graph_world_factory, ("A,B",)) as router:
        single = router.activate_role("A", ALICE, "role", ["alice"],
                                      session_id="s-single")
        assert shard_of_ref(single.ref, 2) == shard_of_key("s-single", 2)
        assert outcome(single) == outcome(plain_single)

        bulk = router.activate_roles_bulk("A", requests)
        assert [shard_of_ref(cert.ref, 2) for cert in bulk] == [
            shard_of_key(session, 2) for session in SESSIONS]
        assert {shard_of_ref(cert.ref, 2) for cert in bulk} == {0, 1}
        assert [outcome(cert) for cert in bulk] == [
            outcome(cert) for cert in plain_bulk]

        # A presented credential pins the new one to its shard.
        for cert in bulk[:2]:
            pinned = router.activate_role(
                "B", ALICE, "role", ["alice"],
                credentials=[Presentation(cert)], session_id="s-other")
            assert shard_of_ref(pinned.ref, 2) == shard_of_ref(cert.ref, 2)
        assert router.invoke("A", ALICE, "ping", ["alice"],
                             credentials=[bulk[0]]) == "pong[alice]"

        stats = router.stats()
        assert stats["shards"] == 2
        assert sorted(stats["workers"]) == [0, 1]
        assert [worker["shard"] for worker in stats["workers"].values()] \
            == [0, 1]
        assert len(stats["router"]["requests_routed"]) == 2
