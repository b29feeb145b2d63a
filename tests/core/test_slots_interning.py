"""Memory-lean representation invariants: slots, interning, round-trips.

The scale sweep put ``__slots__`` on the hot per-credential classes and
routed :class:`ServiceId` / :class:`RoleName` construction through
canonicalizing intern pools.  Frozen/equality/hash semantics must be
observably unchanged, and pickling or deep-copying an interned identifier
must land back on the canonical instance (``__reduce__`` rebuilds through
the constructor).
"""

import copy
import multiprocessing
import pickle
import sys

import pytest

from repro.core.credentials import (
    CredentialRecord,
    CredentialRef,
    RoleMembershipCertificate,
)
from repro.core.terms import intern_pool, pool_stats
from repro.core.types import PrincipalId, Role, RoleName, ServiceId
from repro.crypto import ServiceSecret

SLOTTED = sys.version_info >= (3, 10)


@pytest.fixture
def svc():
    return ServiceId("hospital", "records")


class TestInterning:
    def test_service_id_is_interned(self):
        assert ServiceId("a", "b") is ServiceId("a", "b")

    def test_distinct_service_ids_distinct(self):
        assert ServiceId("a", "b") is not ServiceId("a", "c")

    def test_role_name_is_interned(self, svc):
        assert RoleName(svc, "doctor") is RoleName(svc, "doctor")

    def test_principal_id_not_interned(self):
        # Principal population is unbounded; interning it would pin every
        # principal ever seen in memory.
        assert PrincipalId("p1") is not PrincipalId("p1")
        assert PrincipalId("p1") == PrincipalId("p1")

    def test_invalid_construction_does_not_pollute_pool(self):
        with pytest.raises(ValueError):
            ServiceId("", "")
        before = pool_stats()["service_id"]["entries"]
        with pytest.raises(ValueError):
            ServiceId("dom", "")
        assert pool_stats()["service_id"]["entries"] == before

    def test_pool_stats_track_hits_and_misses(self):
        pool = intern_pool("service_id")
        baseline_hits = pool.hits
        ServiceId("interning-test", "one")   # miss (first construction)
        ServiceId("interning-test", "one")   # hit
        assert pool.hits >= baseline_hits + 1
        stats = pool_stats()
        assert {"service_id", "role_name"} <= set(stats)
        for entry in stats.values():
            assert set(entry) == {"entries", "hits", "misses"}


class TestRoundTrips:
    def test_service_id_pickle_reinterns(self, svc):
        clone = pickle.loads(pickle.dumps(svc))
        assert clone is svc

    def test_role_name_deepcopy_reinterns(self, svc):
        name = RoleName(svc, "doctor")
        assert copy.deepcopy(name) is name

    def test_credential_ref_pickle_round_trip(self, svc):
        ref = CredentialRef(svc, 42)
        clone = pickle.loads(pickle.dumps(ref))
        assert clone == ref
        assert hash(clone) == hash(ref)
        assert clone.qualified == ref.qualified
        assert clone.service is svc  # nested id re-interned

    def test_rmc_pickle_round_trip(self, svc):
        secret = ServiceSecret.generate()
        role = Role(RoleName(svc, "doctor"), ("d1",))
        rmc = RoleMembershipCertificate.issue(
            secret, svc, role, CredentialRef(svc, 1),
            PrincipalId("alice"), 1.0)
        clone = pickle.loads(pickle.dumps(rmc))
        assert clone == rmc
        clone.verify(secret, PrincipalId("alice"))  # raises on mismatch

    def test_record_deepcopy(self, svc):
        record = CredentialRecord(
            ref=CredentialRef(svc, 7), kind="rmc",
            principal=PrincipalId("p"), issued_at=0.0,
            membership_dependencies=(CredentialRef(svc, 6),),
            session_id="s7")
        clone = copy.deepcopy(record)
        assert clone.ref == record.ref
        assert clone.membership_dependencies == \
            record.membership_dependencies
        assert clone.session_id == record.session_id


class TestFrozenSemantics:
    def test_service_id_still_frozen(self, svc):
        with pytest.raises(Exception):
            svc.domain = "other"

    def test_credential_ref_still_frozen(self, svc):
        ref = CredentialRef(svc, 1)
        with pytest.raises(Exception):
            ref.serial = 2

    def test_cached_hash_consistent_with_equality(self, svc):
        ref_a = CredentialRef(svc, 5)
        ref_b = CredentialRef(ServiceId("hospital", "records"), 5)
        assert ref_a == ref_b
        assert hash(ref_a) == hash(ref_b)
        assert len({ref_a, ref_b}) == 1

    def test_ordering_preserved(self, svc):
        assert CredentialRef(svc, 1) < CredentialRef(svc, 2)
        assert ServiceId("a", "a") < ServiceId("a", "b")


def _cross_process_probe(conn):
    """Spawned-child end of the cross-process round-trip test.

    The child starts with *empty* intern pools (spawn re-imports
    everything), so the first unpickle through the pipe is what seeds
    them — a fresh canonical construction afterwards must land ``is``-
    identical to the ids that arrived over the wire.  Results go back as
    plain booleans so assertion failures surface in the parent.
    """
    try:
        svc, ref, rmc = conn.recv()
        canonical_svc = ServiceId(svc.domain, svc.name)
        canonical_name = RoleName(canonical_svc, rmc.role.role_name.name)
        conn.send({
            "svc_is_canonical": svc is canonical_svc,
            "ref_service_is_canonical": ref.service is canonical_svc,
            "ref_equal": ref == CredentialRef(canonical_svc, ref.serial),
            "rmc_issuer_is_canonical": rmc.issuer is canonical_svc,
            "rmc_role_name_is_canonical":
                rmc.role.role_name is canonical_name,
            "rmc_qualified": rmc.ref.qualified,
        })
    except BaseException as exc:  # surfaced as a dict, not a hung pipe
        conn.send({"error": repr(exc)})
    finally:
        conn.close()


class TestCrossProcessRoundTrips:
    """Pickled certificates and refs (the ``__reduce__`` paths) must
    re-intern on arrival in a process that never constructed them
    before; a ``multiprocessing`` pipe to a spawned child is the probe."""

    def test_pipe_round_trip_reinterns_in_spawned_child(self, svc):
        secret = ServiceSecret.generate()
        role = Role(RoleName(svc, "doctor"), ("d1",))
        ref = CredentialRef(svc, 42)
        rmc = RoleMembershipCertificate.issue(
            secret, svc, role, CredentialRef(svc, 7),
            PrincipalId("alice"), 1.0)

        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        child = ctx.Process(target=_cross_process_probe,
                            args=(child_conn,), daemon=True)
        child.start()
        child_conn.close()
        try:
            parent_conn.send((svc, ref, rmc))
            results = parent_conn.recv()
        finally:
            parent_conn.close()
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()

        assert "error" not in results, results
        assert results["rmc_qualified"] == rmc.ref.qualified
        for key, value in results.items():
            if key != "rmc_qualified":
                assert value is True, (key, results)


@pytest.mark.skipif(not SLOTTED, reason="dataclass slots need Python 3.10+")
class TestSlotted:
    def test_hot_classes_have_no_dict(self, svc):
        secret = ServiceSecret.generate()
        role = Role(RoleName(svc, "doctor"), ("d1",))
        ref = CredentialRef(svc, 1)
        rmc = RoleMembershipCertificate.issue(
            secret, svc, role, ref, PrincipalId("alice"), 0.0)
        record = CredentialRecord(ref=ref, kind="rmc",
                                  principal=PrincipalId("alice"),
                                  issued_at=0.0)
        for instance in (svc, RoleName(svc, "doctor"), role, ref, rmc,
                         record, PrincipalId("alice")):
            assert not hasattr(instance, "__dict__"), type(instance)
