"""Unit + property tests for certificates and credential records (Fig. 4)."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    AppointmentCertificate,
    CredentialRecord,
    CredentialRef,
    CredentialStatus,
    PrincipalId,
    Role,
    RoleMembershipCertificate,
    RoleName,
    ServiceId,
    SignatureInvalid,
)
from repro.core.credentials import CredentialRefAllocator, encode_parameters
from repro.core.exceptions import CredentialError
from repro.core.wire import certificate_text
from repro.crypto import ServiceSecret

SVC = ServiceId("hospital", "records")
ROLE = Role(RoleName(SVC, "treating_doctor"), ("d1", "p1"))


@pytest.fixture
def secret():
    return ServiceSecret.generate()


@pytest.fixture
def ref():
    return CredentialRef(SVC, 1)


class TestCredentialRef:
    def test_str_locates_issuer(self, ref):
        assert str(ref) == "hospital/records#1"

    def test_allocator_is_unique_and_monotonic(self):
        allocator = CredentialRefAllocator(SVC)
        refs = [allocator.next() for _ in range(5)]
        assert len(set(refs)) == 5
        assert [r.serial for r in refs] == [1, 2, 3, 4, 5]


class TestEncodeParameters:
    def test_ground_parameters_pass(self):
        assert encode_parameters(("a", 1, (2, "b"))) == ("a", 1, (2, "b"))

    def test_variable_rejected(self):
        from repro.core import Var

        with pytest.raises(CredentialError):
            encode_parameters((Var("x"),))


class TestRmc:
    def test_issue_and_verify(self, secret, ref):
        rmc = RoleMembershipCertificate.issue(
            secret, SVC, ROLE, ref, PrincipalId("alice"), 10.0)
        rmc.verify(secret, PrincipalId("alice"))  # no raise

    def test_principal_specific(self, secret, ref):
        """A stolen RMC fails for any other principal (Sect. 4.1 theft)."""
        rmc = RoleMembershipCertificate.issue(
            secret, SVC, ROLE, ref, PrincipalId("alice"), 10.0)
        with pytest.raises(SignatureInvalid):
            rmc.verify(secret, PrincipalId("mallory"))

    def test_tamper_with_role_parameters(self, secret, ref):
        rmc = RoleMembershipCertificate.issue(
            secret, SVC, ROLE, ref, PrincipalId("alice"), 10.0)
        forged_role = Role(ROLE.role_name, ("d1", "p999"))
        forged = dataclasses.replace(rmc, role=forged_role)
        with pytest.raises(SignatureInvalid):
            forged.verify(secret, PrincipalId("alice"))

    def test_tamper_with_ref(self, secret, ref):
        rmc = RoleMembershipCertificate.issue(
            secret, SVC, ROLE, ref, PrincipalId("alice"), 10.0)
        forged = dataclasses.replace(rmc, ref=CredentialRef(SVC, 999))
        with pytest.raises(SignatureInvalid):
            forged.verify(secret, PrincipalId("alice"))

    def test_forgery_without_secret(self, ref):
        """A correct signature cannot be generated without the secret."""
        real, fake = ServiceSecret.generate(), ServiceSecret.generate()
        forged = RoleMembershipCertificate.issue(
            fake, SVC, ROLE, ref, PrincipalId("alice"), 10.0)
        with pytest.raises(SignatureInvalid):
            forged.verify(real, PrincipalId("alice"))

    def test_bound_key_is_protected(self, secret, ref):
        rmc = RoleMembershipCertificate.issue(
            secret, SVC, ROLE, ref, PrincipalId("alice"), 10.0,
            bound_key="key:abcd")
        swapped = dataclasses.replace(rmc, bound_key="key:evil")
        with pytest.raises(SignatureInvalid):
            swapped.verify(secret, PrincipalId("alice"))

    def test_role_name_accessor(self, secret, ref):
        rmc = RoleMembershipCertificate.issue(
            secret, SVC, ROLE, ref, PrincipalId("alice"), 10.0)
        assert rmc.role_name == ROLE.role_name


class TestAppointmentCertificate:
    def issue(self, secret, ref, holder=None, expires_at=None):
        return AppointmentCertificate.issue(
            secret, SVC, "employed_as_doctor", ("hospital-1",), ref, 5.0,
            expires_at=expires_at, holder=holder)

    def test_anonymous_verifies_for_anyone(self, secret, ref):
        cert = self.issue(secret, ref, holder=None)
        cert.verify(secret, presented_holder=None)
        cert.verify(secret, presented_holder="anybody")

    def test_holder_bound_requires_matching_holder(self, secret, ref):
        cert = self.issue(secret, ref, holder="alice")
        cert.verify(secret, presented_holder="alice")
        with pytest.raises(SignatureInvalid):
            cert.verify(secret, presented_holder="mallory")
        with pytest.raises(SignatureInvalid):
            cert.verify(secret, presented_holder=None)

    def test_tampering_detected(self, secret, ref):
        cert = self.issue(secret, ref)
        forged = dataclasses.replace(cert, parameters=("hospital-2",))
        with pytest.raises(SignatureInvalid):
            forged.verify(secret, None)

    def test_expiry(self, secret, ref):
        cert = self.issue(secret, ref, expires_at=100.0)
        assert not cert.is_expired(99.9)
        assert cert.is_expired(100.0)

    def test_no_expiry_never_expires(self, secret, ref):
        cert = self.issue(secret, ref)
        assert not cert.is_expired(1e12)

    def test_secret_rotation_invalidates(self, secret, ref):
        """Sect. 4.1: appointments are re-issued under new server secrets."""
        cert = self.issue(secret, ref)
        rotated = secret.rotated()
        with pytest.raises(SignatureInvalid, match="generation"):
            cert.verify(rotated, None)

    def test_reissue_after_rotation(self, secret, ref):
        cert = self.issue(secret, ref, holder="alice")
        rotated = secret.rotated()
        fresh = cert.reissued(rotated, issued_at=50.0)
        fresh.verify(rotated, presented_holder="alice")
        assert fresh.ref == cert.ref
        assert fresh.name == cert.name


class TestFixedInputs:
    """Signatures and wire text from fixed inputs: the bytes every
    issued certificate depends on."""

    SECRET = ServiceSecret(key=b"k" * 32, generation=2)

    def test_rmc_signature_and_text(self):
        rmc = RoleMembershipCertificate.issue(
            self.SECRET, SVC, Role(RoleName(SVC, "doctor"), ("alice", 7)),
            CredentialRef(SVC, 41), PrincipalId("alice"), 1234.5,
            "key:ab12")
        assert rmc.signature.hex() == (
            "cacb870762a83cca66325348b8d2e36e1ac9cde31b4caf6cad35956d28316e6d")
        assert certificate_text(rmc) == (
            '{"kind":"rmc","issuer":{"domain":"hospital","name":"records"},'
            '"role_service":{"domain":"hospital","name":"records"},'
            '"role_name":"doctor","parameters":["alice",{"t":"int","v":"7"}],'
            '"serial":41,"issued_at":1234.5,"bound_key":"key:ab12",'
            '"signature":"cacb870762a83cca66325348b8d2e36e1ac9cde31b4caf6cad3'
            '5956d28316e6d"}')

    def test_appointment_signature_and_text(self):
        held = AppointmentCertificate.issue(
            self.SECRET, SVC, "employed", ("alice", "nurse"),
            CredentialRef(SVC, 42), 99.25, 500.0, "alice")
        assert held.signature.hex() == (
            "3719c2b4219f90e49d1c7870e7a93a430846f1f5670f55e0a64d201dcc5140d4")
        assert certificate_text(held) == (
            '{"kind":"appointment","issuer":{"domain":"hospital",'
            '"name":"records"},"name":"employed","parameters":["alice",'
            '"nurse"],"serial":42,"issued_at":99.25,"expires_at":500.0,'
            '"holder":"alice","secret_generation":2,"signature":"3719c2b421'
            '9f90e49d1c7870e7a93a430846f1f5670f55e0a64d201dcc5140d4"}')
        anonymous = AppointmentCertificate.issue(
            self.SECRET, SVC, "member", (), CredentialRef(SVC, 43), 1.0)
        assert anonymous.signature.hex() == (
            "c44a3e723fa8e9bf1c0eba0d3570f0f18e5bc1fdfd73f2fdcfcd64021eae2f43")
        assert anonymous.secret_generation == 2
        assert anonymous.wire_text is None


class TestCredentialRecord:
    def test_active_then_revoked(self, ref):
        record = CredentialRecord(ref, "rmc", PrincipalId("a"), 0.0)
        assert record.active
        assert record.revoke("testing", at=3.0)
        assert not record.active
        assert record.status == CredentialStatus.REVOKED
        assert record.revoked_reason == "testing"
        assert record.revoked_at == 3.0

    def test_revoke_is_idempotent(self, ref):
        record = CredentialRecord(ref, "rmc", PrincipalId("a"), 0.0)
        assert record.revoke("first", at=1.0)
        assert not record.revoke("second", at=2.0)
        assert record.revoked_reason == "first"


# -- property-based round-trips ----------------------------------------------

params = st.tuples(
    st.one_of(st.text(max_size=8), st.integers(-10**6, 10**6),
              st.booleans()),
).map(tuple) | st.lists(
    st.one_of(st.text(max_size=8), st.integers(-10**6, 10**6)),
    max_size=4).map(tuple)


@given(params, st.text(min_size=1, max_size=12))
def test_rmc_roundtrip_any_parameters(parameters, principal_name):
    secret = ServiceSecret(key=b"k" * 32)
    role = Role(RoleName(SVC, "r"), parameters)
    rmc = RoleMembershipCertificate.issue(
        secret, SVC, role, CredentialRef(SVC, 1),
        PrincipalId(principal_name), 0.0)
    rmc.verify(secret, PrincipalId(principal_name))


@given(params, st.text(min_size=1, max_size=12),
       st.text(min_size=1, max_size=12))
def test_rmc_rejects_other_principal(parameters, owner, thief):
    secret = ServiceSecret(key=b"k" * 32)
    role = Role(RoleName(SVC, "r"), parameters)
    rmc = RoleMembershipCertificate.issue(
        secret, SVC, role, CredentialRef(SVC, 1), PrincipalId(owner), 0.0)
    if thief != owner:
        with pytest.raises(SignatureInvalid):
            rmc.verify(secret, PrincipalId(thief))
