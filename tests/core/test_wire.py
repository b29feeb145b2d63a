"""Tests for the certificate wire format (JSON round-trips)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AppointmentCertificate,
    CredentialRef,
    PrincipalId,
    Role,
    RoleMembershipCertificate,
    RoleName,
    ServiceId,
)
from repro.core.wire import (
    WireError,
    decode_certificate,
    decode_term,
    encode_certificate,
    encode_term,
)
from repro.crypto import ServiceSecret

SVC = ServiceId("hospital", "records")
SECRET = ServiceSecret(key=b"k" * 32)


def make_rmc(parameters=("d1", "p1"), bound_key=None):
    role = Role(RoleName(SVC, "treating_doctor"), parameters)
    return RoleMembershipCertificate.issue(
        SECRET, SVC, role, CredentialRef(SVC, 7), PrincipalId("alice"),
        12.5, bound_key)


def make_appointment(parameters=("d1", "p1"), holder="d1",
                     expires_at=None):
    return AppointmentCertificate.issue(
        SECRET, SVC, "allocated", parameters, CredentialRef(SVC, 8),
        3.25, expires_at=expires_at, holder=holder)


class TestTermEncoding:
    @pytest.mark.parametrize("term", [
        None, "text", 0, -5, 10**30, 1.5, True, False, b"\x00\xff",
        (), ("a", 1), (1, (True, b"x"), None),
    ])
    def test_roundtrip(self, term):
        encoded = encode_term(term)
        json.dumps(encoded)  # must be JSON-able
        decoded = decode_term(encoded)
        assert decoded == term
        assert type(decoded) is type(term)

    def test_bool_int_distinction_survives(self):
        assert decode_term(encode_term(True)) is True
        assert decode_term(encode_term(1)) == 1
        assert not isinstance(decode_term(encode_term(1)), bool)

    def test_bad_tags_rejected(self):
        with pytest.raises(WireError):
            decode_term({"t": "alien", "v": 1})
        with pytest.raises(WireError):
            decode_term({"t": "int", "v": "not-a-number"})
        with pytest.raises(WireError):
            decode_term({"t": "bytes", "v": "zz"})
        with pytest.raises(WireError):
            decode_term({"t": "tuple", "v": "not-a-list"})
        with pytest.raises(WireError):
            decode_term(object())

    def test_unencodable_term_rejected(self):
        with pytest.raises(WireError):
            encode_term(object())


class TestCertificateRoundtrip:
    def test_rmc_roundtrip_and_verify(self):
        rmc = make_rmc(bound_key="key:abcd")
        payload = json.dumps(encode_certificate(rmc))
        decoded = decode_certificate(json.loads(payload))
        assert decoded == rmc
        decoded.verify(SECRET, PrincipalId("alice"))

    def test_appointment_roundtrip_and_verify(self):
        cert = make_appointment(expires_at=99.0)
        payload = json.dumps(encode_certificate(cert))
        decoded = decode_certificate(json.loads(payload))
        assert decoded == cert
        decoded.verify(SECRET, "d1")

    def test_anonymous_appointment_roundtrip(self):
        cert = make_appointment(holder=None)
        decoded = decode_certificate(encode_certificate(cert))
        assert decoded.holder is None
        decoded.verify(SECRET, None)

    def test_tampering_on_the_wire_detected(self):
        """Editing the wire dict produces a certificate whose signature no
        longer verifies — the wire format adds no new trust."""
        from repro.core import SignatureInvalid

        data = encode_certificate(make_rmc())
        data["parameters"] = [encode_term("d1"),
                              encode_term("p-celebrity")]
        decoded = decode_certificate(data)
        with pytest.raises(SignatureInvalid):
            decoded.verify(SECRET, PrincipalId("alice"))

    def test_unknown_kind(self):
        with pytest.raises(WireError):
            decode_certificate({"kind": "voucher"})
        with pytest.raises(WireError):
            decode_certificate("not-a-dict")

    def test_missing_field(self):
        data = encode_certificate(make_rmc())
        del data["signature"]
        with pytest.raises(WireError):
            decode_certificate(data)

    def test_decoded_certificate_usable_in_service(self, hospital):
        """End to end: a certificate that crossed the wire still activates
        the role."""
        doctor = hospital.admit_doctor("d1", "p1")
        original = doctor.appointments()[0]
        transported = decode_certificate(json.loads(json.dumps(
            encode_certificate(original))))
        from repro.core import Principal

        fresh = Principal("d1")
        fresh.store_appointment(transported)
        session = fresh.start_session(hospital.login, "logged_in_user",
                                      ["d1"])
        rmc = session.activate(hospital.records, "treating_doctor",
                               use_appointments=[transported])
        assert rmc.role.parameters == ("d1", "p1")


# -- property-based ------------------------------------------------------------

ground_params = st.lists(
    st.one_of(st.text(max_size=8), st.integers(-10**9, 10**9),
              st.booleans(), st.none(), st.binary(max_size=6),
              st.tuples(st.text(max_size=4), st.integers(0, 9))),
    max_size=4).map(tuple)


@given(ground_params)
@settings(max_examples=60)
def test_rmc_wire_roundtrip_property(parameters):
    rmc = make_rmc(parameters)
    decoded = decode_certificate(
        json.loads(json.dumps(encode_certificate(rmc))))
    assert decoded == rmc
    decoded.verify(SECRET, PrincipalId("alice"))


@given(ground_params, st.one_of(st.none(), st.text(min_size=1, max_size=8)))
@settings(max_examples=60)
def test_appointment_wire_roundtrip_property(parameters, holder):
    cert = make_appointment(parameters, holder=holder)
    decoded = decode_certificate(
        json.loads(json.dumps(encode_certificate(cert))))
    assert decoded == cert
    decoded.verify(SECRET, holder)
