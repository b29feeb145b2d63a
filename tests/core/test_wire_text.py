"""A certificate on the wire is one JSON string: encoded once per
certificate object (:func:`certificate_text`), decoded once per distinct
text per process (:func:`certificate_from_text`)."""

import dataclasses
import json
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    AppointmentCertificate,
    CredentialRef,
    PrincipalId,
    Role,
    RoleMembershipCertificate,
    RoleName,
    ServiceId,
    SignatureInvalid,
)
from repro.core import wire
from repro.core.wire import (
    WireError,
    certificate_from_text,
    certificate_text,
    decode_certificate,
    encode_certificate,
)
from repro.crypto import ServiceSecret

SECRET = ServiceSecret(key=b"t" * 32)
SVC = ServiceId("text", "svc")
ALICE = PrincipalId("alice")


def issue(*parameters, serial=1):
    return RoleMembershipCertificate.issue(
        SECRET, SVC, Role(RoleName(SVC, "r"), parameters),
        CredentialRef(SVC, serial), ALICE, 2.5)


def appointment():
    return AppointmentCertificate.issue(
        SECRET, SVC, "badge", ("gold",), CredentialRef(SVC, 7), 1.0,
        expires_at=9.0, holder="alice")


@pytest.fixture(autouse=True)
def fresh_map(monkeypatch):
    """Each test starts from an empty decode map of its own."""
    monkeypatch.setattr(wire, "_decoded", {})


class TestCertificateText:
    @pytest.mark.parametrize("make", [lambda: issue("p1", 42), appointment],
                             ids=["rmc", "appointment"])
    def test_text_is_the_compact_json_of_the_dict_codec(self, make):
        certificate = make()
        text = certificate_text(certificate)
        assert json.loads(text) == encode_certificate(certificate)
        assert ", " not in text and ": " not in text
        assert certificate_from_text(text) is certificate

    def test_encoded_once_per_object(self, monkeypatch):
        certificate = issue("p1")
        calls = []
        original = wire.encode_certificate
        monkeypatch.setattr(wire, "encode_certificate",
                            lambda cert: calls.append(cert) or original(cert))
        first = certificate_text(certificate)
        assert certificate_text(certificate) is first
        assert calls == [certificate]

    def test_slot_is_invisible_to_equality_hash_and_repr(self):
        certificate = issue("p1")
        twin = issue("p1")
        certificate_text(certificate)
        assert certificate.wire_text is not None and twin.wire_text is None
        assert certificate == twin and hash(certificate) == hash(twin)
        assert repr(certificate) == repr(twin)
        assert "wire_text" not in repr(certificate)

    def test_replace_yields_an_unset_slot(self):
        certificate = issue("p1")
        certificate_text(certificate)
        changed = dataclasses.replace(certificate, role=Role(
            RoleName(SVC, "r"), ("p2",)))
        assert changed.wire_text is None
        assert json.loads(certificate_text(changed))["parameters"] == ["p2"]


class TestCertificateFromText:
    def test_a_hit_returns_the_identical_object(self):
        text = json.dumps(encode_certificate(issue("p1")),
                          separators=(",", ":"))
        before = wire.decode_stats()
        first = certificate_from_text(text)
        copy = text.encode().decode()  # an equal string, as a frame has
        assert copy is not text
        again = certificate_from_text(copy)
        after = wire.decode_stats()
        assert again is first
        assert first.wire_text == text
        assert (after["misses"] - before["misses"],
                after["hits"] - before["hits"]) == (1, 1)

    def test_forwarding_a_decoded_certificate_reencodes_nothing(
            self, monkeypatch):
        text = json.dumps(encode_certificate(issue("p1")))
        decoded = certificate_from_text(text)
        monkeypatch.setattr(wire, "encode_certificate", None)  # would raise
        assert certificate_text(decoded) is text

    def test_a_variant_text_decodes_equal_under_its_own_entry(self):
        data = encode_certificate(issue("p1", 3))
        compact = json.dumps(data, separators=(",", ":"))
        reordered = json.dumps(dict(reversed(list(data.items()))))
        spaced = json.dumps(data, indent=2)
        decoded = [certificate_from_text(text)
                   for text in (compact, reordered, spaced)]
        assert decoded[0] == decoded[1] == decoded[2]
        assert len({id(certificate) for certificate in decoded}) == 3
        assert [certificate.wire_text for certificate in decoded] == \
            [compact, reordered, spaced]
        for certificate in decoded:
            certificate.verify(SECRET, ALICE)

    def test_numbers_and_bools_keep_their_types(self):
        """JSON ``1``, ``1.0`` and ``true`` are equal as dict values: the
        key is the exact text, never the parse."""
        data = encode_certificate(issue(1))
        texts = []
        for parameter in (1, 1.0, {"t": "bool", "v": True},
                          {"t": "int", "v": "1"}):
            texts.append(json.dumps(dict(data, parameters=[parameter])))
        decoded = [certificate_from_text(text).role.parameters[0]
                   for text in texts]
        assert [type(value) for value in decoded] == [int, float, bool, int]

    def test_a_tampered_text_misses_then_fails_verification(self):
        certificate = issue("p1")
        text = certificate_text(certificate)
        tampered = text.replace('"p1"', '"p2"')
        assert tampered != text
        forged = certificate_from_text(tampered)
        assert forged is not certificate
        assert forged.role.parameters == ("p2",)
        with pytest.raises(SignatureInvalid):
            forged.verify(SECRET, ALICE)

    def test_the_cap_clears_the_whole_map(self, monkeypatch):
        monkeypatch.setattr(wire, "CERTIFICATE_CACHE_MAX", 3)
        texts = [certificate_text(issue("p", serial=serial))
                 for serial in range(1, 4)]
        assert wire.decode_stats()["size"] == 3
        fourth = issue("p", serial=4)
        certificate_text(fourth)
        assert wire.decode_stats()["size"] == 1
        # Dropped texts decode again (to equal certificates); the newest
        # one is still there.
        assert certificate_from_text(texts[0]) == issue("p", serial=1)
        assert certificate_from_text(fourth.wire_text) is fourth

    @pytest.mark.parametrize("value", [None, 7, b"{}", {"kind": "rmc"},
                                       ["x"]])
    def test_a_cert_that_is_not_a_string_is_a_wire_error(self, value):
        with pytest.raises(WireError):
            certificate_from_text(value)

    @pytest.mark.parametrize("text", [
        "", "{", "[]", "null", '{"kind": "rmc"}', '{"kind": "voucher"}',
        '"rmc"', "[" * 5000 + "]" * 5000,
        json.dumps(dict(encode_certificate(issue("p")), serial=1e400)),
        json.dumps(dict(encode_certificate(issue("p")), issued_at=10 ** 400)),
        json.dumps(dict(encode_certificate(issue("p")),
                        parameters=[{"t": "tuple", "v": []}] * 2,
                        signature="zz")),
    ])
    def test_malformed_text_is_a_wire_error(self, text):
        with pytest.raises(WireError):
            certificate_from_text(text)


def test_threads_sharing_the_map_lose_no_count_and_keep_the_cap(
        monkeypatch):
    monkeypatch.setattr(wire, "CERTIFICATE_CACHE_MAX", 5)
    texts = [json.dumps(encode_certificate(issue("p", serial=serial)))
             for serial in range(1, 9)]
    rounds, workers = 400, 8
    before = wire.decode_stats()
    oversized = []

    def decode_all():
        for _ in range(rounds):
            for text in texts:
                assert certificate_from_text(text).wire_text == text
                if wire.decode_stats()["size"] > 5:
                    oversized.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode_all)
                   for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    after = wire.decode_stats()
    assert (after["hits"] + after["misses"]) \
        - (before["hits"] + before["misses"]) == rounds * workers * len(texts)
    assert not oversized


@given(st.text())
@settings(max_examples=300, deadline=None)
def test_arbitrary_strings_decode_or_raise_wire_error(text):
    try:
        certificate = certificate_from_text(text)
    except WireError:
        return
    assert decode_certificate(json.loads(text)) == certificate


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=16)
certificate_keys = st.sampled_from(sorted(
    set(encode_certificate(issue("p"))) | set(encode_certificate(
        appointment()))))


@given(st.dictionaries(certificate_keys, json_values),
       st.sampled_from(["rmc", "appointment"]))
@settings(max_examples=300, deadline=None)
def test_certificate_shaped_json_decodes_or_raises_wire_error(data, kind):
    """Right keys, arbitrary values: the codec's own errors only."""
    try:
        certificate_from_text(json.dumps(dict(data, kind=kind)))
    except WireError:
        pass


@given(st.integers(min_value=0, max_value=400), st.characters())
@example(position=359, character="\ud800")  # a lone surrogate
@settings(max_examples=300, deadline=None)
def test_one_changed_character_never_verifies(position, character):
    certificate = issue("p1", 2)
    text = certificate_text(certificate)
    index = position % len(text)
    mutated = text[:index] + character + text[index + 1:]
    if mutated == text:
        return
    try:
        decoded = certificate_from_text(mutated)
    except WireError:
        return
    if decoded == certificate:
        return  # whitespace or an equal spelling: the same certificate
    with pytest.raises(SignatureInvalid):
        decoded.verify(SECRET, ALICE)
