"""The exact-type ``canonical_encode`` yields the bytes of the isinstance
chain it replaced (``tests/reference/canonical.py``): every signature
issued under the old encoder must keep verifying."""

import enum
import math
from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from repro.core.credentials import (
    AppointmentCertificate,
    CredentialRef,
    RoleMembershipCertificate,
)
from repro.core.types import Role, RoleName, ServiceId
from repro.crypto import canonical_encode
from tests.reference import reference_canonical_encode

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e300]),
    st.text(),
    st.binary(),
)
field_values = st.recursive(leaves, lambda children: st.lists(
    children, max_size=4).map(tuple), max_leaves=12)


@given(field_values)
def test_byte_identical_to_the_reference(value):
    assert canonical_encode(value) == reference_canonical_encode(value)


class Flag(enum.IntEnum):
    ON = 1


class Name(str):
    pass


Pair = namedtuple("Pair", "left right")


@pytest.mark.parametrize("value", [
    Flag.ON, Name("alice"), Pair("a", 1), (Name("x"), (Flag.ON,)),
    Pair(Pair(None, b"\x01"), 2.5),
], ids=["int-subclass", "str-subclass", "tuple-subclass", "nested",
        "nested-tuple-subclass"])
def test_subclasses_take_the_general_rule(value):
    assert canonical_encode(value) == reference_canonical_encode(value)


@pytest.mark.parametrize("value", [[1], {"a": 1}, object(), ("ok", [2])])
def test_unsupported_types_raise_type_error(value):
    with pytest.raises(TypeError):
        reference_canonical_encode(value)
    with pytest.raises(TypeError):
        canonical_encode(value)


# -- golden vectors: the signed message of one RMC and one appointment -------

RECORDS = ServiceId("hospital", "records")
ADMIN = ServiceId("hospital", "admin")

RMC = RoleMembershipCertificate(
    issuer=RECORDS,
    role=Role(RoleName(RECORDS, "treating_doctor"),
              ("dr-1", "pt-é", 42, -0.0, True, None, b"\x00\xff",
               ("n", 2 ** 70))),
    ref=CredentialRef(RECORDS, 17), issued_at=1712345678.25,
    bound_key="fp:ab12")
RMC_MESSAGE = (
    b"T181:S4:dr-1T169:S3:rmcS32:hospital/records:treating_doctor"
    b"T73:S4:dr-1S5:pt-\xc3\xa9I2:42F4:-0.0B1:\x01N0:Y2:\x00\xff"
    b"T30:S1:nI22:1180591620717411303424S19:hospital/records#17"
    b"F13:1712345678.25S7:fp:ab12")

APPOINTMENT = AppointmentCertificate(
    issuer=ADMIN, name="allocated", parameters=("dr-1", "pt-1"),
    ref=CredentialRef(ADMIN, 3), issued_at=10.5, expires_at=math.inf,
    holder="dr-1")
APPOINTMENT_MESSAGE = (
    b"T96:S4:dr-1T85:S11:appointmentS9:allocatedT14:S4:dr-1S4:pt-1"
    b"S16:hospital/admin#3F4:10.5F3:infS4:dr-1")


@pytest.mark.parametrize("certificate, message", [
    (RMC, RMC_MESSAGE), (APPOINTMENT, APPOINTMENT_MESSAGE),
], ids=["rmc", "appointment"])
def test_golden_signed_message(certificate, message):
    signed = ("dr-1", certificate.protected_fields())
    assert canonical_encode(signed) == message
    assert reference_canonical_encode(signed) == message
