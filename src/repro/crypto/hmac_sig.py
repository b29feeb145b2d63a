"""Keyed signatures over certificate fields (Fig. 4 of the paper).

OASIS certificates are protected by a signature computed from the protected
fields, the principal id, and a SECRET held by the issuing service::

    F(principal_id, protected RMC fields, SECRET) = signature

We realise ``F`` as HMAC-SHA256 over a canonical, injective byte encoding of
the fields.  The security properties the paper claims follow directly:

* **tampering** — changing any protected field invalidates the signature;
* **forgery** — a correct signature cannot be produced without the secret;
* **theft** — the principal id enters the MAC, so a stolen certificate fails
  verification when presented under a different principal id.

The encoding must be *injective* (no two distinct field sequences encode to
the same bytes), otherwise an attacker could shift data between fields.  We
use a length-prefixed, type-tagged encoding.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import weakref
from dataclasses import dataclass, field
from typing import Sequence, Tuple, Union

__all__ = ["ServiceSecret", "canonical_encode", "sign_fields", "verify_fields"]

#: Values that may appear in certificate fields.
FieldValue = Union[str, int, float, bool, None, bytes, Tuple["FieldValue", ...]]


@dataclass(frozen=True)
class ServiceSecret:
    """A secret held by a certificate-issuing service.

    The paper notes that long-lived appointment certificates "would be
    re-issued, encrypted with a new server secret, from time to time"
    (Sect. 4.1); :meth:`rotated` models exactly that — a fresh secret with a
    bumped generation number, so certificates signed under an old secret can
    be recognised as stale.
    """

    key: bytes = field(repr=False)
    generation: int = 0

    def __post_init__(self) -> None:
        if len(self.key) < 16:
            raise ValueError("service secret must be at least 16 bytes")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")

    @classmethod
    def generate(cls) -> "ServiceSecret":
        return cls(key=secrets.token_bytes(32), generation=0)

    def rotated(self) -> "ServiceSecret":
        """Return a fresh secret with the next generation number."""
        return ServiceSecret(key=secrets.token_bytes(32),
                             generation=self.generation + 1)


def canonical_encode(value: FieldValue) -> bytes:
    """Encode a field value injectively as bytes.

    Every value is tagged with a one-byte type marker and length-prefixed so
    that concatenation of encodings is unambiguous.

    Every certificate signature and check runs this, so the exact field
    types are dispatched first, commonest first; subclasses (and the
    ``TypeError`` for anything else) take :func:`_encode_subclass`, which
    yields the same bytes.
    """
    kind = type(value)
    if kind is str:
        # surrogatepass: a lone surrogate decoded off the wire must fail
        # the MAC check, not escape it as a UnicodeEncodeError.
        raw = value.encode("utf-8", "surrogatepass")
        return b"S%d:%b" % (len(raw), raw)
    if kind is tuple:
        parts = b"".join([canonical_encode(item) for item in value])
        return b"T%d:%b" % (len(parts), parts)
    if value is None:
        return b"N0:"
    if kind is float:
        raw = repr(value).encode("ascii")
        return b"F%d:%b" % (len(raw), raw)
    if kind is int:
        raw = b"%d" % value
        return b"I%d:%b" % (len(raw), raw)
    if kind is bool:
        return b"B1:\x01" if value else b"B1:\x00"
    if kind is bytes:
        return b"Y%d:%b" % (len(value), value)
    return _encode_subclass(value)


def _encode_subclass(value: FieldValue) -> bytes:
    """The general rule behind :func:`canonical_encode`'s fast paths."""
    if isinstance(value, bool):  # must precede int: bool is a subclass
        return b"B1:" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        raw = str(value).encode("ascii")
        return b"I" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(value, float):
        raw = repr(value).encode("ascii")
        return b"F" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(value, str):
        raw = value.encode("utf-8", "surrogatepass")
        return b"S" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(value, bytes):
        return b"Y" + str(len(value)).encode("ascii") + b":" + value
    if isinstance(value, tuple):
        parts = b"".join(canonical_encode(item) for item in value)
        return b"T" + str(len(parts)).encode("ascii") + b":" + parts
    raise TypeError(f"cannot encode field of type {type(value).__name__}")


def _message(principal_id: str, fields: Sequence[FieldValue]) -> bytes:
    return canonical_encode((principal_id, tuple(fields)))


# HMAC key schedules, precomputed once per secret.  ``hmac.new`` re-derives
# the inner/outer pads from the key on every call; cloning a prepared
# template with ``.copy()`` skips that work on the sign/verify hot paths.
# Weak keys let secrets (and their templates) be garbage collected.
_MAC_TEMPLATES: "weakref.WeakKeyDictionary[ServiceSecret, hmac.HMAC]" = \
    weakref.WeakKeyDictionary()


def _mac_digest(secret: ServiceSecret, message: bytes) -> bytes:
    template = _MAC_TEMPLATES.get(secret)
    if template is None:
        template = hmac.new(secret.key, digestmod=hashlib.sha256)
        _MAC_TEMPLATES[secret] = template
    mac = template.copy()
    mac.update(message)
    return mac.digest()


def sign_fields(secret: ServiceSecret, principal_id: str,
                fields: Sequence[FieldValue]) -> bytes:
    """Compute ``F(principal_id, fields, SECRET)`` as in Fig. 4.

    ``principal_id`` is an argument to the MAC but is *not* itself one of the
    protected fields — exactly as the paper describes ("Although not visible
    as a parameter field in the RMC, a principal id is an argument to the
    encryption function that generates the signature").
    """
    return _mac_digest(secret, _message(principal_id, fields))


def verify_fields(secret: ServiceSecret, principal_id: str,
                  fields: Sequence[FieldValue], signature: bytes) -> bool:
    """Constant-time verification of a field signature."""
    expected = sign_fields(secret, principal_id, fields)
    return hmac.compare_digest(expected, signature)
