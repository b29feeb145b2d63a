"""The isinstance-chain field encoding that signed every certificate before
``repro.crypto.hmac_sig.canonical_encode`` dispatched on exact types.

Kept verbatim as the oracle: the production encoder must yield the same
bytes for every field value, or every signature issued before the change
stops verifying.
"""

from __future__ import annotations

from typing import Any


def canonical_encode(value: Any) -> bytes:
    """Encode a field value injectively as bytes.

    Every value is tagged with a one-byte type marker and length-prefixed so
    that concatenation of encodings is unambiguous.
    """
    if value is None:
        return b"N0:"
    if isinstance(value, bool):  # must precede int: bool is a subclass
        return b"B1:" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        raw = str(value).encode("ascii")
        return b"I" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(value, float):
        raw = repr(value).encode("ascii")
        return b"F" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + str(len(raw)).encode("ascii") + b":" + raw
    if isinstance(value, bytes):
        return b"Y" + str(len(value)).encode("ascii") + b":" + value
    if isinstance(value, tuple):
        parts = b"".join(canonical_encode(item) for item in value)
        return b"T" + str(len(parts)).encode("ascii") + b":" + parts
    raise TypeError(f"cannot encode field of type {type(value).__name__}")
