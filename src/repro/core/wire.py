"""Wire encoding of certificates: JSON-able dictionaries, sent as text.

The simulator passes certificate objects by reference; a real deployment
serialises them.  This module defines the interchange format — flat,
JSON-compatible dictionaries (bytes as hex, parameters as tagged trees so
tuples, bools and numbers survive the trip) — and the corresponding
decoders.  Signatures are computed over the *canonical field encoding*
(:mod:`repro.crypto.hmac_sig`), not over this representation, so
re-encoding does not invalidate certificates.

On the wire a certificate is an opaque token: the compact JSON text of
its dict (:func:`certificate_text`), memoised on the certificate, so a
certificate is serialised once however often it is presented or
forwarded.  :func:`certificate_from_text` decodes a text once per
process: the same exact text later returns the identical frozen object.
The key is the exact string, never a parse of it — JSON ``1``, ``1.0``
and ``true`` compare equal as dict values but decode to different terms.

Round-tripping is property-tested: ``decode(encode(cert)) == cert`` and
the decoded certificate still verifies.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Tuple, Union

from .credentials import (
    AppointmentCertificate,
    CredentialRef,
    RoleMembershipCertificate,
)
from .exceptions import CredentialError
from .terms import Term
from .types import Role, RoleName, ServiceId

__all__ = [
    "encode_certificate",
    "decode_certificate",
    "certificate_text",
    "certificate_from_text",
    "decode_stats",
    "CERTIFICATE_CACHE_MAX",
    "encode_term",
    "decode_term",
    "WireError",
]


class WireError(CredentialError):
    """Malformed wire data."""


# -- terms ---------------------------------------------------------------------

def encode_term(term: Term) -> Any:
    """Encode a ground term as a JSON-able tagged value."""
    if term is None or isinstance(term, (str, float)) \
            and not isinstance(term, bool):
        return term
    if isinstance(term, bool):
        return {"t": "bool", "v": term}
    if isinstance(term, int):
        return {"t": "int", "v": str(term)}  # ints may exceed JSON range
    if isinstance(term, str):
        return term
    if isinstance(term, bytes):
        return {"t": "bytes", "v": term.hex()}
    if isinstance(term, tuple):
        return {"t": "tuple", "v": [encode_term(sub) for sub in term]}
    raise WireError(f"cannot encode term of type {type(term).__name__}")


def decode_term(data: Any) -> Term:
    """Inverse of :func:`encode_term`."""
    if data is None or isinstance(data, (str, float)):
        return data
    if isinstance(data, bool):  # bare bools never appear, but accept them
        return data
    if isinstance(data, int):
        return data
    if isinstance(data, dict):
        tag = data.get("t")
        value = data.get("v")
        if tag == "bool":
            return bool(value)
        if tag == "int":
            try:
                return int(value)
            except (TypeError, ValueError):
                raise WireError(f"bad int payload {value!r}") from None
        if tag == "bytes":
            try:
                return bytes.fromhex(value)
            except (TypeError, ValueError):
                raise WireError(f"bad bytes payload {value!r}") from None
        if tag == "tuple":
            if not isinstance(value, list):
                raise WireError("tuple payload must be a list")
            return tuple(decode_term(sub) for sub in value)
        raise WireError(f"unknown term tag {tag!r}")
    raise WireError(f"cannot decode term from {type(data).__name__}")


def _encode_params(parameters: Tuple[Term, ...]) -> list:
    return [encode_term(parameter) for parameter in parameters]


def _decode_params(data: Any) -> Tuple[Term, ...]:
    if not isinstance(data, list):
        raise WireError("parameters must be a list")
    return tuple(decode_term(item) for item in data)


def _encode_service(service: ServiceId) -> Dict[str, str]:
    return {"domain": service.domain, "name": service.name}


def _decode_service(data: Any) -> ServiceId:
    try:
        return ServiceId(data["domain"], data["name"])
    except (TypeError, KeyError, ValueError) as error:
        raise WireError(f"bad service id: {error}") from error


# -- certificates --------------------------------------------------------------

Certificate = Union[RoleMembershipCertificate, AppointmentCertificate]


def encode_certificate(certificate: Certificate) -> Dict[str, Any]:
    """Encode either certificate kind as a JSON-able dict."""
    if isinstance(certificate, RoleMembershipCertificate):
        return {
            "kind": "rmc",
            "issuer": _encode_service(certificate.issuer),
            "role_service": _encode_service(certificate.role.service),
            "role_name": certificate.role.role_name.name,
            "parameters": _encode_params(certificate.role.parameters),
            "serial": certificate.ref.serial,
            "issued_at": certificate.issued_at,
            "bound_key": certificate.bound_key,
            "signature": certificate.signature.hex(),
        }
    if isinstance(certificate, AppointmentCertificate):
        return {
            "kind": "appointment",
            "issuer": _encode_service(certificate.issuer),
            "name": certificate.name,
            "parameters": _encode_params(certificate.parameters),
            "serial": certificate.ref.serial,
            "issued_at": certificate.issued_at,
            "expires_at": certificate.expires_at,
            "holder": certificate.holder,
            "secret_generation": certificate.secret_generation,
            "signature": certificate.signature.hex(),
        }
    raise WireError(
        f"cannot encode certificate of type {type(certificate).__name__}")


def decode_certificate(data: Any) -> Certificate:
    """Inverse of :func:`encode_certificate`."""
    if not isinstance(data, dict):
        raise WireError("certificate wire data must be a dict")
    kind = data.get("kind")
    try:
        if kind == "rmc":
            issuer = _decode_service(data["issuer"])
            role = Role(
                RoleName(_decode_service(data["role_service"]),
                         data["role_name"]),
                _decode_params(data["parameters"]))
            return RoleMembershipCertificate(
                issuer=issuer, role=role,
                ref=CredentialRef(issuer, int(data["serial"])),
                issued_at=float(data["issued_at"]),
                bound_key=data.get("bound_key"),
                signature=bytes.fromhex(data["signature"]))
        if kind == "appointment":
            issuer = _decode_service(data["issuer"])
            expires = data.get("expires_at")
            return AppointmentCertificate(
                issuer=issuer, name=data["name"],
                parameters=_decode_params(data["parameters"]),
                ref=CredentialRef(issuer, int(data["serial"])),
                issued_at=float(data["issued_at"]),
                expires_at=float(expires) if expires is not None else None,
                holder=data.get("holder"),
                secret_generation=int(data.get("secret_generation", 0)),
                signature=bytes.fromhex(data["signature"]))
    except WireError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise WireError(f"malformed {kind!r} certificate: {error}") \
            from error
    raise WireError(f"unknown certificate kind {kind!r}")


# -- certificates as text ------------------------------------------------------

#: Distinct certificate texts one process keeps decoded; on overflow the
#: whole map is dropped (a clear costs one re-parse per text still in use).
CERTIFICATE_CACHE_MAX = 1024

_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False)
# Connection threads and clients share the map: the lock keeps the cap
# check-then-clear and the counters whole.
_lock = threading.Lock()
_decoded: Dict[str, Certificate] = {}
_hits = 0
_misses = 0


def certificate_text(certificate: Certificate) -> str:
    """The certificate's wire token: the compact JSON text of
    :func:`encode_certificate`, computed once per certificate object.
    A freshly encoded text also enters the decode map, so a certificate
    this process issued comes back to it as the identical object."""
    text = getattr(certificate, "wire_text", None)
    if text is None:
        text = _COMPACT.encode(encode_certificate(certificate))
        object.__setattr__(certificate, "wire_text", text)
        _remember(text, certificate)
    return text


def certificate_from_text(text: Any) -> Certificate:
    """Inverse of :func:`certificate_text`; the identical object for a
    text this process has seen, otherwise parsed, decoded and kept (with
    ``text`` as its wire form, so forwarding it re-encodes nothing)."""
    global _hits, _misses
    if type(text) is not str:
        raise WireError(
            f"certificate must travel as a JSON string, not "
            f"{type(text).__name__}")
    with _lock:
        certificate = _decoded.get(text)
        if certificate is not None:
            _hits += 1
            return certificate
        _misses += 1
    try:
        certificate = decode_certificate(json.loads(text))
    except (ValueError, RecursionError) as error:  # incl. JSONDecodeError
        raise WireError(f"certificate text is not a certificate: "
                        f"{error}") from error
    object.__setattr__(certificate, "wire_text", text)
    _remember(text, certificate)
    return certificate


def _remember(text: str, certificate: Certificate) -> None:
    with _lock:
        if len(_decoded) >= CERTIFICATE_CACHE_MAX:
            _decoded.clear()
        _decoded[text] = certificate


def decode_stats() -> Dict[str, int]:
    """This process's decode map: ``hits``, ``misses`` and ``size``."""
    with _lock:
        return {"hits": _hits, "misses": _misses, "size": len(_decoded)}
