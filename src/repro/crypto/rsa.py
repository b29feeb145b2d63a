"""A from-scratch RSA implementation for the PKC integration of Sect. 4.1.

The paper integrates OASIS with public/private key cryptography: a public
key of the activator of an initial role is bound into RMC signatures as a
session key, and the issuing service verifies possession of the private key
with an ISO/9798-style challenge–response.  No external crypto library is
assumed, so this module implements textbook RSA:

* Miller–Rabin probabilistic primality testing,
* key generation with configurable modulus size (small by default — the
  reproduction's security arguments are structural, not about key length),
* raw modular-exponentiation encrypt/decrypt over integers, plus a
  chunked byte interface.

Textbook RSA without OAEP is malleable; that is acceptable here because the
protocol messages it protects (challenges, nonces) are random values checked
for exact equality, and because the point of the reproduction is the
*architecture* of Sect. 4.1, not resistance to modern cryptanalysis.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "RSAPublicKey",
    "RSAPrivateKey",
    "generate_rsa_keypair",
    "is_probable_prime",
    "rsa_encrypt_int",
    "rsa_decrypt_int",
    "rsa_encrypt_bytes",
    "rsa_decrypt_bytes",
]

# Small primes used to cheaply reject candidates before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def is_probable_prime(n: int, rounds: int = 24) -> bool:
    """Miller–Rabin primality test.

    Deterministically correct for the small primes table; probabilistic with
    error probability at most 4**-rounds otherwise.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # write n - 1 = d * 2^r with d odd
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int) -> int:
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = secrets.randbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # correct size, odd
        if is_probable_prime(candidate):
            return candidate


def _egcd(a: int, b: int) -> Tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def _modinv(a: int, m: int) -> int:
    g, x, _ = _egcd(a % m, m)
    if g != 1:
        raise ValueError("no modular inverse")
    return x % m


@dataclass(frozen=True)
class RSAPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    def fingerprint(self) -> str:
        """A short stable identifier for binding the key into certificates."""
        import hashlib

        digest = hashlib.sha256(f"{self.n}:{self.e}".encode()).hexdigest()
        return digest[:16]


@dataclass(frozen=True)
class RSAPrivateKey:
    """RSA private key; keeps the public part alongside ``d``."""

    n: int
    e: int
    d: int

    @property
    def public(self) -> RSAPublicKey:
        return RSAPublicKey(self.n, self.e)


def generate_rsa_keypair(bits: int = 512) -> RSAPrivateKey:
    """Generate an RSA key pair with a modulus of roughly ``bits`` bits.

    512-bit keys keep the test suite fast; pass ``bits=2048`` for realistic
    sizes.  ``e`` is the conventional 65537, with regeneration on the rare
    gcd clash.
    """
    if bits < 64:
        raise ValueError("modulus must be at least 64 bits")
    e = 65537
    while True:
        p = _random_prime(bits // 2)
        q = _random_prime(bits - bits // 2)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        d = _modinv(e, phi)
        return RSAPrivateKey(n=n, e=e, d=d)


def rsa_encrypt_int(key: RSAPublicKey, message: int) -> int:
    """Raw RSA encryption of an integer ``0 <= message < n``."""
    if not 0 <= message < key.n:
        raise ValueError("message out of range for modulus")
    return pow(message, key.e, key.n)


def rsa_decrypt_int(key: RSAPrivateKey, ciphertext: int) -> int:
    """Raw RSA decryption of an integer ciphertext."""
    if not 0 <= ciphertext < key.n:
        raise ValueError("ciphertext out of range for modulus")
    return pow(ciphertext, key.d, key.n)


def _chunk_size(n: int) -> int:
    # Leave one byte of headroom so every chunk is < n.
    size = (n.bit_length() - 1) // 8
    if size < 1:
        raise ValueError("modulus too small to carry bytes")
    return size


def rsa_encrypt_bytes(key: RSAPublicKey, data: bytes) -> bytes:
    """Encrypt arbitrary bytes by chunking under the modulus.

    Output frames each encrypted chunk with a 4-byte big-endian length so
    decryption is unambiguous.  A leading 4-byte length of the plaintext
    allows exact reconstruction (chunk padding is implicit in int encoding).
    """
    chunk = _chunk_size(key.n)
    out = [len(data).to_bytes(4, "big")]
    for start in range(0, len(data), chunk):
        piece = data[start:start + chunk]
        value = int.from_bytes(b"\x01" + piece, "big")  # guard zero-stripping
        enc = rsa_encrypt_int(key, value)
        enc_bytes = enc.to_bytes((key.n.bit_length() + 7) // 8, "big")
        out.append(len(enc_bytes).to_bytes(4, "big"))
        out.append(enc_bytes)
    if len(data) == 0:
        pass  # header alone round-trips the empty string
    return b"".join(out)


def rsa_decrypt_bytes(key: RSAPrivateKey, blob: bytes) -> bytes:
    """Inverse of :func:`rsa_encrypt_bytes`."""
    if len(blob) < 4:
        raise ValueError("ciphertext too short")
    total = int.from_bytes(blob[:4], "big")
    pos = 4
    pieces = []
    while pos < len(blob):
        if pos + 4 > len(blob):
            raise ValueError("truncated ciphertext frame")
        frame_len = int.from_bytes(blob[pos:pos + 4], "big")
        pos += 4
        frame = blob[pos:pos + frame_len]
        if len(frame) != frame_len:
            raise ValueError("truncated ciphertext frame body")
        pos += frame_len
        value = rsa_decrypt_int(key, int.from_bytes(frame, "big"))
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        if not raw or raw[0] != 1:
            raise ValueError("corrupt chunk guard byte")
        pieces.append(raw[1:])
    data = b"".join(pieces)
    if len(data) != total:
        raise ValueError("plaintext length mismatch")
    return data
