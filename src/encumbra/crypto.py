"""Hashing, deterministic signatures, and seeded key derivation.

The engine fixes one hash (sha256) and one signature scheme (Ed25519)
per deployment.  Ed25519 is deterministic by construction, which gives
the engine its "same (sk, m), same signature" guarantee without extra
state.  Addresses are the last 20 bytes of sha256(public key).

All key material in a run is derived from the run seed through a
label-separated counter DRBG, so two runs with equal seeds mint equal
keys regardless of command interleaving.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature as _LibInvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

ADDRESS_BYTES = 20


def digest(data: bytes) -> bytes:
    """256-bit engine hash."""
    return hashlib.sha256(data).digest()


def address_of(public_key: bytes) -> bytes:
    """Chain address: last 20 bytes of hash(public key)."""
    return digest(public_key)[-ADDRESS_BYTES:]


@dataclass(frozen=True)
class Signature:
    """A signature together with the public key it verifies under.

    The scheme has no sender recovery, so the public key travels with
    the signature; verifiers must check the key matches the expected
    address themselves.
    """

    public_key: bytes
    data: bytes

    def to_hex(self) -> str:
        return (self.public_key + self.data).hex()


class SigningKey:
    """Ed25519 signing key with raw-bytes export for escrow."""

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise ValueError("signing key seed must be 32 bytes")
        self._seed = seed
        self._key = Ed25519PrivateKey.from_private_bytes(seed)
        self.public_key = self._key.public_key().public_bytes_raw()
        self.address = address_of(self.public_key)

    def sign(self, message: bytes) -> Signature:
        return Signature(public_key=self.public_key, data=self._key.sign(message))

    def seed_bytes(self) -> bytes:
        """Raw seed; used only by the fallback escrow path."""
        return self._seed


def verify(sig: Signature, message: bytes) -> bool:
    if len(sig.public_key) != 32 or len(sig.data) != 64:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(sig.public_key).verify(sig.data, message)
        return True
    except (_LibInvalidSignature, ValueError):
        return False


class Drbg:
    """Counter DRBG over sha256 with length-prefixed label separation.

    derive(seed, "wallet", 3) and derive(seed, "wallet", 31) can never
    collide because each label is prefixed with its byte length.
    """

    def __init__(self, seed: bytes, *labels):
        material = seed
        for label in labels:
            if isinstance(label, int):
                label = str(label).encode()
            elif isinstance(label, str):
                label = label.encode()
            material += len(label).to_bytes(4, "big") + label
        self._key = hashlib.sha256(material).digest()
        self._counter = 0

    def bytes(self, n: int) -> bytes:
        out = b""
        while len(out) < n:
            block = hmac.new(
                self._key, self._counter.to_bytes(8, "big"), hashlib.sha256
            ).digest()
            self._counter += 1
            out += block
        return out[:n]

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        width = (bound.bit_length() + 7) // 8
        while True:
            candidate = int.from_bytes(self.bytes(width + 8), "big")
            limit = (1 << ((width + 8) * 8)) // bound * bound
            if candidate < limit:
                return candidate % bound


def derive_signing_key(seed: bytes, *labels) -> SigningKey:
    return SigningKey(Drbg(seed, *labels).bytes(32))
