"""Hybrid encryption of escrowed wallet state.

Each state version is encrypted fresh: an ephemeral key agreement
against the escrow public key yields a symmetric key (KEM), and an
AEAD carries the payload.  Holders of the escrow private key — in
practice, a quorum reconstructing it from shares — can open any
version; nobody else can, and a wrong reconstructed key fails the
AEAD tag check rather than yielding garbage plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives import hashes

from ..crypto import Drbg
from ..errors import InsufficientShares, ReplicationTimeout


@dataclass(frozen=True)
class EncryptedBlob:
    version: int
    ephemeral_public: bytes
    ciphertext: bytes


def escrow_keypair(seed: bytes) -> tuple[bytes, bytes]:
    """(private scalar bytes, public key bytes) for the escrow identity."""
    private = X25519PrivateKey.from_private_bytes(
        Drbg(seed, "escrow-identity").bytes(32)
    )
    return (
        private.private_bytes_raw(),
        private.public_key().public_bytes_raw(),
    )


def _symmetric_key(shared: bytes, ephemeral_public: bytes, recipient: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(),
        length=32,
        salt=b"escrow-hkdf-v1",
        info=ephemeral_public + recipient,
    ).derive(shared)


def encrypt_state(
    recipient_public: bytes, plaintext: bytes, version: int, seed: bytes
) -> EncryptedBlob:
    ephemeral = X25519PrivateKey.from_private_bytes(
        Drbg(seed, "escrow-ephemeral", version).bytes(32)
    )
    ephemeral_public = ephemeral.public_key().public_bytes_raw()
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(recipient_public))
    key = _symmetric_key(shared, ephemeral_public, recipient_public)
    nonce = version.to_bytes(12, "big")
    ciphertext = ChaCha20Poly1305(key).encrypt(nonce, plaintext, None)
    return EncryptedBlob(
        version=version, ephemeral_public=ephemeral_public, ciphertext=ciphertext
    )


def decrypt_state(private_scalar: bytes, blob: EncryptedBlob) -> bytes:
    private = X25519PrivateKey.from_private_bytes(private_scalar)
    recipient_public = private.public_key().public_bytes_raw()
    shared = private.exchange(
        X25519PublicKey.from_public_bytes(blob.ephemeral_public)
    )
    key = _symmetric_key(shared, blob.ephemeral_public, recipient_public)
    nonce = blob.version.to_bytes(12, "big")
    try:
        return ChaCha20Poly1305(key).decrypt(nonce, blob.ciphertext, None)
    except InvalidTag as exc:
        raise InsufficientShares("escrow key failed authentication") from exc


class StorageRepo:
    """One replica host.  Keeps only the newest version it has
    acknowledged, the one a release reads: an older version that
    arrives out of order is acknowledged and dropped.  An unreachable
    repo acknowledges nothing."""

    def __init__(self, name: str, reachable: bool = True):
        self.name = name
        self.reachable = reachable
        self._latest: Optional[EncryptedBlob] = None

    def store(self, blob: EncryptedBlob) -> bool:
        if not self.reachable:
            return False
        if self._latest is None or blob.version > self._latest.version:
            self._latest = blob
        return True

    def latest(self) -> Optional[EncryptedBlob]:
        return self._latest


def replicate_blocking(repos: List[StorageRepo], blob: EncryptedBlob) -> int:
    """Push to every reachable repo; at least one must acknowledge."""
    acks = sum(1 for repo in repos if repo.store(blob))
    if acks == 0:
        raise ReplicationTimeout("no storage repository acknowledged")
    return acks


def replicate_best_effort(repos: List[StorageRepo], blob: EncryptedBlob) -> int:
    return sum(1 for repo in repos if repo.store(blob))
