"""Signable message variants and their canonical byte encoding.

Three message shapes can be put in front of a wallet key: a chain
transaction, a personal-sign blob, and a typed-data pair of hashes.
Each encodes to a unique byte string (fixed-width integer fields,
length-prefixed variable fields, leading variant tag) so that encoding
is injective across all variants.  Nothing here decodes: the reference
decoder of the layout, which inverts it exactly, is a test oracle.

The signing digest prepends a per-variant domain-separator byte before
hashing, so a digest produced for one variant can never collide with a
digest for another even if an encoding were replayed across variants.

The full byte layout is documented in docs/encoding.md and pinned by
fixture vectors under tests/fixtures/.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import crypto
from .errors import MalformedMessage

TAG_CHAIN_TX = 0x01
TAG_PERSONAL = 0x02
TAG_TYPED = 0x03

_DOMAIN_SEP = {TAG_CHAIN_TX: 0xE1, TAG_PERSONAL: 0xE2, TAG_TYPED: 0xE3}

_U64_MAX = 2**64 - 1
_U128_MAX = 2**128 - 1
_VAR_MAX = 2**24  # generous cap on variable-length fields


def _u64(value: int, name: str) -> bytes:
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedMessage(f"{name} must be an int")
    if not 0 <= value <= _U64_MAX:
        raise MalformedMessage(f"{name} out of u64 range")
    return value.to_bytes(8, "big")


def _u128(value: int, name: str) -> bytes:
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedMessage(f"{name} must be an int")
    if not 0 <= value <= _U128_MAX:
        raise MalformedMessage(f"{name} out of u128 range")
    return value.to_bytes(16, "big")


def _var_bytes(value: bytes, name: str) -> bytes:
    if not isinstance(value, (bytes, bytearray)):
        raise MalformedMessage(f"{name} must be bytes")
    if len(value) > _VAR_MAX:
        raise MalformedMessage(f"{name} exceeds {_VAR_MAX} bytes")
    return len(value).to_bytes(4, "big") + bytes(value)


def _fixed(value: bytes, width: int, name: str) -> bytes:
    if not isinstance(value, (bytes, bytearray)) or len(value) != width:
        raise MalformedMessage(f"{name} must be exactly {width} bytes")
    return bytes(value)


@dataclass(frozen=True)
class ChainTx:
    """An unsigned account-model transaction."""

    chain_id: int
    nonce: int
    max_fee_per_gas: int
    gas_limit: int
    to: bytes
    value: int
    data: bytes = b""

    def encode(self) -> bytes:
        return (
            bytes([TAG_CHAIN_TX])
            + _u64(self.chain_id, "chain_id")
            + _u64(self.nonce, "nonce")
            + _u128(self.max_fee_per_gas, "max_fee_per_gas")
            + _u64(self.gas_limit, "gas_limit")
            + _fixed(self.to, 20, "to")
            + _u128(self.value, "value")
            + _var_bytes(self.data, "data")
        )

    @property
    def fee_cap(self) -> int:
        """Worst-case fee the transaction can consume."""
        return self.max_fee_per_gas * self.gas_limit


@dataclass(frozen=True)
class PersonalSign:
    """An opaque payload signed under the personal-sign convention."""

    payload: bytes

    def encode(self) -> bytes:
        return bytes([TAG_PERSONAL]) + _var_bytes(self.payload, "payload")


@dataclass(frozen=True)
class TypedData:
    """A structured-data signature request: domain hash + struct hash."""

    domain_hash: bytes
    struct_hash: bytes

    def encode(self) -> bytes:
        return (
            bytes([TAG_TYPED])
            + _fixed(self.domain_hash, 32, "domain_hash")
            + _fixed(self.struct_hash, 32, "struct_hash")
        )


SignableMessage = Union[ChainTx, PersonalSign, TypedData]


def encode_message(message: SignableMessage) -> bytes:
    if not isinstance(message, (ChainTx, PersonalSign, TypedData)):
        raise MalformedMessage("not a signable message")
    return message.encode()


def signing_digest(message: SignableMessage) -> bytes:
    """Digest actually signed: hash(separator byte || canonical encoding)."""
    encoded = encode_message(message)
    return crypto.digest(bytes([_DOMAIN_SEP[encoded[0]]]) + encoded)


VOTE_TAG = b"vote-typed-v1"


def vote_struct_hash(domain_hash: bytes, proposal_id: bytes, choice: int) -> bytes:
    """Canonical struct hash of a ballot for (platform, proposal, choice)."""
    if not 0 <= choice <= 255:
        raise MalformedMessage("vote choice must fit one byte")
    if len(domain_hash) != 32 or len(proposal_id) != 32:
        raise MalformedMessage("domain and proposal ids must be 32 bytes")
    return crypto.digest(VOTE_TAG + domain_hash + proposal_id + bytes([choice]))


def vote_message(domain_hash: bytes, proposal_id: bytes, choice: int) -> TypedData:
    return TypedData(domain_hash, vote_struct_hash(domain_hash, proposal_id, choice))


def vote_extst(proposal_id: bytes, choice: int) -> bytes:
    """Caller-supplied hint that lets a policy classify a ballot.

    The struct hash is one-way, so the signer passes (proposal, choice)
    alongside the message; policies recompute the struct hash and refuse
    on mismatch rather than trusting the hint.
    """
    if not 0 <= choice <= 255:
        raise MalformedMessage("vote choice must fit one byte")
    return proposal_id + bytes([choice])


def parse_vote_extst(extst: bytes):
    """Return (proposal_id, choice) or None when extst is not a vote hint."""
    if len(extst) != 33:
        return None
    return extst[:32], extst[32]
