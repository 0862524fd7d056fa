"""Reference decoder of the signable-message layouts in docs/encoding.md.

The program only encodes; this inverse lives with the tests, which use
it to read the frozen vectors back and to check that every layout
round-trips exactly and rejects damaged bytes.
"""

from __future__ import annotations

from encumbra.errors import EngineError, MalformedMessage
from encumbra.messages import (
    TAG_CHAIN_TX,
    TAG_PERSONAL,
    TAG_TYPED,
    ChainTx,
    PersonalSign,
    SignableMessage,
    TypedData,
)


class UnknownVariant(EngineError):
    """An encoded message begins with an unrecognized variant tag."""


def decode_message(encoded: bytes) -> SignableMessage:
    """Inverse of ``encode_message``; rejects trailing or missing bytes."""
    if not encoded:
        raise MalformedMessage("empty encoding")
    tag = encoded[0]
    body = encoded[1:]
    if tag == TAG_CHAIN_TX:
        if len(body) < 8 + 8 + 16 + 8 + 20 + 16 + 4:
            raise MalformedMessage("chain tx encoding truncated")
        chain_id = int.from_bytes(body[0:8], "big")
        nonce = int.from_bytes(body[8:16], "big")
        max_fee = int.from_bytes(body[16:32], "big")
        gas_limit = int.from_bytes(body[32:40], "big")
        to = body[40:60]
        value = int.from_bytes(body[60:76], "big")
        data_len = int.from_bytes(body[76:80], "big")
        data = body[80 : 80 + data_len]
        if len(data) != data_len or len(body) != 80 + data_len:
            raise MalformedMessage("chain tx length mismatch")
        return ChainTx(chain_id, nonce, max_fee, gas_limit, to, value, data)
    if tag == TAG_PERSONAL:
        if len(body) < 4:
            raise MalformedMessage("personal-sign encoding truncated")
        length = int.from_bytes(body[0:4], "big")
        payload = body[4 : 4 + length]
        if len(payload) != length or len(body) != 4 + length:
            raise MalformedMessage("personal-sign length mismatch")
        return PersonalSign(payload)
    if tag == TAG_TYPED:
        if len(body) != 64:
            raise MalformedMessage("typed-data encoding must be 64 bytes")
        return TypedData(body[0:32], body[32:64])
    raise UnknownVariant(f"variant tag 0x{tag:02x}")

