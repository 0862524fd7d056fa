"""Wire format for signable messages.

The layouts are pinned twice: once against hand-assembled bytes in this
file and once against the frozen vectors under tests/fixtures/.
"""

import hashlib
import json
import pathlib
import random
import struct

import pytest

from encumbra.errors import MalformedMessage
from encumbra.messages import (
    ChainTx,
    PersonalSign,
    TypedData,
    parse_vote_extst,
    signing_digest,
    vote_extst,
    vote_message,
    vote_struct_hash,
)

from tests.oracles.decoderef import UnknownVariant, decode_message

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _hand_encode_chain_tx(tx: ChainTx) -> bytes:
    body = struct.pack(">QQ", tx.chain_id, tx.nonce)
    body += tx.max_fee_per_gas.to_bytes(16, "big")
    body += struct.pack(">Q", tx.gas_limit)
    body += tx.to
    body += tx.value.to_bytes(16, "big")
    body += struct.pack(">I", len(tx.data)) + tx.data
    return b"\x01" + body


def test_chain_tx_layout_matches_hand_assembly():
    tx = ChainTx(1, 7, 100 * 10**9, 21000, bytes(range(20)), 10**18, b"\x01\x02")
    assert tx.encode() == _hand_encode_chain_tx(tx)
    assert len(tx.encode()) == 1 + 80 + len(tx.data)


def test_domain_separated_digests():
    tx = ChainTx(1, 0, 0, 0, b"\x00" * 20, 0)
    ps = PersonalSign(b"payload")
    td = TypedData(b"\xaa" * 32, b"\xbb" * 32)
    assert signing_digest(tx) == hashlib.sha256(b"\xe1" + tx.encode()).digest()
    assert signing_digest(ps) == hashlib.sha256(b"\xe2" + ps.encode()).digest()
    assert signing_digest(td) == hashlib.sha256(b"\xe3" + td.encode()).digest()
    assert signing_digest(tx) != hashlib.sha256(tx.encode()).digest()


def test_frozen_vectors():
    data = json.loads((FIXTURES / "message_vectors.json").read_text())
    assert len(data["vectors"]) >= 7
    for vector in data["vectors"]:
        encoding = bytes.fromhex(vector["encoding_hex"])
        message = decode_message(encoding)
        assert message.encode() == encoding, vector["name"]
        assert signing_digest(message).hex() == vector["digest_hex"], vector["name"]
        fields = vector["fields"]
        if fields["variant"] == "chain_tx":
            assert message == ChainTx(
                fields["chain_id"],
                fields["nonce"],
                fields["max_fee_per_gas"],
                fields["gas_limit"],
                bytes.fromhex(fields["to_hex"]),
                fields["value"],
                bytes.fromhex(fields["data_hex"]),
            )
        elif fields["variant"] == "personal":
            assert message == PersonalSign(bytes.fromhex(fields["payload_hex"]))
        else:
            assert message == TypedData(
                bytes.fromhex(fields["domain_hex"]), bytes.fromhex(fields["struct_hex"])
            )


def test_decode_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        pick = rng.randrange(3)
        if pick == 0:
            message = ChainTx(
                rng.randrange(2**64),
                rng.randrange(2**64),
                rng.randrange(2**128),
                rng.randrange(2**64),
                rng.randbytes(20),
                rng.randrange(2**128),
                rng.randbytes(rng.randint(0, 40)),
            )
        elif pick == 1:
            message = PersonalSign(rng.randbytes(rng.randint(0, 60)))
        else:
            message = TypedData(rng.randbytes(32), rng.randbytes(32))
        assert decode_message(message.encode()) == message


def test_boundary_integers_roundtrip():
    tx = ChainTx(2**64 - 1, 0, 2**128 - 1, 2**64 - 1, b"\xff" * 20, 2**128 - 1)
    assert decode_message(tx.encode()) == tx


def test_encode_rejects_bad_fields():
    good = dict(
        chain_id=1, nonce=0, max_fee_per_gas=0, gas_limit=0, to=b"\x00" * 20, value=0
    )
    for field, bad in [
        ("chain_id", -1),
        ("chain_id", 2**64),
        ("nonce", 2**64),
        ("max_fee_per_gas", 2**128),
        ("gas_limit", -2),
        ("value", 2**128),
        ("to", b"\x00" * 19),
        ("to", b"\x00" * 21),
        ("data", "text"),
    ]:
        with pytest.raises(MalformedMessage):
            ChainTx(**{**good, field: bad}).encode()
    # bools are not acceptable stand-ins for integer fields
    with pytest.raises(MalformedMessage):
        ChainTx(**{**good, "nonce": True}).encode()
    with pytest.raises(MalformedMessage):
        ChainTx(**{**good, "data": b"\x00" * (2**24 + 1)}).encode()
    with pytest.raises(MalformedMessage):
        PersonalSign(None).encode()
    with pytest.raises(MalformedMessage):
        TypedData(b"\xaa" * 31, b"\xbb" * 32).encode()
    with pytest.raises(MalformedMessage):
        TypedData(b"\xaa" * 32, b"\xbb" * 33).encode()


def test_decode_rejects_damage():
    tx = ChainTx(1, 2, 3, 4, b"\x05" * 20, 6, b"\x07\x08")
    encoding = tx.encode()
    with pytest.raises(MalformedMessage):
        decode_message(b"")
    with pytest.raises(UnknownVariant):
        decode_message(b"\x7f" + encoding[1:])
    for cut in (1, 40, len(encoding) - 1):
        with pytest.raises(MalformedMessage):
            decode_message(encoding[:cut])
    with pytest.raises(MalformedMessage):
        decode_message(encoding + b"\x00")
    ps = PersonalSign(b"abc").encode()
    with pytest.raises(MalformedMessage):
        decode_message(ps[:-1])
    with pytest.raises(MalformedMessage):
        decode_message(ps + b"z")
    td = TypedData(b"\xaa" * 32, b"\xbb" * 32).encode()
    with pytest.raises(MalformedMessage):
        decode_message(td[:-1])


def test_fee_cap():
    tx = ChainTx(1, 0, 7, 11, b"\x00" * 20, 0)
    assert tx.fee_cap == 77


def test_vote_struct_hash_formula():
    domain = hashlib.sha256(b"dao").digest()
    proposal = hashlib.sha256(b"prop").digest()
    want = hashlib.sha256(b"vote-typed-v1" + domain + proposal + bytes([3])).digest()
    assert vote_struct_hash(domain, proposal, 3) == want
    message = vote_message(domain, proposal, 3)
    assert message == TypedData(domain, want)
    with pytest.raises(MalformedMessage):
        vote_struct_hash(domain, proposal, 256)
    with pytest.raises(MalformedMessage):
        vote_struct_hash(domain, proposal, -1)
    with pytest.raises(MalformedMessage):
        vote_struct_hash(domain[:-1], proposal, 0)
    with pytest.raises(MalformedMessage):
        vote_struct_hash(domain, proposal + b"x", 0)


def test_vote_extst_hint():
    proposal = hashlib.sha256(b"p2").digest()
    hint = vote_extst(proposal, 9)
    assert hint == proposal + bytes([9])
    assert parse_vote_extst(hint) == (proposal, 9)
    assert parse_vote_extst(hint[:-1]) is None
    assert parse_vote_extst(hint + b"\x00") is None
    assert parse_vote_extst(b"") is None
