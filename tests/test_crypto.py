"""Hash, signature, and key-derivation primitives."""

import hashlib
import hmac
import random

import pytest

from encumbra import crypto


def test_digest_is_sha256():
    rng = random.Random(1)
    for _ in range(50):
        data = rng.randbytes(rng.randint(0, 200))
        assert crypto.digest(data) == hashlib.sha256(data).digest()


def test_address_is_hash_suffix():
    rng = random.Random(2)
    pk = rng.randbytes(32)
    addr = crypto.address_of(pk)
    assert len(addr) == 20
    assert addr == hashlib.sha256(pk).digest()[-20:]


def test_signing_key_seed_length():
    for bad in (b"", b"\x00" * 31, b"\x00" * 33):
        with pytest.raises(ValueError):
            crypto.SigningKey(bad)
    key = crypto.SigningKey(b"\x07" * 32)
    assert key.seed_bytes() == b"\x07" * 32
    assert len(key.public_key) == 32
    assert key.address == crypto.address_of(key.public_key)


def test_sign_verify_roundtrip_and_determinism():
    rng = random.Random(3)
    for _ in range(20):
        key = crypto.SigningKey(rng.randbytes(32))
        message = rng.randbytes(rng.randint(0, 100))
        sig1 = key.sign(message)
        sig2 = key.sign(message)
        # deterministic scheme: same key and message, same bytes
        assert sig1 == sig2
        assert sig1.public_key == key.public_key
        assert crypto.verify(sig1, message)


def test_verify_rejects_tampering():
    rng = random.Random(4)
    key = crypto.SigningKey(rng.randbytes(32))
    other = crypto.SigningKey(rng.randbytes(32))
    message = b"what was signed"
    sig = key.sign(message)
    assert not crypto.verify(sig, b"what was not")
    flipped = crypto.Signature(sig.public_key, bytes([sig.data[0] ^ 1]) + sig.data[1:])
    assert not crypto.verify(flipped, message)
    swapped = crypto.Signature(other.public_key, sig.data)
    assert not crypto.verify(swapped, message)


def test_verify_rejects_malformed_material():
    key = crypto.SigningKey(b"\x01" * 32)
    sig = key.sign(b"m")
    assert not crypto.verify(crypto.Signature(b"\x00" * 31, sig.data), b"m")
    assert not crypto.verify(crypto.Signature(sig.public_key, b"\x00" * 63), b"m")
    # 32 bytes that are not a valid curve point must fail closed, not raise
    assert not crypto.verify(crypto.Signature(b"\xff" * 32, sig.data), b"m")


def _signature_from_hex(text):
    """The inverse of ``Signature.to_hex``: public key, then signature."""
    raw = bytes.fromhex(text)
    if len(raw) != 32 + 64:
        raise ValueError("signature hex must be 96 bytes")
    return crypto.Signature(public_key=raw[:32], data=raw[32:])


def test_signature_hex_roundtrip():
    key = crypto.SigningKey(b"\x02" * 32)
    sig = key.sign(b"hex me")
    text = sig.to_hex()
    assert len(text) == 192
    assert _signature_from_hex(text) == sig
    with pytest.raises(ValueError):
        _signature_from_hex(text[:-2])


def test_drbg_streams_are_deterministic():
    seed = b"\x05" * 32
    a = crypto.Drbg(seed, "wallet", 3)
    b = crypto.Drbg(seed, "wallet", 3)
    assert a.bytes(70) == b.bytes(70)
    # state advances: a second read continues the stream
    assert a.bytes(16) != crypto.Drbg(seed, "wallet", 3).bytes(16)


def test_drbg_label_separation():
    seed = b"\x06" * 32
    base = crypto.Drbg(seed, "wallet", 3).bytes(32)
    assert base != crypto.Drbg(seed, "wallet", 31).bytes(32)
    assert base != crypto.Drbg(seed, "wallet").bytes(32)
    assert base != crypto.Drbg(seed).bytes(32)
    # length prefixes keep label boundaries unambiguous
    assert crypto.Drbg(seed, "ab", "c").bytes(32) != crypto.Drbg(seed, "a", "bc").bytes(32)


def test_drbg_matches_hand_recompute():
    # pin the construction: key = sha256(seed || len(label) || label ...),
    # stream blocks = HMAC-SHA256(key, counter as 8 bytes big-endian)
    seed = b"\x09" * 32
    material = seed + len(b"x").to_bytes(4, "big") + b"x" + len(b"7").to_bytes(4, "big") + b"7"
    key = hashlib.sha256(material).digest()
    want = b"".join(
        hmac.new(key, c.to_bytes(8, "big"), hashlib.sha256).digest() for c in range(3)
    )
    drbg = crypto.Drbg(seed, "x", 7)
    assert drbg.bytes(96) == want


def test_drbg_byte_lengths():
    drbg = crypto.Drbg(b"\x0a" * 32, "len")
    assert drbg.bytes(0) == b""
    for n in (1, 31, 32, 33, 64, 100):
        assert len(crypto.Drbg(b"\x0a" * 32, "len", n).bytes(n)) == n


def test_drbg_integer_bounds():
    drbg = crypto.Drbg(b"\x0b" * 32, "int")
    seen = set()
    for _ in range(300):
        value = drbg.integer(7)
        assert 0 <= value < 7
        seen.add(value)
    assert seen == set(range(7))
    assert crypto.Drbg(b"\x0b" * 32, "one").integer(1) == 0
    with pytest.raises(ValueError):
        drbg.integer(0)
    with pytest.raises(ValueError):
        drbg.integer(-3)


def test_derive_signing_key():
    seed = b"\x0c" * 32
    key = crypto.derive_signing_key(seed, "player-auth", "alice")
    again = crypto.derive_signing_key(seed, "player-auth", "alice")
    assert key.public_key == again.public_key
    other = crypto.derive_signing_key(seed, "player-auth", "bob")
    assert key.public_key != other.public_key
    # explicit composition: DRBG stream feeds the key seed
    manual = crypto.SigningKey(crypto.Drbg(seed, "player-auth", "alice").bytes(32))
    assert manual.public_key == key.public_key
