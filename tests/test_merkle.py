"""Merkle commitments, checked against an independent level-list build."""

import hashlib
import random

import pytest

from encumbra.merkle import (
    EMPTY_ROOT,
    MerklePath,
    merkle_levels,
    merkle_path,
    merkle_root,
    verify_path,
)


def _ref_root(values):
    # straight reimplementation: 0x00-prefixed leaves, 0x01-prefixed
    # interior nodes, odd levels duplicate their last element
    if not values:
        return hashlib.sha256(b"merkle-empty-v1").digest()
    level = [hashlib.sha256(b"\x00" + v).digest() for v in values]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return level[0]


def _ref_path(values, index):
    # the whole tree rebuilt per proof, reading the mate on each level
    level = [hashlib.sha256(b"\x00" + v).digest() for v in values]
    position, siblings = index, []
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        mate = position ^ 1
        siblings.append((level[mate], mate > position))
        level = [
            hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
        position //= 2
    return MerklePath(index, tuple(siblings))


def test_roots_match_reference():
    rng = random.Random(21)
    for size in range(65):
        values = [rng.randbytes(rng.randint(0, 48)) for _ in range(size)]
        assert merkle_root(merkle_levels(values)) == _ref_root(values), size


def test_empty_root_constant():
    assert merkle_levels([]) == ()
    assert merkle_root(merkle_levels([])) == EMPTY_ROOT
    assert EMPTY_ROOT == hashlib.sha256(b"merkle-empty-v1").digest()


def test_every_path_verifies():
    rng = random.Random(22)
    for size in range(1, 65):
        values = [rng.randbytes(8) for _ in range(size)]
        levels = merkle_levels(values)
        root = merkle_root(levels)
        for index, value in enumerate(values):
            path = merkle_path(levels, index)
            assert path == _ref_path(values, index), (size, index)
            assert verify_path(value, path, root), (size, index)


def test_path_rejects_damage():
    rng = random.Random(23)
    values = [rng.randbytes(8) for _ in range(7)]
    levels = merkle_levels(values)
    root = merkle_root(levels)
    path = merkle_path(levels, 3)
    assert not verify_path(values[4], path, root)
    assert not verify_path(values[3], path, rng.randbytes(32))
    sib, side = path.siblings[0]
    broken = MerklePath(3, ((bytes([sib[0] ^ 1]) + sib[1:], side),) + path.siblings[1:])
    assert not verify_path(values[3], broken, root)
    flipped = MerklePath(3, ((sib, not side),) + path.siblings[1:])
    assert not verify_path(values[3], flipped, root)


def test_leaf_interior_domains_differ():
    # a concatenated pair of leaf hashes is not accepted as a leaf
    values = [b"a", b"b"]
    root = merkle_root(merkle_levels(values))
    fake = hashlib.sha256(b"\x00" + b"a").digest() + hashlib.sha256(b"\x00" + b"b").digest()
    assert not verify_path(fake, MerklePath(0, ()), root)


def test_duplicated_odd_leaf_still_proves():
    values = [b"a", b"b", b"c"]
    levels = merkle_levels(values)
    root = merkle_root(levels)
    path = merkle_path(levels, 2)
    assert verify_path(b"c", path, root)


def test_path_index_bounds():
    levels = merkle_levels([b"a", b"b"])
    with pytest.raises(IndexError):
        merkle_path(levels, 2)
    with pytest.raises(IndexError):
        merkle_path(levels, -1)
    with pytest.raises(IndexError):
        merkle_path(merkle_levels([]), 0)
