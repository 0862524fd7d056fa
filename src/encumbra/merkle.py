"""Binary Merkle commitments over transaction digests.

Leaves are domain-separated from interior nodes (0x00 / 0x01 prefixes)
so a proof for a leaf can never be replayed as a proof for an interior
node.  Odd levels duplicate their last element.  Proof siblings carry a
side bit: True when the sibling sits to the right of the running hash.

``merkle_levels`` is the only function that hashes a tree: it hashes n
leaves and about n interior nodes once, and returns every level.
``merkle_root`` and ``merkle_path`` only read those levels, so a holder
of the levels (a block keeps its own) reads a proof as log2(n) stored
siblings without hashing anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import crypto

EMPTY_ROOT = crypto.digest(b"merkle-empty-v1")

# Leaf hashes first, the root alone last; odd levels are stored without
# their duplicated last element.  No values give no levels.
Levels = Tuple[Tuple[bytes, ...], ...]


def _leaf(value: bytes) -> bytes:
    return crypto.digest(b"\x00" + value)


def _interior(left: bytes, right: bytes) -> bytes:
    return crypto.digest(b"\x01" + left + right)


def merkle_levels(values: Sequence[bytes]) -> Levels:
    if not values:
        return ()
    level = [_leaf(v) for v in values]
    levels = [tuple(level)]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [_interior(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(tuple(level))
    return tuple(levels)


def merkle_root(levels: Levels) -> bytes:
    return levels[-1][0] if levels else EMPTY_ROOT


@dataclass(frozen=True)
class MerklePath:
    """Sibling hashes from leaf to root with side bits."""

    index: int
    siblings: Tuple[Tuple[bytes, bool], ...]


def merkle_path(levels: Levels, index: int) -> MerklePath:
    if not levels or not 0 <= index < len(levels[0]):
        raise IndexError("leaf index out of range")
    position = index
    siblings: List[Tuple[bytes, bool]] = []
    for level in levels[:-1]:
        mate = position ^ 1
        # the mate missing from an odd level is its duplicated last element
        sibling = level[mate] if mate < len(level) else level[position]
        siblings.append((sibling, mate > position))
        position //= 2
    return MerklePath(index=index, siblings=tuple(siblings))


def verify_path(value: bytes, path: MerklePath, root: bytes) -> bool:
    running = _leaf(value)
    for sibling, is_right in path.siblings:
        if is_right:
            running = _interior(running, sibling)
        else:
            running = _interior(sibling, running)
    return running == root
