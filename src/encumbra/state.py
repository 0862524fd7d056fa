"""Wallet-visible state: oracle snapshot, signing log, state triple.

Policies never see the outside world directly.  They see exactly one
``StateTriple``: the wallet's own append-only signing log (``intst``),
an oracle snapshot supplied by the engine (``ost``), and whatever bytes
the caller attached (``extst``, untrusted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .messages import SignableMessage, encode_message


@dataclass(frozen=True)
class OracleState:
    """Trusted view of the chain at command time.

    ``recognized_nonce`` is the account nonce the wallet has been shown
    inclusion proofs for; it advances only through proofs, never on the
    caller's word.
    """

    chain_time: int
    block_hashes: Tuple[bytes, ...]
    recognized_nonce: int

    def encode(self) -> bytes:
        out = self.chain_time.to_bytes(8, "big")
        out += len(self.block_hashes).to_bytes(2, "big")
        for block_hash in self.block_hashes:
            out += block_hash
        out += self.recognized_nonce.to_bytes(8, "big")
        return out


@dataclass(frozen=True)
class LogEntry:
    """One issued signature: who asked, what was signed, what the oracle
    said at that instant, and which sub-policy vouched for it."""

    player: str
    message: SignableMessage
    ost: OracleState
    node_id: Optional[str] = None

    def encode(self) -> bytes:
        node = (self.node_id or "").encode()
        player = self.player.encode()
        return (
            len(player).to_bytes(2, "big")
            + player
            + encode_message(self.message)
            + self.ost.encode()
            + len(node).to_bytes(2, "big")
            + node
        )


@dataclass
class StateTriple:
    intst: Tuple[LogEntry, ...]
    ost: OracleState
    extst: bytes = b""


GENESIS_ORACLE = OracleState(chain_time=0, block_hashes=(), recognized_nonce=0)
