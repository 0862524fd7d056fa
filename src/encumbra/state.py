"""Wallet-visible state: oracle snapshot, signing log, state triple.

Policies never see the outside world directly.  They see exactly one
``StateTriple``: the wallet's own append-only signing log (``intst``),
an oracle snapshot supplied by the engine (``ost``), and whatever bytes
the caller attached (``extst``, untrusted).  A decision reads its
instant from ``ost.chain_time`` and the account nonce from
``ost.recognized_nonce``, and from nowhere else: no policy takes a time
or a nonce beside the triple.

What the log seals is derived here, beside the log it reads: the
triple's ``outstanding`` map is the one scan of the log for seals, run
on first read and kept for the triple's life.  The manager builds a
fresh triple for every command, so the log is scanned for seals at most
once per decision or verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from .assets import destination
from .messages import ChainTx, SignableMessage, encode_message


@dataclass(frozen=True)
class OracleState:
    """Trusted view of the chain at command time.

    ``block_hashes`` are the header hashes of the newest eight heights,
    oldest first.  The engine supplies them as a window
    (``SimChain.recent_block_hashes``) that keeps the tip of the command
    and hashes on first read, which is ``encode``; no policy reads them.
    The window equals the tuple of the same hashes, so the encoding is
    the same bytes whenever it is read.

    ``recognized_nonce`` is the account nonce the wallet has been shown
    inclusion proofs for; it advances only through proofs, never on the
    caller's word.
    """

    chain_time: int
    block_hashes: Sequence[bytes]
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


@dataclass(frozen=True)
class StateTriple:
    """The one state a policy sees: log, oracle snapshot, caller bytes.

    A triple is a value, so what is derived from it (``outstanding``)
    is derived once, on first read, and kept with it.
    """

    intst: Tuple[LogEntry, ...]
    ost: OracleState
    extst: bytes = b""

    @cached_property
    def outstanding(self) -> Dict[bytes, str]:
        """Destinations sealed by the log, keyed by asset encoding.

        A chain-transaction signature is outstanding while its nonce is
        not below the recognized nonce; it seals its destination for the
        node that produced it (``""`` for an entry with no node), and the
        first such entry for a destination wins.  This is the only scan
        of the log for seals; it runs on first read, once per triple.
        """
        sealed: Dict[bytes, str] = {}
        for entry in self.intst:
            message = entry.message
            if isinstance(message, ChainTx) and message.nonce >= self.ost.recognized_nonce:
                sealed.setdefault(destination(message.to).encode(), entry.node_id or "")
        return sealed


GENESIS_ORACLE = OracleState(chain_time=0, block_hashes=(), recognized_nonce=0)
