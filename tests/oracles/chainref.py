"""Reference chain: per-height block production, kept as an oracle.

It produces blocks the way ``SimChain`` once did itself: every due
height sweeps the whole pending pool again and is built as a full
``Block``, empty or not, into one list.  It knows nothing of the claim
that only the first due height of an advance can include anything, so
agreement between the two is evidence rather than tautology.  It keeps
no confirmation oracle and no proofs: only the ledger that block
production writes (balances, nonces, pending, tx locations and balance
history).
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Dict, List, Tuple

from encumbra.merkle import merkle_levels, merkle_root
from encumbra.simchain import FEE_SINK, Block, SignedTx


class ChainRef:
    def __init__(self, block_interval: int = 12):
        self.block_interval = block_interval
        self.time = 0
        genesis = Block(0, 0, b"\x00" * 32, merkle_root(()), (), ())
        self.blocks: List[Block] = [genesis]
        self.pending: List[SignedTx] = []
        self.balances: Dict[bytes, int] = {}
        self.nonces: Dict[bytes, int] = {}
        self.minted = 0
        self._tx_index: Dict[bytes, Tuple[int, int]] = {}
        self._balance_history: Dict[bytes, List[Tuple[int, int]]] = {}

    def fund(self, address: bytes, amount: int) -> None:
        self.balances[address] = self.balances.get(address, 0) + amount
        self.minted += amount
        self._record_balance(address)

    def balance_at(self, address: bytes, height: int) -> int:
        history = self._balance_history.get(address, ())
        idx = bisect.bisect_right(history, height, key=itemgetter(0)) - 1
        return history[idx][1] if idx >= 0 else 0

    def _record_balance(self, address: bytes) -> None:
        height = self.blocks[-1].height
        history = self._balance_history.setdefault(address, [])
        value = self.balances.get(address, 0)
        if history and history[-1][0] == height:
            history[-1] = (height, value)
        else:
            history.append((height, value))

    def submit(self, signed: SignedTx) -> None:
        self.pending.append(signed)

    def advance(self, seconds: int) -> List[Block]:
        """Move time forward, producing every block that comes due."""
        if seconds < 0:
            raise ValueError("time moves forward")
        self.time += seconds
        produced = []
        while (self.blocks[-1].height + 1) * self.block_interval <= self.time:
            produced.append(self._produce_block())
        return produced

    def _produce_block(self) -> Block:
        height = self.blocks[-1].height + 1
        included: List[SignedTx] = []
        survivors: List[SignedTx] = []
        changed = True
        pool = list(self.pending)
        while changed:
            changed = False
            survivors = []
            for signed in pool:
                sender = signed.sender
                expected = self.nonces.get(sender, 0)
                cost = signed.tx.value + signed.tx.fee_cap
                if signed.tx.nonce < expected:
                    continue  # permanently stale
                if signed.tx.nonce > expected:
                    survivors.append(signed)
                    continue
                if self.balances.get(sender, 0) < cost:
                    continue  # dropped: cannot pay at inclusion time
                self.balances[sender] = self.balances.get(sender, 0) - cost
                self.balances[signed.tx.to] = (
                    self.balances.get(signed.tx.to, 0) + signed.tx.value
                )
                self.balances[FEE_SINK] = (
                    self.balances.get(FEE_SINK, 0) + signed.tx.fee_cap
                )
                self.nonces[sender] = expected + 1
                included.append(signed)
                changed = True
            pool = survivors
        self.pending = survivors
        levels = merkle_levels([s.digest for s in included])
        block = Block(
            height=height,
            timestamp=height * self.block_interval,
            parent_hash=self.blocks[-1].block_hash,
            tx_root=merkle_root(levels),
            txs=tuple(included),
            levels=levels,
        )
        self.blocks.append(block)
        for index, signed in enumerate(included):
            self._tx_index[signed.digest] = (height, index)
            self._record_balance(signed.sender)
            self._record_balance(signed.tx.to)
        if included:
            self._record_balance(FEE_SINK)
        return block
