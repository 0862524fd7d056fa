"""Deterministic account-model chain with a confirmation oracle.

Blocks arrive on a fixed interval; a block's transactions are the
pending submissions whose nonce and balance line up at inclusion time,
in submission order.  Fees are charged at the full cap (max fee per
gas times gas limit) and accumulate in a fee sink, so value is
conserved to the wei: minted == circulating + fees.  There are no
reorgs; a transaction is included at most once, and a nonce is consumed
exactly once.

One ``advance`` sweeps the pool once, for its first due height: the
pool that sweep leaves can include nothing until the next ``submit`` or
``fund``, so every later height of the call is empty, and only blocks
that hold txs keep a body (timestamp, tx root, txs and Merkle levels);
no height keeps a header.  ``_hash`` is the one place the chain hashes a
header: it extends the hashed prefix in height order, on first read.
The oracle snapshot's window of recent hashes is read only when the
snapshot is encoded, so a command hashes no header.  A block of n txs
costs one Merkle build (about 2n hashes) and keeps its levels, so an
inclusion proof hashes nothing.

The oracle gives each height three delays (latest / justified /
finalized), ``mode_delays``: rounded Gaussian draws per mode, a pure
function of the seed, the chain label and the height, clamped to be at
least 1 and monotone across modes.  A prefix 0..h is confirmed at the
running max of ``timestamp + delay``, and proofs are only issued at or
below the confirmed height of the proof mode.

A mode is drawn only where its bound cannot decide.  ``random.gauss``
lies within ``GAUSS_Z_MAX`` (about 8.57) deviations of its mean, which
bounds each mode's draw (``raw_bound``) and delay (``delay_bounds``).
Both readers share one walk, bounded by the height the reader needs:
``confirmed_height`` walks up to the tip, ``prove_inclusion`` only up to
the proven tx's height, so a proof draws no height above its tx and
none at all when the delay bound settles it.  The walk starts at the
newest height the delay bound settles, or a memo of a height known
confirmed at an earlier time if that is higher, and walks up while the
slack (asked time minus the next height's timestamp) is at least 1 and
no draw of the mode, drawn first, or of a lower mode exceeds it; a mode
whose raw bound is within the slack is not drawn.  Draws are kept by
(height, mode).  The memo is a lower bound, not always the answer: a
bounded walk may stop below the confirmed height, and a later read
resumes from it, so reads at a forward-moving clock cost amortised O(1).
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import crypto
from .crypto import Drbg
from .config import Config, ORACLE_MODES
from .errors import (
    BadProof,
    InvalidSignature,
    NotYetConfirmed,
    UnknownTx,
)
from .merkle import (
    EMPTY_ROOT,
    Levels,
    MerklePath,
    merkle_levels,
    merkle_path,
    merkle_root,
    verify_path,
)
from .messages import ChainTx, signing_digest

FEE_SINK = b"\xfe" * 20
ZERO_HASH = b"\x00" * 32  # genesis's parent
Models = Dict[str, Tuple[float, float]]  # per mode, its delay's (mean, stddev) in s

# The largest |z| that ``random.gauss`` returns: its radius at the
# largest ``random()``, 1 - 2**-53, computed as gauss computes it.
GAUSS_Z_MAX = math.sqrt(-2.0 * math.log(2.0**-53))


@dataclass(frozen=True)
class SignedTx:
    tx: ChainTx
    signature: crypto.Signature
    # Derived once, at construction; equality, hashing and repr ignore them.
    digest: bytes = field(init=False, repr=False, compare=False)
    sender: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "digest", signing_digest(self.tx))
        object.__setattr__(self, "sender", crypto.address_of(self.signature.public_key))


def block_hash(height: int, parent_hash: bytes, tx_root: bytes, timestamp: int) -> bytes:
    """The header hash, layout ``block-v1`` (docs/encoding.md)."""
    return crypto.digest(
        b"block-v1"
        + height.to_bytes(8, "big")
        + parent_hash
        + tx_root
        + timestamp.to_bytes(8, "big")
    )


@dataclass(frozen=True)
class Block:
    height: int
    timestamp: int
    parent_hash: bytes
    tx_root: bytes
    txs: Tuple[SignedTx, ...]
    # Ignored by equality, hashing and repr: the Merkle levels built with
    # ``tx_root``, and the header hash, derived from the fields above.
    levels: Levels = field(repr=False, compare=False)
    block_hash: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "block_hash", block_hash(
            self.height, self.parent_hash, self.tx_root, self.timestamp
        ))


# Every chain's genesis header: height 0, no txs, at time 0.
GENESIS_HASH = Block(0, 0, ZERO_HASH, EMPTY_ROOT, (), ()).block_hash


class Body(NamedTuple):
    """What a height with txs keeps: its header but for the parent's
    hash, and the Merkle levels built with ``tx_root``."""

    timestamp: int
    tx_root: bytes
    txs: Tuple[SignedTx, ...]
    levels: Levels


class HashWindow(Sequence):
    """The header hashes of the newest eight heights up to ``tip``, oldest
    first: the tuple ``chain.header(h).block_hash for h`` in
    ``max(0, tip - 7) .. tip``, hashed on its first read (iteration,
    indexing, equality or hash) and kept.  It compares and hashes equal
    to that tuple.  Reading late is exact: there are no reorgs, so a
    height at or below the tip never changes its header."""

    __slots__ = ("_chain", "_tip", "_hashes")

    def __init__(self, chain: "SimChain", tip: int):
        self._chain = chain
        self._tip = tip
        self._hashes: Optional[Tuple[bytes, ...]] = None

    def _read(self) -> Tuple[bytes, ...]:
        if self._hashes is None:
            heights = range(max(0, self._tip - 7), self._tip + 1)
            self._hashes = tuple(map(self._chain._hash, heights))
            self._chain = None
        return self._hashes

    def __len__(self) -> int:
        return min(8, self._tip + 1)

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self):
        return iter(self._read())

    def __eq__(self, other) -> bool:
        if isinstance(other, HashWindow):
            other = other._read()
        return self._read() == other

    def __hash__(self) -> int:
        return hash(self._read())

    def __repr__(self) -> str:
        return repr(self._read())


@dataclass(frozen=True)
class InclusionProof:
    tx_digest: bytes
    block_height: int
    path: MerklePath


class SimChain:
    def __init__(
        self,
        seed: bytes,
        chain_id: int = 1,
        block_interval: int = 12,
        proof_mode: str = "finalized",
        delay_models: Optional[Models] = None,
        label: str = "target",
    ):
        self.chain_id = chain_id
        self.block_interval = block_interval
        self.proof_mode = proof_mode
        self.label = label
        self._seed = seed
        if not delay_models:
            delay_models = {mode: Config().delay_model(mode) for mode in ORACLE_MODES}
        self.delay_models = delay_models
        self.time = 0
        self.height = 0
        # The header hashes of heights 0..len - 1, the prefix read so
        # far; the bodies of the heights that hold txs.
        self._hashes: List[bytes] = [GENESIS_HASH]
        self._bodies: Dict[int, Body] = {}
        self.pending: List[SignedTx] = []
        self.balances: Dict[bytes, int] = {}
        self.nonces: Dict[bytes, int] = {}
        self.minted = 0
        self._tx_index: Dict[bytes, Tuple[int, int]] = {}
        self._balance_history: Dict[bytes, List[Tuple[int, int]]] = {}
        # Bounds on each mode's draw and on its delay; draws by (height, mode).
        self._raw_bounds = {m: raw_bound(*delay_models[m]) for m in ORACLE_MODES}
        self._bounds = delay_bounds(delay_models)
        self._drawn: Dict[Tuple[int, str], int] = {}
        # Per mode, (time, height) with the height known confirmed at that
        # time, hence at any later one: a lower bound reads resume from.
        self._known: Dict[str, Tuple[int, int]] = {m: (0, 0) for m in ORACLE_MODES}

    # ------------------------------------------------------------------
    # funding and queries

    def fund(self, address: bytes, amount: int) -> None:
        """Mint simulation funds to an address (setup convenience)."""
        self.balances[address] = self.balances.get(address, 0) + amount
        self.minted += amount
        self._record_balance(address, self.height)

    def balance(self, address: bytes) -> int:
        return self.balances.get(address, 0)

    def nonce(self, address: bytes) -> int:
        return self.nonces.get(address, 0)

    def balance_at(self, address: bytes, height: int) -> int:
        """Balance as of the end of ``height`` (0 before first touch).

        One bisection of the address's history, by height.
        """
        history = self._balance_history.get(address, ())
        idx = bisect.bisect_right(history, height, key=itemgetter(0)) - 1
        return history[idx][1] if idx >= 0 else 0

    def _record_balance(self, address: bytes, height: int) -> None:
        history = self._balance_history.setdefault(address, [])
        value = self.balances.get(address, 0)
        if history and history[-1][0] == height:
            history[-1] = (height, value)
        else:
            history.append((height, value))

    def _hash(self, height: int) -> bytes:
        """The header hash of ``height``: the one place the chain hashes a
        header.  Unread heights up to it are hashed now, in height order,
        each with its stored tx root or, if empty, ``EMPTY_ROOT``."""
        hashes, bodies, interval = self._hashes, self._bodies, self.block_interval
        for unread in range(len(hashes), height + 1):
            body = bodies.get(unread)
            root = EMPTY_ROOT if body is None else body.tx_root
            hashes.append(block_hash(unread, hashes[-1], root, unread * interval))
        return hashes[height]

    def header(self, height: int) -> Block:
        """The block at ``height``, built on each call from its body (an
        empty one if the height holds no txs) and its parent's hash."""
        if not 0 <= height <= self.height:
            raise UnknownTx(f"no block at height {height}")
        body = self._bodies.get(height) or Body(height * self.block_interval, EMPTY_ROOT, (), ())
        parent = self._hash(height - 1) if height else ZERO_HASH
        return Block(height, body.timestamp, parent, body.tx_root, body.txs, body.levels)

    def tip(self) -> Block:
        return self.header(self.height)

    def recent_block_hashes(self) -> HashWindow:
        """The hashes of the newest eight heights, oldest first, read when
        the window is first read, at the tip of this call."""
        return HashWindow(self, self.height)

    def tx(self, tx_digest: bytes) -> SignedTx:
        location = self._tx_index.get(tx_digest)
        if location is None:
            raise UnknownTx(tx_digest.hex())
        height, index = location
        return self._bodies[height].txs[index]

    def includes(self, tx_digest: bytes) -> bool:
        return tx_digest in self._tx_index

    # ------------------------------------------------------------------
    # submission and block production

    def submit(self, signed: SignedTx) -> bytes:
        if signed.tx.chain_id != self.chain_id:
            raise InvalidSignature("wrong chain id")
        if not crypto.verify(signed.signature, signed.digest):
            raise InvalidSignature("bad tx signature")
        self.pending.append(signed)
        return signed.digest

    def advance(self, seconds: int) -> range:
        """Move time forward, producing every height that comes due;
        returns the heights produced.

        Only the first due height sweeps the pool.  Its last sweep
        includes nothing, and nothing changes a nonce or a balance
        before the next height of the same call, so every later height
        is empty.  No header is hashed: a height with txs stores its body.
        """
        if seconds < 0:
            raise ValueError("time moves forward")
        self.time += seconds
        produced = range(self.height + 1, self.time // self.block_interval + 1)
        if produced:
            self._produce_block(produced[0])
            self.height = produced[-1]
        return produced

    def _produce_block(self, height: int) -> None:
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
        if not included:
            return
        levels = merkle_levels([s.digest for s in included])
        self._bodies[height] = Body(
            height * self.block_interval, merkle_root(levels), tuple(included), levels
        )
        for index, signed in enumerate(included):
            self._tx_index[signed.digest] = (height, index)
            self._record_balance(signed.sender, height)
            self._record_balance(signed.tx.to, height)
        self._record_balance(FEE_SINK, height)

    # ------------------------------------------------------------------
    # confirmation oracle

    def _confirms(self, height: int, mode: str, now: int) -> bool:
        """Whether the height's ``mode_delays[mode]`` is at most the slack
        ``now`` - timestamp, drawing only the modes a raw bound leaves open."""
        slack = now - height * self.block_interval
        if slack < 1:
            return False
        for m in ORACLE_MODES[ORACLE_MODES.index(mode) :: -1]:
            if self._raw_bounds[m] <= slack:
                continue
            delay = self._drawn.get((height, m))
            if delay is None:
                delay = sample_delay(self._seed, self.label, m, height, *self.delay_models[m])
                self._drawn[height, m] = delay
            if delay > slack:
                return False
        return True

    def confirmed_height(self, mode: str, at_time: Optional[int] = None) -> int:
        """Highest height whose whole prefix is confirmed for the mode."""
        return self._walk(mode, self.time if at_time is None else at_time, self.height)

    def _walk(self, mode: str, now: int, limit: int) -> int:
        """The confirmed height for the mode at ``now`` if it is below
        ``limit``, else a confirmed height at least ``limit``; no height
        above ``limit`` is drawn."""
        known_time, known_height = self._known[mode]
        if now < 0:
            return -1
        # Every height at least the bound older than ``now`` is confirmed.
        height = min(self.height, max(0, (now - self._bounds[mode]) // self.block_interval))
        if known_time <= now:
            height = max(height, known_height)
        # Prefix times never decrease, so the first height that confirms
        # after ``now`` ends the prefix.
        while height < limit and self._confirms(height + 1, mode, now):
            height += 1
        if known_time <= now:
            self._known[mode] = (now, height)
        return height

    # ------------------------------------------------------------------
    # proofs

    def prove_inclusion(self, tx_digest: bytes, mode: Optional[str] = None) -> InclusionProof:
        """The Merkle proof of an included tx, issued only once its height
        is confirmed for ``mode`` (the proof mode by default) at the
        chain's time; ``UnknownTx`` or ``NotYetConfirmed`` otherwise.

        The oracle is read only through the tx's height: heights above it
        cannot change the verdict.  A refused walk stops at the first
        unconfirmed height, so its detail names the confirmed height.
        """
        location = self._tx_index.get(tx_digest)
        if location is None:
            raise UnknownTx(tx_digest.hex())
        height, index = location
        confirmed = self._walk(mode or self.proof_mode, self.time, height)
        if height > confirmed:
            raise NotYetConfirmed(f"height {height} above confirmed {confirmed}")
        path = merkle_path(self._bodies[height].levels, index)
        return InclusionProof(tx_digest=tx_digest, block_height=height, path=path)

    def verify_proof(self, proof: InclusionProof) -> bool:
        if not 0 <= proof.block_height <= self.height:
            return False
        body = self._bodies.get(proof.block_height)
        root = EMPTY_ROOT if body is None else body.tx_root
        return verify_path(proof.tx_digest, proof.path, root)

    def check_proof(self, proof: InclusionProof) -> SignedTx:
        """Verify and return the proven transaction; raise on failure."""
        if not self.verify_proof(proof):
            raise BadProof("inclusion proof does not verify")
        height, index = self._tx_index[proof.tx_digest]
        if height != proof.block_height:
            raise BadProof("proof cites the wrong block")
        return self._bodies[height].txs[index]

    # ------------------------------------------------------------------
    # invariant helpers

    def total_circulating(self) -> int:
        return sum(self.balances.values())

    def snapshot_digest(self) -> bytes:
        parts = [self._hash(self.height), self.time.to_bytes(8, "big")]
        for address in sorted(self.balances):
            parts.append(address)
            parts.append(self.balances[address].to_bytes(16, "big"))
            parts.append(self.nonces.get(address, 0).to_bytes(8, "big"))
        return crypto.digest(b"chain-snap-v1" + b"".join(parts))


def mode_delays(seed: bytes, label: str, models: Models, height: int) -> Dict[str, int]:
    """One height's delay per mode, in whole seconds: the running max of
    the rounded draws, at least 1, so latest <= justified <= finalized."""
    draws = (max(1, sample_delay(seed, label, m, height, *models[m])) for m in ORACLE_MODES)
    return dict(zip(ORACLE_MODES, accumulate(draws, max)))


def raw_bound(mean: float, stddev: float) -> int:
    """Whole seconds that a mode's ``sample_delay`` never exceeds:
    ``ceil(mean + GAUSS_Z_MAX * |stddev|) + 1`` (the 1 covers rounding)."""
    return math.ceil(mean + GAUSS_Z_MAX * abs(stddev)) + 1


def delay_bounds(models: Models) -> Dict[str, int]:
    """Per mode, a whole number of seconds that ``mode_delays`` never
    exceeds: the running max of ``raw_bound`` over the mode and the
    modes below it, and at least 1."""
    raw = (max(1, raw_bound(*models[m])) for m in ORACLE_MODES)
    return dict(zip(ORACLE_MODES, accumulate(raw, max)))


def sample_delay(
    seed: bytes, label: str, mode: str, height: int, mean: float, stddev: float
) -> int:
    """One deterministic draw from the mode's delay model, rounded to
    whole seconds."""
    raw = Drbg(seed, "oracle-delay", label, mode, height).bytes(8)
    rng = random.Random(int.from_bytes(raw, "big"))
    return round(rng.gauss(mean, stddev))
