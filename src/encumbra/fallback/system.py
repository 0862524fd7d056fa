"""Fallback orchestration: escrow, replication policy, key release.

Wallet state (keys and policy summaries) is continuously escrowed as
encrypted replicas across independent storage repositories.  Updates
that create wallets or reduce privileges replicate synchronously — the
originating operation fails if no repository acknowledges — while
privilege increases batch on a timer, so a crash between flushes can
only lose permissiveness, never grant it.  Each write is the next
version, and the version is spent only once a repository acknowledged
it: a refused blocking write or an unacknowledged flush leaves
``version`` and every repository as they were, so the next write is
the one a world without the failed attempt would have made.

Release needs three independent facts: the trigger fired and is final
(the engine hands in the reliable chain's finalized time), a threshold
of committee shares reconstructs the escrow key (checked against the
known public key before use), and at least one repository serves an
intact replica.  The latest decryptable version wins; release happens
at most once.

A change reaches the fallback as its successor ``Wallet`` before the
manager installs it, so a blocking write holds the change in place of
the live wallet (or last, for a new one), and a refused one raises
before anything is installed.

An escrow write builds only what changed.  The fallback keeps each
wallet's text up to its seed, keyed by the wallet's tree (its policy
object, for a registry policy) and ``policy_version``: a tree wallet
keeps its policy object, an installed tree never changes, every change
installs a new object and raises the version, and nothing lowers it,
so a kept text whose key still matches is the wallet's text.  The seed
is never kept: each write reads it from the manager.
A changed wallet's text is built again, and within it only the tree
nodes that never had a fragment (see ``policy.tree``).  The write then
joins the kept texts and the seeds once.
"""

from __future__ import annotations

import json
from binascii import hexlify
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from .. import crypto
from ..crypto import SigningKey
from ..errors import (
    AlreadyTriggered,
    InsufficientShares,
    NotChallenged,
    NotYetConfirmed,
)
from ..manager import (
    NEW_WALLET,
    PRIVILEGE_DECREASE,
    PRIVILEGE_INCREASE,
    Wallet,
    WalletManager,
)
from . import secretshare
from .escrow import (
    EncryptedBlob,
    StorageRepo,
    decrypt_state,
    encrypt_state,
    escrow_keypair,
    replicate_best_effort,
    replicate_blocking,
)
from .trigger import TriggerContract


class FallbackSystem:
    def __init__(
        self,
        manager: WalletManager,
        seed: bytes,
        committee: int = 5,
        threshold: int = 3,
        repos: int = 3,
        batch_interval: int = 3600,
    ):
        self.manager = manager
        self._seed = seed
        self.threshold = threshold
        self.committee = committee
        secret, public = escrow_keypair(seed)
        self.escrow_public = public
        self.shares: List[secretshare.Share] = secretshare.split(
            secret, threshold, committee, seed
        )
        self.repos: List[StorageRepo] = [StorageRepo(f"repo-{i}") for i in range(repos)]
        self.batch_interval = batch_interval
        self.version = 0
        self.pending_increases: List[str] = []
        self.last_flush = 0
        self.executed = False
        # wallet id -> (tree or registry policy, policy_version, text up to the seed)
        self._texts: Dict[str, Tuple[object, int, bytes]] = {}
        manager.on_policy_change = self.on_policy_change

    # ------------------------------------------------------------------
    # replication

    def _payload(self, version: int, successor: Optional[Wallet] = None) -> bytes:
        """The escrow plaintext of ``version``: canonical JSON of every
        wallet, with ``successor`` in place of its live wallet (or last,
        for a new id).

        The bytes are ``json.dumps(..., sort_keys=True, separators=(",",
        ":"))`` of {version, wallets} (docs/encoding.md, "Escrow
        plaintext and blob"), joined once from each wallet's kept text,
        its seed and the closing ``"}``.  Only a wallet whose key moved
        since the last write has its text built again.
        """
        world = {wallet.wallet_id: wallet for wallet in self.manager.wallets()}
        if successor is not None:
            world[successor.wallet_id] = successor
        pieces = [f'{{"version":{json.dumps(version)},"wallets":['.encode()]
        kept = self._texts
        texts = {}
        separator = b""
        for wallet_id, wallet in world.items():
            policy = wallet.policy
            source = getattr(policy, "tree", policy)
            entry = kept.get(wallet_id)
            if entry is None or entry[0] is not source or entry[1] != wallet.policy_version:
                entry = (source, wallet.policy_version, _wallet_text(wallet))
            texts[wallet_id] = entry
            pieces += (separator, entry[2], hexlify(wallet.key.seed_bytes()), b'"}')
            separator = b","
        pieces.append(b"]}")
        self._texts = texts
        return b"".join(pieces)

    def _replicate(
        self,
        replicate: Callable[[List[StorageRepo], EncryptedBlob], int],
        successor: Optional[Wallet] = None,
    ) -> int:
        """Write the world, ``successor`` in it, as the next version; spend
        that version only if a repository acknowledged.  Returns the
        acknowledgements."""
        version = self.version + 1
        plaintext = self._payload(version, successor)
        blob = encrypt_state(self.escrow_public, plaintext, version, self._seed)
        acks = replicate(self.repos, blob)
        if acks > 0:
            self.version = version
        return acks

    def on_policy_change(self, successor: Wallet, change_class: str) -> None:
        """Take a change, as the wallet it leaves, before it is installed."""
        if change_class in (NEW_WALLET, PRIVILEGE_DECREASE):
            # Blocking: the calling operation fails if nobody stores it.
            self._replicate(replicate_blocking, successor)
        elif change_class == PRIVILEGE_INCREASE:
            self.pending_increases.append(successor.wallet_id)
        else:
            raise ValueError(change_class)

    def maybe_flush(self, now: int) -> bool:
        if not self.pending_increases:
            return False
        if now - self.last_flush < self.batch_interval:
            return False
        return self.flush(now)

    def flush(self, now: int) -> bool:
        """Best-effort batched replication of queued privilege increases."""
        if not self.pending_increases:
            self.last_flush = now
            return False
        if self._replicate(replicate_best_effort) > 0:
            self.pending_increases.clear()
            self.last_flush = now
            return True
        return False

    # ------------------------------------------------------------------
    # release

    def execute(
        self,
        shares: Sequence[secretshare.Share],
        trigger: TriggerContract,
        finalized_time: int,
        repos: Optional[Sequence[StorageRepo]] = None,
    ) -> Dict[str, List[Tuple[str, bytes]]]:
        """Release escrowed keys to their access managers.

        ``finalized_time`` is the timestamp of the reliable chain's
        finalized head; the trigger must have fired by then.  Returns
        {access manager: [(wallet id, key seed), ...]}.
        """
        if self.executed:
            raise AlreadyTriggered("fallback already executed")
        if trigger.triggered_at is None:
            raise NotChallenged("trigger has not fired")
        if finalized_time < trigger.triggered_at:
            raise NotYetConfirmed(
                f"finalized time {finalized_time} precedes trigger {trigger.triggered_at}"
            )
        if len(shares) < self.threshold:
            raise InsufficientShares(
                f"{len(shares)} shares, threshold {self.threshold}"
            )
        secret = secretshare.reconstruct(shares)
        private = X25519PrivateKey.from_private_bytes(secret)
        if private.public_key().public_bytes_raw() != self.escrow_public:
            raise InsufficientShares("reconstructed key fails known-plaintext check")

        candidates: List[EncryptedBlob] = []
        for repo in repos if repos is not None else self.repos:
            latest = repo.latest()
            if latest is not None:
                candidates.append(latest)
        candidates.sort(key=lambda blob: blob.version, reverse=True)
        payload = None
        for blob in candidates:
            try:
                payload = decrypt_state(secret, blob)
                break
            except InsufficientShares:
                continue
        if payload is None:
            raise InsufficientShares("no replica could be opened")

        parsed = json.loads(payload.decode())
        released: Dict[str, List[Tuple[str, bytes]]] = {}
        for wallet in parsed["wallets"]:
            released.setdefault(wallet["access_manager"], []).append(
                (wallet["id"], bytes.fromhex(wallet["seed"]))
            )
        self.executed = True
        return released


def _wallet_text(wallet: Wallet) -> bytes:
    """The wallet's canonical JSON up to and including ``"seed":"``.

    Keys in sorted order; everything after them, the seed hex and the
    closing ``"}``, is the write's own.
    """
    dump = json.dumps
    return (
        f'{{"access_manager":{dump(wallet.access_manager)},'
        f'"id":{dump(wallet.wallet_id)},'
        f'"policy":{wallet.policy.snapshot_json()},'
        f'"policy_version":{dump(wallet.policy_version)},'
        f'"public_key":"{wallet.public_key.hex()}",'
        '"seed":"'
    ).encode()


def verify_released_key(seed: bytes, expected_public: bytes) -> bool:
    """A released wallet key is good iff it signs under the original pk."""
    key = SigningKey(seed)
    if key.public_key != expected_public:
        return False
    sample = crypto.digest(b"release-check")
    return crypto.verify(key.sign(sample), sample)
