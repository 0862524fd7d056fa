"""Wallet lifecycle: key custody, gated signing, policy transitions.

The manager is the only holder of wallet private keys.  Every
signature leaves through ``lw_sign``, which consults the wallet's
policy against the state triple and, on approval, appends the log
entry *before* producing the signature — the log can over-approximate
what escaped, never under-approximate.

Policy objects are registry-compiled (approve-all, approve-none, or a
delegation tree); registry swaps are only admitted under the ``any``
update rule, which ``lw_gen`` refuses for a tree wallet.  A swap could
only discard the tree with its programs and ledger, and with them what
the owner has sold (a delegated vote), so a wallet keeps the policy
kind it was made with.  Every tree change (spawn, re-grant, seal,
unseal) takes one path: a ``frozen`` wallet is refused first,
``policy.update`` checks who may make the change and returns a
successor tree, and ``_install_tree`` swaps it onto the wallet's tree
policy (which keeps its programs and ledger), then tells the ledger of
each destination carved.  A change replicates before it is installed:
the recovery hook sees the wallet as the change leaves it, and a write
it refuses raises before anything is installed, so nothing is put back.

Refusals are uniform: a caller learns that the policy said no, and
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import crypto
from .assets import AssetId, AssetKind
from .errors import (
    PolicyRefusal,
    UnknownPlayer,
    UnknownPolicy,
    UnknownWallet,
    UpdateRefused,
)
from .messages import SignableMessage, encode_message, signing_digest
from .policy.registry import (
    REGISTRY_POLICIES,
    UPDATE_RULES,
    DenyAllPolicy,
    TreeWalletPolicy,
    WalletPolicy,
)
from .policy.tree import (
    Controller,
    Grant,
    INFINITE_EXPIRY,
    PolicyTree,
)
from .policy import update as tree_update
from .state import GENESIS_ORACLE, LogEntry, OracleState, StateTriple

NEW_WALLET = "new-wallet"
PRIVILEGE_INCREASE = "privilege-increase"
PRIVILEGE_DECREASE = "privilege-decrease"


@dataclass
class Wallet:
    wallet_id: str
    key: crypto.SigningKey
    access_manager: str
    policy: WalletPolicy
    update_rule: str
    intst: List[LogEntry] = field(default_factory=list)
    policy_version: int = 0

    @property
    def address(self) -> bytes:
        return self.key.address

    @property
    def public_key(self) -> bytes:
        return self.key.public_key

    def successor(self, policy: WalletPolicy) -> "Wallet":
        """The wallet once ``policy`` is installed (not ``dataclasses.replace``: slower)."""
        return Wallet(
            self.wallet_id, self.key, self.access_manager, policy,
            self.update_rule, self.intst, self.policy_version + 1,
        )


def _framed(text: str) -> bytes:
    raw = text.encode()
    return len(raw).to_bytes(4, "big") + raw


def attestation_digest(
    wallet_id: str,
    subject: str,
    messages: Sequence[SignableMessage],
    predicate: Tuple,
    verdict: bool,
) -> bytes:
    """What ``lw_verify`` signs; the layout is in docs/encoding.md."""
    args = predicate[1:]
    return crypto.digest(
        b"attest-v2"
        + _framed(wallet_id)
        + _framed(subject)
        + len(messages).to_bytes(4, "big")
        + b"".join(encode_message(m) for m in messages)
        + _framed(predicate[0])
        + len(args).to_bytes(4, "big")
        + b"".join(_framed(str(arg)) for arg in args)
        + (b"\x01" if verdict else b"\x00")
    )


def _count(arg) -> int:
    """A non-negative integer argument, given as an int or its decimal
    text: the attestation signs ``str(arg)``, which must read back alike."""
    if isinstance(arg, (bool, float)):
        raise ValueError(f"{arg!r} is not an integer")
    value = int(arg)
    if value < 0:
        raise ValueError(f"{arg!r} is negative")
    return value


def _predicate_args(predicate: Tuple, *readers: Callable) -> List:
    """The predicate's arguments, each read by its reader.

    A wrong number of arguments, or one a reader rejects (bad hex, a
    non-integer), makes the predicate unknown, as an unknown name does,
    so nothing is signed for it.
    """
    args = predicate[1:]
    if len(args) != len(readers):
        raise UnknownPolicy(f"predicate {predicate[0]} takes {len(readers)} arguments")
    try:
        return [read(arg) for read, arg in zip(readers, args)]
    except (TypeError, ValueError) as exc:
        raise UnknownPolicy(f"predicate {predicate[0]}: {exc}") from None


class WalletManager:
    def __init__(
        self,
        seed: bytes,
        ost_provider: Optional[Callable[[Wallet], OracleState]] = None,
    ):
        self._seed = seed
        self._wallets: Dict[str, Wallet] = {}
        self._players: Set[str] = set()
        self._ost_provider = ost_provider or (lambda wallet: GENESIS_ORACLE)
        # The recovery subsystem's hook: receives (successor wallet,
        # change_class) before each change is installed, and refuses the
        # change by raising.
        self.on_policy_change: Optional[Callable[[Wallet, str], None]] = None

    # ------------------------------------------------------------------
    # registration

    def register_player(self, name: str) -> bytes:
        """Admit a player; returns the public half of its derived auth key."""
        self._players.add(name)
        return crypto.derive_signing_key(self._seed, "player-auth", name).public_key

    # ------------------------------------------------------------------
    # wallet surface

    def lw_gen(
        self,
        access_manager: str,
        wallet_id: str,
        policy_kind: str = "deny",
        update_rule: str = "any",
        native_capacity: Optional[int] = None,
    ) -> Wallet:
        if access_manager not in self._players:
            raise UnknownPlayer(access_manager)
        if wallet_id in self._wallets:
            raise UpdateRefused(f"wallet id {wallet_id} already exists")
        if update_rule not in UPDATE_RULES:
            raise UnknownPolicy(update_rule)
        if policy_kind == "tree" and update_rule == "any":
            raise UnknownPolicy("a tree wallet takes no registry swap")
        # Key material depends only on the wallet's creation index,
        # so equal seeds mint equal wallets regardless of what other
        # commands ran in between.
        key = crypto.derive_signing_key(
            self._seed, "wallet-key", len(self._wallets)
        )
        policy = self._build_policy(policy_kind, access_manager, native_capacity)
        wallet = Wallet(
            wallet_id=wallet_id,
            key=key,
            access_manager=access_manager,
            policy=policy,
            update_rule=update_rule,
        )
        self._notify(wallet, NEW_WALLET)
        self._wallets[wallet_id] = wallet
        return wallet

    def _build_policy(
        self, kind: str, access_manager: str, native_capacity: Optional[int]
    ) -> WalletPolicy:
        if kind == "tree":
            tree = PolicyTree(
                root_controller=access_manager,
                root_expiry=INFINITE_EXPIRY,
                native_capacity=native_capacity,
            )
            return TreeWalletPolicy(tree)
        if kind not in REGISTRY_POLICIES:
            raise UnknownPolicy(kind)
        if native_capacity is not None:
            raise UnknownPolicy(f"policy {kind} takes no capacity")
        return REGISTRY_POLICIES[kind]()

    def wallet(self, wallet_id: str) -> Wallet:
        found = self._wallets.get(wallet_id)
        if found is None:
            raise UnknownWallet(wallet_id)
        return found

    def wallets(self) -> List[Wallet]:
        return list(self._wallets.values())

    def tree_of(self, wallet_id: str) -> PolicyTree:
        policy = self.wallet(wallet_id).policy
        if not isinstance(policy, TreeWalletPolicy):
            raise UnknownPolicy("wallet has no delegation tree")
        return policy.tree

    def _state_triple(self, wallet: Wallet, extst: bytes) -> StateTriple:
        ost = self._ost_provider(wallet)
        return StateTriple(intst=tuple(wallet.intst), ost=ost, extst=extst)

    # ------------------------------------------------------------------
    # signing

    def lw_sign(
        self, player: str, wallet_id: str, message: SignableMessage, extst: bytes = b""
    ) -> crypto.Signature:
        wallet = self.wallet(wallet_id)
        if player not in self._players:
            raise UnknownPlayer(player)
        st = self._state_triple(wallet, extst)
        approved, node_id = wallet.policy.approves(player, message, st)
        if not approved:
            raise PolicyRefusal()
        # Log first: a crash after this line loses a signature, never
        # the record that one may exist.
        wallet.intst.append(
            LogEntry(player=player, message=message, ost=st.ost, node_id=node_id)
        )
        return wallet.key.sign(signing_digest(message))

    # ------------------------------------------------------------------
    # policy transitions

    def lw_update(self, player: str, wallet_id: str, new_policy_kind: str) -> None:
        """Registry-swap update, gated by the wallet's update rule."""
        wallet = self.wallet(wallet_id)
        if player not in self._players:
            raise UnknownPlayer(player)
        if new_policy_kind not in REGISTRY_POLICIES:
            raise UnknownPolicy(new_policy_kind)
        if wallet.update_rule != "any":
            raise UpdateRefused(f"update rule {wallet.update_rule} swaps no policy")
        if player != wallet.access_manager:
            raise UpdateRefused("only the access manager may swap the policy")
        policy = self._build_policy(new_policy_kind, wallet.access_manager, None)
        increased = (
            isinstance(wallet.policy, DenyAllPolicy) and new_policy_kind == "allow"
        )
        self._notify(
            wallet.successor(policy),
            PRIVILEGE_INCREASE if increased else PRIVILEGE_DECREASE,
        )
        wallet.policy = policy
        wallet.policy_version += 1

    def spawn_node(
        self,
        actor: str,
        wallet_id: str,
        parent_id: str,
        node_id: str,
        controller: Controller,
        expiry: int,
        grants: Sequence[Grant],
    ) -> None:
        wallet = self._changeable(wallet_id)
        st = self._state_triple(wallet, b"")
        new_tree = tree_update.spawn(
            wallet.policy.tree, actor, parent_id, node_id, controller, expiry, grants, st
        )
        self._install_tree(wallet, new_tree, PRIVILEGE_INCREASE, node_id, grants)

    def add_node_grants(
        self, actor: str, wallet_id: str, node_id: str, grants: Sequence[Grant]
    ) -> None:
        wallet = self._changeable(wallet_id)
        st = self._state_triple(wallet, b"")
        new_tree = tree_update.add_grants(wallet.policy.tree, actor, node_id, grants, st)
        self._install_tree(wallet, new_tree, PRIVILEGE_INCREASE, node_id, grants)

    def seal_asset(self, actor: str, wallet_id: str, node_id: str, asset: AssetId) -> None:
        wallet = self._changeable(wallet_id)
        new_tree = tree_update.seal(wallet.policy.tree, actor, node_id, asset)
        self._install_tree(wallet, new_tree, PRIVILEGE_DECREASE)

    def unseal_asset(self, actor: str, wallet_id: str, asset: AssetId) -> None:
        wallet = self._changeable(wallet_id)
        new_tree = tree_update.unseal(wallet.policy.tree, actor, asset)
        self._install_tree(wallet, new_tree, PRIVILEGE_INCREASE)

    def _changeable(self, wallet_id: str) -> Wallet:
        """The tree wallet ``wallet_id``, refused at once if ``frozen``."""
        wallet = self.wallet(wallet_id)
        if not isinstance(wallet.policy, TreeWalletPolicy):
            raise UnknownPolicy("wallet has no delegation tree")
        if wallet.update_rule == "frozen":
            raise UpdateRefused(f"{wallet_id} is frozen")
        return wallet

    def _install_tree(
        self, wallet: Wallet, tree: PolicyTree, change_class: str,
        node_id: str = "", grants: Sequence[Grant] = (),
    ) -> None:
        """Commit a tree change: the one place a wallet's tree is swapped.

        The hook sees a render-only ``TreeWalletPolicy(tree)``; then the
        tree is installed on the wallet's own policy, and its ledger, if
        any, learns each destination in ``grants`` carved to ``node_id``.
        """
        self._notify(wallet.successor(TreeWalletPolicy(tree)), change_class)
        policy = wallet.policy
        policy.tree = tree
        wallet.policy_version += 1
        ledger = policy.ledger
        if ledger is not None:
            for grant in grants:
                if grant.asset.kind is AssetKind.DESTINATION_ADDRESS:
                    ledger.register_grant(node_id, grant.asset.address)

    def _notify(self, successor: Wallet, change_class: str) -> None:
        """Hand the recovery hook a change; if it raises, nothing is installed."""
        if self.on_policy_change is not None:
            self.on_policy_change(successor, change_class)

    # ------------------------------------------------------------------
    # attestations

    def lw_verify(
        self,
        wallet_id: str,
        subject: str,
        messages: Sequence[SignableMessage],
        predicate: Tuple,
    ) -> Tuple[bool, crypto.Signature]:
        """Evaluate a validity predicate and attest to the result.

        Side-effect free: nothing is logged and no counter moves.  The
        attestation binds (wallet, subject, messages, predicate, verdict)
        and is deterministic, so re-asking yields the identical signature.
        """
        wallet = self.wallet(wallet_id)
        st = self._state_triple(wallet, b"")
        result = self._eval_predicate(wallet, subject, messages, predicate, st)
        payload = attestation_digest(wallet_id, subject, messages, predicate, result)
        return result, wallet.key.sign(payload)

    def _eval_predicate(
        self,
        wallet: Wallet,
        subject: str,
        messages: Sequence[SignableMessage],
        predicate: Tuple,
        st: StateTriple,
    ) -> bool:
        name = predicate[0] if predicate else None
        if name in ("approves-all", "approves-none", "log-contains-all", "log-contains-none"):
            _predicate_args(predicate)  # they take no argument
        if name == "approves-all":
            return all(wallet.policy.approves(subject, m, st)[0] for m in messages)
        if name == "approves-none":
            return not any(wallet.policy.approves(subject, m, st)[0] for m in messages)
        if name == "log-contains-all":
            logged = {encode_message(e.message) for e in wallet.intst}
            return all(encode_message(m) in logged for m in messages)
        if name == "log-contains-none":
            logged = {encode_message(e.message) for e in wallet.intst}
            return not any(encode_message(m) in logged for m in messages)
        if name == "nonce-at-least":
            (floor,) = _predicate_args(predicate, _count)
            return st.ost.recognized_nonce >= floor
        if name == "log-extends":
            # (digest_hex, length): current log extends the snapshot.
            want, length = _predicate_args(predicate, bytes.fromhex, _count)
            if length > len(wallet.intst):
                return False
            return self.log_prefix_digest(wallet.wallet_id, length) == want
        if name == "never-claimed":
            # (tx_digest_hex, ledger_digest_hex): the dusting countermeasure.
            tx_digest, ledger_digest = _predicate_args(predicate, bytes.fromhex, bytes.fromhex)
            ledger = wallet.policy.ledger
            if ledger is None:
                return False
            return (
                ledger.chain.includes(tx_digest)
                and ledger.chain.tx(tx_digest).tx.to == wallet.address
                and tx_digest not in ledger.claims
                and ledger.ledger_digest() == ledger_digest
            )
        raise UnknownPolicy(f"predicate {name}")

    def log_prefix_digest(self, wallet_id: str, length: Optional[int] = None) -> bytes:
        wallet = self.wallet(wallet_id)
        entries = wallet.intst if length is None else wallet.intst[:length]
        running = b"\x00" * 32
        for entry in entries:
            running = crypto.digest(running + entry.encode())
        return running
