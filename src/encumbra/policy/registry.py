"""Wallet-level policy objects the manager dispatches to.

A wallet points at exactly one policy object.  Two degenerate policies
exist for bootstrapping and for the recovery sentinel (approve-all,
approve-none); real wallets use a delegation tree.  Policy objects are
compiled into the engine and addressed by a registry name, so a policy
update is a transition between registered behaviors, never the arrival
of foreign code.  A tree wallet is never swapped: ``lw_gen`` refuses a
tree under the ``any`` rule, so its tree policy, and the programs and
transaction ledger it holds, last as long as the wallet.  A policy
decides from the state triple alone: the instant is
``st.ost.chain_time`` and the nonce ``st.ost.recognized_nonce``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..state import StateTriple
from .tree import PolicyTree

if TYPE_CHECKING:
    from ..darkdao import DaoVoteProgram
    from ..txpolicy import TxLedger


class WalletPolicy:
    kind = "abstract"
    # The wallet's transaction ledger; only a tree policy ever holds one.
    ledger: Optional[TxLedger] = None

    def approves(
        self, player: str, message, st: StateTriple
    ) -> Tuple[bool, Optional[str]]:
        """Return (approved, node id that vouched or None)."""
        raise NotImplementedError

    def snapshot_json(self) -> str:
        """Canonical JSON (sorted keys, compact) of the policy's summary."""
        return f'{{"kind":{json.dumps(self.kind)}}}'


class AllowAllPolicy(WalletPolicy):
    """Approves every well-formed message for every player."""

    kind = "allow-all"

    def approves(self, player, message, st):
        return True, None


class DenyAllPolicy(WalletPolicy):
    """Approves nothing; the initial posture of every new wallet."""

    kind = "deny-all"

    def approves(self, player, message, st):
        return False, None


class TreeWalletPolicy(WalletPolicy):
    """Delegation-tree policy; approval comes from the first node that
    vouches for the player, in node creation order.

    The manager replaces ``tree`` on every change; the policy keeps what
    the plain-data tree does not hold: the programs, by name, and the
    transaction ledger, which ``Engine.create_wallet`` sets when it makes
    the wallet.  The policy is the one store of that ledger.
    """

    kind = "tree"

    def __init__(self, tree: PolicyTree):
        self.tree = tree
        self.programs: Dict[str, DaoVoteProgram] = {}

    def approves(self, player, message, st):
        """The first vouching node decides.

        The nodes tried share the triple's seal map
        (``StateTriple.outstanding``): the log is scanned for seals at
        most once per triple, so once per decision or verify, and not at
        all when no node reaches the seal check.  That scan covers the
        whole log, so a sign still grows linearly with the log.
        """
        for node in self.tree.nodes_for_player(player):
            if self.tree.evaluate(node.node_id, player, message, st, self.programs, self.ledger):
                return True, node.node_id
        return False, None

    def snapshot_json(self):
        return f'{{"kind":{json.dumps(self.kind)},"tree":{self.tree.snapshot_json()}}}'


# The one table of policy and update-rule names.  A wallet is created
# with ``tree`` or a registry policy; ``lw_update`` swaps between
# registry policies only, and only under the ``any`` rule, which a tree
# wallet may not take.
REGISTRY_POLICIES = {
    "allow": AllowAllPolicy,
    "deny": DenyAllPolicy,
}

UPDATE_RULES = ("frozen", "any", "tree")
