"""Transaction encumbrance: deposit-attributed spending over one key.

A wallet under this policy exposes its single chain account to many
sub-policies at once.  Each sub-policy owns what it can prove it
deposited: a deposit is claimed (committed host-side) before broadcast,
then credited once an inclusion proof lands.  Spending is gated three
ways at signature time — the request nonce must equal the recognized
nonce, the worst-case cost must fit the sub-balance, and a sub-policy
that has not yet lived through a nonce advance must have committed the
exact request digest host-side before it may sign.

Inclusion proofs drive the only state the chain can confirm: proving an
outgoing transaction advances the recognized nonce, deducts the cost
from the sub-policy the transaction is attributed to (its committed
request, else the last holder of unlimited signing for the
destination), pays the submitting player a fixed reimbursement out of
the signer's host-fee balance, and implicitly invalidates every other
outstanding signature at the old nonce.  Sub-balances survive grant
expiry; a withheld transaction broadcast after expiry is still charged
to its signer's leftover balance.  That a deposit was never claimed
here, the countermeasure to dusting, is attested by ``lw_verify``'s
``never-claimed`` predicate over this ledger.

Host-side writes carry a simulated gas meter so the cost report can
show what a deployment would have paid; the numbers are products of
this gas model, not measurements.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from . import crypto
from .assets import AssetKind
from .errors import (
    AlreadyClaimed,
    BadProof,
    StaleNonce,
    UnknownDeposit,
)
from .messages import ChainTx, signing_digest
from .policy.tree import PolicyTree
from .simchain import InclusionProof, SimChain
from .state import StateTriple

# Host-side operation names, in cost-report order.
OP_DEPLOY_POLICY = "deploy policy"
OP_ADD_POLICY = "add policy to wallet"
OP_ADD_SUB_POLICY = "add sub-policy"
OP_DEPOSIT_COMMITMENT = "deposit commitment"
OP_PROVE_DEPOSIT = "prove deposit inclusion"
OP_TX_COMMITMENT = "transaction commitment"
OP_PROVE_TX = "prove transaction inclusion"

_BASE_TX = 21_000
_STORE_WORD = 20_000
_PER_SIBLING = 5_000
_ACCOUNTING = 15_000

# The one table of host operations, in cost-report order: op -> (gas
# with no Merkle sibling, gas per sibling, reference deployment gas for
# scale).  Each op's storage words are folded into its constant.  A
# proof re-does its commitment's storage and adds accounting plus the
# hashing of its leaf and each sibling, so it always prices above the
# matching commitment.
HOST_OPS: Dict[str, Tuple[int, int, int]] = {
    OP_DEPLOY_POLICY: (_BASE_TX + 150 * _STORE_WORD, 0, 7_777_890),
    OP_ADD_POLICY: (_BASE_TX + 7 * _STORE_WORD, 0, 169_145),
    OP_ADD_SUB_POLICY: (_BASE_TX + 5 * _STORE_WORD, 0, 87_162),
    OP_DEPOSIT_COMMITMENT: (_BASE_TX + 2 * _STORE_WORD, 0, 50_769),
    OP_PROVE_DEPOSIT: (
        _BASE_TX + 2 * _STORE_WORD + _ACCOUNTING + _PER_SIBLING, _PER_SIBLING, 364_429
    ),
    OP_TX_COMMITMENT: (_BASE_TX + 2 * _STORE_WORD, 0, 140_772),
    OP_PROVE_TX: (
        _BASE_TX + 3 * _STORE_WORD + 2 * _ACCOUNTING + _PER_SIBLING, _PER_SIBLING, 395_679
    ),
}
# The cost report prices every op at the siblings of a 256-leaf block.
REPORT_SIBLINGS = 8


def simulated_gas(op: str, siblings: int = 0) -> int:
    """Deterministic host gas model: ``op``'s row of ``HOST_OPS``."""
    base, per_sibling, _ = HOST_OPS[op]
    return base + per_sibling * siblings


class TxLedger:
    """Per-wallet accounting held by the wallet's tree policy.

    It gates each chain transaction a node signs in place of the node's
    native grant, and calls ``tree`` on every use for the current tree:
    each policy update installs a new one.  ``Engine.create_wallet``
    passes ``lambda: policy.tree`` of the policy that holds the ledger,
    and a tree wallet is never swapped, so that is always the wallet's
    tree.
    """

    def __init__(
        self,
        wallet_id: str,
        wallet_address: bytes,
        chain: SimChain,
        tree: Callable[[], PolicyTree],
        commit_required: bool = True,
        reimburse_wei: int = 50_000 * 100 * 10**9,
    ):
        self.wallet_id = wallet_id
        self.wallet_address = wallet_address
        self.chain = chain
        self._tree_provider = tree
        self.commit_required = commit_required
        self.reimburse_wei = reimburse_wei

        self.recognized_nonce = 0
        self.ether_sub: Dict[str, int] = {}
        self.host_fee_sub: Dict[str, int] = {}
        self.player_host_credit: Dict[str, int] = {}
        self.claims: Dict[bytes, str] = {}
        self.proven_deposits: Dict[bytes, int] = {}
        self.committed_requests: Dict[bytes, str] = {}
        self.last_unlimited: Dict[bytes, str] = {}
        self.unlimited: Dict[Tuple[str, bytes], bool] = {}
        self.total_deducted = 0
        self.unattributed: List[bytes] = []
        self.gas_log: List[Tuple[str, int]] = []
        self.meter(OP_ADD_POLICY)

    @property
    def tree(self) -> PolicyTree:
        return self._tree_provider()

    @property
    def total_proven(self) -> int:
        return sum(self.proven_deposits.values())

    # ------------------------------------------------------------------
    # gas metering

    def meter(self, op: str, siblings: int = 0) -> int:
        gas = simulated_gas(op, siblings)
        self.gas_log.append((op, gas))
        return gas

    def gas_summary(self) -> Dict[str, Tuple[int, int]]:
        """op -> (count, total gas)."""
        out: Dict[str, Tuple[int, int]] = {}
        for op, gas in self.gas_log:
            count, total = out.get(op, (0, 0))
            out[op] = (count + 1, total + gas)
        return out

    # ------------------------------------------------------------------
    # grant lifecycle

    def register_grant(self, node_id: str, dest: bytes) -> None:
        """A destination grant was spawned; holder starts limited."""
        self.unlimited[(node_id, dest)] = False
        self.meter(OP_ADD_SUB_POLICY)

    def _active_dest_holders(self, t: int) -> Dict[bytes, str]:
        holders: Dict[bytes, str] = {}
        for node in self.tree.nodes.values():
            if not node.active_at(t):
                continue
            for grant in node.grants:
                if (
                    grant.asset.kind is AssetKind.DESTINATION_ADDRESS
                    and grant.active_at(t)
                ):
                    holders[grant.asset.address] = node.node_id
        return holders

    # ------------------------------------------------------------------
    # signing gate

    def approves_chain_tx(self, node_id: str, tx: ChainTx, st: StateTriple) -> bool:
        """The gate on a node's chain tx.  Its nonce must be the triple's
        recognized nonce, which the engine fills from this ledger."""
        if tx.chain_id != self.chain.chain_id:
            return False
        if tx.nonce != st.ost.recognized_nonce:
            return False
        if tx.value + tx.fee_cap > self.ether_sub.get(node_id, 0):
            return False
        if self.commit_required and not self.unlimited.get((node_id, tx.to), False):
            digest = signing_digest(tx)
            if self.committed_requests.get(digest) != node_id:
                return False
        return True

    # ------------------------------------------------------------------
    # deposits

    def claim_deposit(self, node_id: str, tx_digest: bytes) -> None:
        """Record intent to own a deposit.  Must precede its inclusion:
        a claim raced in after the transaction is visible on chain is
        exactly the front-run the ordering rule exists to stop."""
        self.tree.node(node_id)
        holder = self.claims.get(tx_digest)
        if holder is not None:
            if holder == node_id:
                return  # idempotent
            raise AlreadyClaimed(tx_digest.hex())
        if self.chain.includes(tx_digest):
            raise AlreadyClaimed("deposit already on chain; claim too late")
        self.claims[tx_digest] = node_id
        self.meter(OP_DEPOSIT_COMMITMENT)

    def prove_deposit(self, node_id: str, proof: InclusionProof) -> int:
        """Credit a claimed deposit.  Returns wei credited (0 on replay)."""
        signed = self.chain.check_proof(proof)
        if signed.tx.to != self.wallet_address:
            raise BadProof("transaction does not pay the encumbered address")
        holder = self.claims.get(proof.tx_digest)
        if holder is None:
            raise UnknownDeposit(proof.tx_digest.hex())
        if holder != node_id:
            raise AlreadyClaimed(proof.tx_digest.hex())
        self.meter(OP_PROVE_DEPOSIT, siblings=len(proof.path.siblings))
        if proof.tx_digest in self.proven_deposits:
            return 0
        self.proven_deposits[proof.tx_digest] = signed.tx.value
        self.ether_sub[node_id] = self.ether_sub.get(node_id, 0) + signed.tx.value
        return signed.tx.value

    # ------------------------------------------------------------------
    # outgoing transactions

    def commit_request(self, node_id: str, tx_digest: bytes) -> None:
        self.tree.node(node_id)
        holder = self.committed_requests.get(tx_digest)
        if holder is not None and holder != node_id:
            raise AlreadyClaimed(tx_digest.hex())
        if holder is None:
            self.committed_requests[tx_digest] = node_id
            self.meter(OP_TX_COMMITMENT)

    def fund_host_fees(self, node_id: str, amount: int) -> None:
        self.tree.node(node_id)
        self.host_fee_sub[node_id] = self.host_fee_sub.get(node_id, 0) + amount

    def prove_tx_inclusion(self, submitter: str, proof: InclusionProof) -> Optional[str]:
        """Recognize an outgoing transaction; returns the charged node.

        Atomic: every effect below happens, or (on any raise) none do.
        """
        signed = self.chain.check_proof(proof)
        tx = signed.tx
        if signed.sender != self.wallet_address:
            raise BadProof("not a transaction from the encumbered address")
        if tx.nonce != self.recognized_nonce:
            raise StaleNonce(f"proof nonce {tx.nonce} vs {self.recognized_nonce}")
        node_id = self.committed_requests.get(proof.tx_digest)
        if node_id is None:
            node_id = self.last_unlimited.get(tx.to)
        # compute first, then apply: no partial state on failure
        cost = tx.value + tx.fee_cap
        holders = self._active_dest_holders(self.chain.time)

        self.recognized_nonce += 1
        if node_id is not None:
            self.ether_sub[node_id] = self.ether_sub.get(node_id, 0) - cost
            self.total_deducted += cost
            available = self.host_fee_sub.get(node_id, 0)
            paid = min(self.reimburse_wei, max(available, 0))
            self.host_fee_sub[node_id] = available - paid
            self.player_host_credit[submitter] = (
                self.player_host_credit.get(submitter, 0) + paid
            )
        else:
            self.unattributed.append(proof.tx_digest)
        for dest, holder in holders.items():
            self.unlimited[(holder, dest)] = True
            self.last_unlimited[dest] = holder
        self.meter(OP_PROVE_TX, siblings=len(proof.path.siblings))
        return node_id

    # ------------------------------------------------------------------
    # provenance

    def ledger_digest(self) -> bytes:
        parts = [
            self.wallet_address,
            self.recognized_nonce.to_bytes(8, "big"),
        ]
        for digest in sorted(self.claims):
            parts.append(digest)
            parts.append(self.claims[digest].encode())
            parts.append(b"\x00")
        for digest in sorted(self.proven_deposits):
            parts.append(digest)
            parts.append(self.proven_deposits[digest].to_bytes(16, "big"))
        return crypto.digest(b"ledger-v1" + b"".join(parts))

    def snapshot(self) -> dict:
        return {
            "wallet": self.wallet_id,
            "recognized_nonce": self.recognized_nonce,
            "ether_sub": {k: v for k, v in sorted(self.ether_sub.items())},
            "host_fee_sub": {k: v for k, v in sorted(self.host_fee_sub.items())},
            "player_host_credit": {
                k: v for k, v in sorted(self.player_host_credit.items())
            },
            "claims": {d.hex(): n for d, n in sorted(self.claims.items())},
            "proven": {d.hex(): v for d, v in sorted(self.proven_deposits.items())},
            "total_proven": self.total_proven,
            "total_deducted": self.total_deducted,
        }

