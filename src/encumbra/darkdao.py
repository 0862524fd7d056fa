"""Encumbered governance votes and the vote-buying market built on them.

A DAO member's voting power lives in an encumbered wallet whose vote
capability is held by a program-controlled policy node rather than the
member directly.  While undelegated, the program lets the member vote
as usual.  Delegation is set-once per proposal: after accepting a
bribe the member cannot vote around it, sign a competing vote, or
revoke — the program answers only to the buyer, and only for the
buyer's choice.

The market is a fair exchange without trust: the buyer's escrow is
reserved atomically with the delegation, the seller's payment becomes
claimable when the proposal closes, and the buyer's exclusive signing
right is enforced by the wallet policy, not by promises.  A cast
records only its choice; ``tally`` reads its weight from the chain
balance at the proposal's snapshot height, which is at most the tip
and so final: moving or funding after accepting changes nothing.  An
offer's ``reserved`` is the sum of its reservations.  The program reads
whether a proposal is open from the triple's ``st.ost.chain_time``;
the market's accept and claim read it from the chain the DAO was built
on, the same clock that fills the triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .assets import capability
from .crypto import Signature
from .errors import (
    AlreadyDelegated,
    EscrowExhausted,
    NoReservation,
    NotDelegatee,
    NotExpired,
    ProposalClosed,
    StepFailure,
    UnknownOffer,
    UnknownProposal,
    UnknownWallet,
)
from .manager import WalletManager
from .messages import TypedData, parse_vote_extst, vote_extst, vote_message
from .policy.tree import Grant, ProgramController
from .simchain import SimChain
from .state import StateTriple

WEIGHT_UNIT = 10**18  # price is quoted per whole token of snapshot weight
VOTE_NODE_ID = "dao-vote"  # the node an enrollment spawns under the root


@dataclass(frozen=True)
class Proposal:
    proposal_id: bytes  # 32 bytes
    domain_hash: bytes  # the DAO's voting platform
    snapshot_height: int
    close_time: int

    def open_at(self, t: int) -> bool:
        return t < self.close_time


@dataclass
class BribeOffer:
    offer_id: str
    briber: str
    proposal_id: bytes
    choice: int
    price_per_token: int  # wei per WEIGHT_UNIT of snapshot balance
    escrow: int
    # wallet id -> reserved payment, created at accept, consumed at claim
    reservations: Dict[str, int] = field(default_factory=dict)

    @property
    def reserved(self) -> int:
        return sum(self.reservations.values())

    def headroom(self) -> int:
        return self.escrow - self.reserved


@dataclass
class Enrollment:
    wallet_id: str
    owner: str
    domain_hash: bytes


class DaoVoteProgram:
    """Controller for a member's vote node.

    Undelegated proposals: the enrolled owner votes freely while the
    proposal is open.  Delegated proposals: only the offer's briber may
    sign, and only for the offer's choice.
    """

    def __init__(self, dao: "DarkDao", enrollment: Enrollment):
        self.dao = dao
        self.enrollment = enrollment

    def allows(self, player: str, message, st: StateTriple) -> bool:
        if not isinstance(message, TypedData):
            return False
        hint = parse_vote_extst(st.extst)
        if hint is None:
            return False
        proposal_id, choice = hint
        proposal = self.dao.proposals.get(proposal_id)
        if proposal is None or proposal.domain_hash != message.domain_hash:
            return False
        if not proposal.open_at(st.ost.chain_time):
            return False
        offer_id = self.dao.delegations.get((self.enrollment.wallet_id, proposal_id))
        if offer_id is None:
            return player == self.enrollment.owner
        offer = self.dao.offers[offer_id]
        return player == offer.briber and choice == offer.choice


class DarkDao:
    """Proposal registry, enrollments, delegations, and the bribe market."""

    def __init__(self, manager: WalletManager, chain: SimChain):
        self.manager = manager
        self.chain = chain
        self.proposals: Dict[bytes, Proposal] = {}
        self.enrollments: Dict[str, Enrollment] = {}
        self.offers: Dict[str, BribeOffer] = {}
        # (wallet id, proposal id) -> offer id
        self.delegations: Dict[Tuple[str, bytes], str] = {}
        # (proposal id, wallet id) -> choice
        self.cast: Dict[Tuple[bytes, str], int] = {}

    # ------------------------------------------------------------------
    # registry

    def add_proposal(
        self,
        proposal_id: bytes,
        domain_hash: bytes,
        snapshot_height: int,
        close_time: int,
    ) -> Proposal:
        """Register a proposal.  A taken id is refused, or re-adding a
        closed proposal would reopen it; so is a snapshot above the
        chain height, whose balances could still move after a vote."""
        if proposal_id in self.proposals:
            raise StepFailure(f"proposal {proposal_id.hex()} already exists")
        if not 0 <= snapshot_height <= self.chain.height:
            raise StepFailure(f"snapshot {snapshot_height} outside 0..{self.chain.height}")
        proposal = Proposal(proposal_id, domain_hash, snapshot_height, close_time)
        self.proposals[proposal_id] = proposal
        return proposal

    def enroll(self, wallet_id: str, domain_hash: bytes) -> Enrollment:
        """Move the wallet's vote capability under program control.

        Spawns a node holding the platform-level vote grant, controlled
        by this DAO's program.  The owner keeps voting through it until
        a delegation says otherwise.
        """
        wallet = self.manager.wallet(wallet_id)
        if wallet_id in self.enrollments:
            raise AlreadyDelegated(f"{wallet_id} already enrolled")
        enrollment = Enrollment(
            wallet_id=wallet_id,
            owner=wallet.access_manager,
            domain_hash=domain_hash,
        )
        program_name = f"darkdao:{wallet_id}"
        root_expiry = self.manager.tree_of(wallet_id).node("root").expiry
        self.manager.spawn_node(
            actor=wallet.access_manager,
            wallet_id=wallet_id,
            parent_id="root",
            node_id=VOTE_NODE_ID,
            controller=ProgramController(program_name),
            expiry=root_expiry,
            grants=[
                Grant(
                    asset=capability(domain_hash),
                    cap=1,
                    start=0,
                    expiry=root_expiry,
                )
            ],
        )
        # Registered only once the spawn has committed, so a refused
        # enroll leaves no program behind.
        wallet.policy.programs[program_name] = DaoVoteProgram(self, enrollment)
        self.enrollments[wallet_id] = enrollment
        return enrollment

    def _enrollment(self, wallet_id: str) -> Enrollment:
        found = self.enrollments.get(wallet_id)
        if found is None:
            raise UnknownWallet(f"{wallet_id} not enrolled")
        return found

    def _proposal(self, proposal_id: bytes) -> Proposal:
        found = self.proposals.get(proposal_id)
        if found is None:
            raise UnknownProposal(proposal_id.hex())
        return found

    def _offer(self, offer_id: str) -> BribeOffer:
        found = self.offers.get(offer_id)
        if found is None:
            raise UnknownOffer(offer_id)
        return found

    # ------------------------------------------------------------------
    # voting

    def weight_of(self, wallet_id: str, proposal_id: bytes) -> int:
        proposal = self._proposal(proposal_id)
        wallet = self.manager.wallet(wallet_id)
        return self.chain.balance_at(wallet.address, proposal.snapshot_height)

    def cast_vote(
        self, player: str, wallet_id: str, proposal_id: bytes, choice: int
    ) -> Signature:
        """Sign a vote through the wallet's policy and record its choice."""
        enrollment = self._enrollment(wallet_id)
        proposal = self._proposal(proposal_id)
        message = vote_message(enrollment.domain_hash, proposal_id, choice)
        extst = vote_extst(proposal_id, choice)
        signature = self.manager.lw_sign(player, wallet_id, message, extst)
        self.cast[(proposal_id, wallet_id)] = choice
        return signature

    # ------------------------------------------------------------------
    # bribe market

    def post_offer(
        self,
        offer_id: str,
        briber: str,
        proposal_id: bytes,
        choice: int,
        price_per_token: int,
        escrow: int,
    ) -> BribeOffer:
        self._proposal(proposal_id)
        if offer_id in self.offers:
            raise UnknownOffer(f"offer id {offer_id} taken")
        offer = BribeOffer(
            offer_id=offer_id,
            briber=briber,
            proposal_id=proposal_id,
            choice=choice,
            price_per_token=price_per_token,
            escrow=escrow,
        )
        self.offers[offer_id] = offer
        return offer

    def accept_bribe(self, owner: str, wallet_id: str, offer_id: str) -> int:
        """Sell the vote: delegate to the offer and reserve payment.

        Reservation and delegation commit together or not at all.
        Returns the reserved payment in wei.
        """
        enrollment = self._enrollment(wallet_id)
        offer = self._offer(offer_id)
        proposal = self._proposal(offer.proposal_id)
        if owner != enrollment.owner:
            raise NotDelegatee(owner)
        if not proposal.open_at(self.chain.time):
            raise ProposalClosed(proposal.proposal_id.hex())
        key = (wallet_id, offer.proposal_id)
        if key in self.delegations:
            raise AlreadyDelegated(wallet_id)
        weight = self.weight_of(wallet_id, offer.proposal_id)
        if weight <= 0:
            raise NoReservation(f"{wallet_id} has no snapshot weight")
        payment = weight * offer.price_per_token // WEIGHT_UNIT
        if payment > offer.headroom():
            raise EscrowExhausted(offer_id)
        # Atomic from here: both ledger entries or neither.
        offer.reservations[wallet_id] = payment
        self.delegations[key] = offer_id
        return payment

    def cast_bought_vote(self, player: str, wallet_id: str, offer_id: str) -> Signature:
        offer = self._offer(offer_id)
        if player != offer.briber:
            raise NotDelegatee(player)
        if self.delegations.get((wallet_id, offer.proposal_id)) != offer_id:
            raise NotDelegatee(f"{wallet_id} not delegated to {offer_id}")
        return self.cast_vote(player, wallet_id, offer.proposal_id, offer.choice)

    def claim_payment(self, wallet_id: str, offer_id: str) -> int:
        """Collect the reserved payment once the proposal has closed."""
        offer = self._offer(offer_id)
        proposal = self._proposal(offer.proposal_id)
        if proposal.open_at(self.chain.time):
            raise NotExpired(proposal.proposal_id.hex())
        payment = offer.reservations.pop(wallet_id, None)
        if payment is None:
            raise NoReservation(wallet_id)
        offer.escrow -= payment
        return payment

    # ------------------------------------------------------------------
    # reporting

    def tally(self, proposal_id: bytes) -> Dict[int, int]:
        """Choice -> total snapshot weight among recorded casts."""
        self._proposal(proposal_id)
        out: Dict[int, int] = {}
        for (pid, wallet_id), choice in self.cast.items():
            if pid == proposal_id:
                out[choice] = out.get(choice, 0) + self.weight_of(wallet_id, pid)
        return out
