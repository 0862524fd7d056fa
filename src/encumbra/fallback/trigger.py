"""Liveness challenge: prove the host is down, or pay for crying wolf.

Anyone may post a deposit to open a challenge at time tau.  If anybody
relays a sentinel ping timestamped inside [tau, tau+T] strictly before
tau+T, the challenge is defeated and the responder wins the deposit.
If the window lapses with no valid response, the trigger fires — once
per contract lifetime — and the challenger earns the bounty.  All
times are the reliable chain's clock, integer seconds.

The sentinel is an ordinary wallet under an approve-all policy with a
frozen update rule; its only job is to answer pings while the primary
host lives, so a valid fresh ping is proof of life.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from .. import crypto
from ..errors import (
    AlreadyChallenged,
    AlreadyTriggered,
    BadDeposit,
    BadProof,
    NotChallenged,
    NotExpired,
    TooLate,
)
from ..messages import PersonalSign, signing_digest

PING_TAG = b"sentinel-ping-v1"


def ping_message(at_time: int) -> PersonalSign:
    return PersonalSign(PING_TAG + at_time.to_bytes(8, "big"))


def ping_time_of(message: PersonalSign) -> Optional[int]:
    payload = message.payload
    if len(payload) != len(PING_TAG) + 8 or not payload.startswith(PING_TAG):
        return None
    return int.from_bytes(payload[len(PING_TAG) :], "big")


class TriggerState(enum.Enum):
    IDLE = "idle"
    CHALLENGED = "challenged"
    TRIGGERED = "triggered"
    DEFEATED = "defeated"


@dataclass
class Challenge:
    challenger: str
    deposit: int
    opened_at: int


class TriggerContract:
    def __init__(
        self,
        sentinel_public_key: bytes,
        window: int = 604_800,
        min_deposit: int = 10**17,
        bounty: int = 10**18,
    ):
        self.sentinel_public_key = sentinel_public_key
        self.window = window
        self.min_deposit = min_deposit
        self.bounty = bounty
        self.state = TriggerState.IDLE
        self.challenge_record: Optional[Challenge] = None
        self.triggered_at: Optional[int] = None
        self.payouts: Dict[str, int] = {}

    def _pay(self, player: str, amount: int) -> None:
        self.payouts[player] = self.payouts.get(player, 0) + amount

    def challenge(self, challenger: str, deposit: int, now: int) -> None:
        if self.state is TriggerState.TRIGGERED:
            raise AlreadyTriggered()
        if self.state is TriggerState.CHALLENGED:
            raise AlreadyChallenged()
        if deposit < self.min_deposit:
            raise BadDeposit(f"deposit {deposit} below minimum {self.min_deposit}")
        self.state = TriggerState.CHALLENGED
        self.challenge_record = Challenge(challenger, deposit, now)

    def respond(
        self, responder: str, ping: PersonalSign, signature: crypto.Signature, now: int
    ) -> None:
        """Defeat the open challenge with a fresh, valid sentinel ping."""
        if self.state is not TriggerState.CHALLENGED:
            raise NotChallenged()
        record = self.challenge_record
        deadline = record.opened_at + self.window
        if now >= deadline:
            raise TooLate(f"response at {now}, deadline {deadline}")
        ping_time = ping_time_of(ping)
        if ping_time is None or not record.opened_at <= ping_time < deadline:
            raise BadProof("ping timestamp outside the challenge window")
        if signature.public_key != self.sentinel_public_key:
            raise BadProof("not the sentinel's key")
        if not crypto.verify(signature, signing_digest(ping)):
            raise BadProof("ping signature invalid")
        self.state = TriggerState.DEFEATED
        self._pay(responder, record.deposit)

    def fire(self, now: int) -> None:
        """Close an unanswered challenge: the trigger fires for good."""
        if self.state is TriggerState.TRIGGERED:
            raise AlreadyTriggered()
        if self.state is not TriggerState.CHALLENGED:
            raise NotChallenged()
        record = self.challenge_record
        if now <= record.opened_at + self.window:
            raise NotExpired(
                f"window open until {record.opened_at + self.window}, now {now}"
            )
        self.state = TriggerState.TRIGGERED
        self.triggered_at = now
        self._pay(record.challenger, self.bounty)
