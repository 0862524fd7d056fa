"""Asset identities and the spend-demand model.

Policies reason about three kinds of asset:

* ``NATIVE_BALANCE`` — the chain's fungible unit.  Grants on it carry a
  balance cap; concurrent grants partition the balance.
* ``DESTINATION_ADDRESS`` — the exclusive right to direct transactions
  at one address.
* ``VOTE_CAPABILITY`` — the exclusive right to sign one class of
  non-transaction messages, keyed by a 32-byte capability key.

Capability keys are two-level: a platform key (a typed-data domain
hash, or the personal-sign class key) covers every message of that
platform; a specific key (a proposal id, or a payload key) covers one
message family.  A platform-level grant can be subdivided by carving
specific keys out to child policies, which shadow the parent for those
keys.  ``demands_of`` maps a message to the one demand a policy must be
able to satisfy before signing it: native value, and one unit of
signing authority whose acceptable assets run from most to least
specific.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from . import crypto
from .messages import (
    ChainTx,
    PersonalSign,
    SignableMessage,
    TypedData,
    parse_vote_extst,
    vote_struct_hash,
)


class AssetKind(Enum):
    NATIVE_BALANCE = 1
    DESTINATION_ADDRESS = 2
    VOTE_CAPABILITY = 3


@dataclass(frozen=True)
class AssetId:
    """Injective asset identity; only the kind-relevant field is set."""

    kind: AssetKind
    address: Optional[bytes] = None
    key: Optional[bytes] = None

    def __post_init__(self):
        if self.kind is AssetKind.NATIVE_BALANCE:
            assert self.address is None and self.key is None
        elif self.kind is AssetKind.DESTINATION_ADDRESS:
            assert self.key is None
            assert isinstance(self.address, bytes) and len(self.address) == 20
        else:
            assert self.address is None
            assert isinstance(self.key, bytes) and len(self.key) == 32

    def encode(self) -> bytes:
        if self.kind is AssetKind.NATIVE_BALANCE:
            return b"\x01"
        if self.kind is AssetKind.DESTINATION_ADDRESS:
            return b"\x02" + self.address
        return b"\x03" + self.key

    def label(self) -> str:
        if self.kind is AssetKind.NATIVE_BALANCE:
            return "native"
        if self.kind is AssetKind.DESTINATION_ADDRESS:
            return "dest:" + self.address.hex()
        return "cap:" + self.key.hex()


NATIVE = AssetId(AssetKind.NATIVE_BALANCE)


def destination(address: bytes) -> AssetId:
    return AssetId(AssetKind.DESTINATION_ADDRESS, address=address)


def capability(key: bytes) -> AssetId:
    return AssetId(AssetKind.VOTE_CAPABILITY, key=key)


# Personal-sign messages are gated through capability keys as well: one
# class key covers every payload, a payload key covers exactly one.
PERSONAL_CLASS_KEY = crypto.digest(b"personal-sign-class-v1")


def personal_payload_key(payload: bytes) -> bytes:
    return crypto.digest(b"personal-sign-payload-v1" + payload)


@dataclass(frozen=True)
class Demand:
    """Everything a message asks of the signing policy: ``native`` value,
    and one unit of signing authority satisfiable by any of ``options``.

    Options are ordered most-specific first; a grant matches if it is on
    any option and is not shadowed by a carve covering the demand.
    """

    native: int
    options: Tuple[AssetId, ...]


def demands_of(message: SignableMessage, extst: bytes = b"") -> Optional[Demand]:
    """The demand of a message, or None when it cannot be classified.

    An unclassifiable message (typed data with no verifiable vote hint)
    matches no grant, so asset-scoped policies refuse it; only an
    approve-all policy will sign such a message.
    """
    if isinstance(message, ChainTx):
        return Demand(message.value + message.fee_cap, (destination(message.to),))
    if isinstance(message, PersonalSign):
        specific = capability(personal_payload_key(message.payload))
        broad = capability(PERSONAL_CLASS_KEY)
        return Demand(0, (specific, broad))
    if isinstance(message, TypedData):
        hint = parse_vote_extst(extst)
        if hint is None:
            return None
        proposal_id, choice = hint
        expected = vote_struct_hash(message.domain_hash, proposal_id, choice)
        if expected != message.struct_hash:
            return None
        specific = capability(proposal_id)
        broad = capability(message.domain_hash)
        return Demand(0, (specific, broad))
    return None
