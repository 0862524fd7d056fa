"""Engine-wide exception hierarchy.

Every refusal or failure an operation can produce is a subclass of
EngineError with a stable ``code`` (the class name).  Transcripts render
errors by code only, so two deployments refusing for the same reason
produce byte-identical lines.  PolicyRefusal deliberately carries no
detail payload: a policy that explains *why* it refused leaks the shape
of other players' grants.

Update refusals are uniform in the same way: every refused tree change
(spawn, re-grant, seal, unseal) is one UpdateRefused, whose ``str`` and
``code`` are the bare class name.  Its reason stays in ``.detail`` for
the operator, who sees it on the runner's step-failure line on stderr.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine failures."""

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.__class__.__name__)
        self.detail = detail

    @property
    def code(self) -> str:
        return self.__class__.__name__


# --- message encoding ---

class MalformedMessage(EngineError):
    """A signable message violates a field bound or length constraint."""


# --- wallet manager ---

class UnknownWallet(EngineError):
    pass


class UnknownPlayer(EngineError):
    pass


class UnknownPolicy(EngineError):
    """PolicyRef or UpdateRuleRef name not present in the registry, or a
    tree operation on a wallet that has no delegation tree."""


class PolicyRefusal(EngineError):
    """The wallet's policy declined to sign.  Intentionally opaque."""

    def __init__(self, detail: str = ""):
        # Detail is accepted for internal logging symmetry but never
        # rendered; refusals must be indistinguishable across causes.
        super().__init__("")


class UpdateRefused(EngineError):
    """The update predicate declined a policy transition.

    The reason is kept in ``detail`` for the operator; ``str(exc)`` and
    ``code`` stay the bare class name, so callers and transcripts see
    one refusal whatever its reason.
    """

    def __init__(self, detail: str = ""):
        super().__init__("")
        self.detail = detail


# --- policy engine ---

class UnknownNode(EngineError):
    pass


# --- simulated chain ---

class UnknownAccount(EngineError):
    pass


class UnknownTx(EngineError):
    pass


class NotYetConfirmed(EngineError):
    """Tx included but above the oracle's confirmed height."""


class InvalidSignature(EngineError):
    pass


class BadProof(EngineError):
    """Inclusion or balance proof failed verification."""


# --- transaction encumbrance policy ---

class AlreadyClaimed(EngineError):
    """Deposit digest already claimed by a different sub-policy."""


class UnknownDeposit(EngineError):
    pass


class StaleNonce(EngineError):
    """Request or proof nonce does not match the recognized nonce."""


# --- fallback ---

class NotChallenged(EngineError):
    pass


class AlreadyChallenged(EngineError):
    pass


class AlreadyTriggered(EngineError):
    """Trigger contract fires at most once per lifetime."""


class TooLate(EngineError):
    """Response arrived at or after the challenge deadline."""


class NotExpired(EngineError):
    """Challenge window still open; trigger cannot fire yet."""


class BadDeposit(EngineError):
    """Challenge deposit below the configured minimum."""


class InsufficientShares(EngineError):
    """Fewer than threshold shares, or reconstruction failed the
    known-plaintext check."""


class ReplicationTimeout(EngineError):
    """No storage repository acknowledged a blocking update."""


# --- vote market ---

class UnknownProposal(EngineError):
    pass


class UnknownOffer(EngineError):
    pass


class AlreadyDelegated(EngineError):
    """Proposal already has its one delegatee."""


class ProposalClosed(EngineError):
    pass


class EscrowExhausted(EngineError):
    """Reserving the payment would exceed the offer's escrow."""


class NoReservation(EngineError):
    pass


class NotDelegatee(EngineError):
    """Caller does not hold the delegation for this proposal."""


# --- scenario runner ---

class ParseError(EngineError):
    """Scenario text rejected; carries line/column diagnostics."""

    def __init__(self, line: int, col: int, reason: str):
        super().__init__(f"line {line}, col {col}: {reason}")
        self.line = line
        self.col = col
        self.reason = reason


class StepFailure(EngineError):
    """A scenario step failed and was not marked tolerant."""
