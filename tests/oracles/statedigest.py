"""One digest of an engine's whole state, for "is the state the same?".

A refused command must leave no partial state, so a test takes
``state_digest(engine)`` before a refused step and after it and
compares.  The digest is one sha256 over the ``repr`` of ``state_view``,
the parts in a fixed order:

- both chains: ``snapshot_digest()`` and the pending txs;
- each wallet: policy kind and version, tree digest, log prefix digest
  and program names;
- each ledger: ``ledger_digest()``, ``snapshot()``, the gas-log length,
  ``committed_requests``, ``unlimited`` and ``last_unlimited``;
- the DAO: proposals, enrollments, offers with their reservations,
  delegations and casts;
- the fallback: version, pending increases, ``last_flush``, ``executed``
  and each repository's latest version;
- the trigger and ``sentinel_up``.

Reading a chain's snapshot hashes its unread headers into the prefix
``SimChain._hash`` keeps; that is a cache, not state, and reads the
same afterwards.
"""

from __future__ import annotations

from encumbra import crypto


def _wallet(manager, wallet):
    policy = wallet.policy
    tree = getattr(policy, "tree", None)
    return (
        wallet.wallet_id,
        policy.kind,
        wallet.policy_version,
        None if tree is None else tree.snapshot_digest(),
        manager.log_prefix_digest(wallet.wallet_id),
        tuple(getattr(policy, "programs", ())),
    )


def _ledger(ledger):
    return (
        ledger.ledger_digest(),
        ledger.snapshot(),
        len(ledger.gas_log),
        dict(ledger.committed_requests),
        dict(ledger.unlimited),
        dict(ledger.last_unlimited),
    )


def state_view(engine) -> tuple:
    """The parts ``state_digest`` hashes, as plain values."""
    dao, fallback, trigger = engine.dao, engine.fallback, engine.trigger
    return (
        tuple(
            (chain.snapshot_digest(), tuple(signed.digest for signed in chain.pending))
            for chain in (engine.chain, engine.reliable)
        ),
        tuple(_wallet(engine.manager, wallet) for wallet in engine.manager.wallets()),
        tuple((wallet_id, _ledger(ledger)) for wallet_id, ledger in engine.ledgers.items()),
        (
            dict(dao.proposals),
            dict(dao.enrollments),
            dict(dao.offers),  # an offer's repr holds its reservations
            dict(dao.delegations),
            dict(dao.cast),
        ),
        (
            fallback.version,
            tuple(fallback.pending_increases),
            fallback.last_flush,
            fallback.executed,
            tuple(getattr(repo.latest(), "version", None) for repo in fallback.repos),
        ),
        (trigger.state, trigger.challenge_record, trigger.triggered_at, dict(trigger.payouts)),
        engine.sentinel_up,
    )


def state_digest(engine) -> bytes:
    return crypto.digest(repr(state_view(engine)).encode())
