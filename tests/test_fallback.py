"""Fallback stack: secret shares, escrow, liveness trigger, key release."""

import itertools
import json

import pytest

from encumbra import crypto
from encumbra.assets import destination
from encumbra.errors import (
    AlreadyChallenged,
    AlreadyTriggered,
    BadDeposit,
    BadProof,
    InsufficientShares,
    NotChallenged,
    NotExpired,
    NotYetConfirmed,
    ReplicationTimeout,
    TooLate,
    UnknownWallet,
)
from encumbra.fallback import secretshare
from encumbra.fallback import system as fallback_system
from encumbra.fallback.escrow import (
    EncryptedBlob,
    StorageRepo,
    decrypt_state,
    encrypt_state,
    escrow_keypair,
    replicate_best_effort,
    replicate_blocking,
)
from encumbra.fallback.system import FallbackSystem, verify_released_key
from encumbra.fallback.trigger import TriggerContract, TriggerState, ping_message
from encumbra.manager import WalletManager
from encumbra.messages import signing_digest
from encumbra.policy.tree import ROOT_ID, Grant, PlayerController

SEED = crypto.digest(b"fallback-tests")
SECRET = crypto.digest(b"the-escrowed-secret")
WINDOW = 604_800
DEPOSIT = 10**17
D1 = b"\x51" * 20


# ----------------------------------------------------------------------
# secret sharing


def test_every_threshold_subset_reconstructs():
    for total in range(1, 6):
        for threshold in range(1, total + 1):
            shares = secretshare.split(SECRET, threshold, total, SEED)
            assert len(shares) == total
            for subset in itertools.combinations(shares, threshold):
                assert secretshare.reconstruct(subset) == SECRET


def test_below_threshold_never_yields_the_secret():
    for threshold in range(2, 6):
        shares = secretshare.split(SECRET, threshold, 6, SEED)
        for subset in itertools.combinations(shares, threshold - 1):
            try:
                wrong = secretshare.reconstruct(list(subset))
            except InsufficientShares:
                continue  # interpolated outside the 32-byte space
            assert wrong != SECRET


def test_split_validates_its_inputs():
    with pytest.raises(ValueError):
        secretshare.split(b"short", 2, 3, SEED)
    with pytest.raises(ValueError):
        secretshare.split(SECRET, 0, 3, SEED)
    with pytest.raises(ValueError):
        secretshare.split(SECRET, 4, 3, SEED)


def test_reconstruct_rejects_degenerate_inputs():
    shares = secretshare.split(SECRET, 2, 3, SEED)
    with pytest.raises(InsufficientShares):
        secretshare.reconstruct([])
    with pytest.raises(InsufficientShares):
        secretshare.reconstruct([shares[0], shares[0]])


def test_split_is_seeded():
    again = secretshare.split(SECRET, 3, 5, SEED)
    assert again == secretshare.split(SECRET, 3, 5, SEED)
    other = secretshare.split(SECRET, 3, 5, crypto.digest(b"other-seed"))
    assert other != again
    assert secretshare.reconstruct(other[:3]) == SECRET


# ----------------------------------------------------------------------
# escrow encryption


def test_escrow_roundtrip():
    secret, public = escrow_keypair(SEED)
    assert (secret, public) == escrow_keypair(SEED)
    blob = encrypt_state(public, b"wallet state", 1, SEED)
    assert decrypt_state(secret, blob) == b"wallet state"


def test_escrow_rejects_wrong_key_and_tampering():
    secret, public = escrow_keypair(SEED)
    blob = encrypt_state(public, b"wallet state", 1, SEED)

    impostor, _ = escrow_keypair(crypto.digest(b"impostor"))
    with pytest.raises(InsufficientShares):
        decrypt_state(impostor, blob)

    flipped = bytes([blob.ciphertext[0] ^ 1]) + blob.ciphertext[1:]
    tampered = EncryptedBlob(blob.version, blob.ephemeral_public, flipped)
    with pytest.raises(InsufficientShares):
        decrypt_state(secret, tampered)


def test_storage_repos_and_replication():
    _, public = escrow_keypair(SEED)
    blob1 = encrypt_state(public, b"v1", 1, SEED)
    blob2 = encrypt_state(public, b"v2", 2, SEED)

    down = StorageRepo("down", reachable=False)
    assert down.store(blob1) is False
    assert down.latest() is None

    up = StorageRepo("up")
    up.store(blob2)
    assert up.store(blob1) is True  # out of order: acknowledged, then dropped
    assert up.latest() is blob2

    with pytest.raises(ReplicationTimeout):
        replicate_blocking([down], blob1)
    assert replicate_best_effort([down], blob1) == 0
    assert replicate_blocking([down, up], blob1) == 1


# ----------------------------------------------------------------------
# liveness trigger


def _sentinel_key():
    return crypto.derive_signing_key(SEED, "sentinel")


def _signed_ping(key, at_time):
    ping = ping_message(at_time)
    return ping, key.sign(signing_digest(ping))


def test_challenge_gates():
    trigger = TriggerContract(_sentinel_key().public_key, window=WINDOW)
    with pytest.raises(BadDeposit):
        trigger.challenge("watcher", DEPOSIT - 1, now=100)
    trigger.challenge("watcher", DEPOSIT, now=100)
    assert trigger.state is TriggerState.CHALLENGED
    with pytest.raises(AlreadyChallenged):
        trigger.challenge("other", DEPOSIT, now=101)


def test_fresh_ping_defeats_the_challenge():
    key = _sentinel_key()
    trigger = TriggerContract(key.public_key, window=WINDOW)
    trigger.challenge("watcher", DEPOSIT, now=100)
    deadline = 100 + WINDOW
    ping, sig = _signed_ping(key, deadline - 1)
    trigger.respond("host", ping, sig, now=deadline - 1)
    assert trigger.state is TriggerState.DEFEATED
    assert trigger.payouts["host"] == DEPOSIT
    # a defeated challenge does not exhaust the contract
    trigger.challenge("watcher", DEPOSIT, now=deadline)
    assert trigger.state is TriggerState.CHALLENGED


def test_response_at_the_deadline_is_too_late():
    key = _sentinel_key()
    trigger = TriggerContract(key.public_key, window=WINDOW)
    trigger.challenge("watcher", DEPOSIT, now=100)
    ping, sig = _signed_ping(key, 100 + WINDOW - 1)
    with pytest.raises(TooLate):
        trigger.respond("host", ping, sig, now=100 + WINDOW)


def test_respond_rejects_bad_pings():
    key = _sentinel_key()
    trigger = TriggerContract(key.public_key, window=WINDOW)

    ping, sig = _signed_ping(key, 150)
    with pytest.raises(NotChallenged):
        trigger.respond("host", ping, sig, now=150)

    trigger.challenge("watcher", DEPOSIT, now=100)
    stale, stale_sig = _signed_ping(key, 99)  # predates the challenge
    with pytest.raises(BadProof):
        trigger.respond("host", stale, stale_sig, now=150)
    future, future_sig = _signed_ping(key, 100 + WINDOW)  # at the deadline
    with pytest.raises(BadProof):
        trigger.respond("host", future, future_sig, now=150)

    wrong_key = crypto.derive_signing_key(SEED, "not-the-sentinel")
    ping2, wrong_sig = _signed_ping(wrong_key, 150)
    with pytest.raises(BadProof):
        trigger.respond("host", ping2, wrong_sig, now=151)

    ping3, sig3 = _signed_ping(key, 150)
    forged = crypto.Signature(public_key=key.public_key, data=bytes(64))
    with pytest.raises(BadProof):
        trigger.respond("host", ping3, forged, now=151)
    assert trigger.state is TriggerState.CHALLENGED


def test_fire_only_after_the_window_lapses():
    key = _sentinel_key()
    trigger = TriggerContract(key.public_key, window=WINDOW, bounty=10**18)
    with pytest.raises(NotChallenged):
        trigger.fire(now=500)
    trigger.challenge("watcher", DEPOSIT, now=100)
    with pytest.raises(NotExpired):
        trigger.fire(now=100 + WINDOW)
    trigger.fire(now=100 + WINDOW + 1)
    assert trigger.state is TriggerState.TRIGGERED
    assert trigger.triggered_at == 100 + WINDOW + 1
    assert trigger.payouts["watcher"] == 10**18
    with pytest.raises(AlreadyTriggered):
        trigger.fire(now=100 + WINDOW + 2)
    with pytest.raises(AlreadyTriggered):
        trigger.challenge("watcher", DEPOSIT, now=100 + WINDOW + 2)


# ----------------------------------------------------------------------
# orchestration


def _stack(**kw):
    manager = WalletManager(crypto.digest(b"fallback-mgr"))
    manager.register_player("am")
    system = FallbackSystem(manager, SEED, **kw)
    return manager, system


def _unreachable(system):
    for repo in system.repos:
        repo.reachable = False


def test_new_wallets_replicate_synchronously():
    manager, system = _stack()
    wallet = manager.lw_gen("am", "w1", policy_kind="allow")
    assert system.version == 1
    for repo in system.repos:
        assert repo.latest().version == 1

    secret = secretshare.reconstruct(system.shares[: system.threshold])
    parsed = json.loads(decrypt_state(secret, system.repos[0].latest()))
    assert parsed["version"] == 1
    assert [w["id"] for w in parsed["wallets"]] == ["w1"]
    released_seed = bytes.fromhex(parsed["wallets"][0]["seed"])
    assert verify_released_key(released_seed, wallet.public_key)


def test_failed_replication_rolls_back_wallet_creation():
    manager, system = _stack()
    _unreachable(system)
    with pytest.raises(ReplicationTimeout):
        manager.lw_gen("am", "w1", policy_kind="allow")
    with pytest.raises(UnknownWallet):
        manager.wallet("w1")
    assert manager.wallets() == []


def test_privilege_increases_batch_until_the_timer():
    manager, system = _stack(batch_interval=3600)
    manager.lw_gen("am", "w1", policy_kind="tree", update_rule="tree")
    assert system.version == 1

    manager.spawn_node("am", "w1", ROOT_ID, "n1", PlayerController("renter"), 10**9, [])
    assert system.pending_increases == ["w1"]
    assert system.version == 1  # nothing pushed yet

    assert system.maybe_flush(now=3599) is False
    assert system.pending_increases == ["w1"]
    assert system.maybe_flush(now=3600) is True
    assert system.pending_increases == []
    assert system.version == 2
    assert system.maybe_flush(now=7300) is False  # queue is empty


def test_crash_before_flush_loses_only_permissiveness():
    manager, system = _stack()
    manager.lw_gen("am", "w1", policy_kind="tree", update_rule="tree")
    manager.spawn_node("am", "w1", ROOT_ID, "n1", PlayerController("renter"), 10**9, [])
    # a crash before the next flush loses the queued increase
    assert len(system.pending_increases) == 1
    system.pending_increases.clear()
    assert system.maybe_flush(now=10**6) is False
    # escrow still holds the version from before the lost increase
    assert system.version == 1


def test_privilege_decrease_rolls_back_when_replication_fails():
    manager, system = _stack()
    manager.lw_gen("am", "w1", policy_kind="tree", update_rule="tree")
    grant = Grant(destination(D1), 1, 0, 10**9)
    manager.spawn_node(
        "am", "w1", ROOT_ID, "n1", PlayerController("renter"), 10**9, [grant]
    )
    version_before = manager.wallet("w1").policy_version
    _unreachable(system)
    with pytest.raises(ReplicationTimeout):
        manager.seal_asset("am", "w1", "n1", destination(D1))
    tree = manager.tree_of("w1")
    assert tree.manual_seals == {}
    assert manager.wallet("w1").policy_version == version_before


def test_policy_swap_rolls_back_when_replication_fails():
    # allow -> deny is a privilege decrease, so it must replicate before
    # it stands; with no repository reachable the swap is undone whole
    manager, system = _stack()
    wallet = manager.lw_gen("am", "w1", policy_kind="allow", update_rule="any")
    policy_before, version_before = wallet.policy, wallet.policy_version
    _unreachable(system)
    with pytest.raises(ReplicationTimeout):
        manager.lw_update("am", "w1", "deny")
    assert manager.wallet("w1").policy is policy_before
    assert manager.wallet("w1").policy_version == version_before


def test_flush_without_acks_keeps_the_queue():
    manager, system = _stack()
    manager.lw_gen("am", "w1", policy_kind="tree", update_rule="tree")
    manager.spawn_node("am", "w1", ROOT_ID, "n1", PlayerController("renter"), 10**9, [])
    _unreachable(system)
    assert system.flush(now=5000) is False
    assert system.pending_increases == ["w1"]


def _escrow_state(manager, system):
    return (
        system.version,
        [repo.latest() for repo in system.repos],
        [(wallet.wallet_id, wallet.policy_version) for wallet in manager.wallets()],
    )


def test_a_refused_escrow_write_spends_no_version():
    """A write no repository acknowledged leaves the version and every
    replica as they were, so once the repositories return the next blob
    is byte for byte the one a world without the refused steps writes."""
    stacks = [_stack(), _stack()]
    for manager, system in stacks:
        manager.lw_gen("am", "w1", policy_kind="allow", update_rule="any")
        manager.lw_gen("am", "t1", policy_kind="tree", update_rule="tree")
        grant = Grant(destination(D1), 1, 0, 10**9)
        manager.spawn_node("am", "t1", ROOT_ID, "n1", PlayerController("renter"), 10**9, [grant])
    (manager, system), (twin_manager, twin) = stacks
    assert system.version == twin.version == 2

    _unreachable(system)
    before = _escrow_state(manager, system)
    refused = [
        lambda: manager.lw_gen("am", "w2", policy_kind="allow"),
        lambda: manager.seal_asset("am", "t1", "n1", destination(D1)),
        lambda: manager.lw_update("am", "w1", "deny"),
    ]
    for step in refused:
        with pytest.raises(ReplicationTimeout):
            step()
        assert _escrow_state(manager, system) == before
    assert system.flush(now=5000) is False
    assert _escrow_state(manager, system) == before
    assert system.pending_increases == ["t1"]

    for repo in system.repos:
        repo.reachable = True
    assert system.flush(now=5000) is True
    assert twin.flush(now=5000) is True
    assert system.version == 3
    assert _escrow_state(manager, system) == _escrow_state(twin_manager, twin)
    for world_manager in (manager, twin_manager):
        world_manager.lw_update("am", "w1", "deny")  # a blocking write
    assert system.version == 4
    assert _escrow_state(manager, system) == _escrow_state(twin_manager, twin)


def _live(manager):
    """Each wallet's id, policy object, tree object and version."""
    return [
        (w.wallet_id, w.policy, getattr(w.policy, "tree", None), w.policy_version)
        for w in manager.wallets()
    ]


def test_a_blocking_write_runs_before_the_change_is_installed(monkeypatch):
    """While a new wallet, a swap or a seal is written, the live world is
    still the one before it.  A refused write holds the change all the
    same: its plaintext is byte for byte what a twin with reachable
    repositories writes for the step."""
    steps = [
        lambda m: m.lw_gen("am", "w2", policy_kind="allow"),
        lambda m: m.lw_update("am", "w1", "deny"),
        lambda m: m.seal_asset("am", "t1", "n1", destination(D1)),
    ]
    writes = []
    encrypt = fallback_system.encrypt_state

    def recording(public, plaintext, version, seed):
        writes.append((version, plaintext, _live(manager), _live(twin_manager)))
        return encrypt(public, plaintext, version, seed)

    monkeypatch.setattr(fallback_system, "encrypt_state", recording)
    for step in steps:
        (manager, system), (twin_manager, twin) = _stack(), _stack()
        for world in (manager, twin_manager):
            world.lw_gen("am", "w1", policy_kind="allow", update_rule="any")
            world.lw_gen("am", "t1", policy_kind="tree", update_rule="tree")
            grant = Grant(destination(D1), 1, 0, 10**9)
            world.spawn_node("am", "t1", ROOT_ID, "n1", PlayerController("renter"), 10**9, [grant])
        writes.clear()
        before = (_live(manager), _live(twin_manager))
        _unreachable(system)
        with pytest.raises(ReplicationTimeout):
            step(manager)
        step(twin_manager)
        refusal, stored = writes
        assert refusal[2:] == stored[2:] == before
        assert refusal[:2] == stored[:2] and stored[0] == 3
        assert _live(manager) == before[0]
        assert _live(twin_manager) != before[1]


def _fired_trigger(at=WINDOW + 101):
    trigger = TriggerContract(_sentinel_key().public_key, window=WINDOW)
    trigger.challenge("watcher", DEPOSIT, now=100)
    trigger.fire(now=at)
    return trigger


# The reliable chain's finalized time, as the engine hands it in: the
# trigger fired at WINDOW + 101, and a finalized time at or after that
# has seen it.
SETTLED = WINDOW + 101


def test_execute_releases_every_wallet_once():
    manager, system = _stack()
    w1 = manager.lw_gen("am", "w1", policy_kind="allow")
    w2 = manager.lw_gen("am", "w2", policy_kind="tree", update_rule="tree")
    trigger = _fired_trigger()

    released = system.execute(system.shares[:3], trigger, SETTLED)
    assert set(released) == {"am"}
    by_id = dict(released["am"])
    assert verify_released_key(by_id["w1"], w1.public_key)
    assert verify_released_key(by_id["w2"], w2.public_key)

    with pytest.raises(AlreadyTriggered):
        system.execute(system.shares[:3], trigger, SETTLED)


def test_execute_gates_close_in_order():
    manager, system = _stack()
    manager.lw_gen("am", "w1", policy_kind="allow")

    idle = TriggerContract(_sentinel_key().public_key, window=WINDOW)
    with pytest.raises(NotChallenged):
        system.execute(system.shares[:3], idle, SETTLED)

    trigger = _fired_trigger()
    for unsettled in (0, SETTLED - 1):  # nothing final yet; one second short
        with pytest.raises(NotYetConfirmed):
            system.execute(system.shares[:3], trigger, unsettled)

    with pytest.raises(InsufficientShares):
        system.execute(system.shares[:2], trigger, SETTLED)

    wrong = secretshare.split(crypto.digest(b"not-the-escrow"), 3, 5, SEED)
    with pytest.raises(InsufficientShares):
        system.execute(wrong[:3], trigger, SETTLED)

    empty = [StorageRepo("empty")]
    with pytest.raises(InsufficientShares):
        system.execute(system.shares[:3], trigger, SETTLED, repos=empty)

    assert system.executed is False  # none of the failures consumed the release


def test_release_prefers_the_newest_decryptable_replica():
    manager, system = _stack()
    manager.lw_gen("am", "w1", policy_kind="allow")
    v1 = system.repos[0].latest()
    manager.lw_gen("am", "w2", policy_kind="allow")
    v2 = system.repos[0].latest()
    assert (v1.version, v2.version) == (1, 2)

    flipped = bytes([v2.ciphertext[0] ^ 1]) + v2.ciphertext[1:]
    corrupted = StorageRepo("corrupted")
    corrupted.store(EncryptedBlob(v2.version, v2.ephemeral_public, flipped))
    stale = StorageRepo("stale")
    stale.store(v1)

    released = system.execute(
        system.shares[:3], _fired_trigger(), SETTLED, repos=[corrupted, stale]
    )
    # the tampered newest replica fails authentication; the release
    # falls back to the intact older version, which predates w2
    assert [wid for wid, _ in released["am"]] == ["w1"]


def _held_text(value):
    """Every str reachable from ``value`` through containers and instance
    attributes; bytes are given as their hex and as latin-1 text."""
    pending, seen = [value], set()
    while pending:
        item = pending.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, str):
            yield item
        elif isinstance(item, (bytes, bytearray)):
            yield item.hex()
            yield item.decode("latin-1")
        elif isinstance(item, dict):
            pending.extend(item.keys())
            pending.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            pending.extend(item)
        elif hasattr(item, "__dict__"):
            pending.extend(vars(item).values())


def test_release_leaves_no_key_material_on_the_fallback():
    manager, system = _stack()
    manager.lw_gen("am", "w1", policy_kind="allow")
    manager.lw_gen("am", "w2", policy_kind="tree", update_rule="tree")
    released = system.execute(system.shares[:3], _fired_trigger(), SETTLED)
    seeds = [seed.hex() for pairs in released.values() for _, seed in pairs]
    assert len(seeds) == 2
    # The manager holds the wallet keys by design; everything else the
    # fallback keeps must not hold a released seed once the release is done.
    kept = {name: value for name, value in vars(system).items() if name != "manager"}
    held = list(_held_text(kept))
    assert not [seed for seed in seeds if any(seed in text for text in held)]


def test_no_seed_rests_on_the_fallback_between_writes():
    """The fallback keeps each wallet's text for the next write, but
    never a seed: after a new-wallet write, a seal write and a flush,
    and before any release, nothing it holds but the manager carries a
    wallet's seed."""
    manager, system = _stack()
    manager.lw_gen("am", "w1", policy_kind="allow")
    manager.lw_gen("am", "w2", policy_kind="tree", update_rule="tree")
    grant = Grant(destination(D1), 1, 0, 10**9)
    manager.spawn_node("am", "w2", ROOT_ID, "n1", PlayerController("renter"), 10**9, [grant])
    manager.seal_asset("am", "w2", "n1", destination(D1))
    manager.unseal_asset("am", "w2", destination(D1))
    assert system.flush(now=3600)
    assert system.version == 4
    seeds = [wallet.key.seed_bytes().hex() for wallet in manager.wallets()]
    kept = {name: value for name, value in vars(system).items() if name != "manager"}
    held = list(_held_text(kept))
    assert not [seed for seed in seeds if any(seed in text for text in held)]


def test_verify_released_key_checks_the_public_half():
    key = crypto.derive_signing_key(SEED, "wallet")
    assert verify_released_key(key.seed_bytes(), key.public_key)
    other = crypto.derive_signing_key(SEED, "other")
    assert not verify_released_key(key.seed_bytes(), other.public_key)
