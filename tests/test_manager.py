"""Wallet registry: key custody, signing, updates, attestations."""

import hashlib
import json
from pathlib import Path

import pytest

from encumbra import crypto
from encumbra.assets import NATIVE, destination
from encumbra.errors import (
    PolicyRefusal,
    ReplicationTimeout,
    UnknownPlayer,
    UnknownPolicy,
    UnknownWallet,
    UpdateRefused,
)
from encumbra.manager import WalletManager, attestation_digest
from encumbra.messages import ChainTx, PersonalSign, signing_digest
from encumbra.policy.tree import Grant, PlayerController, ROOT_ID
from encumbra.state import GENESIS_ORACLE, OracleState
from tests.oracles.decoderef import decode_message

SEED = crypto.digest(b"manager-tests")
FIXTURES = Path(__file__).parent / "fixtures"
ETH = 10**18
D1 = b"\x71" * 20


def _manager(ost_provider=None):
    manager = WalletManager(SEED, ost_provider)
    for name in ("am", "alice", "bob"):
        manager.register_player(name)
    return manager


def _tree_wallet(manager, wallet_id="w", capacity=10 * ETH):
    manager.lw_gen(
        access_manager="am", wallet_id=wallet_id, policy_kind="tree",
        update_rule="tree", native_capacity=capacity,
    )
    manager.spawn_node(
        "am", wallet_id, ROOT_ID, "anode", PlayerController("alice"), 1000,
        [Grant(NATIVE, ETH, 0, 1000), Grant(destination(D1), 1, 0, 1000)],
    )
    return manager.wallet(wallet_id)


def test_new_wallets_refuse_by_default():
    manager = _manager()
    wallet = manager.lw_gen(access_manager="am", wallet_id="w0")
    assert manager.wallet("w0") is wallet
    with pytest.raises(PolicyRefusal):
        manager.lw_sign("am", "w0", PersonalSign(b"no"))
    assert wallet.intst == []


def test_lw_gen_validation():
    manager = _manager()
    with pytest.raises(UnknownPlayer):
        manager.lw_gen(access_manager="ghost", wallet_id="w1")
    manager.lw_gen(access_manager="am", wallet_id="w1")
    with pytest.raises(UpdateRefused):
        manager.lw_gen(access_manager="am", wallet_id="w1")
    with pytest.raises(UnknownPolicy):
        manager.lw_gen(access_manager="am", wallet_id="w2", update_rule="maybe")
    with pytest.raises(UnknownPolicy):
        manager.lw_gen(access_manager="am", wallet_id="w3", policy_kind="vibes")
    with pytest.raises(UnknownWallet):
        manager.wallet("never")


def test_equal_seeds_mint_equal_wallet_keys():
    one = WalletManager(SEED)
    one.register_player("am")
    w1 = one.lw_gen(access_manager="am", wallet_id="first")

    two = WalletManager(SEED)
    two.register_player("zed")  # different player set, same wallet index
    two.register_player("am")
    w2 = two.lw_gen(access_manager="am", wallet_id="renamed")
    assert w1.public_key == w2.public_key
    assert w1.address == w2.address
    w3 = two.lw_gen(access_manager="am", wallet_id="second")
    assert w3.public_key != w2.public_key


def test_allow_wallet_signs_and_logs():
    manager = _manager(
        lambda wallet: OracleState(chain_time=123, block_hashes=(), recognized_nonce=7)
    )
    wallet = manager.lw_gen(access_manager="am", wallet_id="w", policy_kind="allow")
    message = PersonalSign(b"approved payload")
    sig = manager.lw_sign("alice", "w", message)
    assert crypto.verify(sig, signing_digest(message))
    assert sig.public_key == wallet.public_key
    assert len(wallet.intst) == 1
    entry = wallet.intst[0]
    assert entry.player == "alice"
    assert entry.message == message
    assert entry.node_id is None
    assert entry.ost.chain_time == 123
    again = manager.lw_sign("alice", "w", message)
    assert again == sig  # deterministic scheme
    assert len(wallet.intst) == 2
    with pytest.raises(UnknownPlayer):
        manager.lw_sign("ghost", "w", message)
    with pytest.raises(UnknownWallet):
        manager.lw_sign("alice", "ghost", message)


def test_tree_wallet_logs_the_vouching_node():
    manager = _manager()
    wallet = _tree_wallet(manager)
    tx = ChainTx(1, 0, 0, 0, D1, ETH // 2)
    manager.lw_sign("alice", "w", tx)
    assert wallet.intst[-1].node_id == "anode"
    with pytest.raises(PolicyRefusal):
        manager.lw_sign("bob", "w", tx)
    assert len(wallet.intst) == 1  # refusals never touch the log


def test_refusals_are_uniform():
    manager = _manager()
    _tree_wallet(manager)
    causes = []
    for player, message in [
        ("bob", ChainTx(1, 0, 0, 0, D1, 1)),          # wrong player
        ("alice", ChainTx(1, 0, 0, 0, b"\x01" * 20, 1)),  # no grant
        ("alice", ChainTx(1, 0, 0, 0, D1, 2 * ETH)),  # over the cap
    ]:
        with pytest.raises(PolicyRefusal) as info:
            manager.lw_sign(player, "w", message)
        causes.append((str(info.value), info.value.code))
    assert len(set(causes)) == 1
    assert causes[0][1] == "PolicyRefusal"


def test_update_refusals_are_uniform_to_an_outsider():
    # bob's rent holds a destination until 1000; eve controls nothing.
    # Whatever her attempt would reveal (which destinations are taken,
    # which node ids exist, a grant's window), she sees one refusal and
    # the wallet does not change.
    manager = _manager()
    manager.register_player("eve")
    _tree_wallet(manager)
    shop, other = destination(b"\x5a" * 20), destination(b"\x5b" * 20)
    manager.spawn_node(
        "am", "w", ROOT_ID, "rent", PlayerController("bob"), 1000,
        [Grant(shop, 1, 0, 1000)],
    )
    wallet = manager.wallet("w")
    before, version = manager.tree_of("w"), wallet.policy_version

    def spawn(parent, expiry, *grants):
        return lambda: manager.spawn_node(
            "eve", "w", parent, "probe", PlayerController("eve"), expiry, list(grants)
        )

    attempts = [
        spawn(ROOT_ID, 1000, Grant(shop, 1, 0, 1000)),    # a delegated destination
        spawn(ROOT_ID, 1000, Grant(other, 1, 0, 1000)),   # a free one
        spawn("nosuch", 1000),                            # an unknown node id
        spawn("rent", 2000),                              # outlives rent's window
        spawn("rent", 1000, Grant(other, 1, 0, 500)),     # nothing rent holds
        spawn("rent", 1000, Grant(shop, 1, 0, 500)),      # inside rent's window
        spawn("rent", 1000),                              # an empty node
        lambda: manager.add_node_grants("eve", "w", "rent", []),
        lambda: manager.seal_asset("eve", "w", "nosuch", shop),
        lambda: manager.seal_asset("eve", "w", "rent", shop),
        lambda: manager.unseal_asset("eve", "w", shop),
    ]
    causes = set()
    for attempt in attempts:
        with pytest.raises(UpdateRefused) as info:
            attempt()
        causes.add((type(info.value), str(info.value), info.value.code))
        assert manager.tree_of("w") is before
        assert wallet.policy_version == version
    assert causes == {(UpdateRefused, "UpdateRefused", "UpdateRefused")}


def test_lw_update_rules():
    manager = _manager()
    manager.lw_gen(access_manager="am", wallet_id="w", policy_kind="deny",
                   update_rule="any")
    message = PersonalSign(b"x")
    with pytest.raises(PolicyRefusal):
        manager.lw_sign("alice", "w", message)
    with pytest.raises(UpdateRefused):
        manager.lw_update("alice", "w", "allow")  # only the access manager
    manager.lw_update("am", "w", "allow")
    manager.lw_sign("alice", "w", message)
    with pytest.raises(UnknownPolicy):
        manager.lw_update("am", "w", "sometimes")
    manager.lw_update("am", "w", "deny")
    with pytest.raises(PolicyRefusal):
        manager.lw_sign("alice", "w", message)

    manager.lw_gen(access_manager="am", wallet_id="frozen", policy_kind="deny",
                   update_rule="frozen")
    with pytest.raises(UpdateRefused):
        manager.lw_update("am", "frozen", "allow")

    manager.lw_gen(access_manager="am", wallet_id="treed", policy_kind="tree",
                   update_rule="tree")
    with pytest.raises(UpdateRefused):
        manager.lw_update("am", "treed", "allow")


def test_registry_wallets_hold_no_tree():
    manager = _manager()
    manager.lw_gen(access_manager="am", wallet_id="w", policy_kind="allow")
    with pytest.raises(UnknownPolicy):
        manager.tree_of("w")
    with pytest.raises(UnknownPolicy):
        manager.spawn_node("am", "w", ROOT_ID, "n", PlayerController("alice"),
                           10, [])
    with pytest.raises(UnknownPolicy):
        manager.add_node_grants("am", "w", "n", [])


def test_seal_permissions():
    manager = _manager()
    _tree_wallet(manager)
    asset = destination(D1)
    # the node's controller may seal its own asset
    manager.seal_asset("alice", "w", "anode", asset)
    assert manager.tree_of("w").manual_seals[asset.encode()] == "anode"
    # only the access manager may unseal
    with pytest.raises(UpdateRefused):
        manager.unseal_asset("alice", "w", asset)
    manager.unseal_asset("am", "w", asset)
    assert asset.encode() not in manager.tree_of("w").manual_seals
    with pytest.raises(UpdateRefused):
        manager.seal_asset("bob", "w", "anode", asset)


def test_seal_and_unseal_install_a_new_tree():
    manager = _manager()
    _tree_wallet(manager)
    asset = destination(D1)
    before = manager.tree_of("w")
    nodes, seals = dict(before.nodes), dict(before.manual_seals)
    manager.seal_asset("alice", "w", "anode", asset)
    sealed = manager.tree_of("w")
    assert sealed is not before
    assert (before.nodes, before.manual_seals) == (nodes, seals)
    manager.unseal_asset("am", "w", asset)
    assert manager.tree_of("w") is not sealed
    assert sealed.manual_seals == {asset.encode(): "anode"}


def test_failed_replication_rolls_back():
    manager = _manager()

    def down(wallet_id, change_class):
        raise ReplicationTimeout("escrow store unreachable")

    manager.on_policy_change = down
    with pytest.raises(ReplicationTimeout):
        manager.lw_gen(access_manager="am", wallet_id="w")
    with pytest.raises(UnknownWallet):
        manager.wallet("w")

    manager.on_policy_change = None
    _tree_wallet(manager)
    manager.on_policy_change = down
    with pytest.raises(ReplicationTimeout):
        manager.spawn_node("am", "w", ROOT_ID, "extra", PlayerController("bob"),
                           10, [])
    assert "extra" not in manager.tree_of("w").nodes
    with pytest.raises(ReplicationTimeout):
        manager.seal_asset("am", "w", "anode", destination(D1))
    assert manager.tree_of("w").manual_seals == {}
    manager.on_policy_change = None


def test_policy_version_counts_updates():
    manager = _manager()
    wallet = manager.lw_gen(access_manager="am", wallet_id="w", update_rule="any")
    start = wallet.policy_version
    manager.lw_update("am", "w", "allow")
    assert wallet.policy_version == start + 1


def test_lw_verify_predicates():
    ost = [GENESIS_ORACLE]  # the oracle state the wallet sees; swapped below
    manager = _manager(lambda wallet: ost[0])
    wallet = _tree_wallet(manager)
    inside = ChainTx(1, 0, 0, 0, D1, ETH)
    outside = ChainTx(1, 0, 0, 0, b"\x02" * 20, 0)

    ok, sig1 = manager.lw_verify("w", "alice", [inside], ("approves-all",))
    assert ok
    ok, _ = manager.lw_verify("w", "alice", [inside, outside], ("approves-all",))
    assert not ok
    ok, _ = manager.lw_verify("w", "alice", [outside], ("approves-none",))
    assert ok
    ok, _ = manager.lw_verify("w", "bob", [inside], ("approves-none",))
    assert ok
    assert wallet.intst == []  # attestation is side-effect free

    # determinism: re-asking in the same state returns the identical
    # attestation
    ok, sig2 = manager.lw_verify("w", "alice", [inside], ("approves-all",))
    assert (ok, sig2) == (True, sig1)
    assert sig2.public_key == wallet.public_key

    manager.lw_sign("alice", "w", inside)
    ok, _ = manager.lw_verify("w", "anyone", [inside], ("log-contains-all",))
    assert ok
    ok, _ = manager.lw_verify("w", "anyone", [outside], ("log-contains-all",))
    assert not ok
    ok, _ = manager.lw_verify("w", "anyone", [outside], ("log-contains-none",))
    assert ok

    ost[0] = OracleState(chain_time=0, block_hashes=(), recognized_nonce=4)
    assert manager.lw_verify("w", "s", [], ("nonce-at-least", 4))[0]
    assert not manager.lw_verify("w", "s", [], ("nonce-at-least", 5))[0]

    prefix = manager.log_prefix_digest("w", 1)
    assert manager.lw_verify("w", "s", [], ("log-extends", prefix.hex(), 1))[0]
    assert not manager.lw_verify("w", "s", [], ("log-extends", prefix.hex(), 2))[0]
    assert not manager.lw_verify(
        "w", "s", [], ("log-extends", crypto.digest(b"x").hex(), 1)
    )[0]

    for unknown in (("is-nice",), ()):
        with pytest.raises(UnknownPolicy):
            manager.lw_verify("w", "s", [], unknown)

    # the logged `inside` spent alice's whole 1 ETH cap, so the verdict
    # flips; a different verdict or subject binds to different bytes
    ok, sig4 = manager.lw_verify("w", "alice", [inside], ("approves-all",))
    assert not ok
    assert sig4 != sig1
    _, sig3 = manager.lw_verify("w", "bob", [inside], ("approves-all",))
    assert sig3 != sig1
    assert sig3 != sig4


def test_log_prefix_digest_chains():
    manager = _manager()
    manager.lw_gen(access_manager="am", wallet_id="w", policy_kind="allow")
    manager.lw_sign("alice", "w", PersonalSign(b"one"))
    first = manager.log_prefix_digest("w")
    manager.lw_sign("alice", "w", PersonalSign(b"two"))
    assert manager.log_prefix_digest("w", 1) == first
    assert manager.log_prefix_digest("w") != first


def _framed(text):
    raw = text.encode()
    return len(raw).to_bytes(4, "big") + raw


# A malformed argument makes the predicate unknown, as an unknown name
# does: UnknownPolicy, raised before anything is signed.
HEX32 = crypto.digest(b"arg").hex()


def _refuses_before_signing(monkeypatch, predicates):
    manager = _manager()
    _tree_wallet(manager)
    signed = []
    sign = crypto.SigningKey.sign
    monkeypatch.setattr(
        crypto.SigningKey, "sign", lambda key, payload: signed.append(payload) or sign(key, payload)
    )
    for predicate in predicates:
        with pytest.raises(UnknownPolicy):
            manager.lw_verify("w", "s", [], predicate)
    assert signed == []


def test_nonce_at_least_refuses_a_malformed_argument(monkeypatch):
    _refuses_before_signing(monkeypatch, [
        ("nonce-at-least",), ("nonce-at-least", 4, 5),  # arity
        ("nonce-at-least", "four"), ("nonce-at-least", "4.5"), ("nonce-at-least", 4.5),
        ("nonce-at-least", None), ("nonce-at-least", True), ("nonce-at-least", -1),
    ])


def test_log_extends_refuses_a_malformed_argument(monkeypatch):
    _refuses_before_signing(monkeypatch, [
        ("log-extends", HEX32), ("log-extends", HEX32, 1, 2),  # arity
        ("log-extends", "zz", 1), ("log-extends", b"\x00" * 32, 1), ("log-extends", None, 1),
        ("log-extends", HEX32, "one"), ("log-extends", HEX32, -1),
    ])


def test_never_claimed_refuses_a_malformed_argument(monkeypatch):
    # ``w`` holds no ledger, so the arguments are read before the ledger is
    _refuses_before_signing(monkeypatch, [
        ("never-claimed", HEX32), ("never-claimed", HEX32, HEX32, HEX32),  # arity
        ("never-claimed", "not hex", HEX32), ("never-claimed", HEX32, "not hex"),
        ("never-claimed", None, HEX32), ("never-claimed", HEX32, 7),
    ])


def test_argument_less_predicates_refuse_an_argument(monkeypatch):
    _refuses_before_signing(monkeypatch, [
        (name, *args)
        for name in ("approves-all", "approves-none", "log-contains-all", "log-contains-none")
        for args in (("junk", 7), ("",), (None,))
    ])


def test_frozen_attestation_vectors():
    """The attestation preimage, assembled by hand from the layout in
    docs/encoding.md, matches the frozen bytes and what lw_verify signs."""
    data = json.loads((FIXTURES / "attestation_vectors.json").read_text(encoding="utf-8"))
    assert len(data["vectors"]) >= 3
    for vector in data["vectors"]:
        fields = vector["fields"]
        encodings = [bytes.fromhex(m) for m in fields["messages_hex"]]
        name, *args = fields["predicate"]
        preimage = (
            b"attest-v2"
            + _framed(fields["wallet_id"])
            + _framed(fields["subject"])
            + len(encodings).to_bytes(4, "big")
            + b"".join(encodings)
            + _framed(name)
            + len(args).to_bytes(4, "big")
            + b"".join(_framed(str(arg)) for arg in args)
            + bytes([fields["verdict"]])
        )
        assert preimage.hex() == vector["preimage_hex"], vector["name"]
        assert hashlib.sha256(preimage).hexdigest() == vector["digest_hex"], vector["name"]
        digest = attestation_digest(
            fields["wallet_id"],
            fields["subject"],
            [decode_message(e) for e in encodings],
            tuple(fields["predicate"]),
            fields["verdict"],
        )
        assert digest.hex() == vector["digest_hex"], vector["name"]


def test_an_attestation_frames_every_field():
    manager = _manager()
    wallet = _tree_wallet(manager)
    inside = ChainTx(1, 0, 0, 0, D1, ETH)
    ok, signature = manager.lw_verify("w", "alice", [inside], ("approves-all",))
    digest = attestation_digest("w", "alice", [inside], ("approves-all",), ok)
    assert crypto.verify(signature, digest)
    assert signature.public_key == wallet.public_key
    # an empty argument is an argument: the two predicates attest apart
    # (``lw_verify`` refuses the padded one, as the test above shows)
    assert attestation_digest("w", "alice", [inside], ("approves-all", ""), ok) != digest
    # no joiner inside a field can stand for a field boundary
    assert attestation_digest("w", "s", [], ("p", "a,b"), True) != attestation_digest(
        "w", "s", [], ("p", "a", "b"), True
    )
    assert attestation_digest("w", "s\x00x", [], ("p",), True) != attestation_digest(
        "w\x00s", "x", [], ("p",), True
    )
