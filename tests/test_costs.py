"""Cost contracts: the work a command does, counted rather than timed.

Each contract runs one command against two sizes of history and asserts
that the counted units do not grow with the history.  Contracts on the
wallet side (spawn checks, seal scans, escrow fragments) reuse the
wallet and tree builders of the tests for those layers.
"""

import collections
from functools import cached_property
from importlib import resources

import pytest

from encumbra import crypto, simchain
from encumbra.assets import NATIVE, destination
from encumbra.config import ORACLE_MODES
from encumbra.errors import NotYetConfirmed, PolicyRefusal
from encumbra.fallback import system as fallback_system
from encumbra.fallback.system import FallbackSystem
from encumbra.manager import WalletManager
from encumbra.merkle import EMPTY_ROOT, MerklePath, merkle_levels, merkle_path, verify_path
from encumbra.messages import ChainTx, signing_digest
from encumbra.policy.tree import ROOT_ID, Grant, PlayerController, PolicyTree
from encumbra.policy.update import spawn
from encumbra.scenario import ScenarioRunner, parse_scenario
from encumbra.simchain import InclusionProof, SignedTx, SimChain, delay_bounds
from encumbra.state import GENESIS_ORACLE, OracleState, StateTriple
from tests.test_escrow_bytes import builds  # a fixture: pytest finds it by name
from tests.test_manager import D1, ETH, _manager, _tree_wallet
from tests.test_policy_update import D1 as TREE_DEST
from tests.test_policy_update import _deep_tree, _pc, _st, _wide_tree

SEED = crypto.digest(b"cost-contracts")
INTERVAL = 12
# Later than any height's confirmation.
FAR_FUTURE = 10**12
# The default delay means with no deviation: every height draws the same
# delays, so the window a read walks has the same length at any age.
FIXED = {"latest": (49.0, 0.0), "justified": (648.7, 0.0), "finalized": (1036.9, 0.0)}


@pytest.fixture
def draws(monkeypatch):
    """The (height, mode) of each delay ``SimChain`` draws, in draw
    order: one entry per ``sample_delay`` call."""
    drawn = []
    real = simchain.sample_delay

    def counting(seed, label, mode, height, mean, stddev):
        drawn.append((height, mode))
        return real(seed, label, mode, height, mean, stddev)

    monkeypatch.setattr(simchain, "sample_delay", counting)
    return drawn


def _heights(draws):
    return {height for height, _ in draws}


@pytest.mark.parametrize("models", [FIXED, None], ids=["fixed", "default"])
@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_an_oracle_read_draws_the_window_not_the_chain(mode, models, draws):
    """A read at the tip time draws at most the heights within the delay
    bound of it, on a chain of 100 blocks as on one of 1,000; a read
    past every confirmation draws none."""
    counts = []
    for blocks in (100, 1000):
        chain = SimChain(SEED, block_interval=INTERVAL, delay_models=models)
        chain.advance(INTERVAL * blocks)
        del draws[:]
        chain.confirmed_height(mode)
        counts.append(len(_heights(draws)))

        late = SimChain(SEED, block_interval=INTERVAL, delay_models=models)
        late.advance(INTERVAL * blocks)
        del draws[:]
        assert late.confirmed_height(mode, at_time=FAR_FUTURE) == blocks
        assert draws == []
    window = delay_bounds(chain.delay_models)[mode] // INTERVAL + 1
    assert max(counts) <= window
    if models is FIXED:
        assert counts[0] == counts[1]


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_a_later_read_resumes_from_the_last_answer(mode, draws):
    """Reads at a clock that only moves forward draw each height about
    once: a read draws at the heights its answer moved past, plus the one
    that ends its walk, however old the chain."""
    chain = SimChain(SEED, block_interval=INTERVAL)
    chain.advance(INTERVAL * 1000)
    answer = chain.confirmed_height(mode)
    for _ in range(50):
        del draws[:]
        assert chain.confirmed_height(mode) == answer
        assert len(_heights(draws)) <= 1
        chain.advance(INTERVAL)
        del draws[:]
        previous, answer = answer, chain.confirmed_height(mode)
        assert len(_heights(draws)) <= answer - previous + 1


def test_a_finalized_read_draws_at_most_two_modes_a_height(draws):
    """Under the default models a finalized read draws at most two modes
    per newly confirmed height, plus one for the height that ends its
    walk, and never ``latest``: its raw bound lies within every slack a
    finalized walk meets."""
    chain = SimChain(SEED, block_interval=INTERVAL)
    chain.advance(INTERVAL * 1000)
    start = (chain.time - delay_bounds(chain.delay_models)["finalized"]) // INTERVAL
    answer = chain.confirmed_height("finalized")
    assert len(draws) <= 2 * (answer - start) + 1
    for _ in range(200):
        chain.advance(INTERVAL)
        del draws[:]
        previous, answer = answer, chain.confirmed_height("finalized")
        assert len(draws) <= 2 * (answer - previous) + 1
        assert all(mode != "latest" for _, mode in draws)


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_a_proof_reads_the_oracle_only_through_its_height(mode, draws):
    """After 100 or 1,000 blocks, with txs at the last settled height and
    across the delay window above it up to the tip, a proof of a tx
    the delay bound settles draws nothing, and a proof of a tx inside
    the window draws no height above the tx, whether it is issued or
    refused.  Proven oldest first, so each walk resumes from the last."""
    key = crypto.derive_signing_key(SEED, "acct", "payer")
    bound = delay_bounds(SimChain(SEED).delay_models)[mode]
    for blocks in (100, 1000):
        chain = SimChain(SEED, block_interval=INTERVAL)
        chain.fund(key.address, 10**6)
        # the proofs are asked at ``now``, where the bound settles ``blocks``
        now = INTERVAL * blocks + bound
        tip = now // INTERVAL
        heights = []
        for nonce, height in enumerate([*range(blocks, tip, max(1, (tip - blocks) // 8)), tip]):
            chain.advance(INTERVAL * (height - 1 - chain.height))
            tx = ChainTx(1, nonce, 0, 0, b"\x01" * 20, 1)
            signed = SignedTx(tx=tx, signature=key.sign(signing_digest(tx)))
            heights.append((height, chain.submit(signed)))
            chain.advance(INTERVAL)
        chain.advance(now - chain.time)
        settled = (now - bound) // INTERVAL
        assert heights[0][0] == settled == blocks
        issued = []
        for height, digest in heights:
            del draws[:]
            try:
                assert chain.prove_inclusion(digest, mode).block_height == height
                issued.append(height)
            except NotYetConfirmed:
                pass
            assert max(_heights(draws), default=0) <= height
            if height <= settled:
                assert draws == [] and issued == [height]
        # some tx inside the window confirms, and one at the tip does not
        assert settled < issued[-1] < tip


def _count_calls(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("pool", ["empty", "waiting"])
def test_an_advance_sweeps_once_and_hashes_each_later_height(pool, monkeypatch):
    """An advance over 100 or 1,000 intervals builds no ``Block``, at
    most one set of Merkle levels, and hashes no header, the height that
    holds txs included; a pool whose txs wait on a nonce gap changes
    none of that.  Asking for the recent hashes hashes nothing; the
    first read of the window hashes each of the new heights once, and a
    second read hashes none."""
    key = crypto.derive_signing_key(SEED, "acct", "payer")

    def signed(nonce):
        tx = ChainTx(1, nonce, 0, 0, b"\x01" * 20, 1)
        return SignedTx(tx=tx, signature=key.sign(signing_digest(tx)))

    counts = dict.fromkeys(("Block", "merkle_levels", "digest"), 0)
    _count_calls(monkeypatch, simchain, "Block", counts)
    _count_calls(monkeypatch, simchain, "merkle_levels", counts)
    _count_calls(monkeypatch, crypto, "digest", counts)
    for intervals in (100, 1000):
        chain = SimChain(SEED, block_interval=INTERVAL)
        chain.fund(key.address, 10**6)
        if pool == "waiting":
            chain.submit(signed(0))
            for nonce in range(2, 50):
                chain.submit(signed(nonce))  # nonce 1 never comes
        for name in counts:
            counts[name] = 0
        assert len(chain.advance(INTERVAL * intervals)) == intervals
        if pool == "waiting":
            # the first height holds nonce 0: one Merkle build over one
            # leaf (one hash), and no header hash
            assert counts == {"Block": 0, "merkle_levels": 1, "digest": 1}
            assert len(chain.pending) == 48
        else:
            assert counts == {"Block": 0, "merkle_levels": 0, "digest": 0}
        counts["digest"] = 0
        recent = chain.recent_block_hashes()
        assert len(recent) == 8 and counts["digest"] == 0
        hashes = tuple(recent)
        assert counts["digest"] == intervals
        counts["digest"] = 0
        assert tuple(recent) == hashes and chain.recent_block_hashes() == recent
        assert counts["digest"] == 0
        assert recent[-1] == chain.tip().block_hash


def test_a_recovery_hashes_no_reliable_header(monkeypatch):
    """The fallback drill runs its reliable chain past 1,000 heights, and
    ``recover`` reads the finalized time without a header: the reliable
    chain hashes genesis only."""
    text = resources.files("encumbra.scenarios").joinpath("fallback.scn").read_text()
    runner = ScenarioRunner(parse_scenario(text, name="fallback"))
    recovered = []
    real = runner.engine.recover

    def counting(*args, **kwargs):
        released = real(*args, **kwargs)
        recovered.append(released)
        return released

    monkeypatch.setattr(runner.engine, "recover", counting)
    runner.run()
    reliable = runner.engine.reliable
    assert reliable.block_interval == 600 and reliable.height > 1000
    assert recovered
    assert reliable._hashes == [reliable.header(0).block_hash]


def test_verifying_a_proof_at_an_empty_height_hashes_no_header(monkeypatch):
    """A proof that cites an empty height is checked against the empty
    root: its leaf is the one hash, and no header is hashed."""
    chain = SimChain(SEED, block_interval=INTERVAL)
    chain.advance(INTERVAL * 1000)
    counts = dict.fromkeys(("block_hash", "digest"), 0)
    _count_calls(monkeypatch, simchain, "block_hash", counts)
    _count_calls(monkeypatch, crypto, "digest", counts)
    proof = InclusionProof(EMPTY_ROOT, 500, MerklePath(index=0, siblings=()))
    assert not chain.verify_proof(proof)
    assert counts == {"block_hash": 0, "digest": 1}
    assert len(chain._hashes) == 1


def test_a_command_hashes_no_header(monkeypatch):
    """Every step of the four bundled scenarios, engine construction
    included, hashes no block header: a signature's oracle snapshot
    keeps a window of hashes that is read only when the snapshot is
    encoded.  Encoding every wallet's log and both chains' snapshots
    afterwards hashes each height of each chain at most once."""
    hashed = []
    real = simchain.block_hash

    def recording(height, parent_hash, tx_root, timestamp):
        hashed.append((height, timestamp))
        return real(height, parent_hash, tx_root, timestamp)

    monkeypatch.setattr(simchain, "block_hash", recording)
    for name in ("lifecycle", "txcycle", "darkdao", "fallback"):
        text = resources.files("encumbra.scenarios").joinpath(f"{name}.scn").read_text()
        runner = ScenarioRunner(parse_scenario(text, name=name))
        runner.run()
        assert hashed == [], name
        engine = runner.engine
        wallets = engine.manager.wallets()
        assert any(wallet.intst for wallet in wallets)
        for wallet in wallets:
            engine.manager.log_prefix_digest(wallet.wallet_id)
        for chain in (engine.chain, engine.reliable):
            chain.snapshot_digest()
        # heights 1..tip of each chain, each once (genesis is a constant)
        assert sorted(hashed) == sorted(
            (height, height * chain.block_interval)
            for chain in (engine.chain, engine.reliable)
            for height in range(1, chain.height + 1)
        ), name
        del hashed[:]


@pytest.mark.parametrize("leaves", [2, 300, 2000])
def test_a_merkle_path_reads_log2_stored_siblings(leaves, monkeypatch):
    """A proof out of stored levels hashes nothing and carries one
    sibling per level below the root: ceil(log2 n) of them."""
    levels = merkle_levels([i.to_bytes(32, "big") for i in range(leaves)])
    counts = {"digest": 0}
    _count_calls(monkeypatch, crypto, "digest", counts)
    for index in (0, leaves // 2, leaves - 1):
        path = merkle_path(levels, index)
        assert len(path.siblings) == (leaves - 1).bit_length()
    assert counts == {"digest": 0}
    assert verify_path((leaves - 1).to_bytes(32, "big"), path, levels[-1][0])


# ----------------------------------------------------------------------
# the wallet side: update checks, seal scans, escrow fragments


def test_spawn_checks_do_not_grow_with_the_tree(monkeypatch):
    # A leaf spawn checks its own node and compares its grant with the
    # sibling grant in its bucket, however large the tree around it.
    counts = collections.Counter()
    check_node, conflicts_with = PolicyTree._check_node, Grant.conflicts_with

    def counted_check_node(self, node):
        counts["node checks"] += 1
        return check_node(self, node)

    def counted_conflicts_with(self, other):
        counts["conflicts_with"] += 1
        return conflicts_with(self, other)

    monkeypatch.setattr(PolicyTree, "_check_node", counted_check_node)
    monkeypatch.setattr(Grant, "conflicts_with", counted_conflicts_with)

    def leaf_spawn_costs(tree, parent, grants):
        tree.validate_structure(0)
        counts.clear()
        spawn(tree, "am" if parent == ROOT_ID else "ann", parent, "leaf",
              _pc("lee"), 200, grants, _st())
        return dict(counts)

    # beside c0's destination, on a later window: one comparison
    wide = [Grant(NATIVE, ETH, 0, 200), Grant(destination((0).to_bytes(20, "big")), 1, 101, 200)]
    costs = {size: leaf_spawn_costs(_wide_tree(size), ROOT_ID, wide) for size in (50, 300)}
    assert costs[50] == costs[300] == {"node checks": 1, "conflicts_with": 1}, costs

    # beside the tip, on a later window: one comparison
    costs = {
        size: leaf_spawn_costs(_deep_tree(size), f"c{size - 3}", [Grant(destination(TREE_DEST), 1, 101, 200)])
        for size in (50, 300)
    }
    assert costs[50] == costs[300] == {"node checks": 1, "conflicts_with": 1}, costs


class _CountingTable(dict):
    """A node table that records in ``seen`` each whole-table walk
    (``iter``, ``keys``, ``values``, ``items``) and each copy.  Its copy,
    the one ``PolicyTree.clone`` makes, records into the same list."""

    def __init__(self, table, seen):
        super().__init__(table)
        self.seen = seen

    def copy(self):
        self.seen.append("copy")
        return _CountingTable(dict.items(self), self.seen)

    def __iter__(self):
        self.seen.append("iter")
        return super().__iter__()

    def keys(self):
        self.seen.append("keys")
        return super().keys()

    def values(self):
        self.seen.append("values")
        return super().values()

    def items(self):
        self.seen.append("items")
        return super().items()


def test_spawns_and_index_reads_walk_no_node_table():
    # A spawn, a children() read and a nodes_for_player() read find their
    # nodes through the tree's indexes: none walks the node table, at 50
    # nodes as at 300.  The spawn's clone still copies the table once, a
    # dict copy that stays linear until a persistent map replaces it.
    # The spawn under the wide tree's root walks no table either, yet it
    # still visits every child of the root through the index: the root's
    # capacity bounds the sum of every live carve under it, and the new
    # grants are compared with the siblings' grants.  A spawn under a flat
    # tree's root stays linear in the root's children.
    wide = [Grant(NATIVE, ETH, 0, 200), Grant(destination((0).to_bytes(20, "big")), 1, 101, 200)]
    cases = [
        (_wide_tree, "am", lambda size: ROOT_ID, 200, wide),
        (_wide_tree, "ann", lambda size: "c0", 100, [Grant(NATIVE, ETH // 2, 0, 100)]),
        (_deep_tree, "ann", lambda size: f"c{size - 3}", 200, [Grant(destination(TREE_DEST), 1, 101, 200)]),
    ]
    for build, actor, parent_of, expiry, grants in cases:
        for size in (50, 300):
            tree, parent = build(size), parent_of(size)
            seen = []
            tree.nodes = _CountingTable(tree.nodes, seen)
            grown = spawn(tree, actor, parent, "leaf", _pc("lee"), expiry, grants, _st())
            assert seen == ["copy"], (build.__name__, parent, size, seen)
            seen.clear()
            assert grown.children(parent)[-1].node_id == "leaf"
            assert [node.node_id for node in grown.nodes_for_player("lee")] == ["leaf"]
            assert seen == [], (build.__name__, parent, size, seen)


def _count_seal_scans(monkeypatch):
    """Record the log length each time a triple derives its seals."""
    calls = []
    derive = StateTriple.outstanding.func

    def counted(st):
        calls.append(len(st.intst))
        return derive(st)

    patched = cached_property(counted)
    patched.__set_name__(StateTriple, "outstanding")
    monkeypatch.setattr(StateTriple, "outstanding", patched)
    return calls


def test_a_sign_derives_seals_at_most_once(monkeypatch):
    """Cost guard: a sign scans the log for seals once however many of
    the player's nodes it tries, and not at all when every node is
    refused before the seal check."""
    ost = [GENESIS_ORACLE]  # the oracle state the wallet sees; moved on below
    manager = _manager(lambda wallet: ost[0])
    manager.lw_gen(
        access_manager="am", wallet_id="w", policy_kind="tree",
        update_rule="tree", native_capacity=10 * ETH,
    )
    for node_id, to in (("n1", b"\x72" * 20), ("n2", b"\x73" * 20), ("n3", D1)):
        manager.spawn_node(
            "am", "w", ROOT_ID, node_id, PlayerController("alice"), 1000,
            [Grant(destination(to), 1, 0, 1000)],
        )
    calls = _count_seal_scans(monkeypatch)
    manager.lw_sign("alice", "w", ChainTx(1, 0, 0, 0, D1, 0))
    assert manager.wallet("w").intst[-1].node_id == "n3"  # the last one tried
    assert calls == [0]

    calls.clear()
    ost[0] = OracleState(chain_time=1001, block_hashes=(), recognized_nonce=0)
    with pytest.raises(PolicyRefusal):
        manager.lw_sign("alice", "w", ChainTx(1, 1, 0, 0, D1, 0))  # all expired
    assert calls == []


def test_a_verify_derives_seals_at_most_once(monkeypatch):
    """Cost guard: approves-all and approves-none share their triple's
    seal map across the messages of a call, however many there are."""
    manager = _manager()
    _tree_wallet(manager)
    calls = _count_seal_scans(monkeypatch)
    # within the cap: each message passes the seal check and is approved
    inside = [ChainTx(1, n, 0, 0, D1, 1) for n in range(32)]
    assert manager.lw_verify("w", "alice", inside, ("approves-all",))[0]
    assert calls == [0]
    # over the cap: each message passes the seal check and is refused
    calls.clear()
    over = [ChainTx(1, n, 0, 0, D1, 2 * ETH) for n in range(32)]
    assert manager.lw_verify("w", "alice", over, ("approves-none",))[0]
    assert calls == [0]


def test_a_flush_builds_fragments_only_for_new_nodes(builds):
    manager = WalletManager(crypto.digest(b"escrow-reuse"))
    manager.register_player("am")
    fallback = FallbackSystem(manager, crypto.digest(b"escrow-reuse-seed"))
    manager.lw_gen("am", "w", policy_kind="tree", update_rule="tree")
    assert builds == [ROOT_ID]

    def spawn(names):
        for name in names:
            manager.spawn_node("am", "w", ROOT_ID, name, PlayerController("renter"), 10**9, [])

    spawn(["a", "b", "c"])
    builds.clear()
    assert fallback.flush(now=3600)
    assert sorted(builds) == ["a", "b", "c"]

    for k in (1, 4):
        builds.clear()
        fresh = [f"k{k}.{i}" for i in range(k)]
        spawn(fresh)
        assert fallback.flush(now=3600 * (k + 1))
        assert sorted(builds) == fresh

    builds.clear()
    manager.seal_asset("am", "w", "a", destination(b"\x51" * 20))
    assert builds == []  # a seal write rebuilds no node
    assert fallback.version == 5


@pytest.mark.parametrize("size", [100, 1000])
def test_an_escrow_write_builds_only_the_changed_wallet(size, monkeypatch):
    # Once every wallet's text is kept, a write builds the text of the
    # one wallet that changed, however many wallets it leaves alone.
    manager = WalletManager(crypto.digest(b"escrow-world"))
    manager.register_player("am")
    for i in range(size - 1):
        manager.lw_gen("am", f"w{i}", policy_kind="allow")
    manager.lw_gen("am", "t", policy_kind="tree", update_rule="tree")
    fallback = FallbackSystem(manager, crypto.digest(b"escrow-world-seed"))
    built = []
    wallet_text = fallback_system._wallet_text

    def counting(wallet):
        built.append(wallet.wallet_id)
        return wallet_text(wallet)

    monkeypatch.setattr(fallback_system, "_wallet_text", counting)
    manager.lw_update("am", "w0", "deny")  # the first write builds them all
    assert len(built) == size

    shop = destination(b"\x51" * 20)
    changes = [
        ("t", lambda: manager.spawn_node(
            "am", "t", ROOT_ID, "n", PlayerController("renter"), 10**9, [Grant(shop, 1, 0, 10**9)])),
        ("t", lambda: manager.seal_asset("am", "t", "n", shop)),
        ("w1", lambda: manager.lw_update("am", "w1", "deny")),
        ("new", lambda: manager.lw_gen("am", "new", policy_kind="allow")),
    ]
    for changed, change in changes:
        built.clear()
        change()
        fallback.flush(now=3600)
        assert built == [changed]
    assert fallback.version == 5
