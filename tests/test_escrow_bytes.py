"""Escrow plaintext bytes: pinned, checked against a reference, reused.

``tests/fixtures/escrow/<name>.txt`` lists, one per line and in write
order, the sha256 of every escrow plaintext that the scenario ``<name>``
hands to ``encrypt_state`` under the default config: each bundled
scenario, and ``grown`` below, whose trees carry nested and
platform-keyed grants, a program node, manual seals, a wallet without a
native capacity and a non-ASCII node id.  The digests were recorded
from the dict-and-``json.dumps`` serialisation that the fragment join
replaced; equal digests mean the replicas a recovery opens are byte for
byte what they were.

Over seeded trees the joined text must equal ``json.dumps`` of the
dict reference in ``tests/oracles/treeref.py``, and a write must build
a fragment only for a node that never had one.  The fallback's kept
wallet texts must give the reference bytes through every kind of change
and refusal.
"""

import dataclasses
import hashlib
import json
import pathlib
import random
from types import SimpleNamespace

import pytest

from encumbra import cli, crypto
from encumbra.assets import NATIVE, capability, destination
from encumbra.errors import ReplicationTimeout
from encumbra.fallback import system
from encumbra.fallback.system import FallbackSystem
from encumbra.manager import WalletManager
from encumbra.policy import tree as tree_module
from encumbra.policy.registry import TreeWalletPolicy
from encumbra.policy.tree import ROOT_ID, Grant, Node, PlayerController, ProgramController
from encumbra.scenario import ScenarioRunner, parse_scenario
from tests.oracles import gen, treeref

ESCROW = pathlib.Path(__file__).parent / "fixtures" / "escrow"

GROWN = """\
player alice
player bob
player carol
account shop
account café
wallet vault am=alice policy=tree update=tree capacity=10eth fund=20eth
wallet gov am=carol policy=tree update=tree fund=5eth
spawn vault actor=alice node=a controller=bob native=4eth dest=shop cap=dao:a
spawn vault actor=bob parent=a node=a.1 controller=carol native=1eth cap=proposal:a.1 platform=dao:a
spawn vault actor=bob parent=a node=a.2 controller=alice native=1eth cap=proposal:a.2 platform=dao:a
spawn vault actor=alice node=bé controller=carol native=2eth dest=café
advance 3600
seal vault actor=alice node=a dest=shop
spawn vault actor=carol parent=a.1 node=a.1.x controller=bob native=0.5eth
proposal p dao=main snapshot=tip close=+3600
enroll gov dao=main
advance 3600
unseal vault actor=alice dest=shop
seal vault actor=alice node=bé dest=café
advance 3600
"""
SCENARIOS = [*cli.bundled_scenarios(), "grown"]


def escrow_digests(name, monkeypatch):
    """sha256 hex of each escrow plaintext one run of ``name`` writes."""
    seen = []
    encrypt = system.encrypt_state

    def recording(public, plaintext, version, seed):
        seen.append(hashlib.sha256(plaintext).hexdigest())
        return encrypt(public, plaintext, version, seed)

    monkeypatch.setattr(system, "encrypt_state", recording)
    if name == "grown":
        ScenarioRunner(parse_scenario(GROWN, name=name)).run()
    else:
        assert cli.main(["--scenario", name]) == 0
    return seen


def test_every_scenario_has_escrow_digests():
    stored = sorted(path.stem for path in ESCROW.glob("*.txt"))
    assert stored == sorted(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_escrow_plaintexts_match_the_pinned_digests(name, monkeypatch, capsys):
    digests = escrow_digests(name, monkeypatch)
    capsys.readouterr()
    assert digests == (ESCROW / f"{name}.txt").read_text(encoding="ascii").split()


# ----------------------------------------------------------------------
# the fragment join against the dict reference

ODD_IDS = ['q"uote', "né", "back\\slash", "tab\there", "lock\U0001f512"]


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def decorated_tree(rng: random.Random):
    """A ``gen.build_tree`` tree plus what the generator leaves out:
    program controllers, manual seals and ids JSON has to escape."""
    tree = gen.build_tree(rng).tree
    for node_id in sorted(tree.nodes):
        if node_id != ROOT_ID and rng.random() < 0.3:
            gen.edit_node(tree, node_id, controller=ProgramController(rng.choice(["dao-vote", "vé"])))
    for odd in rng.sample(ODD_IDS, 3):
        parent = tree.nodes[rng.choice(sorted(tree.nodes))]
        tree.put(Node(odd, parent.node_id, PlayerController(odd), parent.expiry, 0))
    owners = [*sorted(tree.nodes), ""]
    for _ in range(rng.randint(0, 3)):
        tree.seal(rng.choice(owners), destination(rng.randbytes(20)))
    if rng.random() < 0.5:
        tree.seal(rng.choice(owners), capability(rng.randbytes(32)))
    return tree


def test_tree_json_equals_the_reference_dict():
    for seed in range(60):
        tree = decorated_tree(random.Random(seed))
        expected = canonical(treeref.snapshot_ref(tree))
        assert tree.snapshot_json() == expected, seed
        assert tree.snapshot_json() == expected, seed  # from kept fragments


def payload_ref(fallback: FallbackSystem, version=None) -> bytes:
    """The escrow plaintext as the dict serialisation built it, for
    ``version`` (by default the fallback's current one)."""
    wallets = []
    for wallet in fallback.manager.wallets():
        if isinstance(wallet.policy, TreeWalletPolicy):
            policy = {"kind": "tree", "tree": treeref.snapshot_ref(wallet.policy.tree)}
        else:
            policy = {"kind": wallet.policy.kind}
        wallets.append(
            {
                "id": wallet.wallet_id,
                "access_manager": wallet.access_manager,
                "seed": wallet.key.seed_bytes().hex(),
                "public_key": wallet.public_key.hex(),
                "policy_version": wallet.policy_version,
                "policy": policy,
            }
        )
    if version is None:
        version = fallback.version
    return canonical({"version": version, "wallets": wallets}).encode()


def test_escrow_payload_equals_the_reference_dict():
    manager = WalletManager(crypto.digest(b"escrow-bytes"))
    manager.register_player("am")
    manager.register_player('ä"m')
    fallback = FallbackSystem(manager, crypto.digest(b"escrow-bytes-seed"))
    manager.lw_gen("am", "open", policy_kind="allow")
    manager.lw_gen("am", "shut")
    rng = random.Random(7)
    for i in range(8):
        wallet = manager.lw_gen('ä"m', f'w"{i}é', policy_kind="tree", update_rule="tree")
        wallet.policy.tree = decorated_tree(rng)
        wallet.policy_version = rng.randint(0, 5)
        assert fallback._payload(fallback.version) == payload_ref(fallback), i


def test_node_fragments_equal_json_dumps_of_the_reference_dict():
    """The direct node writer against ``json.dumps`` of the dict, on
    nodes no tree would accept: lone surrogates and control characters
    in ids, an empty platform, grants that tie on (label, start,
    expiry) and so keep their given order."""
    rng = random.Random(11)
    names = [*ODD_IDS, "\ud800", "x\udfffy", "\x00\x1f\x7f", "", "plain"]
    assets = [NATIVE, destination(b"\x01" * 20), destination(b"\x02" * 20),
              capability(b"\x03" * 32), capability(b"\x04" * 32)]
    for seed in range(200):
        grants = [
            Grant(rng.choice(assets), rng.randint(1, 10**30), rng.randint(0, 2),
                  rng.choice([2, 10**18]), rng.choice([None, b"", b"\x05" * 32]))
            for _ in range(rng.randint(0, 5))
        ]
        controller = rng.choice([PlayerController(rng.choice(names)),
                                 ProgramController(rng.choice(names))])
        node = Node(rng.choice(names), rng.choice([None, *names]), controller,
                    rng.randint(0, 2**62), rng.randint(0, 10**12), grants)
        table = SimpleNamespace(nodes={node.node_id: node}, native_capacity=None, manual_seals={})
        assert node.json_fragment() == canonical(treeref.snapshot_ref(table)["nodes"][0]), seed


# ----------------------------------------------------------------------
# fragment reuse


@pytest.fixture
def builds(monkeypatch):
    """Ids of the nodes whose fragment gets built, in build order."""
    built = []
    node_json = tree_module._node_json

    def counting(node):
        built.append(node.node_id)
        return node_json(node)

    monkeypatch.setattr(tree_module, "_node_json", counting)
    return built


def test_a_replaced_node_builds_a_fresh_fragment(builds):
    node = Node("n", ROOT_ID, PlayerController("p"), 10, 0)
    fragment = node.json_fragment()
    assert node.json_fragment() is fragment
    later = dataclasses.replace(node, expiry=20)
    assert later.json_fragment() != fragment
    assert builds == ["n", "n"]


def test_node_equality_and_hash_ignore_the_fragment():
    node = Node("n", ROOT_ID, PlayerController("p"), 10, 0)
    twin = dataclasses.replace(node)
    attributes = set(vars(node))
    node.json_fragment()
    assert node == twin and hash(node) == hash(twin)
    assert repr(node) == repr(twin)
    assert set(vars(node)) == attributes  # filled in place, nothing added


# ----------------------------------------------------------------------
# kept wallet texts


def test_kept_wallet_texts_follow_every_change_and_refusal(monkeypatch):
    """A wallet's kept text is keyed by its tree (its policy object, for
    a registry policy) and its ``policy_version``.  Through new wallets,
    spawns and flushes, a seal and an unseal, a registry swap, refused
    seals and a version moved alone, every plaintext an accepted step
    hands to ``encrypt_state`` equals the dict reference of the world the
    step leaves.  A refused step's plaintext holds the change it refused:
    it is byte for byte what a twin, which replays the accepted steps
    with every repository reachable, writes for that step."""
    seed, twin_seed = crypto.digest(b"kept-texts-seed"), crypto.digest(b"kept-texts-twin")
    written = {}
    encrypt = system.encrypt_state

    def recording(public, plaintext, version, escrow_seed):
        written.setdefault(escrow_seed, []).append((version, plaintext))
        return encrypt(public, plaintext, version, escrow_seed)

    monkeypatch.setattr(system, "encrypt_state", recording)

    def stack(escrow_seed):
        manager = WalletManager(crypto.digest(b"kept-texts"))
        manager.register_player("am")
        return manager, FallbackSystem(manager, escrow_seed)

    manager, fallback = stack(seed)
    mine = written.setdefault(seed, [])
    accepted = []
    shop = destination(b"\x51" * 20)

    def step(change):
        start = len(mine)
        change(manager, fallback)
        for version, plaintext in mine[start:]:
            assert plaintext == payload_ref(fallback, version), version
        accepted.append(change)

    def refused(change):
        start = len(mine)
        for repo in fallback.repos:
            repo.reachable = False
        with pytest.raises(ReplicationTimeout):
            change(manager, fallback)
        for repo in fallback.repos:
            repo.reachable = True
        twin_manager, twin = stack(twin_seed)
        for done in accepted:
            done(twin_manager, twin)
        change(twin_manager, twin)
        stored = written.pop(twin_seed)[-1:]
        assert mine[start:] == stored == [(twin.version, payload_ref(twin))]

    def new(wallet_id, kind, **rule):
        return lambda m, f: m.lw_gen("am", wallet_id, policy_kind=kind, **rule)

    def spawn(name, grants=()):
        return lambda m, f: m.spawn_node(
            "am", "t", ROOT_ID, name, PlayerController("renter"), 10**9, grants
        )

    def flush(now):
        def flushing(m, f):
            assert f.flush(now=now)
        return flushing

    def seal(m, f):
        m.seal_asset("am", "t", "a", shop)

    def unseal(m, f):
        m.unseal_asset("am", "t", shop)

    def swap(m, f):
        m.lw_update("am", "r", "deny")

    def bump(m, f):
        m.wallet("r").policy_version += 5

    step(new("t", "tree", update_rule="tree", native_capacity=10**18))
    step(new("r", "allow", update_rule="any"))
    step(spawn("a", [Grant(shop, 1, 0, 10**9)]))
    step(spawn("b"))
    step(flush(3600))
    step(seal)
    step(unseal)
    step(flush(7200))
    step(swap)
    assert [version for version, _ in mine] == [1, 2, 3, 4, 5, 6]

    # A refused seal, then a write that leaves ``t`` alone: ``t``'s text
    # is its live tree's, not the refused one's.
    refused(seal)
    step(new("x", "deny"))

    # A refused seal, then a spawn that brings ``t`` to the refused
    # version with another tree.
    refused(seal)
    step(spawn("c"))
    step(flush(10800))

    # The version alone moves: the text follows it.
    step(bump)
    step(new("y", "allow"))
    assert [version for version, _ in mine] == [1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 9]
    assert fallback.version == 9
