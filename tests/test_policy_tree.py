"""Delegation-tree evaluation semantics, cross-checked against the
reference interpreter in tests/oracles/treeref.py."""

import contextlib
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from encumbra import crypto
from encumbra.assets import (
    NATIVE,
    PERSONAL_CLASS_KEY,
    capability,
    destination,
    personal_payload_key,
)
from encumbra.errors import UnknownNode, UpdateRefused
from encumbra.messages import ChainTx, PersonalSign, vote_extst, vote_message
from encumbra.policy.registry import TreeWalletPolicy
from encumbra.policy.tree import (
    INFINITE_EXPIRY,
    ROOT_ID,
    Grant,
    Node,
    PlayerController,
    PolicyTree,
    ProgramController,
)
from encumbra.policy.update import spawn
from encumbra.state import GENESIS_ORACLE, OracleState, LogEntry, StateTriple
from tests.oracles import gen, treeref

ETH = 10**18
WEEK = 7 * 86400
D1 = b"\x11" * 20
D2 = b"\x22" * 20


def _st(t=0, entries=(), nonce=0):
    ost = OracleState(chain_time=t, block_hashes=(), recognized_nonce=nonce)
    return StateTriple(intst=tuple(entries), ost=ost, extst=b"")


def _tx(to, value, nonce=0, fee=0, gas=0):
    return ChainTx(1, nonce, fee, gas, to, value)


def _spawn(tree, actor, parent, node_id, controller, expiry, grants, t=0):
    return spawn(
        tree, actor, parent, node_id, PlayerController(controller), expiry,
        grants, _st(t),
    )


@contextlib.contextmanager
def _refused(detail):
    """Expect an ``UpdateRefused`` whose operator detail contains ``detail``."""
    with pytest.raises(UpdateRefused) as info:
        yield
    assert detail in info.value.detail, info.value.detail


def _shared_wallet():
    """The worked split: 15 ETH wallet, alice 5 ETH for a week, bob 10."""
    tree = PolicyTree("am", native_capacity=15 * ETH)
    tree = _spawn(
        tree, "am", ROOT_ID, "alice", "alice", WEEK,
        [Grant(NATIVE, 5 * ETH, 0, WEEK), Grant(destination(D1), 1, 0, WEEK)],
    )
    tree = _spawn(
        tree, "am", ROOT_ID, "bob", "bob", WEEK,
        [Grant(NATIVE, 10 * ETH, 0, WEEK), Grant(destination(D2), 1, 0, WEEK)],
    )
    return tree


def test_fungible_split_honors_exact_caps():
    tree = _shared_wallet()
    st = _st()
    fee, gas = 10**9, 21000
    cap = fee * gas
    exactly_five = _tx(D1, 5 * ETH - cap, fee=fee, gas=gas)
    assert tree.evaluate("alice", "alice", exactly_five, st)
    one_wei_over = _tx(D1, 5 * ETH - cap + 1, fee=fee, gas=gas)
    assert not tree.evaluate("alice", "alice", one_wei_over, st)
    assert tree.evaluate("bob", "bob", _tx(D2, 10 * ETH), st)
    assert not tree.evaluate("bob", "bob", _tx(D2, 10 * ETH + 1), st)


def test_players_cannot_reach_across_nodes():
    tree = _shared_wallet()
    st = _st()
    assert not tree.evaluate("alice", "bob", _tx(D1, ETH), st)
    assert not tree.evaluate("alice", "alice", _tx(D2, ETH), st)
    assert not tree.evaluate("bob", "mallory", _tx(D2, ETH), st)
    # the root node holds capacity, never signing power
    assert not tree.evaluate(ROOT_ID, "am", _tx(D1, 0), st)
    with pytest.raises(UnknownNode):
        tree.evaluate("ghost", "alice", _tx(D1, 0), st)


def test_windows_are_inclusive_on_both_ends():
    tree = _shared_wallet()
    probe = _tx(D1, ETH)
    assert tree.evaluate("alice", "alice", probe, _st(WEEK))
    assert not tree.evaluate("alice", "alice", probe, _st(WEEK + 1))
    later = _spawn(
        _shared_wallet(), "am", ROOT_ID, "carol", "carol", WEEK,
        [Grant(destination(b"\x33" * 20), 1, 100, 200)],
    )
    touch = _tx(b"\x33" * 20, 0)
    assert not later.evaluate("carol", "carol", touch, _st(99))
    assert later.evaluate("carol", "carol", touch, _st(100))
    assert later.evaluate("carol", "carol", touch, _st(200))
    assert not later.evaluate("carol", "carol", touch, _st(201))


def test_expired_asset_only_affects_messages_that_spend_it():
    # native expires early, the personal-sign capability lives on
    payload = b"session-login"
    tree = PolicyTree("am", native_capacity=ETH)
    tree = _spawn(
        tree, "am", ROOT_ID, "carol", "carol", 100,
        [
            Grant(NATIVE, ETH, 0, 10),
            Grant(destination(D1), 1, 0, 10),
            Grant(capability(personal_payload_key(payload)), 1, 0, 100,
                  platform=PERSONAL_CLASS_KEY),
        ],
    )
    at_fifty = _st(50)
    assert tree.evaluate("carol", "carol", PersonalSign(payload), at_fifty)
    assert not tree.evaluate("carol", "carol", _tx(D1, 0), at_fifty)
    assert not tree.evaluate("carol", "carol", PersonalSign(b"other"), at_fifty)


def test_zero_value_tx_still_needs_the_destination():
    tree = _shared_wallet()
    st = _st()
    assert not tree.evaluate("alice", "alice", _tx(b"\x44" * 20, 0), st)
    assert tree.evaluate("alice", "alice", _tx(D1, 0), st)


def test_spent_native_shrinks_the_allowance():
    tree = _shared_wallet()
    fee, gas = 10**9, 21000
    cap = fee * gas
    first = _tx(D1, 2 * ETH, nonce=0, fee=fee, gas=gas)
    entry = LogEntry(
        player="alice", message=first,
        ost=OracleState(0, (), 0), node_id="alice",
    )
    # the outstanding signature seals D1, but only against other nodes
    st = _st(0, entries=[entry])
    left = 5 * ETH - 2 * ETH - cap
    assert tree.evaluate("alice", "alice", _tx(D1, left, nonce=1), st)
    assert not tree.evaluate("alice", "alice", _tx(D1, left + 1, nonce=1), st)
    assert tree.spent_native("alice", st) == 2 * ETH + cap


def test_outstanding_signature_seals_for_others():
    tree = PolicyTree("am", native_capacity=None)
    tree = _spawn(
        tree, "am", ROOT_ID, "p", "pat", 100,
        [Grant(capability(PERSONAL_CLASS_KEY), 1, 0, 100)],
    )
    payload = b"contested"
    key = personal_payload_key(payload)
    assert tree.evaluate("p", "pat", PersonalSign(payload), _st())
    tree.seal("elsewhere", capability(key))
    assert not tree.evaluate("p", "pat", PersonalSign(payload), _st())
    assert tree.evaluate("p", "pat", PersonalSign(b"uncontested"), _st())
    tree.unseal(capability(key))
    assert tree.evaluate("p", "pat", PersonalSign(payload), _st())


def test_log_seal_lifts_when_the_nonce_passes():
    tree = _shared_wallet()
    outstanding = _tx(D1, ETH, nonce=0)
    entry = LogEntry("alice", outstanding, OracleState(0, (), 0), node_id="alice")
    fresh = _st(0, entries=[entry], nonce=0)
    sealed = tree.sealed_assets(fresh)
    assert sealed.get(destination(D1).encode()) == "alice"
    advanced = _st(0, entries=[entry], nonce=1)
    assert destination(D1).encode() not in tree.sealed_assets(advanced)
    # a manual seal takes precedence over the log attribution
    tree.seal("other", destination(D1))
    assert tree.sealed_assets(fresh)[destination(D1).encode()] == "other"


def test_platform_grant_shadowed_by_carved_proposal():
    domain = crypto.digest(b"dao-main")
    p1 = crypto.digest(b"proposal-1")
    p2 = crypto.digest(b"proposal-2")
    tree = PolicyTree("am")
    tree = _spawn(
        tree, "am", ROOT_ID, "seller", "seller", 100,
        [Grant(capability(domain), 1, 0, 100)],
    )
    tree = _spawn(
        tree, "seller", "seller", "buyer", "buyer", 50,
        [Grant(capability(p1), 1, 0, 50, platform=domain)],
    )

    def ballot(proposal, choice=1):
        return vote_message(domain, proposal, choice), vote_extst(proposal, choice)

    msg1, hint1 = ballot(p1)
    msg2, hint2 = ballot(p2)
    st1 = StateTriple(intst=(), ost=OracleState(10, (), 0), extst=hint1)
    st2 = StateTriple(intst=(), ost=OracleState(10, (), 0), extst=hint2)
    assert not tree.evaluate("seller", "seller", msg1, st1)
    assert tree.evaluate("buyer", "buyer", msg1, st1)
    assert tree.evaluate("seller", "seller", msg2, st2)
    assert not tree.evaluate("buyer", "buyer", msg2, st2)
    # the carve expires, authority returns to the platform holder
    assert tree.evaluate("seller", "seller", msg1, _relabel(st1, 51))
    assert not tree.evaluate("buyer", "buyer", msg1, _relabel(st1, 51))
    # a ballot whose hint disagrees with the struct hash is unclassifiable
    bad = StateTriple(intst=(), ost=OracleState(10, (), 0), extst=vote_extst(p1, 2))
    assert not tree.evaluate("buyer", "buyer", msg1, bad)


def _relabel(st, t):
    return StateTriple(
        intst=st.intst,
        ost=OracleState(t, st.ost.block_hashes, st.ost.recognized_nonce),
        extst=st.extst,
    )


def test_reserved_capacity_and_availability():
    tree = _shared_wallet()
    st = _st()
    assert tree.reserved_native(ROOT_ID, 0) == 15 * ETH
    assert tree.available_native(ROOT_ID, st) == 0
    assert tree.available_native("alice", st) == 5 * ETH
    # child carve out of alice reserves her balance until the window ends
    tree2 = _spawn(
        tree, "alice", "alice", "kid", "kid", WEEK,
        [Grant(NATIVE, 2 * ETH, 100, 200)],
    )
    assert tree2.reserved_native("alice", 0) == 2 * ETH
    assert tree2.available_native("alice", st) == 3 * ETH
    assert tree2.reserved_native("alice", 201) == 0
    # a node with no native grant has nothing available
    tree3 = _spawn(
        tree, "am", ROOT_ID, "unit", "uma", WEEK,
        [Grant(destination(b"\x55" * 20), 1, 0, WEEK)],
    )
    assert tree3.available_native("unit", st) == 0


def test_validate_structure_error_catalogue():
    st0 = _st()

    def fresh():
        return PolicyTree("am", native_capacity=10 * ETH)

    # root never carries grants of its own
    bad = fresh()
    gen.edit_node(bad, ROOT_ID, grants=[Grant(NATIVE, ETH, 0, 10)])
    with pytest.raises(UpdateRefused):
        bad.validate_structure(0)

    # missing root
    bad = fresh()
    bad.remove(ROOT_ID)
    with pytest.raises(UpdateRefused):
        bad.validate_structure(0)

    # dangling parent pointer
    bad = fresh()
    bad.put(Node("x", "ghost", PlayerController("a"), 10, 0,
                 [Grant(NATIVE, 1, 0, 10)]))
    with pytest.raises(UpdateRefused):
        bad.validate_structure(0)

    # child outliving its parent
    good = _spawn(fresh(), "am", ROOT_ID, "a", "ann", 50, [Grant(NATIVE, ETH, 0, 50)])
    bad = good.clone()
    gen.edit_node(bad, "a", grants=[])
    bad.put(Node("b", "a", PlayerController("b"), 60, 0, []))
    with _refused("b outlives its parent"):
        bad.validate_structure(0)

    # grant window outliving its node
    bad = good.clone()
    gen.edit_node(bad, "a", grants=[Grant(NATIVE, ETH, 0, 51)])
    with _refused("a grant outlives its node"):
        bad.validate_structure(0)

    for grant in [
        Grant(NATIVE, 0, 0, 10),                      # non-positive cap
        Grant(NATIVE, ETH, 10, 5),                    # inverted window
        Grant(destination(D1), 2, 0, 10),             # unit cap must be 1
        Grant(destination(D1), 1, 0, 10, platform=b"\x00" * 32),
        Grant(NATIVE, ETH, 0, 10, platform=b"\x00" * 32),
    ]:
        bad = good.clone()
        gen.edit_node(bad, "a", grants=[grant])
        with pytest.raises(UpdateRefused):
            bad.validate_structure(0)

    # two fungible grants on one node
    bad = good.clone()
    gen.edit_node(bad, "a", grants=[Grant(NATIVE, ETH, 0, 10), Grant(NATIVE, ETH, 11, 20)])
    with pytest.raises(UpdateRefused):
        bad.validate_structure(0)

    # a capability key declaring itself as its own platform
    key = crypto.digest(b"self")
    bad = good.clone()
    gen.edit_node(bad, "a", grants=[Grant(capability(key), 1, 0, 10, platform=key)])
    with pytest.raises(UpdateRefused):
        bad.validate_structure(0)


def test_validate_coverage_and_conflicts():
    st0 = _st()
    base = PolicyTree("am", native_capacity=10 * ETH)
    base = _spawn(base, "am", ROOT_ID, "a", "ann", 100,
                  [Grant(NATIVE, 4 * ETH, 0, 100), Grant(destination(D1), 1, 0, 100)])

    # a grandchild grant with no covering source upstream
    bad = base.clone()
    bad.put(Node("g", "a", PlayerController("gary"), 50, 0,
                 [Grant(destination(D2), 1, 0, 50)]))
    with _refused(f"g grant on dest:{D2.hex()} has no source"):
        bad.validate_structure(0)

    # sibling duplication of one unit asset on overlapping windows
    with _refused(f"a and b overlap on dest:{D1.hex()}"):
        _spawn(base, "am", ROOT_ID, "b", "bob", 100,
               [Grant(destination(D1), 1, 50, 100)])
    # disjoint windows coexist
    ok = _spawn(base, "am", ROOT_ID, "b", "bob", 200,
                [Grant(destination(D1), 1, 101, 200)])
    ok.validate_structure(0)

    # root fungible capacity is a hard budget
    with _refused("root fungible capacity exceeded"):
        _spawn(base, "am", ROOT_ID, "c", "cal", 100,
               [Grant(NATIVE, 7 * ETH, 0, 100)])

    # delegating from a node that holds no fungible grant
    bad = base.clone()
    bad.put(Node("k", "a", PlayerController("kim"), 50, 0,
                 [Grant(NATIVE, ETH, 0, 50)]))
    gen.edit_node(bad, "a", grants=[Grant(destination(D1), 1, 0, 100)])
    with _refused(f"k grant on {NATIVE.label()} has no source"):
        bad.validate_structure(0)

    # over-delegating a fungible slice
    bad = base.clone()
    bad.put(Node("k", "a", PlayerController("kim"), 100, 0,
                 [Grant(NATIVE, 5 * ETH, 0, 100)]))
    with _refused("a over-delegates balance"):
        bad.validate_structure(0)


def test_capability_grant_conflicts():
    platform, key, other = b"\x30" * 32, b"\x31" * 32, b"\x32" * 32

    def cap(k, start=0, expiry=10, under=None):
        return Grant(capability(k), 1, start, expiry, under)

    table = [
        ("same key", cap(key), cap(key), True),
        ("same key, both declared", cap(key, under=platform), cap(key, under=platform), True),
        ("platform against a key under it", cap(platform), cap(key, under=platform), True),
        ("key under a platform against it", cap(key, under=platform), cap(platform), True),
        ("platform against an undeclared key", cap(platform), cap(key), False),
        ("two keys under one platform", cap(key, under=platform), cap(other, under=platform), False),
        ("same key, disjoint windows", cap(key, 0, 10), cap(key, 11, 20), False),
        ("platform and its key, disjoint windows",
         cap(platform, 0, 10), cap(key, 11, 20, under=platform), False),
    ]
    for label, a, b, want in table:
        assert a.conflicts_with(b) is want, label
        assert b.conflicts_with(a) is want, label


def test_clone_isolation():
    tree = _shared_wallet()
    twin = tree.clone()
    gen.edit_node(twin, "alice", grants=[])
    twin.seal("x", destination(D1))
    assert len(tree.nodes["alice"].grants) == 2
    assert destination(D1).encode() not in tree.manual_seals
    # a tree is plain data: programs and the ledger live on the wallet policy;
    # beside the table it keeps only the indexes its writes maintain
    assert set(vars(tree)) == set(vars(twin)) == {
        "nodes", "native_capacity", "manual_seals",
        "_children", "_held", "_rank", "_next_rank", "written",
    }
    assert list(twin.written) == ["alice"]  # a clone starts with nothing written


def test_nodes_are_values():
    tree = _shared_wallet()
    node = tree.nodes["alice"]
    assert isinstance(node.grants, tuple)  # spawned from a list
    for name, value in [
        ("grants", ()),
        ("expiry", 0),
        ("parent", None),
        ("controller", PlayerController("eve")),
    ]:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, value)
    listed = [Grant(NATIVE, ETH, 0, 10), Grant(destination(D1), 1, 0, 10)]
    built = Node("x", ROOT_ID, PlayerController("x"), 10, 0, listed)
    assert built.grants == tuple(listed)
    assert replace(built, grants=listed[:1]).grants == (listed[0],)
    # a clone copies the node table and shares the nodes
    twin = tree.clone()
    assert twin.nodes == tree.nodes and twin.nodes is not tree.nodes
    assert all(twin.nodes[node_id] is n for node_id, n in tree.nodes.items())


def test_nodes_for_player_ordering():
    tree = PolicyTree("am")
    tree = _spawn(tree, "am", ROOT_ID, "n2", "pat", 100, [], t=0)
    tree = _spawn(tree, "am", ROOT_ID, "n1", "pat", 100, [], t=5)
    names = [n.node_id for n in tree.nodes_for_player("pat")]
    assert names == ["n2", "n1"]  # creation order, then id
    assert tree.nodes_for_player("nobody") == []


def test_indexes_agree_with_a_table_walk():
    """After any run of puts and removes (new ids, replaced nodes, moves
    to another parent or controller, removals and ids put back), the
    indexes answer what a walk of the table would, in table order, and a
    clone's ``written`` names exactly the ids written since the clone."""
    players = ["ann", "bob", "cy"]
    for trial in range(30):
        rng = random.Random(8200 + trial)
        tree = gen.build_tree(rng, max_nodes=16).tree.clone()
        gone, written = [], set()
        for _ in range(40):
            ids = sorted(tree.nodes)
            move = rng.random()
            if move < 0.3 and len(ids) > 1:
                node_id = rng.choice([i for i in ids if i != ROOT_ID])
                gen.edit_node(tree, node_id, parent=rng.choice(ids + ["ghost"]))
            elif move < 0.5 and len(ids) > 1:
                node_id = rng.choice([i for i in ids if i != ROOT_ID])
                controller = rng.choice([PlayerController(rng.choice(players)), ProgramController("p")])
                gen.edit_node(tree, node_id, controller=controller)
            elif move < 0.7 and len(ids) > 1:
                node_id = rng.choice([i for i in ids if i != ROOT_ID])
                gone.append(tree.nodes[node_id])
                tree.remove(node_id)
            elif move < 0.85 and gone:
                node = gone.pop(rng.randrange(len(gone)))
                node_id = node.node_id
                tree.put(node)  # back at the end of the table
            else:
                node_id = f"x{trial}.{len(written)}"
                parent = rng.choice(ids)
                tree.put(Node(node_id, parent, PlayerController(rng.choice(players)), 10, rng.randint(0, 9)))
            written.add(node_id)
            parents = {node.parent for node in tree.nodes.values()} | set(tree.nodes)
            for parent in parents:
                want = [node for node in tree.nodes.values() if node.parent == parent]
                assert tree.children(parent) == want, (trial, parent)
            for player in players + ["nobody"]:
                want = [
                    node for node in tree.nodes.values()
                    if node.node_id != ROOT_ID
                    and node.controller in (PlayerController(player), ProgramController("p"))
                ]
                want.sort(key=lambda n: (n.created_at, n.node_id))
                assert tree.nodes_for_player(player) == want, (trial, player)
            assert tree.in_table_order(set(tree.nodes)) == list(tree.nodes)
            assert set(tree.written) == written


def test_snapshot_digest_ignores_insertion_order():
    def build(order):
        tree = PolicyTree("am", native_capacity=10 * ETH)
        for node_id in order:
            tree.put(Node(
                node_id, ROOT_ID, PlayerController(node_id), 100, 0,
                [Grant(NATIVE, ETH, 0, 100)],
            ))
        return tree

    one = build(["a", "b", "c"])
    two = build(["c", "a", "b"])
    assert one.snapshot_digest() == two.snapshot_digest()
    one.seal("a", destination(D1))
    assert one.snapshot_digest() != two.snapshot_digest()


def test_evaluate_agrees_with_reference_interpreter():
    """Each node alone, and the wallet policy that tries a player's nodes
    in order under one triple, agree with the reference, as does the
    tree's seal map; the policy's vouching node is the first one a lone
    evaluate approves."""
    mismatches = 0
    for trial in range(60):
        built = gen.build_tree(random.Random(4100 + trial))
        below = treeref.descendant_map(built.tree)
        policy = TreeWalletPolicy(built.tree)
        times = sorted({0, built.horizon // 3, built.horizon, built.horizon + 7})
        for t in times:
            st = built.state(t)
            assert built.tree.sealed_assets(st) == treeref.sealed_ref(built.tree, st)
            for message, extst in built.probes:
                stx = StateTriple(intst=st.intst, ost=st.ost, extst=extst)
                for player in built.players + [gen.OUTSIDER]:
                    got = any(
                        built.tree.evaluate(nid, player, message, stx)
                        for nid in built.tree.nodes
                        if nid != ROOT_ID
                    )
                    want = treeref.approved_ref(
                        built.tree, player, message, stx, t, below
                    )
                    first = next(
                        (
                            node.node_id
                            for node in built.tree.nodes_for_player(player)
                            if built.tree.evaluate(node.node_id, player, message, stx)
                        ),
                        None,
                    )
                    approved, vouched = policy.approves(player, message, stx)
                    if got != want or approved != want or vouched != first:
                        mismatches += 1
        assert treeref.scan_violations(
            built.tree, built.unit_assets, range(built.horizon + 1), built.platform_map
        ) == []
    assert mismatches == 0
