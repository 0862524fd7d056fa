"""Admission control for policy transitions.

Structural rules first, then the semantic cross-check: everything the
checker admits must satisfy the transition bullets re-derived by
tests/oracles/betaref.py.  Last, the checker is run against the
full-rescan reference in tests/oracles/treeref.py on seeded trees.
"""

import collections
import contextlib
import random

import pytest

from encumbra import crypto
from encumbra.assets import NATIVE, capability, destination
from encumbra.errors import EngineError, UpdateRefused
from encumbra.messages import ChainTx
from encumbra.policy.tree import (
    ROOT_ID,
    Grant,
    Node,
    PlayerController,
    PolicyTree,
)
from encumbra.policy.update import add_grants, check_update, spawn
from encumbra.state import LogEntry, OracleState, StateTriple
from tests.oracles import betaref, gen, treeref

ETH = 10**18
D1 = b"\x61" * 20
D2 = b"\x62" * 20


def _st(t=0, entries=(), nonce=0):
    return StateTriple(
        intst=tuple(entries),
        ost=OracleState(chain_time=t, block_hashes=(), recognized_nonce=nonce),
        extst=b"",
    )


@contextlib.contextmanager
def _refused(detail):
    """Expect an ``UpdateRefused`` whose operator detail contains ``detail``."""
    with pytest.raises(UpdateRefused) as info:
        yield
    assert detail in info.value.detail, info.value.detail


def _pc(player):
    return PlayerController(player)


def _base():
    tree = PolicyTree("am", native_capacity=10 * ETH)
    tree = spawn(
        tree, "am", ROOT_ID, "a", _pc("ann"), 100,
        [Grant(NATIVE, 4 * ETH, 0, 100), Grant(destination(D1), 1, 0, 100)],
        _st(),
    )
    return tree


def test_identity_is_admitted_for_anyone():
    tree = _base()
    check_update("am", tree, tree.clone(), _st(5))
    check_update("stranger", tree, tree.clone(), _st(5))


def test_spawn_leaves_the_original_untouched():
    tree = _base()
    grown = spawn(
        tree, "ann", "a", "kid", _pc("kim"), 50,
        [Grant(NATIVE, ETH, 0, 50)], _st(),
    )
    assert "kid" in grown.nodes and "kid" not in tree.nodes
    assert grown.nodes["a"].grants == tree.nodes["a"].grants


def test_spawn_rejects_duplicate_ids_and_expired_parents():
    tree = _base()
    with pytest.raises(UpdateRefused):
        spawn(tree, "am", ROOT_ID, "a", _pc("x"), 50, [], _st())
    with _refused("a has expired"):
        spawn(tree, "ann", "a", "late", _pc("x"), 150, [], _st(150))
    with _refused("unknown node nosuch"):
        spawn(tree, "am", "nosuch", "late", _pc("x"), 50, [], _st())


def test_live_nodes_cannot_be_removed():
    tree = _base()
    candidate = tree.clone()
    candidate.remove("a")
    with pytest.raises(UpdateRefused):
        check_update("am", tree, candidate, _st(50))
    # after expiry the same removal is routine garbage collection
    check_update("am", tree, candidate, _st(101))


def test_node_attributes_are_immutable():
    tree = spawn(
        _base(), "ann", "a", "kid", _pc("kim"), 100,
        [Grant(NATIVE, ETH, 0, 100)], _st(),
    )
    for mutate in [
        lambda c: gen.edit_node(c, "a", controller=_pc("eve")),
        lambda c: gen.edit_node(c, "a", expiry=101),
        lambda c: gen.edit_node(c, "a", expiry=99),
        lambda c: gen.edit_node(c, "kid", parent=ROOT_ID),
    ]:
        candidate = tree.clone()
        mutate(candidate)
        with pytest.raises((UpdateRefused, EngineError)):
            check_update("am", tree, candidate, _st())


def test_root_is_immutable():
    tree = _base()
    for mutate in [
        lambda c: gen.edit_node(c, ROOT_ID, controller=_pc("eve")),
        lambda c: gen.edit_node(c, ROOT_ID, expiry=10**9),
        lambda c: setattr(c, "native_capacity", 50 * ETH),
    ]:
        candidate = tree.clone()
        mutate(candidate)
        with pytest.raises(UpdateRefused):
            check_update("am", tree, candidate, _st())


def test_live_grants_cannot_be_revoked():
    tree = _base()
    candidate = tree.clone()
    gen.edit_node(candidate, "a", grants=candidate.nodes["a"].grants[:1])
    with pytest.raises(UpdateRefused) as refused:
        check_update("am", tree, candidate, _st(50))
    # the reason is kept for the operator, the caller sees the class only
    assert refused.value.detail == "revocation of live grant on a"
    assert str(refused.value) == refused.value.code == "UpdateRefused"
    # monotone non-revocation ends where the window does
    check_update("am", tree, candidate, _st(101))


def test_regrant_requires_full_expiry():
    tree = PolicyTree("am", native_capacity=10 * ETH)
    tree = spawn(
        tree, "am", ROOT_ID, "a", _pc("ann"), 1000,
        [Grant(NATIVE, ETH, 0, 100), Grant(destination(D1), 1, 0, 100)],
        _st(),
    )
    extra = Grant(destination(D2), 1, 150, 200)
    with pytest.raises(UpdateRefused):
        add_grants(tree, "am", "a", [extra], _st(50))
    regranted = add_grants(tree, "am", "a", [extra], _st(101))
    assert len(regranted.nodes["a"].grants) == 3
    # and the source's controller is the only one who may re-arm it
    with pytest.raises(UpdateRefused):
        add_grants(tree, "ann", "a", [extra], _st(101))


def test_add_grants_to_expired_node_fails():
    tree = _base()
    with _refused("a has expired"):
        add_grants(tree, "am", "a", [Grant(destination(D2), 1, 150, 160)], _st(150))
    with _refused("unknown node nosuch"):
        add_grants(tree, "am", "nosuch", [Grant(destination(D2), 1, 0, 50)], _st())


def test_a_regrant_must_add_a_grant():
    tree = _base()
    # at 101 every holding of a has expired, yet the node is still live
    tree = spawn(tree, "am", ROOT_ID, "b", _pc("bo"), 1000, [Grant(NATIVE, ETH, 0, 10)], _st())
    with _refused("grant on b adds nothing"):
        add_grants(tree, "am", "b", [], _st(11))
    add_grants(tree, "am", "b", [Grant(destination(D2), 1, 11, 20)], _st(11))


def test_new_child_under_expired_parent_fails():
    tree = PolicyTree("am", native_capacity=10 * ETH)
    tree = spawn(
        tree, "am", ROOT_ID, "a", _pc("ann"), 100,
        [Grant(NATIVE, 4 * ETH, 0, 100)], _st(),
    )
    candidate = tree.clone()
    candidate.put(Node("kid", "a", _pc("kim"), 100, 101, []))
    with _refused("a has expired"):
        check_update("ann", tree, candidate, _st(101))


def test_actor_must_control_the_source():
    tree = _base()
    with pytest.raises(UpdateRefused):
        spawn(tree, "bob", "a", "kid", _pc("kim"), 50,
              [Grant(NATIVE, ETH, 0, 50)], _st())
    # even an empty spawn changes the tree another player controls, so
    # only the anchor's controller may hang one
    with _refused("actor does not control a"):
        spawn(tree, "bob", "a", "kid", _pc("kim"), 50, [], _st())
    spawn(tree, "ann", "a", "kid", _pc("kim"), 50, [], _st())


def test_carve_respects_available_balance():
    tree = _base()  # ann holds 4 ETH
    with _refused("a over-delegates balance"):
        spawn(tree, "ann", "a", "kid", _pc("kim"), 100,
              [Grant(NATIVE, 4 * ETH + 1, 0, 100)], _st())
    grown = spawn(tree, "ann", "a", "kid", _pc("kim"), 100,
                  [Grant(NATIVE, 3 * ETH, 0, 100)], _st())
    # the carve is reserved: only 1 ETH of headroom remains
    with _refused("a over-delegates balance"):
        spawn(grown, "ann", "a", "kid2", _pc("kim"), 100,
              [Grant(NATIVE, 2 * ETH, 0, 100)], _st())


def test_spending_shrinks_what_can_be_carved():
    tree = _base()
    spend = ChainTx(1, 0, 0, 0, D1, 3 * ETH)
    entry = LogEntry("ann", spend, OracleState(0, (), 0), node_id="a")
    st = _st(0, entries=[entry], nonce=1)  # landed: no seal, but spent
    with _refused("carve exceeds a available balance"):
        spawn(tree, "ann", "a", "kid", _pc("kim"), 100,
              [Grant(NATIVE, 2 * ETH, 0, 100)], st)
    spawn(tree, "ann", "a", "kid", _pc("kim"), 100,
          [Grant(NATIVE, ETH, 0, 100)], st)


def test_sealed_asset_blocks_transfer_until_nonce_advances():
    tree = _base()
    withheld = ChainTx(1, 0, 0, 0, D1, ETH)
    entry = LogEntry("ann", withheld, OracleState(0, (), 0), node_id="a")
    pending = _st(0, entries=[entry], nonce=0)
    carve = [Grant(destination(D1), 1, 50, 100)]
    with _refused(f"dest:{D1.hex()} is sealed"):
        spawn(tree, "ann", "a", "kid", _pc("kim"), 100, carve, pending)
    # inclusion recognized: the nonce advanced, the seal is gone
    settled = _st(0, entries=[entry], nonce=1)
    spawn(tree, "ann", "a", "kid", _pc("kim"), 100, carve, settled)


def test_manual_seal_blocks_transfer_until_unsealed():
    tree = _base()
    tree.seal("a", destination(D1))
    carve = [Grant(destination(D1), 1, 50, 100)]
    with _refused(f"dest:{D1.hex()} is sealed"):
        spawn(tree, "ann", "a", "kid", _pc("kim"), 100, carve, _st())
    tree.unseal(destination(D1))
    spawn(tree, "ann", "a", "kid", _pc("kim"), 100, carve, _st())


def test_child_windows_stay_inside_the_source():
    tree = _base()
    with _refused("kid outlives its parent"):
        spawn(tree, "ann", "a", "kid", _pc("kim"), 150, [], _st())
    with _refused("kid grant outlives its node"):
        spawn(tree, "ann", "a", "kid", _pc("kim"), 100,
              [Grant(destination(D1), 1, 50, 120)], _st())


def test_same_capability_cannot_be_sold_twice_concurrently():
    domain = crypto.digest(b"dao")
    proposal = crypto.digest(b"prop-7")
    tree = PolicyTree("am")
    tree = spawn(tree, "am", ROOT_ID, "seller", _pc("sal"), 1000,
                 [Grant(capability(domain), 1, 0, 1000)], _st())
    tree = spawn(tree, "sal", "seller", "b1", _pc("briber1"), 500,
                 [Grant(capability(proposal), 1, 0, 500, platform=domain)],
                 _st())
    with _refused(f"b1 and b2 overlap on cap:{proposal.hex()}"):
        spawn(tree, "sal", "seller", "b2", _pc("briber2"), 600,
              [Grant(capability(proposal), 1, 400, 600, platform=domain)],
              _st())
    spawn(tree, "sal", "seller", "b2", _pc("briber2"), 700,
          [Grant(capability(proposal), 1, 501, 700, platform=domain)],
          _st())


def _probe_set():
    return [
        (ChainTx(1, 0, 0, 0, D1, 0), b""),
        (ChainTx(1, 0, 0, 0, D1, ETH), b""),
        (ChainTx(1, 0, 0, 0, D2, 0), b""),
    ]


def test_admitted_transitions_satisfy_the_bullets():
    tree = _base()
    unit_assets = [destination(D1).encode(), destination(D2).encode()]
    players = ["am", "ann", "kim", "stranger"]
    # a real handover: ann carves her destination and a slice to kim
    candidate = spawn(
        tree, "ann", "a", "kid", _pc("kim"), 100,
        [Grant(NATIVE, ETH, 0, 100), Grant(destination(D1), 1, 0, 100)],
        _st(),
    )
    assert candidate.evaluate("kid", "kim", ChainTx(1, 0, 0, 0, D1, ETH), _st())
    assert not tree.evaluate("a", "ann", ChainTx(1, 0, 0, 0, D2, 0), _st())
    assert betaref.bullet_violations(
        "ann", tree, candidate, _st(), 0, players, _probe_set(), unit_assets, {}
    ) == []


def test_refused_transitions_do_violate_something():
    tree = _base()
    unit_assets = [destination(D1).encode(), destination(D2).encode()]
    players = ["am", "ann", "eve", "stranger"]

    # stealing ann's node breaks bullet (b) for her
    stolen = tree.clone()
    gen.edit_node(stolen, "a", controller=_pc("eve"))
    with pytest.raises(UpdateRefused):
        check_update("eve", tree, stolen, _st())
    assert betaref.bullet_violations(
        "eve", tree, stolen, _st(), 0, players, _probe_set(), unit_assets, {}
    ) != []

    # conjuring an unsourced grant breaks bullet (c)
    conjured = tree.clone()
    conjured.put(Node("e", ROOT_ID, _pc("eve"), 100, 0,
                      [Grant(destination(D2), 1, 0, 100)]))
    with pytest.raises(UpdateRefused):
        check_update("eve", tree, conjured, _st())
    assert betaref.bullet_violations(
        "eve", tree, conjured, _st(), 0, players, _probe_set(), unit_assets, {}
    ) != []


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as error:  # compared, not handled
        return type(error), str(error), getattr(error, "detail", None)
    return None


# Every refusal is one UpdateRefused; the refusal families the
# generators aim for are told apart by their operator detail.
FAMILIES = ("overlap", "outlives", "is sealed", "has no source", "over-delegates")


def test_check_update_agrees_with_full_rescan_reference():
    # UpdateRefused hides its reason from str() but keeps it in detail,
    # so two different refusals of that class do not compare equal, and
    # a refusal names the same node as the reference.
    seen = collections.Counter()
    for trial in range(40):
        rng = random.Random(6100 + trial)
        built = gen.build_tree(rng, max_nodes=24)
        # grant expiries are the instants where a fungible carve stops
        # being reserved
        expiries = [g.expiry for n in built.tree.nodes.values() for g in n.grants]
        times = sorted(
            {0, built.horizon // 3, built.horizon, built.horizon + 5}
            | set(rng.sample(expiries, min(2, len(expiries))))
        )
        for t in times:
            for _ in range(8):
                proposal = gen.propose_transition(rng, built, t)
                if proposal is None:
                    continue
                label, actor, candidate, benign = proposal
                st = built.state(t)
                got = _outcome(check_update, actor, built.tree, candidate, st)
                want = _outcome(
                    treeref.check_update_ref, actor, built.tree, candidate, st, t
                )
                assert got == want, (trial, t, label)
                # the full check runs the same rules on every node
                assert _outcome(candidate.validate_structure, t) == _outcome(
                    treeref.validate_structure_ref, candidate, t
                ), (trial, t, label)
                if got is None:
                    seen["admitted"] += 1
                else:
                    assert got[:2] == (UpdateRefused, "UpdateRefused"), got
                    seen[next((f for f in FAMILIES if f in got[2]), "other")] += 1
                if got is None and benign:
                    built.tree = candidate
    # the comparison is not vacuous: both verdicts and every refusal
    # family the generators aim for came up
    assert seen["admitted"] > 100
    for family in FAMILIES + ("other",):
        assert seen[family] > 0, seen


def test_sibling_unit_overlap_is_found_among_fungible_grants():
    tree = PolicyTree("am", native_capacity=10 * ETH)
    for node_id in ("a", "b"):
        tree.put(Node(
            node_id, ROOT_ID, _pc(node_id), 100, 0,
            [Grant(NATIVE, ETH, 0, 100), Grant(destination(D1), 1, 50, 100)],
        ))
    for check in (tree.validate_structure, lambda t: treeref.validate_structure_ref(tree, t)):
        with pytest.raises(UpdateRefused) as raised:
            check(0)
        assert raised.value.detail == f"a and b overlap on dest:{D1.hex()}"


def _wide_tree(size):
    """The root and ``size - 1`` children, each with a slice and a
    destination of its own."""
    tree = PolicyTree("am", native_capacity=size * ETH)
    for i in range(size - 1):
        tree.put(Node(
            f"c{i}", ROOT_ID, _pc("ann"), 100, 0,
            [Grant(NATIVE, ETH, 0, 100), Grant(destination(i.to_bytes(20, "big")), 1, 0, 100)],
        ))
    return tree


def _deep_tree(size):
    """A chain of ``size - 2`` nodes below the root, each with a slice
    and D1, ending in a tip that holds D1 on an early window."""
    tree = PolicyTree("am", native_capacity=10 * ETH)
    parent = ROOT_ID
    for i in range(size - 2):
        tree.put(Node(
            f"c{i}", parent, _pc("ann"), 1000, 0,
            [Grant(NATIVE, ETH, 0, 1000), Grant(destination(D1), 1, 0, 1000)],
        ))
        parent = f"c{i}"
    tree.put(Node("tip", parent, _pc("ann"), 100, 0, [Grant(destination(D1), 1, 0, 100)]))
    return tree


def test_spawn_and_regrant_share_every_kept_node(monkeypatch):
    # Cost guard: an update builds exactly one node and hands every node
    # it leaves alone to the successor as the same object, however large
    # the tree; check_update then skips those by identity.
    made = []
    post_init = Node.__post_init__

    def counted_post_init(self):
        made.append(self.node_id)
        post_init(self)

    monkeypatch.setattr(Node, "__post_init__", counted_post_init)

    def one_node_built(update, tree, *args):
        made.clear()
        grown = update(tree, *args)
        assert made == ["leaf"]
        assert all(grown.nodes[nid] is node for nid, node in tree.nodes.items() if nid != "leaf")
        assert set(grown.nodes) == set(tree.nodes) | {"leaf"}
        return grown

    for size in (50, 300):
        for tree, actor, parent, dest in [
            (_wide_tree(size), "am", ROOT_ID, b"\xee" * 20),
            (_deep_tree(size), "ann", f"c{size - 3}", D1),
        ]:
            grown = one_node_built(
                spawn, tree, actor, parent, "leaf", _pc("lee"), 500,
                [Grant(destination(dest), 1, 101, 200)], _st(),
            )
            regranted = one_node_built(
                add_grants, grown, actor, "leaf",
                [Grant(destination(dest), 1, 300, 500)], _st(201),
            )
            assert len(regranted.nodes["leaf"].grants) == 2
