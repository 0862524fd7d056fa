"""Seeded random generators for delegation trees and policy transitions.

Everything here is test scaffolding: builders produce production data
structures (trees, grants, signing logs) plus the side information the
reference interpreter needs to judge them (asset universe, platform
map, probe messages).  Construction is deliberately conservative so a
"benign" artifact is valid by design; verdicts always come from the
production code and the reference oracle, never from the generator.

Capacity bookkeeping is pessimistic: windows handed to a child are
never reused and fungible capacity never recovers after expiry.  That
only narrows what gets generated, it cannot produce an invalid tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from encumbra.assets import (
    NATIVE,
    PERSONAL_CLASS_KEY,
    capability,
    destination,
    personal_payload_key,
)
from encumbra.messages import ChainTx, PersonalSign, TypedData, vote_message
from encumbra.policy.tree import (
    Grant,
    INFINITE_EXPIRY,
    Node,
    PlayerController,
    PolicyTree,
    ROOT_ID,
)
from encumbra.state import LogEntry, OracleState, StateTriple

from . import treeref

PLAYERS = ["alice", "bob", "carol", "dave", "erin", "frank"]
OUTSIDER = "mallory"

ETH = 10**18


# ----------------------------------------------------------------------
# asset universe


@dataclass
class Universe:
    dests: List[bytes] = field(default_factory=list)
    domains: List[bytes] = field(default_factory=list)
    proposals: Dict[bytes, List[bytes]] = field(default_factory=dict)
    personal: bool = False
    payloads: List[bytes] = field(default_factory=list)

    def unit_encodings(self) -> List[bytes]:
        out = [treeref.dest_enc(d) for d in self.dests]
        for domain in self.domains:
            out.append(treeref.cap_enc(domain))
            out.extend(treeref.cap_enc(p) for p in self.proposals[domain])
        if self.personal:
            out.append(treeref.cap_enc(PERSONAL_CLASS_KEY))
            out.extend(
                treeref.cap_enc(personal_payload_key(p)) for p in self.payloads
            )
        return out

    def platform_map(self) -> Dict[bytes, bytes]:
        out: Dict[bytes, bytes] = {}
        for domain in self.domains:
            for proposal in self.proposals[domain]:
                out[treeref.cap_enc(proposal)] = treeref.cap_enc(domain)
        if self.personal:
            for payload in self.payloads:
                out[treeref.cap_enc(personal_payload_key(payload))] = treeref.cap_enc(
                    PERSONAL_CLASS_KEY
                )
        return out


def build_universe(rng: random.Random, budget: Optional[int] = None) -> Universe:
    uni = Universe()
    remaining = rng.randint(1, 8) if budget is None else budget
    while remaining > 0:
        roll = rng.random()
        if roll < 0.40:
            uni.dests.append(rng.randbytes(20))
        elif roll < 0.60:
            domain = rng.randbytes(32)
            uni.domains.append(domain)
            uni.proposals[domain] = []
        elif roll < 0.80 and uni.domains:
            domain = rng.choice(uni.domains)
            uni.proposals[domain].append(rng.randbytes(32))
        elif roll < 0.90 and not uni.personal:
            uni.personal = True
        elif uni.personal:
            uni.payloads.append(b"note-" + rng.randbytes(6))
        else:
            continue
        remaining -= 1
    if not uni.unit_encodings():
        uni.dests.append(rng.randbytes(20))
    return uni


# ----------------------------------------------------------------------
# carvable capacity

# A slot is one contiguous holding a node may carve children out of.
# kind "unit": carve the asset itself on disjoint sub-windows.
# kind "platform": first carve commits the slot to either sub-windows of
# the platform key itself or per-key windows of its specific keys; the
# two never mix, which keeps sibling grants conflict-free.


@dataclass
class Slot:
    node_id: str
    asset: AssetId
    lo: int
    hi: int
    keys: List[bytes] = field(default_factory=list)
    mode: Optional[str] = None
    free: List[Tuple[int, int]] = field(default_factory=list)
    key_free: Dict[bytes, List[Tuple[int, int]]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.free:
            self.free = [(self.lo, self.hi)]

    @property
    def is_platform(self) -> bool:
        return bool(self.keys)


def _take_window(
    rng: random.Random,
    intervals: List[Tuple[int, int]],
    hi_cap: int,
    lo_bias: Optional[int] = None,
) -> Optional[Tuple[int, int]]:
    """Reserve a sub-window from one free interval; None when exhausted."""
    usable = [i for i, (lo, hi) in enumerate(intervals) if lo <= hi_cap]
    if not usable:
        return None
    index = rng.choice(usable)
    lo, hi = intervals[index]
    hi = min(hi, hi_cap)
    if rng.random() < 0.4:
        s, e = lo, hi
    else:
        s = rng.randint(lo, hi)
        if lo_bias is not None and lo <= lo_bias <= hi and rng.random() < 0.7:
            s = rng.randint(lo, lo_bias)
        e = rng.randint(s, hi)
    original_lo, original_hi = intervals.pop(index)
    if original_lo < s:
        intervals.append((original_lo, s - 1))
    if e < original_hi:
        intervals.append((e + 1, original_hi))
    return s, e


def carve_from_slot(
    rng: random.Random,
    slot: Slot,
    child_id: str,
    hi_cap: int,
    lo_bias: Optional[int] = None,
) -> Optional[Tuple[Grant, Slot]]:
    """Carve one grant out of a slot; returns the child's follow-on slot."""
    if slot.is_platform and slot.mode is None:
        slot.mode = "keys" if slot.keys and rng.random() < 0.5 else "slice"
    if slot.is_platform and slot.mode == "keys":
        key = rng.choice(slot.keys)
        per_key = slot.key_free.setdefault(key, [(slot.lo, slot.hi)])
        window = _take_window(rng, per_key, hi_cap, lo_bias)
        if window is None:
            return None
        s, e = window
        grant = Grant(capability(key), 1, s, e, platform=slot.asset.key)
        child = Slot(child_id, capability(key), s, e)
        return grant, child
    window = _take_window(rng, slot.free, hi_cap, lo_bias)
    if window is None:
        return None
    s, e = window
    grant = Grant(slot.asset, 1, s, e)
    child = Slot(child_id, slot.asset, s, e, keys=list(slot.keys))
    return grant, child


# ----------------------------------------------------------------------
# tree builder


@dataclass
class BuiltTree:
    tree: PolicyTree
    players: List[str]
    horizon: int
    universe: Universe
    unit_assets: List[bytes]
    platform_map: Dict[bytes, bytes]
    probes: List[Tuple[object, bytes]]
    entries: List[LogEntry]
    recognized: int
    next_nonce: int
    slots: List[Slot]
    native_free: Dict[str, int]
    native_window: Dict[str, Optional[Tuple[int, int]]]
    depth: Dict[str, int]
    next_node: int
    dest_holdings: List[Tuple[str, bytes]]
    native_caps: List[int]

    def state(self, t: int, extst: bytes = b"") -> StateTriple:
        ost = OracleState(
            chain_time=t, block_hashes=(), recognized_nonce=self.recognized
        )
        return StateTriple(intst=tuple(self.entries), ost=ost, extst=extst)

    def fresh_id(self) -> str:
        out = f"n{self.next_node}"
        self.next_node += 1
        return out


def _spawn_node(
    rng: random.Random,
    built: BuiltTree,
    parent_id: str,
    t_now: Optional[int] = None,
) -> Optional[Tuple[str, List[Grant]]]:
    """Carve a valid child under parent; mutates bookkeeping; None if dry."""
    tree = built.tree
    parent = tree.nodes[parent_id]
    child_id = built.fresh_id()
    parent_slots = [s for s in built.slots if s.node_id == parent_id]
    rng.shuffle(parent_slots)

    grants: List[Grant] = []
    new_slots: List[Slot] = []
    want = rng.randint(1, 2)
    for slot in parent_slots[:want]:
        carved = carve_from_slot(rng, slot, child_id, parent.expiry, t_now)
        if carved is None:
            continue
        grant, child_slot = carved
        grants.append(grant)
        new_slots.append(child_slot)

    native_free = built.native_free.get(parent_id, 0)
    window = built.native_window.get(parent_id)
    window_ok = window is None or (t_now is None or window[0] <= t_now <= window[1])
    if native_free > 0 and window_ok and (not grants or rng.random() < 0.5):
        cap = rng.randint(1, native_free)
        if window is None:
            lo_limit, hi_limit = 0, min(parent.expiry, built.horizon * 2)
        else:
            lo_limit, hi_limit = window
        pool = [(lo_limit, hi_limit)]
        taken = _take_window(rng, pool, parent.expiry, t_now)
        if taken is not None:
            s, e = taken
            grants.append(Grant(NATIVE, cap, s, e))
            built.native_free[parent_id] = native_free - cap
            built.native_free[child_id] = cap
            built.native_window[child_id] = (s, e)
            built.native_caps.append(cap)

    if not grants and rng.random() < 0.7:
        return None  # mostly skip empty spawns, keep a few for variety

    expiry_floor = max((g.expiry for g in grants), default=max(t_now or 0, 0))
    expiry = min(parent.expiry, expiry_floor + rng.randint(0, 8))
    controller = PlayerController(rng.choice(built.players))
    tree.put(Node(
        node_id=child_id,
        parent=parent_id,
        controller=controller,
        expiry=expiry,
        created_at=t_now if t_now is not None else 0,
        grants=grants,
    ))
    built.depth[child_id] = built.depth[parent_id] + 1
    built.slots.extend(new_slots)
    for grant in grants:
        if grant.asset.kind.name == "DESTINATION_ADDRESS":
            built.dest_holdings.append((child_id, grant.asset.address))
    return child_id, grants


def build_probes(rng: random.Random, built: BuiltTree) -> List[Tuple[object, bytes]]:
    uni = built.universe
    probes: List[Tuple[object, bytes]] = []
    for dest in uni.dests:
        probes.append((ChainTx(1, 0, 0, 0, dest, 0), b""))
        value = rng.choice(built.native_caps) if built.native_caps else ETH
        if rng.random() < 0.5:
            value = max(0, value + rng.choice([-1, 0, 1]))
        probes.append((ChainTx(1, 0, 0, 0, dest, value), b""))
    for domain in uni.domains:
        for proposal in uni.proposals[domain]:
            choice = rng.randint(0, 2)
            probes.append(
                (vote_message(domain, proposal, choice), proposal + bytes([choice]))
            )
        if uni.proposals[domain]:
            bad = uni.proposals[domain][0]
            message = vote_message(domain, bad, 1)
            probes.append((message, bad + bytes([2])))  # hint disagrees
    for payload in uni.payloads:
        probes.append((PersonalSign(payload), b""))
    if uni.personal:
        probes.append((PersonalSign(b"unlisted-" + rng.randbytes(4)), b""))
    probes.append((ChainTx(1, 0, 0, 0, rng.randbytes(20), 0), b""))
    return probes


def append_entry(
    rng: random.Random, built: BuiltTree, t: int, coherent: bool = True
) -> Optional[LogEntry]:
    """Record one signature in the log; sealing follows from the data."""
    if not built.dest_holdings:
        return None
    node_id, dest = rng.choice(built.dest_holdings)
    node = built.tree.nodes.get(node_id)
    if node is None:
        return None
    cap = built.native_free.get(node_id, 0)
    if coherent and cap > 0:
        value = rng.randint(0, cap)
    else:
        value = rng.randint(0, 3 * ETH)
    tx = ChainTx(
        chain_id=1,
        nonce=built.next_nonce,
        max_fee_per_gas=rng.choice([0, 10**9]),
        gas_limit=21000 if rng.random() < 0.8 else 0,
        to=dest,
        value=value,
    )
    built.next_nonce += 1
    player = treeref.controller_player(node) or built.players[0]
    entry = LogEntry(
        player=player,
        message=tx,
        ost=OracleState(chain_time=t, block_hashes=(), recognized_nonce=0),
        node_id=node_id,
    )
    built.entries.append(entry)
    # spending shrinks what the node can still carve away
    cost = tx.value + tx.fee_cap
    built.native_free[node_id] = max(0, built.native_free.get(node_id, 0) - cost)
    return entry


def build_tree(
    rng: random.Random,
    max_nodes: int = 16,
    max_depth: int = 4,
    with_log: bool = True,
) -> BuiltTree:
    horizon = rng.randint(8, 64)
    players = rng.sample(PLAYERS, rng.randint(2, 4))
    universe = build_universe(rng)
    root_player = rng.choice(players)
    root_expiry = INFINITE_EXPIRY if rng.random() < 0.8 else horizon + rng.randint(4, 40)
    capacity = rng.randint(1, 40) * ETH // rng.choice([1, 2, 4]) if rng.random() < 0.7 else None
    tree = PolicyTree(root_player, root_expiry=root_expiry, native_capacity=capacity)

    built = BuiltTree(
        tree=tree,
        players=players,
        horizon=horizon,
        universe=universe,
        unit_assets=universe.unit_encodings(),
        platform_map=universe.platform_map(),
        probes=[],
        entries=[],
        recognized=0,
        next_nonce=0,
        slots=[],
        native_free={ROOT_ID: capacity or 0},
        native_window={ROOT_ID: None},
        depth={ROOT_ID: 0},
        next_node=0,
        dest_holdings=[],
        native_caps=[],
    )

    def root_hi() -> int:
        return min(root_expiry, horizon + rng.randint(0, horizon))

    for dest in universe.dests:
        built.slots.append(Slot(ROOT_ID, destination(dest), 0, root_hi()))
    for domain in universe.domains:
        built.slots.append(
            Slot(ROOT_ID, capability(domain), 0, root_hi(), keys=list(universe.proposals[domain]))
        )
    if universe.personal:
        keys = [personal_payload_key(p) for p in universe.payloads]
        built.slots.append(
            Slot(ROOT_ID, capability(PERSONAL_CLASS_KEY), 0, root_hi(), keys=keys)
        )

    target = rng.randint(1, max_nodes)
    misses = 0
    while built.next_node < target and misses < 3 * target + 6:
        eligible = [nid for nid, d in built.depth.items() if d < max_depth]
        parent_id = rng.choice(eligible)
        if _spawn_node(rng, built, parent_id) is None:
            misses += 1

    if with_log:
        for _ in range(rng.randint(0, 4)):
            append_entry(rng, built, rng.randint(0, horizon), coherent=rng.random() < 0.6)
        if built.entries and rng.random() < 0.5:
            built.recognized = rng.randint(0, built.next_nonce)
        if built.dest_holdings and rng.random() < 0.2:
            node_id, dest = rng.choice(built.dest_holdings)
            tree.seal(node_id, destination(dest))

    built.probes = build_probes(rng, built)
    tree.validate_structure(0)
    tree.validate_structure(horizon)
    return built


# ----------------------------------------------------------------------
# transition generation

# Each maker returns (label, actor, candidate) or None when its
# precondition is unavailable; benign makers update the capacity
# bookkeeping optimistically, which is safe because a refused benign
# candidate only strands capacity, never corrupts it.  Nodes are
# values, so a maker edits a candidate by replacing whole nodes.


def edit_node(tree: PolicyTree, node_id: str, **changes) -> None:
    """Install in ``tree`` a copy of one of its nodes with ``changes``."""
    tree.put(replace(tree.nodes[node_id], **changes))


def _without(grants: Sequence[Grant], grant: Grant) -> List[Grant]:
    """``grants`` less the first one equal to ``grant``."""
    kept = list(grants)
    kept.remove(grant)
    return kept


def benign_spawn(rng: random.Random, built: BuiltTree, t: int):
    live = [
        nid
        for nid, d in built.depth.items()
        if d < 4 and nid in built.tree.nodes and t <= built.tree.nodes[nid].expiry
    ]
    if not live:
        return None
    parent_id = rng.choice(live)
    parent = built.tree.nodes[parent_id]
    actor = treeref.controller_player(parent)
    if actor is None:
        return None
    sealed = treeref.sealed_ref(built.tree, built.state(t))
    before = built.tree
    built.tree = before.clone()
    made = _spawn_node(rng, built, parent_id, t_now=t)
    candidate, built.tree = built.tree, before
    if made is None:
        return None
    _, grants = made
    for grant in grants:
        if treeref.enc(grant.asset) in sealed:
            return None  # sealed by an outstanding signature, try another step
    return "spawn", actor, candidate


def benign_extend(rng: random.Random, built: BuiltTree, t: int):
    """Re-grant attempts; admissible only against fully expired nodes."""
    targets = [
        nid
        for nid, node in built.tree.nodes.items()
        if nid != ROOT_ID and t <= node.expiry and node.parent in built.tree.nodes
    ]
    rng.shuffle(targets)
    targets.sort(
        key=lambda nid: any(
            t <= g.expiry for g in built.tree.nodes[nid].grants
        )
    )
    for nid in targets:
        node = built.tree.nodes[nid]
        parent_id = node.parent
        if t > built.tree.nodes[parent_id].expiry:
            continue
        actor = treeref.controller_player(built.tree.nodes[parent_id])
        if actor is None:
            continue
        slots = [
            s
            for s in built.slots
            if s.node_id == parent_id and not (s.is_platform and s.mode == "keys")
        ]
        sealed = treeref.sealed_ref(built.tree, built.state(t))
        rng.shuffle(slots)
        for slot in slots:
            if any(g.asset == slot.asset for g in node.grants):
                continue  # keep one grant per asset per node
            carved = carve_from_slot(rng, slot, nid, node.expiry, t)
            if carved is None:
                continue
            grant, child_slot = carved
            if treeref.enc(grant.asset) in sealed:
                continue
            if grant.asset.kind.name == "NATIVE_BALANCE":
                continue
            candidate = built.tree.clone()
            edit_node(candidate, nid, grants=node.grants + (grant,))
            built.slots.append(child_slot)
            if grant.asset.kind.name == "DESTINATION_ADDRESS":
                built.dest_holdings.append((nid, grant.asset.address))
            return "extend", actor, candidate
    return None


def benign_gc(rng: random.Random, built: BuiltTree, t: int):
    expired = [
        nid
        for nid, node in built.tree.nodes.items()
        if nid != ROOT_ID and t > node.expiry
    ]
    stale_grants = [
        (nid, g)
        for nid, node in built.tree.nodes.items()
        if nid != ROOT_ID and t <= node.expiry
        for g in node.grants
        if t > g.expiry
    ]
    if not expired and not stale_grants:
        return None
    candidate = built.tree.clone()
    doomed: Set[str] = set()
    if expired:
        seed = rng.choice(expired)
        doomed = {seed} | treeref.descendants(candidate, seed)
        for nid in doomed:
            candidate.remove(nid)
    pruned_grant = None
    if stale_grants and rng.random() < 0.7:
        nid, grant = rng.choice(stale_grants)
        if nid not in doomed:
            # dropping a source grant strands any child grant carved
            # from it, so only collect ones nothing references
            still_covered = any(
                child.parent == nid
                and any(
                    g.start >= grant.start and g.expiry <= grant.expiry
                    for g in child.grants
                )
                for child in candidate.nodes.values()
            )
            if not still_covered:
                edit_node(candidate, nid, grants=_without(candidate.nodes[nid].grants, grant))
                pruned_grant = (nid, grant)
    if doomed:
        built.slots = [s for s in built.slots if s.node_id not in doomed]
    if pruned_grant is not None:
        nid, grant = pruned_grant
        built.slots = [
            s
            for s in built.slots
            if not (
                s.node_id == nid
                and s.lo >= grant.start
                and s.hi <= grant.expiry
            )
        ]
    actor_node = built.tree.nodes[ROOT_ID]
    actor = treeref.controller_player(actor_node)
    return "gc", actor, candidate


def benign_identity(rng: random.Random, built: BuiltTree, t: int):
    actor = rng.choice(built.players)
    return "identity", actor, built.tree.clone()


def adv_mutate_controller(rng: random.Random, built: BuiltTree, t: int):
    victims = [
        nid
        for nid, node in built.tree.nodes.items()
        if nid != ROOT_ID and node.grants and t <= node.expiry
    ]
    if not victims:
        return None
    nid = rng.choice(victims)
    node = built.tree.nodes[nid]
    current = treeref.controller_player(node)
    others = [p for p in built.players if p != current]
    if not others:
        return None
    candidate = built.tree.clone()
    edit_node(candidate, nid, controller=PlayerController(rng.choice(others)))
    # acted by a third party, so the old controller's losses count
    return "mutate-controller", rng.choice(others), candidate


def adv_mutate_expiry(rng: random.Random, built: BuiltTree, t: int):
    victims = [nid for nid in built.tree.nodes if nid != ROOT_ID]
    if not victims:
        return None
    nid = rng.choice(victims)
    candidate = built.tree.clone()
    edit_node(candidate, nid, expiry=candidate.nodes[nid].expiry + rng.choice([-3, -1, 1, 5]))
    actor = treeref.controller_player(built.tree.nodes[ROOT_ID])
    return "mutate-expiry", actor, candidate


def adv_remove_live(rng: random.Random, built: BuiltTree, t: int):
    live = [
        nid
        for nid, node in built.tree.nodes.items()
        if nid != ROOT_ID and t <= node.expiry
    ]
    if not live:
        return None
    nid = rng.choice(live)
    candidate = built.tree.clone()
    for gone in {nid} | treeref.descendants(candidate, nid):
        candidate.remove(gone)
    actor = treeref.controller_player(built.tree.nodes[ROOT_ID])
    return "remove-live", actor, candidate


def adv_revoke_live(rng: random.Random, built: BuiltTree, t: int):
    picks = [
        (nid, g)
        for nid, node in built.tree.nodes.items()
        if nid != ROOT_ID and t <= node.expiry
        for g in node.grants
        if g.expiry >= t
    ]
    if not picks:
        return None
    nid, grant = rng.choice(picks)
    candidate = built.tree.clone()
    edit_node(candidate, nid, grants=_without(candidate.nodes[nid].grants, grant))
    actor = treeref.controller_player(built.tree.nodes[ROOT_ID])
    return "revoke-live", actor, candidate


def adv_sealed_carve(rng: random.Random, built: BuiltTree, t: int):
    sealed = treeref.sealed_ref(built.tree, built.state(t))
    holders = [
        (owner, enc)
        for enc, owner in sealed.items()
        if owner in built.tree.nodes and t <= built.tree.nodes[owner].expiry
    ]
    if not holders:
        return None
    owner, enc = rng.choice(holders)
    if enc[:1] != b"\x02":
        return None
    asset = destination(enc[1:])
    node = built.tree.nodes[owner]
    actor = treeref.controller_player(node)
    if actor is None:
        return None
    candidate = built.tree.clone()
    child_id = built.fresh_id()
    hi = min(node.expiry, t + rng.randint(0, 4))
    candidate.put(Node(
        node_id=child_id,
        parent=owner,
        controller=PlayerController(rng.choice(built.players)),
        expiry=hi,
        created_at=t,
        grants=[Grant(asset, 1, t, hi)],
    ))
    return "sealed-carve", actor, candidate


def adv_foreign_source(rng: random.Random, built: BuiltTree, t: int):
    sources = [
        (nid, node)
        for nid, node in built.tree.nodes.items()
        if t <= node.expiry and treeref.controller_player(node) is not None
    ]
    if not sources:
        return None
    nid, node = rng.choice(sources)
    owner = treeref.controller_player(node)
    others = [p for p in built.players if p != owner]
    if not others:
        return None
    actor = rng.choice(others)
    before = built.tree
    built.tree = before.clone()
    made = _spawn_node(rng, built, nid, t_now=t)
    candidate, built.tree = built.tree, before
    if made is None:
        return None
    return "foreign-source", actor, candidate


def adv_over_carve(rng: random.Random, built: BuiltTree, t: int):
    st = built.state(t)
    for nid, node in built.tree.nodes.items():
        if nid == ROOT_ID or t > node.expiry:
            continue
        actor = treeref.controller_player(node)
        if actor is None:
            continue
        window = built.native_window.get(nid)
        if window is None or not (window[0] <= t <= window[1]):
            continue
        available = treeref.native_available_ref(built.tree, nid, t, st)
        caps = sum(
            g.cap for g in node.grants if g.asset.kind.name == "NATIVE_BALANCE"
        )
        headroom = caps - treeref.reserved_ref(built.tree, nid, t)
        if headroom <= max(available, 0):
            continue  # nothing spent, over-carve would also break structure
        amount = rng.randint(max(available, 0) + 1, headroom)
        candidate = built.tree.clone()
        child_id = built.fresh_id()
        hi = min(node.expiry, window[1])
        lo = min(t, hi)
        grants = [Grant(NATIVE, amount, lo, hi)]
        candidate.put(Node(
            node_id=child_id,
            parent=nid,
            controller=PlayerController(rng.choice(built.players)),
            expiry=hi,
            created_at=t,
            grants=grants,
        ))
        return "over-carve", actor, candidate
    return None


def adv_expiry_exceeds(rng: random.Random, built: BuiltTree, t: int):
    parents = [
        (nid, node)
        for nid, node in built.tree.nodes.items()
        if node.expiry < INFINITE_EXPIRY and t <= node.expiry and nid != ROOT_ID
    ]
    if not parents:
        return None
    nid, node = rng.choice(parents)
    actor = treeref.controller_player(node)
    if actor is None:
        return None
    candidate = built.tree.clone()
    child_id = built.fresh_id()
    candidate.put(Node(
        node_id=child_id,
        parent=nid,
        controller=PlayerController(rng.choice(built.players)),
        expiry=node.expiry + rng.randint(1, 9),
        created_at=t,
        grants=[],
    ))
    return "expiry-exceeds", actor, candidate


def adv_sibling_overlap(rng: random.Random, built: BuiltTree, t: int):
    picks = [
        (node.parent, g)
        for nid, node in built.tree.nodes.items()
        if nid != ROOT_ID and node.parent is not None
        for g in node.grants
        if g.asset.kind.name != "NATIVE_BALANCE" and g.start <= t <= g.expiry
    ]
    if not picks:
        return None
    parent_id, grant = rng.choice(picks)
    parent = built.tree.nodes[parent_id]
    actor = treeref.controller_player(parent)
    if actor is None or t > parent.expiry:
        return None
    candidate = built.tree.clone()
    child_id = built.fresh_id()
    hi = min(parent.expiry, grant.expiry)
    candidate.put(Node(
        node_id=child_id,
        parent=parent_id,
        controller=PlayerController(rng.choice(built.players)),
        expiry=hi,
        created_at=t,
        grants=[Grant(grant.asset, 1, t, hi, platform=grant.platform)],
    ))
    return "sibling-overlap", actor, candidate


def adv_root_mutation(rng: random.Random, built: BuiltTree, t: int):
    candidate = built.tree.clone()
    if rng.random() < 0.5 and candidate.native_capacity is not None:
        candidate.native_capacity += rng.randint(1, 5) * ETH
    else:
        edit_node(candidate, ROOT_ID, expiry=built.horizon + rng.randint(1, 99))
    actor = treeref.controller_player(built.tree.nodes[ROOT_ID])
    return "root-mutation", actor, candidate


def adv_resize_native(rng: random.Random, built: BuiltTree, t: int):
    """Resize a live fungible carve in place: past what its source holds,
    which breaks conservation, or below its cap, which revokes part of it."""
    tree = built.tree
    carves = [
        (nid, i)
        for nid, node in tree.nodes.items()
        if nid != ROOT_ID
        for i, g in enumerate(node.grants)
        if g.asset.kind.name == "NATIVE_BALANCE" and g.expiry >= t
    ]
    if not carves:
        return None
    nid, i = rng.choice(carves)
    parent_id = tree.nodes[nid].parent
    if parent_id == ROOT_ID:
        source_cap = tree.native_capacity or 0
    else:
        source_cap = sum(
            g.cap
            for g in tree.nodes[parent_id].grants
            if g.asset.kind.name == "NATIVE_BALANCE"
        )
    candidate = tree.clone()
    grants = list(candidate.nodes[nid].grants)
    if rng.random() < 0.5:
        cap = source_cap + rng.randint(1, 3)
    else:
        cap = max(1, grants[i].cap // 2)
    grants[i] = replace(grants[i], cap=cap)
    edit_node(candidate, nid, grants=grants)
    actor = treeref.controller_player(tree.nodes[ROOT_ID])
    return "resize-native", actor, candidate


def adv_lower_capacity(rng: random.Random, built: BuiltTree, t: int):
    """Lower the root's capacity below what its children reserve at t;
    no node changes, so only a recheck of the root's balance sees it."""
    tree = built.tree
    reserved = treeref.reserved_ref(tree, ROOT_ID, t)
    if tree.native_capacity is None or reserved < 1:
        return None
    candidate = tree.clone()
    candidate.native_capacity = rng.randint(0, reserved - 1)
    actor = treeref.controller_player(tree.nodes[ROOT_ID])
    return "lower-capacity", actor, candidate


def adv_orphan_children(rng: random.Random, built: BuiltTree, t: int):
    """Remove one node but keep its children, which now dangle; the
    children themselves do not change."""
    tree = built.tree
    parents = sorted(
        {node.parent for node in tree.nodes.values()} - {None, ROOT_ID}
    )
    if not parents:
        return None
    candidate = tree.clone()
    candidate.remove(rng.choice(parents))
    actor = treeref.controller_player(tree.nodes[ROOT_ID])
    return "orphan-children", actor, candidate


def adv_early_sibling_overlap(rng: random.Random, built: BuiltTree, t: int):
    """Add to an earlier sibling a unit grant overlapping a later
    sibling's, so the conflicting pair's later node is untouched."""
    tree = built.tree
    order = list(tree.nodes.values())
    picks = [
        (earlier.node_id, grant)
        for j, later in enumerate(order)
        for earlier in order[:j]
        if earlier.node_id != ROOT_ID and earlier.parent == later.parent
        for grant in later.grants
        if grant.asset.kind.name != "NATIVE_BALANCE"
    ]
    if not picks:
        return None
    earlier_id, grant = rng.choice(picks)
    earlier = tree.nodes[earlier_id]
    hi = min(grant.expiry, earlier.expiry)
    if hi < grant.start:
        return None
    candidate = tree.clone()
    edit_node(candidate, earlier_id, grants=earlier.grants + (replace(grant, expiry=hi),))
    actor = treeref.controller_player(tree.nodes[earlier.parent])
    return "early-sibling-overlap", actor, candidate


def adv_wide_siblings(rng: random.Random, built: BuiltTree, t: int):
    """Add several siblings beside existing capability holders, each on
    the platform of a sibling's key grant, a key under a sibling's
    platform grant, or the same key, on windows that overlap it or not."""
    tree = built.tree
    holders: Dict[str, List[Grant]] = {}
    for node in tree.nodes.values():
        if node.parent is None or t > tree.nodes[node.parent].expiry:
            continue
        for grant in node.grants:
            if grant.asset.kind.name == "VOTE_CAPABILITY":
                holders.setdefault(node.parent, []).append(grant)
    if not holders:
        return None
    parent_id = rng.choice(sorted(holders))
    parent = tree.nodes[parent_id]
    actor = treeref.controller_player(parent)
    if actor is None:
        return None
    proposals = [key for listed in built.universe.proposals.values() for key in listed]
    candidate = tree.clone()
    for _ in range(rng.randint(2, 8)):
        target = rng.choice(holders[parent_id])
        roll = rng.random()
        if target.platform is not None and roll < 0.4:
            asset, platform = capability(target.platform), None
        elif target.platform is None and roll < 0.7:
            if proposals and rng.random() < 0.5:
                key = rng.choice(proposals)
            else:
                key = rng.randbytes(32)
            asset, platform = capability(key), target.asset.key
        else:
            asset, platform = target.asset, target.platform
        if rng.random() < 0.6:
            start = rng.randint(target.start, target.expiry)
            expiry = rng.randint(start, target.expiry)
        else:
            start = target.expiry + rng.randint(1, 4)
            expiry = start + rng.randint(0, 4)
        expiry = min(expiry, parent.expiry)
        child_id = built.fresh_id()
        candidate.put(Node(
            node_id=child_id,
            parent=parent_id,
            controller=PlayerController(rng.choice(built.players)),
            expiry=max(expiry, t),
            created_at=t,
            grants=[Grant(asset, 1, min(start, expiry), expiry, platform=platform)],
        ))
    return "wide-siblings", actor, candidate


BENIGN_MAKERS = [benign_spawn, benign_spawn, benign_extend, benign_gc, benign_identity]
ADVERSARIAL_MAKERS = [
    adv_mutate_controller,
    adv_mutate_expiry,
    adv_remove_live,
    adv_revoke_live,
    adv_sealed_carve,
    adv_foreign_source,
    adv_over_carve,
    adv_expiry_exceeds,
    adv_sibling_overlap,
    adv_root_mutation,
    adv_resize_native,
    adv_lower_capacity,
    adv_orphan_children,
    adv_early_sibling_overlap,
    adv_wide_siblings,
]


def propose_transition(rng: random.Random, built: BuiltTree, t: int):
    """One (label, actor, candidate, benign) proposal, or None this round."""
    benign = rng.random() < 0.65
    makers = list(BENIGN_MAKERS if benign else ADVERSARIAL_MAKERS)
    rng.shuffle(makers)
    for maker in makers:
        made = maker(rng, built, t)
        if made is not None:
            label, actor, candidate = made
            if actor is None:
                continue
            return label, actor, candidate, benign
    return None


def carve_probes(old: PolicyTree, candidate: PolicyTree) -> List[Tuple[object, bytes]]:
    """Probe messages aimed exactly at what a transition hands over.

    The cap and cap+1 transaction pair makes the re-derived approval
    sets sharp around a carve's fungible boundary.
    """
    from .betaref import added_grants

    native_added: Dict[str, int] = {}
    dests_added: Dict[str, List[bytes]] = {}
    for node_id, (enc_bytes, cap, _s, _e, _platform) in added_grants(old, candidate):
        if enc_bytes == treeref.NATIVE_ENC:
            native_added[node_id] = native_added.get(node_id, 0) + cap
        elif enc_bytes[:1] == b"\x02":
            dests_added.setdefault(node_id, []).append(enc_bytes[1:])
    probes: List[Tuple[object, bytes]] = []
    for node_id, addresses in dests_added.items():
        for address in addresses:
            probes.append((ChainTx(1, 0, 0, 0, address, 0), b""))
            native = native_added.get(node_id)
            if native:
                probes.append((ChainTx(1, 0, 0, 0, address, native), b""))
                probes.append((ChainTx(1, 0, 0, 0, address, native + 1), b""))
    return probes
