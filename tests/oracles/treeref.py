"""Reference interpreter for delegation trees, written from first principles.

This module re-decides everything the production tree decides, using a
different algorithm over the same raw data (nodes, grants, the signing
log).  It never calls evaluate, sealed_assets, available_native, or
demands_of, so agreement between the two is evidence rather than
tautology.  Key differences in approach:

* coverage and shadowing resolve through *all* strict descendants, not
  just immediate children;
* asset identity is handled as canonical encoding bytes throughout;
* message demands are recomputed from the documented byte layouts.

Only player-controlled nodes are in scope; program-controlled nodes
delegate their decision to engine code and are probed elsewhere.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

from encumbra import errors

NATIVE_ENC = b"\x01"
ROOT = "root"

_PERSONAL_CLASS = hashlib.sha256(b"personal-sign-class-v1").digest()
_VOTE_TAG = b"vote-typed-v1"


def dest_enc(address: bytes) -> bytes:
    return b"\x02" + address


def cap_enc(key: bytes) -> bytes:
    return b"\x03" + key


def enc(asset) -> bytes:
    kind = asset.kind.name
    if kind == "NATIVE_BALANCE":
        return NATIVE_ENC
    if kind == "DESTINATION_ADDRESS":
        return dest_enc(asset.address)
    return cap_enc(asset.key)


def payload_cap_enc(payload: bytes) -> bytes:
    return cap_enc(hashlib.sha256(b"personal-sign-payload-v1" + payload).digest())


def grant_live(grant, t: int) -> bool:
    return grant.start <= t <= grant.expiry


def node_live(node, t: int) -> bool:
    return t <= node.expiry


def child_index(tree) -> Dict[str, List[str]]:
    index: Dict[str, List[str]] = {node_id: [] for node_id in tree.nodes}
    for node in tree.nodes.values():
        if node.parent is not None:
            index[node.parent].append(node.node_id)
    return index


def descendant_map(tree) -> Dict[str, Set[str]]:
    """Strict-descendant sets for every node, computed in one pass."""
    index = child_index(tree)
    out: Dict[str, Set[str]] = {}

    def fill(node_id: str) -> Set[str]:
        if node_id in out:
            return out[node_id]
        acc: Set[str] = set()
        for kid in index[node_id]:
            acc.add(kid)
            acc |= fill(kid)
        out[node_id] = acc
        return acc

    for node_id in tree.nodes:
        fill(node_id)
    return out


def descendants(tree, node_id: str) -> Set[str]:
    out: Set[str] = set()
    frontier = [node_id]
    while frontier:
        current = frontier.pop()
        for node in tree.nodes.values():
            if node.parent == current and node.node_id not in out:
                out.add(node.node_id)
                frontier.append(node.node_id)
    return out


def controller_player(node) -> Optional[str]:
    return getattr(node.controller, "player", None)


# ----------------------------------------------------------------------
# demands, sealing, fungible arithmetic


def demands_ref(message, extst: bytes) -> Optional[Tuple[int, List[Tuple[bytes, ...]]]]:
    """(native demand, [unit option tuples]) or None when unclassifiable."""
    name = type(message).__name__
    if name == "ChainTx":
        native = message.value + message.max_fee_per_gas * message.gas_limit
        return native, [(dest_enc(message.to),)]
    if name == "PersonalSign":
        return 0, [(payload_cap_enc(message.payload), cap_enc(_PERSONAL_CLASS))]
    if name == "TypedData":
        if len(extst) != 33:
            return None
        proposal_id, choice = extst[:32], extst[32]
        expected = hashlib.sha256(
            _VOTE_TAG + message.domain_hash + proposal_id + bytes([choice])
        ).digest()
        if expected != message.struct_hash:
            return None
        return 0, [(cap_enc(proposal_id), cap_enc(message.domain_hash))]
    return None


def sealed_ref(tree, st) -> Dict[bytes, str]:
    """Manual seals first, then destinations of outstanding signatures."""
    sealed: Dict[bytes, str] = dict(tree.manual_seals)
    for entry in st.intst:
        message = entry.message
        if type(message).__name__ != "ChainTx":
            continue
        if message.nonce < st.ost.recognized_nonce:
            continue
        sealed.setdefault(dest_enc(message.to), entry.node_id or "")
    return sealed


def spent_ref(node_id: str, st) -> int:
    total = 0
    for entry in st.intst:
        if entry.node_id != node_id:
            continue
        message = entry.message
        if type(message).__name__ == "ChainTx":
            total += message.value + message.max_fee_per_gas * message.gas_limit
    return total


def reserved_ref(tree, node_id: str, t: int) -> int:
    total = 0
    for node in tree.nodes.values():
        if node.parent != node_id:
            continue
        for grant in node.grants:
            if enc(grant.asset) == NATIVE_ENC and grant.expiry >= t:
                total += grant.cap
    return total


def native_available_ref(tree, node_id: str, t: int, st) -> int:
    if node_id == ROOT:
        if tree.native_capacity is None:
            return 0
        return tree.native_capacity - reserved_ref(tree, ROOT, t)
    live_caps = [
        g.cap
        for g in tree.nodes[node_id].grants
        if enc(g.asset) == NATIVE_ENC and grant_live(g, t)
    ]
    if not live_caps:
        return 0
    return sum(live_caps) - spent_ref(node_id, st) - reserved_ref(tree, node_id, t)


# ----------------------------------------------------------------------
# unit-asset control


def _holds_usable(
    tree,
    node_id: str,
    options: Tuple[bytes, ...],
    t: int,
    below_map: Optional[Dict[str, Set[str]]] = None,
) -> bool:
    node = tree.nodes[node_id]
    below = descendants(tree, node_id) if below_map is None else below_map[node_id]
    for grant in node.grants:
        ge = enc(grant.asset)
        if ge not in options or not grant_live(grant, t):
            continue
        blockers = set(options)
        blockers.add(ge)
        shadowed = any(
            enc(g.asset) in blockers and grant_live(g, t)
            for d in below
            for g in tree.nodes[d].grants
        )
        if not shadowed:
            return True
    return False


def evaluate_ref(
    tree,
    node_id: str,
    player: str,
    message,
    st,
    t: int,
    below_map: Optional[Dict[str, Set[str]]] = None,
) -> bool:
    node = tree.nodes.get(node_id)
    if node is None or node_id == ROOT:
        return False
    if not node_live(node, t):
        return False
    who = controller_player(node)
    if who is None or who != player:
        return False
    demands = demands_ref(message, st.extst)
    if demands is None:
        return False
    native, unit_sets = demands
    sealed = sealed_ref(tree, st)
    for options in unit_sets:
        if not _holds_usable(tree, node_id, options, t, below_map):
            return False
        for option in options:
            holder = sealed.get(option)
            if holder is not None and holder != node_id:
                return False
    if native > 0 and native > native_available_ref(tree, node_id, t, st):
        return False
    return True


def approved_ref(
    tree,
    player: str,
    message,
    st,
    t: int,
    below_map: Optional[Dict[str, Set[str]]] = None,
) -> bool:
    if below_map is None:
        below_map = descendant_map(tree)
    return any(
        evaluate_ref(tree, node_id, player, message, st, t, below_map)
        for node_id in tree.nodes
        if node_id != ROOT
    )


# ----------------------------------------------------------------------
# global scans


def unit_controllers(
    tree, asset_enc: bytes, t: int, platform_map: Dict[bytes, bytes]
) -> List[str]:
    """Unshadowed holders of one concrete unit asset at one instant."""
    platform = platform_map.get(asset_enc)
    covering: List[str] = []
    for node in tree.nodes.values():
        if node.node_id == ROOT or not node_live(node, t):
            continue
        for grant in node.grants:
            if not grant_live(grant, t):
                continue
            ge = enc(grant.asset)
            if ge == asset_enc or (platform is not None and ge == platform):
                covering.append(node.node_id)
                break
    cover_set = set(covering)
    return [
        node_id
        for node_id in covering
        if not (descendants(tree, node_id) & cover_set)
    ]


def scan_violations(
    tree,
    unit_assets: Sequence[bytes],
    times: Sequence[int],
    platform_map: Dict[bytes, bytes],
) -> List[str]:
    """Exclusivity and fungible-conservation violations over a time grid.

    Semantics match unit_controllers / reserved_ref pointwise; coverage
    windows and descendant sets are precomputed once so dense grids stay
    cheap.
    """
    out: List[str] = []
    below = descendant_map(tree)

    covering: Dict[bytes, List[Tuple[str, int, int]]] = {a: [] for a in unit_assets}
    native_kids: Dict[str, List[Tuple[int, int]]] = {}
    native_caps: Dict[str, int] = {}
    for node in tree.nodes.values():
        if node.node_id == ROOT:
            continue
        for grant in node.grants:
            ge = enc(grant.asset)
            if ge == NATIVE_ENC:
                parent = node.parent or ROOT
                native_kids.setdefault(parent, []).append((grant.cap, grant.expiry))
                native_caps[node.node_id] = (
                    native_caps.get(node.node_id, 0) + grant.cap
                )
                continue
            hi = min(grant.expiry, node.expiry)
            for asset in unit_assets:
                if ge == asset or platform_map.get(asset) == ge:
                    covering[asset].append((node.node_id, grant.start, hi))

    for t in times:
        for asset in unit_assets:
            live = {nid for nid, lo, hi in covering[asset] if lo <= t <= hi}
            if len(live) < 2:
                continue
            holders = [nid for nid in live if not (below[nid] & live)]
            if len(holders) > 1:
                out.append(f"t={t} asset={asset.hex()} holders={sorted(holders)}")
        for parent, kids in native_kids.items():
            reserved = sum(cap for cap, expiry in kids if expiry >= t)
            if parent == ROOT:
                cap = tree.native_capacity
                if cap is not None and reserved > cap:
                    out.append(f"t={t} root carves exceed capacity")
            elif reserved > native_caps.get(parent, 0):
                out.append(f"t={t} node={parent} over-delegates")
    return out


# ----------------------------------------------------------------------
# transition checking, full rescan
#
# The quadratic form of ``PolicyTree.validate_structure`` and
# ``check_update`` that the production checker replaced: children and
# reserved balances are found by scanning every node, every sibling
# grant is compared pairwise, and every kept node's grants are compared
# as multisets.  It raises ``UpdateRefused`` with the production
# details, so outcomes compare exactly.  Pairwise grant
# predicates (``Grant.conflicts_with``, ``PolicyTree._covered_by_parent``)
# are the production ones; tree-wide derivations are the ones above.


def validate_structure_ref(tree, t: int) -> None:
    covered_by_parent = type(tree)._covered_by_parent
    root = tree.nodes.get(ROOT)
    if root is None or root.parent is not None:
        raise errors.UpdateRefused("missing root")
    for node in tree.nodes.values():
        if node.node_id == ROOT:
            if node.grants:
                raise errors.UpdateRefused("root holds no grants")
            continue
        if node.parent not in tree.nodes:
            raise errors.UpdateRefused(f"dangling parent for {node.node_id}")
        parent = tree.nodes[node.parent]
        if node.expiry > parent.expiry:
            raise errors.UpdateRefused(f"{node.node_id} outlives its parent")
        native_seen = False
        for grant in node.grants:
            if grant.cap < 1:
                raise errors.UpdateRefused("non-positive grant cap")
            if grant.start > grant.expiry:
                raise errors.UpdateRefused("inverted grant window")
            if grant.expiry > node.expiry:
                raise errors.UpdateRefused(f"{node.node_id} grant outlives its node")
            if enc(grant.asset) == NATIVE_ENC:
                if native_seen:
                    raise errors.UpdateRefused("one fungible grant per node")
                native_seen = True
                if grant.platform is not None:
                    raise errors.UpdateRefused("platform on fungible grant")
            else:
                if grant.cap != 1:
                    raise errors.UpdateRefused("unit grant cap must be 1")
                is_cap = grant.asset.kind.name == "VOTE_CAPABILITY"
                if grant.platform is not None and not is_cap:
                    raise errors.UpdateRefused("platform on non-capability grant")
                if grant.platform is not None and grant.platform == grant.asset.key:
                    raise errors.UpdateRefused("grant cannot be its own platform")
            if node.parent != ROOT and not covered_by_parent(parent, grant):
                raise errors.UpdateRefused(
                    f"{node.node_id} grant on {grant.asset.label()} has no source"
                )
    for node in tree.nodes.values():
        flat = [
            (k.node_id, g)
            for k in tree.nodes.values()
            if k.parent == node.node_id
            for g in k.grants
        ]
        for i in range(len(flat)):
            for j in range(i + 1, len(flat)):
                id_a, a = flat[i]
                id_b, b = flat[j]
                if id_a != id_b and a.conflicts_with(b):
                    raise errors.UpdateRefused(
                        f"{id_a} and {id_b} overlap on {a.asset.label()}"
                    )
    if tree.native_capacity is not None:
        if reserved_ref(tree, ROOT, t) > tree.native_capacity:
            raise errors.UpdateRefused("root fungible capacity exceeded")
    for node in tree.nodes.values():
        if node.node_id == ROOT:
            continue
        natives = [g for g in node.grants if enc(g.asset) == NATIVE_ENC]
        reserved = reserved_ref(tree, node.node_id, t)
        if not natives:
            if reserved > 0:
                raise errors.UpdateRefused(f"{node.node_id} delegates absent balance")
        elif reserved > natives[0].cap:
            raise errors.UpdateRefused(f"{node.node_id} over-delegates balance")


def _grant_key_ref(grant) -> tuple:
    return (enc(grant.asset), grant.cap, grant.start, grant.expiry, grant.platform)


def check_update_ref(actor: str, old, new, st, t: int) -> None:
    validate_structure_ref(new, t)

    old_root = old.nodes[ROOT]
    new_root = new.nodes.get(ROOT)
    if (
        new_root is None
        or new_root.controller != old_root.controller
        or new_root.expiry != old_root.expiry
        or new.native_capacity != old.native_capacity
    ):
        raise errors.UpdateRefused("root is immutable")

    added = []
    for node_id, old_node in old.nodes.items():
        new_node = new.nodes.get(node_id)
        if new_node is None:
            if t <= old_node.expiry:
                raise errors.UpdateRefused(f"removal of live node {node_id}")
            continue
        if (
            new_node.parent != old_node.parent
            or new_node.controller != old_node.controller
            or new_node.expiry != old_node.expiry
        ):
            raise errors.UpdateRefused(f"mutation of node {node_id}")
        old_grants: Dict[tuple, int] = {}
        for grant in old_node.grants:
            key = _grant_key_ref(grant)
            old_grants[key] = old_grants.get(key, 0) + 1
        for grant in new_node.grants:
            key = _grant_key_ref(grant)
            if old_grants.get(key, 0) > 0:
                old_grants[key] -= 1
            else:
                added.append((node_id, grant))
        for (_, _, _, expiry, _), remaining in list(old_grants.items()):
            if remaining > 0 and t <= expiry:
                raise errors.UpdateRefused(f"revocation of live grant on {node_id}")

    anchors = {}
    for node_id, new_node in new.nodes.items():
        if node_id in old.nodes:
            continue
        cursor = new_node.parent
        source = None
        while cursor is not None:
            if cursor in old.nodes:
                source = old.nodes[cursor]
                break
            cursor = new.nodes[cursor].parent
        if source is None:
            raise errors.UpdateRefused("added subtree has no anchored ancestor")
        if t > source.expiry:
            raise errors.UpdateRefused(f"{source.node_id} has expired")
        if controller_player(source) != actor:
            raise errors.UpdateRefused(f"actor does not control {source.node_id}")
        anchors[node_id] = source
        for grant in new_node.grants:
            added.append((node_id, grant))

    if not added:
        return

    sealed = sealed_ref(old, st)
    native_drawn: Dict[str, int] = {}
    for node_id, grant in added:
        source = anchors.get(node_id)
        if source is None:
            for prior in old.nodes[node_id].grants:
                if t <= prior.expiry:
                    raise errors.UpdateRefused(f"regrant of active node {node_id}")
            source = old.nodes.get(new.nodes[node_id].parent)
            if source is None:
                raise errors.UpdateRefused("grant added under a new parent")
            if t > source.expiry:
                raise errors.UpdateRefused(f"{source.node_id} has expired")
            if controller_player(source) != actor:
                raise errors.UpdateRefused(f"actor does not control {source.node_id}")
        if enc(grant.asset) != NATIVE_ENC:
            if enc(grant.asset) in sealed:
                raise errors.UpdateRefused(f"{grant.asset.label()} is sealed")
        elif grant.expiry >= t and new.nodes[node_id].parent == source.node_id:
            native_drawn[source.node_id] = (
                native_drawn.get(source.node_id, 0) + grant.cap
            )

    for source_id, amount in native_drawn.items():
        if amount > native_available_ref(old, source_id, t, st):
            raise errors.UpdateRefused(f"carve exceeds {source_id} available balance")


def snapshot_ref(tree) -> dict:
    """The tree's structural summary as a dict, built whole on each call.

    This is the serialisation the per-node fragments replaced: its
    ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` is the
    text ``PolicyTree.snapshot_json`` must produce.
    """
    nodes = []
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        if hasattr(node.controller, "player"):
            controller = {"type": "player", "id": node.controller.player}
        else:
            controller = {"type": "program", "id": node.controller.name}
        grants = sorted(
            (
                {
                    "asset": g.asset.label(),
                    "cap": g.cap,
                    "start": g.start,
                    "expiry": g.expiry,
                    "platform": g.platform.hex() if g.platform else None,
                }
                for g in node.grants
            ),
            key=lambda d: (d["asset"], d["start"], d["expiry"]),
        )
        nodes.append(
            {
                "id": node.node_id,
                "parent": node.parent,
                "controller": controller,
                "expiry": node.expiry,
                "created_at": node.created_at,
                "grants": grants,
            }
        )
    return {
        "native_capacity": tree.native_capacity,
        "nodes": nodes,
        "seals": sorted((enc.hex(), owner) for enc, owner in tree.manual_seals.items()),
    }
