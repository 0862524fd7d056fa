"""The update predicate: which policy transitions are admissible.

``check_update`` validates a proposed tree against the current one and
refuses anything that is not a clean spawn of new capacity out of the
actor's own holdings, a re-grant of a node whose every holding has
expired, or garbage collection of expired parts.  The instant ``t`` of
every rule below is the triple's ``st.ost.chain_time``, and the seals
come from the same triple; the checks take no time beside it:

* the new tree must itself be asset-time segmented; since the old tree
  already is, only the parts the update touched are checked (the added
  or changed nodes, their children, their sibling groups and their
  parents' balance), which holds as long as the old tree is valid at
  ``t`` and ``t`` never goes back;
* nothing another player currently holds may shrink or vanish;
* every added node, even an empty one, must hang under a live anchored
  ancestor (the nearest ancestor already in the old tree), and the
  actor must control that anchor: no player hangs even an empty node
  under a node it does not control;
* every added grant must carve from a node the actor controls (the
  root's residual capacity counts as the root controller's), and a
  re-grant must add at least one grant;
* carved capacity must be unsealed — no outstanding signature may be
  able to spend what is being handed over.

``seal`` and ``unseal`` touch only the manual seals and read no triple:
the access manager (the root's controller) or a node's controller may
seal for that node, and only the access manager may unseal.  After the
permission checks, a change that changes nothing is refused: an empty
re-grant, a seal already held by that node, an unseal of no seal.  Each
change returns a successor tree for ``WalletManager`` to install, which
refuses a ``frozen`` wallet before any rule here runs.

Every refusal is one ``UpdateRefused`` whose reason is in ``.detail``
only, so a player who controls nothing cannot tell from a refusal
which assets, windows or node ids other players hold.

Its cost grows with what the update wrote, not with the tree.  The
proposed tree is a clone of the current one changed through
``PolicyTree.put`` and ``remove``, and it records the ids written since
the clone, so only those are diffed; the rules then run on the touched
parts, which the tree's indexes find.  A spawn into a large tree checks
no more nodes and compares no more grants than one into a small tree of
the same shape near the spawn.  A spawn still visits every child of its
parent (their carves bound the parent's balance, and their grants are
the new node's siblings), so a spawn under the root of a flat tree stays
linear in the root's children.

The checker is deliberately structural and at least as strict as those
bullets: it refuses some semantically harmless edits (such as revoking
a grant whose window has not started) rather than risk admitting a
harmful one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..assets import AssetId, AssetKind
from ..errors import UpdateRefused
from ..state import StateTriple
from .tree import Controller, Grant, Node, PlayerController, PolicyTree, ROOT_ID


def _grant_key(grant: Grant) -> tuple:
    return (grant.asset.encode(), grant.cap, grant.start, grant.expiry, grant.platform)


def _controlling_ancestor(old: PolicyTree, new: PolicyTree, node_id: str) -> Optional[Node]:
    """Nearest ancestor of ``node_id`` that already exists in the old tree."""
    cursor = new.nodes[node_id].parent
    while cursor is not None:
        if cursor in old.nodes:
            return old.nodes[cursor]
        cursor = new.nodes[cursor].parent
    return None


def _check_source(actor: str, source: Node, t: int) -> None:
    """Refuse unless ``source`` is live at ``t`` and ``actor`` is the
    player controlling it."""
    if t > source.expiry:
        raise UpdateRefused(f"{source.node_id} has expired")
    controller = source.controller
    if not isinstance(controller, PlayerController) or controller.player != actor:
        raise UpdateRefused(f"actor does not control {source.node_id}")


def _live_node(tree: PolicyTree, node_id: str, t: int) -> Node:
    """The node ``node_id`` of ``tree``, refused unless it is live at ``t``."""
    node = tree.nodes.get(node_id)
    if node is None:
        raise UpdateRefused(f"unknown node {node_id}")
    if t > node.expiry:
        raise UpdateRefused(f"{node_id} has expired")
    return node


def check_update(
    actor: str,
    old: PolicyTree,
    new: PolicyTree,
    st: StateTriple,
) -> None:
    """Raise unless ``old -> new`` is an admissible transition by ``actor``.

    Preconditions: ``new`` is a clone of ``old`` changed only through
    ``PolicyTree.put`` and ``remove``, and ``old`` is valid at ``t``,
    the triple's chain time (it passed this check when it was admitted,
    and ``t`` never goes back since).  The ids ``new`` wrote since the
    clone are diffed against ``old`` to find the removed nodes and the
    touched ones: added nodes, and kept nodes whose parent, controller,
    expiry or grant list changed.  Edits are visited in ``old``'s table
    order and added nodes in ``new``'s, as a diff of the whole tables
    would visit them.  ``PolicyTree.validate_parts`` then checks only
    those parts: the touched nodes, their children, their sibling groups
    and their parents' balance; under the preconditions it raises what a
    full ``validate_structure`` would.  The transition rules follow, on
    the removed and touched nodes only, plus for each added node the path
    up to its nearest old ancestor.  A node written back unchanged (the
    same object, or equal fields) is no edit.
    """
    t = st.ost.chain_time
    kept: List[str] = []
    fresh: List[str] = []
    for node_id in new.written:
        if node_id in old.nodes:
            kept.append(node_id)
        elif node_id in new.nodes:
            fresh.append(node_id)
    fresh = new.in_table_order(fresh)
    edits: List[Tuple[str, Node, Optional[Node]]] = []
    for node_id in old.in_table_order(kept):
        old_node, new_node = old.nodes[node_id], new.nodes.get(node_id)
        if new_node is old_node:
            continue
        if (
            new_node is None
            or new_node.parent != old_node.parent
            or new_node.controller != old_node.controller
            or new_node.expiry != old_node.expiry
            or new_node.grants != old_node.grants
        ):
            edits.append((node_id, old_node, new_node))
    touched = {node_id for node_id, _, new_node in edits if new_node is not None}
    touched.update(fresh)
    if new.native_capacity != old.native_capacity:
        touched.add(ROOT_ID)  # the capacity bounds what the root's children reserve
    vacated = {node_id for node_id, _, new_node in edits if new_node is None}
    new.validate_parts(touched, vacated, t)

    old_root = old.nodes[ROOT_ID]
    new_root = new.nodes.get(ROOT_ID)
    if new.native_capacity != old.native_capacity or (
        new_root is not old_root
        and (
            new_root is None
            or new_root.controller != old_root.controller
            or new_root.expiry != old_root.expiry
        )
    ):
        raise UpdateRefused("root is immutable")

    added: List[Tuple[str, Grant]] = []

    for node_id, old_node, new_node in edits:
        if new_node is None:
            if t <= old_node.expiry:
                raise UpdateRefused(f"removal of live node {node_id}")
            continue
        if (
            new_node.parent != old_node.parent
            or new_node.controller != old_node.controller
            or new_node.expiry != old_node.expiry
        ):
            raise UpdateRefused(f"mutation of node {node_id}")
        if new_node.grants == old_node.grants:
            continue
        old_grants: Dict[tuple, int] = {}
        for grant in old_node.grants:
            old_grants[_grant_key(grant)] = old_grants.get(_grant_key(grant), 0) + 1
        for grant in new_node.grants:
            key = _grant_key(grant)
            if old_grants.get(key, 0) > 0:
                old_grants[key] -= 1
            else:
                added.append((node_id, grant))
        for (_, _, _, expiry, _), remaining in list(old_grants.items()):
            if remaining > 0 and t <= expiry:
                raise UpdateRefused(f"revocation of live grant on {node_id}")

    anchors: Dict[str, Node] = {}
    for node_id in fresh:
        new_node = new.nodes[node_id]
        source = _controlling_ancestor(old, new, node_id)
        if source is None:
            raise UpdateRefused("added subtree has no anchored ancestor")
        _check_source(actor, source, t)
        anchors[node_id] = source
        for grant in new_node.grants:
            added.append((node_id, grant))

    if not added:
        return

    sealed: Optional[Dict[bytes, str]] = None  # derived at the first unit grant
    native_drawn: Dict[str, int] = {}
    for node_id, grant in added:
        source = anchors.get(node_id)
        if source is None:
            # A node may be re-granted only once everything it held has
            # expired.  Topping up a node that still holds live grants
            # would let separately carved resources combine into
            # approvals the actor never held in one piece.
            for prior in old.nodes[node_id].grants:
                if t <= prior.expiry:
                    raise UpdateRefused(f"regrant of active node {node_id}")
            source_id = new.nodes[node_id].parent
            source = old.nodes.get(source_id)
            if source is None:
                raise UpdateRefused("grant added under a new parent")
            _check_source(actor, source, t)
        if grant.asset.kind is not AssetKind.NATIVE_BALANCE:
            if sealed is None:
                sealed = old.sealed_assets(st)
            if grant.asset.encode() in sealed:
                raise UpdateRefused(f"{grant.asset.label()} is sealed")
        elif grant.expiry >= t and new.nodes[node_id].parent == source.node_id:
            # Direct carves draw on the source's unspent, unreserved
            # balance; cap alone is not enough once the source has spent.
            # Nested new levels are funded by their new parent, which the
            # structural pass already bounds.
            native_drawn[source.node_id] = (
                native_drawn.get(source.node_id, 0) + grant.cap
            )

    for source_id, amount in native_drawn.items():
        if amount > old.available_native(source_id, st):
            raise UpdateRefused(f"carve exceeds {source_id} available balance")


def spawn(
    tree: PolicyTree,
    actor: str,
    parent_id: str,
    node_id: str,
    controller: Controller,
    expiry: int,
    grants: Sequence[Grant],
    st: StateTriple,
) -> PolicyTree:
    """Validated spawn at the triple's chain time; returns the successor
    tree, original untouched."""
    t = st.ost.chain_time
    _live_node(tree, parent_id, t)
    if node_id in tree.nodes:
        raise UpdateRefused(f"node id {node_id} already in use")
    candidate = tree.clone()
    candidate.put(
        Node(
            node_id=node_id,
            parent=parent_id,
            controller=controller,
            expiry=expiry,
            created_at=t,
            grants=grants,
        )
    )
    check_update(actor, tree, candidate, st)
    return candidate


def add_grants(
    tree: PolicyTree,
    actor: str,
    node_id: str,
    grants: Sequence[Grant],
    st: StateTriple,
) -> PolicyTree:
    """Re-grant a live node whose previous holdings have all expired."""
    node = _live_node(tree, node_id, st.ost.chain_time)
    if not grants:
        raise UpdateRefused(f"grant on {node_id} adds nothing")
    candidate = tree.clone()
    candidate.put(replace(node, grants=node.grants + tuple(grants)))
    check_update(actor, tree, candidate, st)
    return candidate


def seal(tree: PolicyTree, actor: str, node_id: str, asset: AssetId) -> PolicyTree:
    """Seal ``asset`` for every node but ``node_id``."""
    node = tree.nodes.get(node_id)
    if node is None:
        raise UpdateRefused(f"unknown node {node_id}")
    player = PlayerController(actor)
    if player != tree.nodes[ROOT_ID].controller and player != node.controller:
        raise UpdateRefused(f"actor may not seal for {node_id}")
    if tree.manual_seals.get(asset.encode()) == node_id:
        raise UpdateRefused(f"{asset.label()} is already sealed for {node_id}")
    candidate = tree.clone()
    candidate.seal(node_id, asset)
    return candidate


def unseal(tree: PolicyTree, actor: str, asset: AssetId) -> PolicyTree:
    """Lift the manual seal on ``asset``."""
    if PlayerController(actor) != tree.nodes[ROOT_ID].controller:
        raise UpdateRefused("only the access manager may unseal")
    if asset.encode() not in tree.manual_seals:
        raise UpdateRefused(f"{asset.label()} holds no seal")
    candidate = tree.clone()
    candidate.unseal(asset)
    return candidate
