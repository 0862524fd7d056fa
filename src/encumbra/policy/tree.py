"""Delegation-tree policies with asset-time segmentation.

A wallet's signing authority is organized as a tree of sub-policies.
The root represents the wallet's residual self-ownership and never
signs; every other node holds grants carved out of its parent's
capacity for a bounded time window.  At any instant each unit asset
has at most one unexpired holder, and the fungible balance caps of
concurrent grants partition the available balance.

Grants are the single source of truth: what a parent has delegated
away is derived from its children's grants, never double-booked.  A
child's active grant shadows the parent's use of the covered asset for
the child's window; a fungible carve reserves the parent's capacity
from the moment it exists until the child window ends, so conservation
holds at every instant even for windows that start in the future.

A tree is plain data: its node table, its native capacity and its
manual seals.  The programs that control program nodes and the
transaction ledger belong to the wallet's policy, which hands them to
``evaluate``.  Nodes are values (frozen, with their grants in a tuple),
and an installed tree never changes: every update clones the tree,
which copies the table and its indexes and shares every node, changes
only the clone (a spawn puts one node, a re-grant replaces one, a seal
edits the clone's seals), and has the manager install the clone.  The
table is written only through ``put`` and ``remove``, which keep the
indexes and record the ids written since the clone; the update check
diffs only those ids.

A node's canonical JSON is written the first time an escrow write
serialises it and kept on the node, so a spawn builds none.  The tree's
text (``snapshot_json``) joins the kept fragments with the tree's own
capacity and manual seals; the fallback keeps each wallet's text and
asks for it again only after the wallet's tree was replaced, so an
escrow write builds the new nodes of the trees that changed and
nothing of the others.

Spending is likewise derived: a node's spent amount is computed from
the wallet's signing log (every logged signature is presumed
realizable), and a unit asset is sealed while the log holds a
signature touching it whose nonce has not yet been passed by the
recognized account nonce.  Sealed assets cannot be carved away; this
is what blocks the pre-sign-then-transfer double spend.  The seals the
log implies are derived by the state triple (``StateTriple.outstanding``),
once per triple and only when a node first reaches the seal check; the
tree adds its manual seals on top.  That one scan covers the whole log,
so a sign still grows linearly with the log until the seals are indexed
by nonce beside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Collection, Container, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import crypto
from ..assets import AssetId, AssetKind, UnitDemand, capability, demands_of
from ..errors import UnknownNode, UpdateRefused
from ..messages import ChainTx
from ..state import StateTriple

if TYPE_CHECKING:
    from ..darkdao import DaoVoteProgram
    from ..txpolicy import TxLedger

INFINITE_EXPIRY = 2**62
ROOT_ID = "root"


@dataclass(frozen=True)
class PlayerController:
    player: str


@dataclass(frozen=True)
class ProgramController:
    """Controller decided by engine code rather than a single player.

    The name resolves through the wallet policy's program table at
    evaluation time; snapshots record only the name.
    """

    name: str


Controller = Union[PlayerController, ProgramController]


@dataclass(frozen=True)
class Grant:
    """Authority over one asset for one inclusive time window.

    ``cap`` is a wei amount for the fungible asset and exactly 1 for
    unit assets.  ``platform`` declares, for a capability key, which
    platform key covers it; carving a specific key requires holding
    its declared platform (or the key itself).
    """

    asset: AssetId
    cap: int
    start: int
    expiry: int
    platform: Optional[bytes] = None

    def active_at(self, t: int) -> bool:
        return self.start <= t <= self.expiry

    def overlaps(self, other: "Grant") -> bool:
        return self.start <= other.expiry and other.start <= self.expiry

    def conflicts_with(self, other: "Grant") -> bool:
        """Two grants cannot coexist on overlapping windows."""
        if not self.overlaps(other):
            return False
        a, b = self.asset, other.asset
        if a.kind is AssetKind.NATIVE_BALANCE or b.kind is AssetKind.NATIVE_BALANCE:
            return False  # fungible slices partition, they do not conflict
        if a == b:
            return True
        if a.kind is AssetKind.VOTE_CAPABILITY and b.kind is AssetKind.VOTE_CAPABILITY:
            # A platform grant overlaps every key declared under it.
            if self.platform is not None and self.platform == b.key:
                return True
            if other.platform is not None and other.platform == a.key:
                return True
        return False


@dataclass(frozen=True)
class Node:
    """One sub-policy of a tree: a value, never edited in place.

    ``grants`` may be given as any sequence and is stored as a tuple.
    An update builds a new node (``dataclasses.replace``) and installs
    it in a cloned tree's node table, so trees share every node that an
    update leaves alone.  Being a value, a node also keeps its canonical
    JSON once built (``json_fragment``); a replaced node starts without
    it, and equality and hashing ignore it.
    """

    node_id: str
    parent: Optional[str]
    controller: Controller
    expiry: int
    created_at: int
    grants: Tuple[Grant, ...] = ()
    _json: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grants", tuple(self.grants))
        # A defaulted init=False field lives on the class until assigned;
        # assigning it here, not on first use, keeps every node's
        # attributes the same from construction on.
        object.__setattr__(self, "_json", None)

    def active_at(self, t: int) -> bool:
        return t <= self.expiry

    def json_fragment(self) -> str:
        """This node's canonical JSON, built on first use and kept."""
        fragment = self._json
        if fragment is None:
            fragment = _node_json(self)
            object.__setattr__(self, "_json", fragment)
        return fragment


def _node_json(node: Node) -> str:
    """The node's summary as ``json.dumps`` (sorted keys, compact) gives it.

    Written directly, without a dict: keys in sorted order, strings
    through ``json``'s own ASCII escaper (an asset label is ASCII by
    construction), ``None`` as ``null``.  Controllers are recorded by
    player or program name; grants by asset label, in a stable sort by
    label and window.  docs/encoding.md ("Escrow plaintext and blob") is
    the layout.
    """
    controller = node.controller
    if isinstance(controller, PlayerController):
        kind, name = "player", controller.player
    else:
        kind, name = "program", controller.name
    grants = node.grants
    if len(grants) > 1:
        grants = sorted(grants, key=_grant_order)
    rows = ",".join(
        f'{{"asset":"{g.asset.label()}","cap":{g.cap},"expiry":{g.expiry},'
        f'"platform":{_quote(g.platform.hex()) if g.platform else "null"},"start":{g.start}}}'
        for g in grants
    )
    parent = "null" if node.parent is None else _quote(node.parent)
    return (
        f'{{"controller":{{"id":{_quote(name)},"type":"{kind}"}},'
        f'"created_at":{node.created_at},"expiry":{node.expiry},"grants":[{rows}],'
        f'"id":{_quote(node.node_id)},"parent":{parent}}}'
    )


def _grant_order(grant: Grant) -> Tuple[str, int, int]:
    """A grant's place in its node's JSON: by label, then window."""
    return grant.asset.label(), grant.start, grant.expiry


def _holder(node: Node) -> Optional[str]:
    """The ``_held`` key of a node: its player, or ``None`` for a program."""
    controller = node.controller
    return controller.player if isinstance(controller, PlayerController) else None


def _insert(index: Dict, key, node_id: str, rank: Dict[str, int]) -> None:
    """Add ``node_id`` to ``index[key]``, keeping the ids in table order."""
    ids = index.get(key, ()) + (node_id,)
    if len(ids) > 1 and rank[ids[-2]] > rank[node_id]:
        ids = tuple(sorted(ids, key=rank.__getitem__))  # a kept node moved here
    index[key] = ids


def _drop(index: Dict, key, node_id: str) -> None:
    ids = tuple(kept for kept in index[key] if kept != node_id)
    if ids:
        index[key] = ids
    else:
        del index[key]


class PolicyTree:
    """Delegation tree for one wallet: a table of immutable nodes, its
    native capacity and its manual seals.  Only a fresh clone changes.

    Every write to the node table goes through ``put`` and ``remove``,
    which keep three indexes beside it, so no read walks the table:

    * ``_children``: parent id -> the ids of its children, in table order
      (a dangling parent id keeps its entry while its children do);
    * ``_held``: player -> the ids of the nodes that player controls,
      and ``None`` -> the ids of the program-controlled nodes;
    * ``written``: the ids put or removed since the tree was cloned,
      which is all ``check_update`` diffs.

    Table order is kept as a rank per id (``_rank``): a new id ranks
    after every other, a replaced node keeps its rank, and a removed id
    that comes back ranks last, as in the table.
    """

    def __init__(
        self,
        root_controller: str,
        root_expiry: int = INFINITE_EXPIRY,
        native_capacity: Optional[int] = None,
    ):
        self.nodes: Dict[str, Node] = {}
        self.native_capacity = native_capacity
        self.manual_seals: Dict[bytes, str] = {}  # asset encoding -> sealing node
        self._children: Dict[Optional[str], Tuple[str, ...]] = {}
        self._held: Dict[Optional[str], Tuple[str, ...]] = {}
        self._rank: Dict[str, int] = {}
        self._next_rank = 0
        self.written: Dict[str, None] = {}
        self.put(
            Node(
                node_id=ROOT_ID,
                parent=None,
                controller=PlayerController(root_controller),
                expiry=root_expiry,
                created_at=0,
            )
        )

    # ------------------------------------------------------------------
    # the node table and its indexes

    def put(self, node: Node) -> None:
        """Install ``node`` under its id, replacing any node of that id.

        A new id joins the end of the table; a replaced node keeps its
        place, and its index entries move only if its parent or its
        controller changed.
        """
        node_id = node.node_id
        prior = self.nodes.get(node_id)
        self.nodes[node_id] = node
        self.written[node_id] = None
        if prior is None:
            self._rank[node_id] = self._next_rank
            self._next_rank += 1
        elif prior.parent == node.parent and _holder(prior) == _holder(node):
            return
        else:
            self._unindex(prior)
        _insert(self._children, node.parent, node_id, self._rank)
        _insert(self._held, _holder(node), node_id, self._rank)

    def remove(self, node_id: str) -> None:
        """Drop the node ``node_id``; its children keep their parent id."""
        node = self.nodes.pop(node_id)
        del self._rank[node_id]
        self._unindex(node)
        self.written[node_id] = None

    def _unindex(self, node: Node) -> None:
        _drop(self._children, node.parent, node.node_id)
        _drop(self._held, _holder(node), node.node_id)

    def in_table_order(self, node_ids: Iterable[str]) -> List[str]:
        """``node_ids``, all in the table, sorted into table order."""
        return sorted(node_ids, key=self._rank.__getitem__)

    # ------------------------------------------------------------------
    # structure helpers

    def node(self, node_id: str) -> Node:
        found = self.nodes.get(node_id)
        if found is None:
            raise UnknownNode(node_id)
        return found

    def children(self, node_id: str) -> List[Node]:
        """The children of ``node_id`` in table order, read from the index."""
        return [self.nodes[child] for child in self._children.get(node_id, ())]

    def nodes_for_player(self, player: str) -> List[Node]:
        """Nodes the player might sign through, in creation order.

        Program-controlled nodes are included; the program decides at
        evaluation time whether this player may act through them.  The
        index gives the candidates, so the cost grows with the player's
        nodes and the program nodes, not with the tree.
        """
        held = self._held.get(player, ()) + self._held.get(None, ())
        out = [self.nodes[node_id] for node_id in held if node_id != ROOT_ID]
        out.sort(key=lambda n: (n.created_at, n.node_id))
        return out

    def clone(self) -> "PolicyTree":
        """A twin whose node table and manual seals can change freely.

        Nodes are values, so the twin shares every one of them: the
        cost is one copy of the node table and of each index (the index
        entries are tuples, shared too), not a copy of each node.  The
        twin starts with nothing written.
        """
        twin = PolicyTree.__new__(PolicyTree)
        twin.nodes = self.nodes.copy()
        twin.native_capacity = self.native_capacity
        twin.manual_seals = dict(self.manual_seals)
        twin._children = self._children.copy()
        twin._held = self._held.copy()
        twin._rank = self._rank.copy()
        twin._next_rank = self._next_rank
        twin.written = {}
        return twin

    # ------------------------------------------------------------------
    # derived accounting

    def spent_native(self, node_id: str, st: StateTriple) -> int:
        total = 0
        for entry in st.intst:
            if entry.node_id == node_id and isinstance(entry.message, ChainTx):
                total += entry.message.value + entry.message.fee_cap
        return total

    def reserved_native(self, node_id: str, t: int) -> int:
        """Capacity promised to children, held until each window ends."""
        total = 0
        for child in self._children.get(node_id, ()):
            for grant in self.nodes[child].grants:
                if grant.asset.kind is AssetKind.NATIVE_BALANCE and grant.expiry >= t:
                    total += grant.cap
        return total

    def native_grant(self, node_id: str) -> Optional[Grant]:
        for grant in self.node(node_id).grants:
            if grant.asset.kind is AssetKind.NATIVE_BALANCE:
                return grant
        return None

    def available_native(self, node_id: str, st: StateTriple) -> int:
        t = st.ost.chain_time
        if node_id == ROOT_ID:
            if self.native_capacity is None:
                return 0
            return self.native_capacity - self.reserved_native(ROOT_ID, t)
        grant = self.native_grant(node_id)
        if grant is None or not grant.active_at(t):
            return 0
        return grant.cap - self.spent_native(node_id, st) - self.reserved_native(node_id, t)

    def sealed_assets(self, st: StateTriple) -> Dict[bytes, str]:
        """Sealed unit assets, keyed by encoding: the log's outstanding
        seals (``st.outstanding``, derived once per triple) with the
        manual seals (application semantics) taking precedence."""
        return {**st.outstanding, **self.manual_seals}

    def seal(self, node_id: str, asset: AssetId) -> None:
        """Seal ``asset`` for every node but ``node_id``.

        The owner is an opaque label, like the ``""`` that
        ``StateTriple.outstanding`` records for a log entry with no
        node: it may name no live node (a seal outlives the garbage
        collection of its node).  Callers that take an owner from
        outside validate it, as ``policy.update.seal`` does.
        """
        self.manual_seals[asset.encode()] = node_id

    def unseal(self, asset: AssetId) -> None:
        self.manual_seals.pop(asset.encode(), None)

    # ------------------------------------------------------------------
    # evaluation

    def _shadowed(self, node_id: str, grant: Grant, options: Tuple[AssetId, ...], t: int) -> bool:
        for child in self.children(node_id):
            for g in child.grants:
                if not g.active_at(t):
                    continue
                if g.asset in options or g.asset == grant.asset:
                    return True
        return False

    def _unit_satisfied(self, node_id: str, demand: UnitDemand, st: StateTriple) -> bool:
        t = st.ost.chain_time
        node = self.nodes[node_id]
        for grant in node.grants:
            if grant.asset not in demand.options:
                continue
            if not grant.active_at(t):
                continue
            if self._shadowed(node_id, grant, demand.options, t):
                continue
            for option in demand.options:
                enc = option.encode()
                sealer = self.manual_seals.get(enc, st.outstanding.get(enc))
                if sealer is not None and sealer != node_id:
                    return False
            return True
        return False

    def evaluate(
        self,
        node_id: str,
        player: str,
        message,
        st: StateTriple,
        programs: Optional[Dict[str, DaoVoteProgram]] = None,
        ledger: Optional[TxLedger] = None,
    ) -> bool:
        """Decide whether ``player`` may sign ``message`` through the node.

        Total over well-formed inputs: every reason to say no returns
        False rather than raising, except an unknown node id.  The
        decision reads its instant from ``st.ost.chain_time``, and the
        seals and the ledger gate read the nonce from
        ``st.ost.recognized_nonce``: nothing beside the triple.

        ``programs`` (name -> program) decides program-controlled nodes.
        With a ``ledger``, a chain transaction's spending power comes
        from the ledger instead of the node's native grant.  Both belong
        to the wallet's policy, not to the tree.
        """
        node = self.node(node_id)
        if node_id == ROOT_ID:
            return False  # residual ownership never signs
        if not node.active_at(st.ost.chain_time):
            return False
        controller = node.controller
        if isinstance(controller, PlayerController):
            if controller.player != player:
                return False
        else:
            program = None if programs is None else programs.get(controller.name)
            if program is None or not program.allows(player, message, st):
                return False
        demands = demands_of(message, st.extst)
        if demands is None:
            return False
        for unit in demands.units:
            if not self._unit_satisfied(node_id, unit, st):
                return False
        if isinstance(message, ChainTx) and ledger is not None:
            if not ledger.approves_chain_tx(node_id, message, st):
                return False
        elif demands.native > 0:
            if demands.native > self.available_native(node_id, st):
                return False
        return True

    # ------------------------------------------------------------------
    # structural validation

    def validate_structure(self, t: int) -> None:
        """Check the segmentation invariants of the whole tree at ``t``.

        Raises on the first violation.  Rules run in pass order: each
        node's own rules in ``self.nodes`` order, then sibling
        disjointness under each parent in that order, then fungible
        conservation (the root's capacity, then each node in order).
        Cost is one sort of the ids into table order, then linear in
        nodes and grants, plus one comparison per pair of sibling unit
        grants that share a conflict bucket.  This is ``validate_parts``
        with every node touched.
        """
        self.validate_parts(self.nodes, (), t)

    def validate_parts(
        self, touched: Collection[str], vacated: Iterable[str], t: int
    ) -> None:
        """Check the invariants that a change to ``touched`` can break.

        ``touched`` names the nodes a change added, or whose parent,
        controller, expiry or grants it changed (and the root when it
        changed the capacity); ``vacated`` names the ids it removed.
        The rules run on those parts only:

        * each node's own rules on touched nodes and on the children of
          touched and vacated ids;
        * sibling disjointness under the parents of touched nodes, for
          pairs that include a touched node;
        * conservation on touched nodes and their parents, and the
          root's capacity when the root is one of them.

        The parts are read from the indexes, so the cost is the rules on
        those parts: sorting them into table order, each node's own rules,
        and a visit to each child of a gathered node (under the root,
        every one of its children).  Precondition: before the change the
        tree was valid at an instant not after ``t``.  A fungible carve
        reserves balance only until it expires, so reservations only
        shrink as ``t`` grows, and nothing the change did not touch can
        break.  The rules run in the order of ``validate_structure``, so
        under the precondition the first violation raised is the one the
        full check would raise.
        """
        root = self.nodes.get(ROOT_ID)
        if root is None or root.parent is not None:
            raise UpdateRefused("missing root")
        parents = {self.nodes[node_id].parent for node_id in touched}
        parents.discard(None)
        checked = set(touched)
        for node_id in (*touched, *vacated):
            checked.update(self._children.get(node_id, ()))
        for node_id in self.in_table_order(checked):
            self._check_node(self.nodes[node_id])
        # Every touched node's parent is in the table now: a dangling one
        # was refused above.  The balances of touched nodes and their
        # parents are checked against what their children reserve.
        gathered = parents.union(touched)
        order = self.in_table_order(gathered)
        for node_id in order:
            if node_id in parents:
                self._check_siblings(self.children(node_id), touched)
        if ROOT_ID in gathered and self.native_capacity is not None:
            if self.reserved_native(ROOT_ID, t) > self.native_capacity:
                raise UpdateRefused("root fungible capacity exceeded")
        for node_id in order:
            if node_id != ROOT_ID:
                self._check_balance(node_id, self.reserved_native(node_id, t))

    def _check_node(self, node: Node) -> None:
        """A node's own rules: its window, its grants and their source."""
        if node.node_id == ROOT_ID:
            if node.grants:
                raise UpdateRefused("root holds no grants")
            return
        if node.parent not in self.nodes:
            raise UpdateRefused(f"dangling parent for {node.node_id}")
        parent = self.nodes[node.parent]
        if node.expiry > parent.expiry:
            raise UpdateRefused(f"{node.node_id} outlives its parent")
        native_seen = False
        for grant in node.grants:
            if grant.cap < 1:
                raise UpdateRefused("non-positive grant cap")
            if grant.start > grant.expiry:
                raise UpdateRefused("inverted grant window")
            if grant.expiry > node.expiry:
                raise UpdateRefused(f"{node.node_id} grant outlives its node")
            if grant.asset.kind is AssetKind.NATIVE_BALANCE:
                if native_seen:
                    raise UpdateRefused("one fungible grant per node")
                native_seen = True
                if grant.platform is not None:
                    raise UpdateRefused("platform on fungible grant")
            else:
                if grant.cap != 1:
                    raise UpdateRefused("unit grant cap must be 1")
                if grant.platform is not None and grant.asset.kind is not AssetKind.VOTE_CAPABILITY:
                    raise UpdateRefused("platform on non-capability grant")
                if grant.platform is not None and grant.platform == grant.asset.key:
                    raise UpdateRefused("grant cannot be its own platform")
            if node.parent != ROOT_ID and not self._covered_by_parent(parent, grant):
                raise UpdateRefused(
                    f"{node.node_id} grant on {grant.asset.label()} has no source"
                )

    @staticmethod
    def _check_siblings(siblings: Sequence[Node], touched: Container[str]) -> None:
        """Sibling disjointness, on pairs of unit grants with a touched node.

        Fungible grants never conflict, so only unit grants are
        compared.  Two unit grants can conflict only on one asset, or on
        a platform key and a key declared under it, so each touched grant
        is compared only with the grants on its asset, on its platform,
        and declaring it as their platform.  Candidate pairs are tried in
        the order of a pairwise scan over the siblings' unit grants, so
        the conflict raised is the one that scan would find first.
        """
        flat = [
            (k.node_id, g)
            for k in siblings
            for g in k.grants
            if g.asset.kind is not AssetKind.NATIVE_BALANCE
        ]
        if len(flat) < 2:
            return
        on_asset: Dict[bytes, List[int]] = {}
        under_platform: Dict[bytes, List[int]] = {}
        for pos, (_, grant) in enumerate(flat):
            on_asset.setdefault(grant.asset.encode(), []).append(pos)
            if grant.platform is not None:
                under_platform.setdefault(grant.platform, []).append(pos)
        pairs = set()
        for pos, (node_id, grant) in enumerate(flat):
            if node_id not in touched:
                continue
            near = on_asset[grant.asset.encode()] + under_platform.get(grant.asset.key, [])
            if grant.platform is not None:
                near += on_asset.get(capability(grant.platform).encode(), [])
            pairs.update((min(pos, other), max(pos, other)) for other in near if other != pos)
        for i, j in sorted(pairs):
            id_a, a = flat[i]
            id_b, b = flat[j]
            if id_a != id_b and a.conflicts_with(b):
                raise UpdateRefused(f"{id_a} and {id_b} overlap on {a.asset.label()}")

    def _check_balance(self, node_id: str, reserved: int) -> None:
        """Fungible conservation at one non-root node, pointwise at t.

        A non-root node reserves balance only for a child's fungible
        grant, which ``_check_node`` found covered by a fungible grant on
        this node; so a node that reserves has a grant to check.
        """
        grant = self.native_grant(node_id)
        if grant is not None and reserved > grant.cap:
            raise UpdateRefused(f"{node_id} over-delegates balance")

    @staticmethod
    def _covered_by_parent(parent: Node, grant: Grant) -> bool:
        for source in parent.grants:
            if source.start > grant.start or source.expiry < grant.expiry:
                continue
            if source.asset == grant.asset:
                return True
            if (
                grant.asset.kind is AssetKind.VOTE_CAPABILITY
                and source.asset.kind is AssetKind.VOTE_CAPABILITY
                and grant.platform is not None
                and source.asset.key == grant.platform
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # snapshots

    def snapshot_json(self) -> str:
        """Deterministic structural summary as canonical JSON.

        The text ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
        gives for {native capacity, nodes in id order, manual seals}, put
        together from each node's kept fragment: only nodes never
        serialised before are built.  The capacity and the manual seals
        belong to the tree, not to a node, so they are serialised on
        every call.
        """
        nodes = ",".join(self.nodes[node_id].json_fragment() for node_id in sorted(self.nodes))
        seals = json.dumps(
            sorted((enc.hex(), owner) for enc, owner in self.manual_seals.items()),
            separators=(",", ":"),
        )
        capacity = json.dumps(self.native_capacity)
        return f'{{"native_capacity":{capacity},"nodes":[{nodes}],"seals":{seals}}}'

    def snapshot_digest(self) -> bytes:
        return crypto.digest(self.snapshot_json().encode())
