"""Every write to a tree's node table goes through ``PolicyTree``.

``PolicyTree`` keeps indexes beside its node table (children by parent,
nodes by controller, the ids written since a clone), and only its own
methods keep them in step with the table.  A write that goes round them,
such as ``tree.nodes[node_id] = node`` or ``del tree.nodes[node_id]``,
leaves the indexes stale: ``check_update`` would then miss the write.
So outside ``PolicyTree``'s own methods no file in ``src/encumbra`` or
``tests`` (the oracles included) assigns or deletes an item of a
``.nodes`` attribute or calls a mutating method on one; ``put`` and
``remove`` do that work.

A wallet's tree changes on one path, so the rules on who may change it
live in one module: in ``src/encumbra`` only ``policy/update.py`` calls
``.clone()`` (to build a successor tree), and only
``WalletManager._install_tree`` assigns a policy's ``tree``.

A change replicates before it is installed, so a refused change has
nothing to put back: in ``WalletManager`` no function stores to
``self._wallets[...]``, a ``.policy``, a ``.policy_version`` or a
policy's ``.tree`` before it has called the recovery hook
(``_notify``, or ``on_policy_change`` itself).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
SCOPES = (ROOT / "src" / "encumbra", ROOT / "tests")
MUTATORS = {"pop", "popitem", "update", "clear", "setdefault"}


def _is_table(node):
    return isinstance(node, ast.Attribute) and node.attr == "nodes"


def _writes(tree):
    """The lines of ``tree`` that write a ``.nodes`` table directly,
    outside the body of ``class PolicyTree``."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == "PolicyTree":
            continue
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if _is_table(node.value):
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS and _is_table(node.func.value):
                found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def _is_policy(node):
    return (isinstance(node, ast.Name) and node.id == "policy") or (
        isinstance(node, ast.Attribute) and node.attr == "policy"
    )


def _tree_changes(tree, may_clone):
    """The lines of ``tree`` that call ``.clone()`` (unless
    ``may_clone``) or store to or delete a ``policy.tree`` outside the
    body of ``_install_tree``."""
    found = []
    stack = [(tree, False)]
    while stack:
        node, installing = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "_install_tree":
            installing = True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "clone" and not may_clone:
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if node.attr == "tree" and _is_policy(node.value) and not installing:
                found.append(node.lineno)
        stack.extend((child, installing) for child in ast.iter_child_nodes(node))
    return sorted(found)


HOOKS = {"_notify", "on_policy_change"}


def _own_nodes(function):
    """The nodes of ``function``'s body, not those of a nested function."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _is_install(node):
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        target = node.value
        return isinstance(target, ast.Attribute) and target.attr == "_wallets"
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.attr in ("policy", "policy_version") or (
            node.attr == "tree" and _is_policy(node.value)
        )
    return False


def _early_installs(tree):
    """The lines in ``class WalletManager`` that install a change before
    their function has called the hook (or in a function that never does)."""
    found = []
    for manager in ast.walk(tree):
        if not (isinstance(manager, ast.ClassDef) and manager.name == "WalletManager"):
            continue
        for function in ast.walk(manager):
            if not isinstance(function, ast.FunctionDef):
                continue
            nodes = list(_own_nodes(function))
            hook = min(
                (node.lineno for node in nodes if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr in HOOKS),
                default=float("inf"),
            )
            found += [node.lineno for node in nodes if _is_install(node) and node.lineno < hook]
    return sorted(found)


def test_the_manager_installs_a_change_only_after_the_hook():
    path = ROOT / "src" / "encumbra" / "manager.py"
    assert _early_installs(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_check_finds_each_store_before_the_hook():
    source = (
        "class WalletManager:\n"
        "    def lw_gen(self, wallet):\n"
        "        self._wallets[wallet.wallet_id] = wallet\n"
        "        self._notify(wallet, NEW_WALLET)\n"
        "        self._wallets[wallet.wallet_id] = wallet\n"
        "    def lw_update(self, wallet, policy):\n"
        "        wallet.policy = policy\n"
        "        wallet.policy_version += 1\n"
        "        def undo():\n"
        "            del wallet.policy\n"
        "        self.on_policy_change(wallet, CLASS)\n"
        "        wallet.policy = policy\n"
        "    def _install_tree(self, wallet, tree):\n"
        "        wallet.policy.tree = tree\n"
        "        policy.tree = tree\n"
        "        self.tree = tree\n"
        "        x = policy.tree\n"
        "class Other:\n"
        "    def f(self, wallet):\n"
        "        wallet.policy = None\n"
    )
    assert _early_installs(ast.parse(source)) == [3, 7, 8, 10, 14, 15]


def test_trees_change_only_through_the_update_module():
    source = ROOT / "src" / "encumbra"
    update = source / "policy" / "update.py"
    changes = []
    for path in sorted(source.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = _tree_changes(tree, may_clone=path == update)
        changes += [f"{path.relative_to(ROOT)}:{line}" for line in lines]
    assert changes == []


def test_the_check_finds_each_tree_change():
    source = (
        "t2 = tree.clone()\n"
        "wallet.policy.tree = t2\n"
        "policy.tree = t2\n"
        "del policy.tree\n"
        "policy.tree, x = t2, 1\n"
        "class WalletManager:\n"
        "    def _install_tree(self, wallet, tree):\n"
        "        policy.tree = tree\n"
        "        def undo():\n"
        "            policy.tree = None\n"
        "self.tree = t2\n"
        "x = policy.tree\n"
    )
    assert _tree_changes(ast.parse(source), may_clone=False) == [1, 2, 3, 4, 5]
    assert _tree_changes(ast.parse(source), may_clone=True) == [2, 3, 4, 5]


def test_node_tables_are_written_only_by_the_tree():
    direct = []
    for scope in SCOPES:
        for path in sorted(scope.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            direct += [f"{path.relative_to(ROOT)}:{line}" for line in _writes(tree)]
    assert direct == []


def test_the_check_finds_each_kind_of_direct_write():
    source = (
        "t.nodes['a'] = n\n"
        "del t.nodes['a']\n"
        "t.nodes.pop('a', None)\n"
        "t.nodes.update({})\n"
        "t.nodes.clear()\n"
        "t.nodes['a'] += n\n"
        "class PolicyTree:\n"
        "    def put(self, node):\n"
        "        self.nodes[node.node_id] = node\n"
        "t.put(n)\n"
        "t.nodes.get('a')\n"
        "t.nodes = {}\n"
    )
    assert _writes(ast.parse(source)) == [1, 2, 3, 4, 5, 6]
