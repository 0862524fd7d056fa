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
