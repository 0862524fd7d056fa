"""A block header is hashed in one place on the chain's side.

``SimChain._hash`` extends the chain's prefix of header hashes, in
height order, when a hash is read; nothing on a command's path reads
one.  A ``Block`` value derives its own hash from its fields, which is
how the reference chain and ``dataclasses.replace`` get theirs.  So in
``src/encumbra`` ``block_hash(`` is called only inside those two:
``SimChain._hash`` and ``Block.__post_init__``.  A new caller would be a
second hashing path, and could put header hashing back on a command.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
ALLOWED = {("SimChain", "_hash"), ("Block", "__post_init__")}


def _is_block_hash(func):
    return (isinstance(func, ast.Name) and func.id == "block_hash") or (
        isinstance(func, ast.Attribute) and func.attr == "block_hash"
    )


def _hash_calls(tree):
    """The lines of ``tree`` that call ``block_hash`` outside the
    functions of ``ALLOWED``, named (enclosing class, function)."""
    found = []
    stack = [(tree, None, None)]
    while stack:
        node, klass, function = stack.pop()
        if isinstance(node, ast.ClassDef):
            klass, function = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call) and _is_block_hash(node.func):
            if (klass, function) not in ALLOWED:
                found.append(node.lineno)
        stack.extend((child, klass, function) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_only_the_chain_prefix_and_a_block_hash_a_header():
    calls = []
    for path in sorted((ROOT / "src" / "encumbra").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [f"{path.relative_to(ROOT)}:{line}" for line in _hash_calls(tree)]
    assert calls == []


def test_the_check_finds_a_new_caller():
    source = (
        "GENESIS = block_hash(0, b'', b'', 0)\n"
        "class SimChain:\n"
        "    def _hash(self, height):\n"
        "        return block_hash(height, p, r, t)\n"
        "    def recent_block_hashes(self):\n"
        "        return simchain.block_hash(self.height, p, r, t)\n"
        "    def header(self, height):\n"
        "        return (lambda: block_hash(height, p, r, t))()\n"
        "class Block:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'block_hash', block_hash(1, p, r, t))\n"
        "        def later():\n"
        "            return block_hash(1, p, r, t)\n"
        "class Engine:\n"
        "    def _hash(self, height):\n"
        "        return block_hash(height, p, r, t)\n"
        "    def tip(self):\n"
        "        return self.chain.tip().block_hash\n"
    )
    assert _hash_calls(ast.parse(source)) == [1, 6, 8, 13, 16]
