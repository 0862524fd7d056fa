"""A block header is hashed in one place.

``SimChain._hash`` extends the chain's prefix of header hashes, in
height order, when a hash is read; nothing on a command's path reads
one.  A ``Block`` is a read view that carries the hash the chain kept:
``SimChain.header`` passes it in, and the reference chain passes its
own.  So in ``src/encumbra`` ``block_hash(`` is called only in
``SimChain._hash`` and in the module-level ``GENESIS_HASH =`` of
``simchain.py``.  A new caller, a ``Block`` method included, would be a
second hashing path, and could put header hashing back on a command.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
# (module, enclosing class, function or module-level assignment)
ALLOWED = {("simchain.py", "SimChain", "_hash"), ("simchain.py", None, "GENESIS_HASH")}


def _is_block_hash(func):
    return (isinstance(func, ast.Name) and func.id == "block_hash") or (
        isinstance(func, ast.Attribute) and func.attr == "block_hash"
    )


def _hash_calls(tree, module):
    """The lines of ``tree``, the source of ``module``, that call
    ``block_hash`` outside the sites of ``ALLOWED``: a function named
    with its enclosing class, or a module-level assignment to one name."""
    found = []
    stack = [(tree, None, None)]
    while stack:
        node, klass, function = stack.pop()
        if isinstance(node, ast.ClassDef):
            klass, function = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        elif isinstance(node, ast.Assign) and klass is function is None:
            targets = node.targets
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                function = targets[0].id
        if isinstance(node, ast.Call) and _is_block_hash(node.func):
            if (module, klass, function) not in ALLOWED:
                found.append(node.lineno)
        stack.extend((child, klass, function) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_only_the_chain_prefix_and_genesis_hash_a_header():
    calls = []
    for path in sorted((ROOT / "src" / "encumbra").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [f"{path.relative_to(ROOT)}:{line}" for line in _hash_calls(tree, path.name)]
    assert calls == []


def test_the_check_finds_a_new_caller():
    source = (
        "GENESIS = block_hash(0, b'', b'', 0)\n"
        "GENESIS_HASH = block_hash(0, b'', b'', 0)\n"
        "class SimChain:\n"
        "    def _hash(self, height):\n"
        "        return block_hash(height, p, r, t)\n"
        "    def recent_block_hashes(self):\n"
        "        return simchain.block_hash(self.height, p, r, t)\n"
        "    def header(self, height):\n"
        "        return (lambda: block_hash(height, p, r, t))()\n"
        "class Block:\n"
        "    GENESIS_HASH = block_hash(0, b'', b'', 0)\n"
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
    assert _hash_calls(ast.parse(source), "simchain.py") == [1, 7, 9, 11, 13, 15, 18]
    # the same two sites anywhere else are new callers
    assert _hash_calls(ast.parse(source), "engine.py") == [1, 2, 5, 7, 9, 11, 13, 15, 18]
