"""Dead names in the source: unused imports and unreferenced definitions.

Every name a source module imports is read in that module.  Package
``__init__`` files are skipped (an import there is the package's
surface), as are ``__future__`` imports.  Names inside string
annotations are not seen, so source modules write annotations unquoted.

Every public module-level function, class and constant is referenced
somewhere in the source, the tests or the benchmark, and every refusal
code in ``errors.py`` is raised somewhere in the source.  Every function
and method is called from the source or the benchmark, not only from
the tests, save a short allow-list with a reason for each entry.
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "encumbra"


def _imported(tree):
    """(bound name, line) for each import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_source_module_has_an_unused_import():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in _imported(tree):
            if name not in used:
                unused.append(f"{path.relative_to(SRC)}:{line} {name}")
    assert unused == []


ROOT = SRC.parent.parent
SEARCHED = ("src", "tests", "bench")


def _public_definitions(tree):
    """(name, first line, last line) of each public module-level
    function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def _references(tree):
    """(identifier, line) for each read of a name, attribute or imported
    name, and each dotted word in a string constant (``bench/layers.py``
    names the functions it patches by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in node.value.replace(".", " ").split():
                if word.isidentifier():
                    yield word, node.lineno


def test_every_public_source_name_is_referenced():
    """A public name defined in ``src/encumbra`` is read somewhere in
    ``src/``, ``tests/`` or ``bench/`` outside its own definition.

    Matching is by identifier, so an attribute of the same name counts:
    the check misses some dead names but never flags a live one.
    """
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    uses = collections.defaultdict(list)  # identifier -> [(path, line)]
    for path, tree in trees.items():
        for word, line in _references(tree):
            uses[word].append((path, line))
    dead = []
    for path in sorted(SRC.rglob("*.py")):
        for name, first, last in _public_definitions(trees[path]):
            if all(where == path and first <= line <= last for where, line in uses[name]):
                dead.append(f"{path.relative_to(SRC)}:{first} {name}")
    assert dead == []


# The functions and methods only the tests call, each with its reason.
TEST_ONLY = {
    "Engine.check_invariants":
        "the machine check of the paper's invariants, run by the tests after each step",
    "PolicyTree.remove":
        "the delete half of the node table's one writer, which keeps the indexes with `put`",
    "PolicyTree.snapshot_digest":
        "a tree's state digest, one part of the state a test compares across runs",
    "SimChain.snapshot_digest":
        "the chain's state digest, one part of the state a test compares across runs",
}


def _functions(tree):
    """(qualified name, node) of each function and method, nested ones included."""

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node
                yield from visit(node.body, f"{prefix}{node.name}.")

    yield from visit(tree.body, "")


def _is_command(node):
    """Registered by ``@command(...)``: the scenario table calls it."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "command"
        for d in node.decorator_list
    )


def _uncalled_functions(trees, sources):
    """Qualified names of the functions and methods defined in
    ``sources`` that no tree in ``trees`` reads, by identifier, outside
    the definition itself.  Dunders and ``@command`` handlers are left
    out: Python and the scenario table call them."""
    uses = collections.defaultdict(list)  # identifier -> [(path, line)]
    for path, tree in trees.items():
        for word, line in _references(tree):
            uses[word].append((path, line))
    uncalled = []
    for path in sources:
        for qualname, node in _functions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__") or _is_command(node):
                continue
            first, last = node.lineno, node.end_lineno
            if all(where == path and first <= line <= last for where, line in uses[name]):
                uncalled.append(qualname)
    return uncalled


def _program_trees():
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in ("src", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_every_source_function_is_called_outside_the_tests():
    """A function or method in ``src/encumbra`` is read in ``src/`` or
    ``bench/`` outside its own definition, or is on ``TEST_ONLY``.

    Surface only the tests reach is deleted, not kept; the allow-list
    must name exactly what the scan finds, so it cannot go stale.
    """
    assert all(TEST_ONLY.values())
    uncalled = _uncalled_functions(_program_trees(), sorted(SRC.rglob("*.py")))
    assert sorted(uncalled) == sorted(TEST_ONLY)


def test_the_check_finds_a_new_uncalled_method():
    trees = _program_trees()
    added = SRC / "added.py"
    trees[added] = ast.parse(
        "class Added:\n"
        "    def helper(self, n):\n"
        "        return self.helper(n - 1) if n else 0  # recursion is no caller\n"
        "    def __repr__(self):\n"
        "        return 'Added()'\n"
    )
    sources = sorted(SRC.rglob("*.py")) + [added]
    assert sorted(_uncalled_functions(trees, sources)) == sorted([*TEST_ONLY, "Added.helper"])


def _raised_names(tree):
    """Names of the classes or instances a ``raise`` statement raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_refusal_code_is_raised_in_the_source():
    """Each ``EngineError`` subclass in ``errors.py`` is raised somewhere
    in ``src/encumbra``.

    A class only the tests still name passes the dead-name check above,
    but no caller can meet it: its code is dead.
    """
    classes = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    errors = {"EngineError"}
    for name, bases in classes.items():  # bases are defined before use
        if bases & errors:
            errors.add(name)
    errors.discard("EngineError")
    raised = set()
    for path in SRC.rglob("*.py"):
        raised.update(_raised_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert len(errors) > 20
    assert sorted(errors - raised) == []
