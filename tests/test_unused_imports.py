"""Every name a source module imports is read in that module.

Package ``__init__`` files are skipped (an import there is the
package's surface), as are ``__future__`` imports.  Names inside string
annotations are not seen, so source modules write annotations unquoted.
"""

import ast
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
