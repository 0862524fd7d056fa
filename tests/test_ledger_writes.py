"""A wallet's transaction ledger is made in one place and stored in one.

``Engine.create_wallet`` builds a ``TxLedger`` for a ``ledger=on``
wallet and hands it to the wallet's tree policy; a tree wallet is never
swapped, so the policy holds it for the wallet's life and
``Engine.ledgers`` only reads it back.  A second writer would make a
second store that can disagree with the first (a stale nonce, a ledger
that gates no tree).  So in ``src/encumbra`` only ``Engine.create_wallet``
assigns or deletes a ``.ledger`` attribute or calls ``TxLedger(``.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).parent.parent / "src" / "encumbra"


def _ledger_writes(tree):
    """The lines of ``tree`` that store to or delete a ``.ledger`` or
    construct a ``TxLedger`` outside ``Engine.create_wallet``."""
    found = []
    stack = [(tree, None, False)]
    while stack:
        node, cls, making = stack.pop()
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef) and (cls, node.name) == ("Engine", "create_wallet"):
            making = True
        if not making:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                if node.attr == "ledger":
                    found.append(node.lineno)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "TxLedger":
                    found.append(node.lineno)
        stack.extend((child, cls, making) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_only_create_wallet_makes_or_stores_a_ledger():
    writes = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writes += [f"{path.relative_to(SOURCE)}:{line}" for line in _ledger_writes(tree)]
    assert writes == []


def test_the_check_finds_a_second_ledger_writer():
    source = (
        "class Engine:\n"
        "    def create_wallet(self, policy):\n"
        "        policy.ledger = TxLedger()\n"
        "    def attach_ledger(self, wallet):\n"
        "        wallet.policy.ledger = txpolicy.TxLedger()\n"
        "class WalletPolicy:\n"
        "    ledger = None\n"
        "    def __init__(self):\n"
        "        self.ledger = None\n"
        "def create_wallet(policy):\n"
        "    del policy.ledger\n"
        "x = policy.ledger\n"
    )
    assert _ledger_writes(ast.parse(source)) == [5, 5, 9, 11]
