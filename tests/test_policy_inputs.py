"""A policy decides from its state triple alone.

The triple carries the decision's instant (``st.ost.chain_time``) and
the recognized nonce (``st.ost.recognized_nonce``).  A function that
takes a triple and also a time beside it reads "now" from two sources,
which may disagree.  So no function in ``src/encumbra`` takes a
parameter annotated ``StateTriple`` (or named ``st``, as the policy
overrides that leave it unannotated do) together with a parameter named
``t`` or ``now``.  A function with no triple at hand keeps its ``t``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "encumbra"
TIMES = {"t", "now"}


def _is_triple(arg):
    return arg.arg == "st" or (
        arg.annotation is not None and "StateTriple" in ast.unparse(arg.annotation)
    )


def test_no_function_takes_a_time_beside_the_state_triple():
    both = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(map(_is_triple, params)) and any(a.arg in TIMES for a in params):
                both.append(f"{path.relative_to(SRC)}:{node.lineno} {node.name}")
    assert both == []
