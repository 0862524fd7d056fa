"""The benchmark's patch points exist in the program.

``bench/layers.py`` patches each function in its ``SPECS`` on every run
and counts ``signing_digest`` calls in each module of
``DIGEST_CALLERS``.  A refactor that deletes or renames one of them
would pass the rest of this suite and then crash every benchmark run.
This test only reads ``bench/``.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")

# ``layers`` imports ``workloads`` from its own directory.
sys.path.insert(0, BENCH)
try:
    import layers  # noqa: E402
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize("metric, module, attr", [spec[:3] for spec in layers.SPECS])
def test_every_traced_function_resolves(metric, module, attr):
    owner, leaf = layers._resolve(module, attr)
    assert leaf in vars(owner), f"{metric}: {module}.{attr} is gone"


@pytest.mark.parametrize("module", layers.DIGEST_CALLERS)
def test_every_digest_caller_holds_signing_digest(module):
    assert "signing_digest" in vars(importlib.import_module(module))
