"""The benchmark's transcripts at seed 1 keep their bytes.

``bench/run.py --seed 1`` prints each workload's transcript digest.
Behaviour-preserving changes must keep all four, so a change that moves
one fails here rather than only in a benchmark run.  One untimed pass of
each workload, through ``bench/loop.run_pass``; this test only reads
``bench/``.
"""

import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")

sys.path.insert(0, BENCH)
try:
    import loop  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.path.remove(BENCH)

from encumbra.scenario import parse_scenario  # noqa: E402

SEED_1_DIGESTS = {
    "sign-log": "ae2b4310a2fde6f8",
    "tree-growth": "48b5852eb2890dec",
    "ledger-dao": "260c9544ee45b043",
    "bundled": "0e28c39b389efd03",
}


def test_every_workload_is_pinned():
    assert set(SEED_1_DIGESTS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_a_seed_1_pass_keeps_its_transcript_digest(workload):
    scripts = workloads.WORKLOADS[workload](1)
    result = loop.run_pass([parse_scenario(text, name) for name, text in scripts])
    assert result.digest[:16] == SEED_1_DIGESTS[workload]
