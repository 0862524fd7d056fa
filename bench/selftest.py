"""Tests of the benchmark itself: python3 -m pytest -q bench/selftest.py

Not named test_*.py, so the repository's own test run does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from encumbra.scenario import parse_scenario  # noqa: E402
from layers import per_layer_units  # noqa: E402
from loop import PassResult, floor_wall_s, latency_summary  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS, scaling  # noqa: E402

GENERATORS = {**WORKLOADS, "scaling": lambda seed, size=1.0: scaling(seed)}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_text_other_seed_other_text(name):
    generate = GENERATORS[name]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_every_generated_script_parses(name):
    for script_name, text in GENERATORS[name](3):
        scenario = parse_scenario(text, script_name)
        assert scenario.steps


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_run_passes_its_checks(workload):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", "0", "--size", "0.1")
    # A run this short may lack samples for a metric (exit 3, no result),
    # but every correctness check must hold either way.
    assert done.returncode in (0, 3), done.stderr
    assert "CHECK FAILED" not in done.stdout, done.stdout
    assert "transcript" in done.stdout
    if done.returncode == 0:
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"]
        assert result["failed"] == 0
        assert set(result["metrics"]) == set(END_TO_END)


def _pass(times, classes, wall):
    return PassResult(wall_s=wall, step_times=list(times), step_classes=list(classes))


def test_floor_profile_keeps_each_steps_fastest_time():
    classes = ["sign"] * 20 + ["advance"] * 10
    slow = _pass([2e-3] * 20 + [9e-3] * 10, classes, wall=0.2)
    fast = _pass([1e-3] * 20 + [8e-3] * 10, classes, wall=0.15)
    mixed = _pass([3e-3] * 10 + [1e-3] * 10 + [7e-3] * 10, classes, wall=0.2)
    passes = [slow, fast, mixed]
    # Steps at their fastest: 20 x 1 ms + 10 x 7 ms, plus the least
    # time a pass spent outside its steps (0.15 - 0.1 s).
    assert floor_wall_s(passes) == pytest.approx(0.09 + 0.05)
    assert latency_summary(passes, "sign")["p50_ms"] == pytest.approx(1.0)
    # Ten advance steps per pass: two groups give twenty floors, ten of
    # 9 ms (the slow pass alone) and ten of 7 ms (the other two).
    assert latency_summary(passes, "advance")["p50_ms"] == pytest.approx(7.0)
    assert latency_summary(passes[:1], "advance")["p50_ms"] is None


def test_equal_seeds_give_equal_transcripts_and_failures():
    runs = [
        _run("--workload", "ledger-dao", "--seed", "9", "--seconds", "0.1",
             "--trace", "0", "--size", "0.1")
        for _ in range(2)
    ]
    heads = [r.stdout.splitlines()[0] for r in runs]
    digests = [h.split("transcript ")[1] for h in heads]
    shares = [line for r in runs for line in r.stdout.splitlines() if "failed_share" in line]
    assert digests[0] == digests[1]
    assert shares[0].split()[1] == shares[1].split()[1]


def test_traced_run_reports_every_layer_metric():
    done = _run("--workload", "ledger-dao", "--seed", "5", "--seconds", "0.1",
                "--trace", "1", "--size", "0.1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    assert set(result["metrics"]) == set(per_layer_units())
    assert result["metrics"]["txpolicy.prove_tx_inclusion.calls"]["value"] > 0


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "bundled", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
