"""Benchmark entry point: one closed-loop run of one workload.

    python3 bench/run.py --workload sign-log --seed 1 --seconds 25 --trace 0

Generates the workload's `.scn` scripts from the seed, runs them step
by step for ``--seconds`` (whole passes, at least one), checks the
results, and prints a table followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced pass plus post-run probes.  Either way a
traced pass runs and must produce the same transcript digest as the
timed run.  Details go to bench/out/ (see bench/README.md).
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_CHILDREN = 6  # fresh processes that measure set-up, besides this one

# The end-to-end metrics every workload reports, with their units.
END_TO_END = {
    "steps_per_s": "1/s",
    "step_p50_ms": "ms",
    "update_p50_ms": "ms",
    "advance_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _load_program() -> None:
    if not (SRC / "encumbra" / "scenario.py").is_file():
        sys.exit(f"bench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0, help="script size factor")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0 or args.size <= 0:
        parser.error("--seconds and --size must be positive")
    return args


def _set_up(args):
    """Script generation, parsing and one engine: what precedes step one."""
    from encumbra.config import Config
    from encumbra.scenario import ScenarioRunner, parse_scenario
    from workloads import WORKLOADS

    scripts = WORKLOADS[args.workload](args.seed, args.size)
    scenarios = [parse_scenario(text, name) for name, text in scripts]
    ScenarioRunner(scenarios[0], Config())
    return scripts, scenarios


def _setup_sample(args) -> float:
    """Set-up time of one fresh process, from its first line."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--size", str(args.size),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _end_to_end(passes, setup, rss_mb) -> dict:
    from loop import floor_wall_s, latency_summary

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    done = passes[0].attempted - passes[0].failed  # the same in every pass
    rows = {"steps_per_s": {"value": done / floor_wall_s(passes), "n": attempted}}
    for klass in ("all", "sign", "update", "ledger", "advance"):
        summary = latency_summary(passes, klass)
        prefix = "step" if klass == "all" else klass
        rows[f"{prefix}_p50_ms"] = {"value": summary["p50_ms"], "n": summary["n"]}
        rows[f"{prefix}_tail_ms"] = {
            "value": summary["tail_ms"], "n": summary["n"] * len(passes),
            "percentile": summary["tail"],
        }
    rows["setup_s"] = {"value": statistics.median(setup), "n": len(setup)}
    rows["failed_share"] = {"value": failed / attempted, "n": attempted}
    rows["peak_rss_mb"] = {"value": rss_mb, "n": 1}
    return rows


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    _load_program()
    args = _parse_args(argv)
    scripts, scenarios = _set_up(args)
    setup = [time.perf_counter() - _T0]
    if args.setup_only:
        print(setup[0])
        return 0

    import encumbra.scenario
    from layers import (
        Tracer, collision_failures, layer_metrics, per_layer_units, probe_engine, scaling_metrics,
    )
    from loop import check_engine, run_pass, run_timed
    from workloads import scaling

    def sample_setup(spent: float) -> None:
        # Fresh-process set-ups, spread evenly over the timed run, so
        # that their median does not hang on one spell of the machine.
        while len(setup) <= SETUP_CHILDREN:
            if spent < (len(setup) - 1) * args.seconds / SETUP_CHILDREN:
                return
            setup.append(_setup_sample(args))

    passes = run_timed(scenarios, args.seconds, between=sample_setup)
    sample_setup(math.inf)  # a run that ended early still takes them all
    rss_mb = _peak_rss_mb()
    problems = []
    if len({p.digest for p in passes}) != 1:
        problems.append("passes over the same script gave different transcripts")
    failed = sum(p.failed for p in passes)
    if args.workload == "bundled" and failed:
        problems.append(f"bundled scenarios had {failed} failed steps")

    tracer = Tracer()
    tracer.install()
    try:
        # Parsed again under the tracer, through the module attribute
        # the tracer patches.
        traced = run_pass([encumbra.scenario.parse_scenario(t, n) for n, t in scripts])
    finally:
        tracer.close()
    if traced.digest != passes[0].digest:
        problems.append("traced pass transcript differs from the timed run")
    for runner in passes[-1].runners + traced.runners:
        problems += check_engine(runner)

    rows = _end_to_end(passes, setup, rss_mb)
    traced_rate = (traced.attempted - traced.failed) / traced.wall_s
    # Against the median untraced pass: the best one would overstate it.
    untraced_rate = statistics.median((p.attempted - p.failed) / p.wall_s for p in passes)
    overhead_pct = (1 - traced_rate / untraced_rate) * 100
    if args.trace:
        metrics = layer_metrics(tracer)
        metrics["trace.steps_per_s"] = traced_rate
        metrics["trace.overhead_pct"] = overhead_pct
        probes, trouble = probe_engine(traced.runners[-1].engine)
        metrics.update(probes)
        problems += trouble
        scaling_scenarios = [
            encumbra.scenario.parse_scenario(text, name) for name, text in scaling(args.seed)
        ]
        scaled = run_pass(scaling_scenarios)
        probes, trouble = scaling_metrics(scaled, scaling_scenarios)
        metrics.update(probes)
        problems += trouble
        metrics["defect.tx_digest_collision.fail"] = collision_failures()
        units = per_layer_units()
        reported = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        reported = {
            name: {"value": rows[name]["value"], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    missing = [name for name, row in reported.items() if row["value"] is None]

    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{args.workload}.json"))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "python": sys.version.split()[0], "passes": len(passes),
        "transcript_sha256": passes[0].digest, "end_to_end": rows,
        "trace_overhead_pct": overhead_pct,
        "per_layer": tracer.table(), "problems": problems,
    }
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)

    _print_table(args, passes, rows, problems)
    if args.trace:
        for name, row in reported.items():
            print(f"  {name:<44} {row['value']:>14.6g} {row['unit']}")
    if missing:
        print(f"bench: too few samples for {', '.join(missing)}; run longer", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return "ms" if name.endswith("_ms") else "ratio"  # failed_share


def _print_table(args, passes, rows, problems) -> None:
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"transcript {passes[0].digest[:16]}")
    for name, row in rows.items():
        value = row["value"]
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        extra = f"  p{row['percentile']:g}" if row.get("percentile") else ""
        print(f"  {name:<16} {shown:>22} {_unit(name):<5} n={row['n']}{extra}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
