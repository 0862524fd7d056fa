"""Command-line entry point.

Runs a scenario (a bundled name or a path to a ``.scn`` file) and
prints its transcript, then renders any requested reports.  Exit
codes: 0 on success, 1 when a scenario step fails or an engine
operation refuses outside a tolerant step, 2 on unusable input
(parse errors, unknown config keys, missing files).

Set ENGINE_LOG=1 to echo each transcript line as it is produced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from typing import List, Optional

from .config import Config
from .errors import EngineError, ParseError, StepFailure
from .reports import REPORTS, costs_report, latency_report, ledger_report
from .scenario import ScenarioRunner, load_scenario, parse_scenario


def bundled_scenarios() -> List[str]:
    names = []
    for entry in resources.files("encumbra.scenarios").iterdir():
        if entry.name.endswith(".scn"):
            names.append(entry.name[: -len(".scn")])
    return sorted(names)


def _resolve_scenario(name: str):
    if os.path.exists(name):
        return load_scenario(name)
    candidate = resources.files("encumbra.scenarios").joinpath(f"{name}.scn")
    if candidate.is_file():
        return parse_scenario(candidate.read_text(encoding="utf-8"), name=name)
    raise FileNotFoundError(
        f"no scenario file {name!r} and no bundled scenario of that name"
    )


def _build_config(args) -> Config:
    config = Config.from_yaml(args.config) if args.config else Config()
    if args.seed is not None:
        config.apply({"engine.seed": args.seed})
    return config


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="encumbra",
        description="Deterministic key-encumbrance wallet simulation",
    )
    parser.add_argument(
        "--scenario",
        help="bundled scenario name or path to a .scn file",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true", help="list bundled scenarios"
    )
    parser.add_argument("--seed", type=int, help="override engine.seed")
    parser.add_argument("--config", help="YAML config overlay")
    parser.add_argument(
        "--report",
        action="append",
        choices=REPORTS,
        help="render a report after the run (repeatable)",
    )
    parser.add_argument(
        "--out", help="directory for report files instead of stdout"
    )
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in bundled_scenarios():
            print(name)
        return 0

    echo = os.environ.get("ENGINE_LOG", "") not in ("", "0")

    try:
        config = _build_config(args)
    except (KeyError, ValueError, OSError) as error:
        print(f"config error: {error}", file=sys.stderr)
        return 2

    runner = None
    if args.scenario:
        try:
            scenario = _resolve_scenario(args.scenario)
        except (ParseError, FileNotFoundError, OSError) as error:
            print(f"scenario error: {error}", file=sys.stderr)
            return 2
        try:
            runner = ScenarioRunner(scenario, config)
        except (KeyError, ValueError) as error:
            print(f"config error: {error}", file=sys.stderr)
            return 2
        try:
            transcript = runner.run(echo=echo)
        except StepFailure as error:
            for line in runner.transcript:
                print(line)
            print(f"step failure: {error}", file=sys.stderr)
            return 1
        except EngineError as error:
            print(f"{error.code}: {error}", file=sys.stderr)
            return 1
        for line in transcript:
            print(line)
    elif not args.report:
        parser.print_usage(sys.stderr)
        return 2

    for report in args.report or []:
        if report == "costs":
            text, data = costs_report(config, runner.engine if runner else None)
        elif report == "latency":
            text, data = latency_report(config)
        else:
            if runner is None:
                print("ledger report needs --scenario", file=sys.stderr)
                return 2
            text, data = ledger_report(runner.engine)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            base = os.path.join(args.out, report)
            with open(base + ".txt", "w", encoding="utf-8") as handle:
                handle.write(text)
            with open(base + ".json", "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {base}.txt and {base}.json")
        else:
            print()
            print(text, end="")

    return 0


if __name__ == "__main__":
    sys.exit(main())
