"""Closed-loop step runner, latency statistics and end-of-run checks.

One client, one thread: each scenario step is sent only after the
previous one returned.  A pass runs every script of a workload, each
against a fresh ``ScenarioRunner`` (and so a fresh ``Engine``),
step by step through ``COMMANDS``.  Unlike ``ScenarioRunner.run`` it
does not stop at a failed step: it records the failure and
goes on, so one defect shows as a share of failed steps rather than
an aborted run.
"""

from __future__ import annotations

import gc
import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from encumbra.config import Config
from encumbra.errors import EngineError
from encumbra.scenario import COMMANDS, Scenario, ScenarioRunner

# Command classes the latency metrics are reported for.
CLASSES: Dict[str, str] = {
    **dict.fromkeys(("sign", "sign-personal", "vote", "buy-vote"), "sign"),
    **dict.fromkeys(
        ("wallet", "spawn", "grant", "seal", "unseal", "update", "enroll"), "update"
    ),
    **dict.fromkeys(
        ("claim", "prove-deposit", "commit", "host-fees", "prove-tx"), "ledger"
    ),
    "advance": "advance",
}


@dataclass
class PassResult:
    """What one pass over a workload's scripts did and how long it took."""

    wall_s: float = 0.0
    step_times: List[float] = field(default_factory=list)  # every step, in order
    step_classes: List[Optional[str]] = field(default_factory=list)  # their classes
    attempted: int = 0
    failed: int = 0
    transcript: List[str] = field(default_factory=list)
    runners: List[ScenarioRunner] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.transcript).encode()).hexdigest()


def run_pass(scenarios: Sequence[Scenario]) -> PassResult:
    """Run every scenario once, each against a fresh engine.

    Engine construction counts toward the pass's wall time but not
    toward any step latency.
    """
    result = PassResult()
    emit = result.transcript.append
    start = perf_counter()
    for scenario in scenarios:
        runner = ScenarioRunner(scenario, Config())
        result.runners.append(runner)
        emit(f"== {scenario.name}")
        for step in scenario.steps:
            handler = COMMANDS[step.command]
            began = perf_counter()
            try:
                summary = handler(runner, step.positional, step.kwargs)
                error = None
            except EngineError as exc:
                error = exc
            took = perf_counter() - began
            result.step_times.append(took)
            result.step_classes.append(CLASSES.get(step.command))
            if error is None and step.tolerant:
                result.failed += 1
                emit(f"unexpected-ok L{step.lineno} {step.command} {summary}")
            elif error is None:
                emit(f"ok L{step.lineno} {step.command} {summary}")
            elif step.tolerant:
                emit(f"refused L{step.lineno} {step.command} {error.code}")
            else:
                result.failed += 1
                emit(f"failed L{step.lineno} {step.command} {error.code}")
        result.attempted += len(scenario.steps)
    result.wall_s = perf_counter() - start
    return result


def run_timed(
    scenarios: Sequence[Scenario],
    seconds: float,
    between: Optional[Callable[[float], None]] = None,
) -> List[PassResult]:
    """Whole passes, as many as fit in ``seconds`` (at least one).

    A new pass starts only if one more pass of the last pass's length
    still ends within the budget, so every pass is complete and a
    faster program runs more passes of the same script.  Only the last
    pass keeps its engines, so memory does not grow with the number of
    passes.  ``between`` is called after each pass with the pass time
    spent so far; its own time does not count.
    """
    passes: List[PassResult] = []
    spent = 0.0
    while not passes or spent + passes[-1].wall_s <= seconds:
        if passes:
            passes[-1].runners = []
            gc.collect()  # engines hold cycles; free them before the next pass
        done = run_pass(scenarios)
        passes.append(done)
        spent += done.wall_s
        if between is not None:
            between(spent)
    return passes


# ----------------------------------------------------------------------
# statistics
#
# Every pass runs the same steps, so step i of one pass repeats step i
# of every other.  The floor profile keeps, for each step, its fastest
# time over the passes of a run.  Other load on the machine only ever
# slows a step down, and on a shared host much of it comes in bursts
# shorter than a pass, so the floor profile is a steadier estimate of
# what the program itself costs than any one pass.  Medians are taken
# over the floor profile; tails are pooled over every timed step of the
# run.

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_MEDIAN_SAMPLES = 20  # ten on each side of the median


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_needed(q: float) -> int:
    """Fewest samples that leave at least ten beyond percentile ``q``."""
    return math.ceil(10 * 100.0 / (100.0 - q) - 1e-9)


def floor_profile(passes: Sequence[PassResult]) -> List[float]:
    """Each step's fastest time over the passes, in step order."""
    return [min(times) for times in zip(*(p.step_times for p in passes))]


def floor_wall_s(passes: Sequence[PassResult]) -> float:
    """Wall time of a pass at the floor: the floor profile plus the least
    time a pass spent outside its steps (engine construction and the
    loop's own bookkeeping)."""
    outside = min(p.wall_s - sum(p.step_times) for p in passes)
    return sum(floor_profile(passes)) + outside


def latency_summary(passes: Sequence[PassResult], klass: str) -> dict:
    """Median over the floor profile of the steps of ``klass`` (``all``
    for every step), and the pooled tail: the highest of
    ``TAIL_CANDIDATES`` with ten samples beyond it.  Milliseconds.

    Where one pass holds fewer than ``MIN_MEDIAN_SAMPLES`` steps of the
    class, the passes are split into the fewest groups of consecutive
    passes, of nearly equal size, whose floor profiles together hold that
    many, and the median is taken over all of them.
    """
    classes = passes[0].step_classes
    mine = [i for i, c in enumerate(classes) if klass in ("all", c)]
    pooled = sorted(p.step_times[i] for p in passes for i in mine)
    out = {"n": len(mine), "p50_ms": None, "tail": None, "tail_ms": None}
    if mine:
        groups = min(len(passes), math.ceil(MIN_MEDIAN_SAMPLES / len(mine)))
        bounds = [g * len(passes) // groups for g in range(groups + 1)]
        floors = []
        for begin, end in zip(bounds, bounds[1:]):
            profile = floor_profile(passes[begin:end])
            floors += [profile[i] for i in mine]
        floors.sort()
        if len(floors) >= MIN_MEDIAN_SAMPLES:
            out["p50_ms"] = percentile(floors, 50.0) * 1e3
    for q in TAIL_CANDIDATES:
        if len(pooled) >= samples_needed(q):
            out["tail"], out["tail_ms"] = q, percentile(pooled, q) * 1e3
            break
    return out


# ----------------------------------------------------------------------
# end-of-run checks, made from outside the engine


def check_engine(runner: ScenarioRunner) -> List[str]:
    """Invariants that must hold on a finished engine; returns violations."""
    engine = runner.engine
    problems = []
    for chain in (engine.chain, engine.reliable):
        gap = chain.minted - chain.total_circulating()
        if gap:
            problems.append(f"{chain.label} chain conservation gap {gap}")
    for wallet_id, ledger in engine.ledgers.items():
        books = ledger.total_proven - ledger.total_deducted
        if books != sum(ledger.ether_sub.values()):
            problems.append(f"{wallet_id} ledger books off: {books}")
    for wallet in engine.manager.wallets():
        tree = getattr(wallet.policy, "tree", None)
        if tree is None:
            continue
        try:
            tree.validate_structure(engine.time)
        except EngineError as error:
            problems.append(f"{wallet.wallet_id} tree invalid: {error.code} {error}")
    for offer in engine.dao.offers.values():
        if offer.reserved != sum(offer.reservations.values()) or offer.reserved > offer.escrow:
            problems.append(f"offer {offer.offer_id} escrow off")
    return problems
