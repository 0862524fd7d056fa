"""Per-layer tracing from the benchmark's side, and post-run probes.

The tracer patches the public functions of each layer where their
callers look them up, records one span per call (name, start, end,
parent span) in memory, and restores every patch on ``close``.  The
program itself is not changed.  From the spans it derives, per
function, calls, failures, self time (a span's time minus its child
spans') and median duration, plus work ratios read from argument sizes
seen at the wrapper.
"""

from __future__ import annotations

import importlib
import json
import statistics
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from workloads import SIGN_LOG_SIZES, SPAWN_TREE_SIZES

SizeFn = Callable[[tuple, dict, object], int]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _log_len(args, kwargs, result) -> int:
    return len(args[0].wallet(_arg(args, kwargs, 2, "wallet_id")).intst)


def _tree_size(args, kwargs, result) -> int:
    return len(args[0].tree_of(_arg(args, kwargs, 2, "wallet_id")).nodes)


# (metric prefix, module, attribute, size of the work seen at the call,
#  report median duration, report failures)
SPECS: Tuple[Tuple[str, str, str, Optional[SizeFn], bool, bool], ...] = (
    ("scenario.parse_scenario", "encumbra.scenario", "parse_scenario", None, False, False),
    ("engine.init", "encumbra.engine", "Engine.__init__", None, False, False),
    ("engine.advance", "encumbra.engine", "Engine.advance", None, True, False),
    ("manager.lw_sign", "encumbra.manager", "WalletManager.lw_sign", _log_len, True, True),
    ("manager.lw_verify", "encumbra.manager", "WalletManager.lw_verify", None, False, False),
    ("manager.spawn_node", "encumbra.manager", "WalletManager.spawn_node", _tree_size, True, True),
    ("manager.add_node_grants", "encumbra.manager", "WalletManager.add_node_grants", None, False, False),
    ("policy.tree.evaluate", "encumbra.policy.tree", "PolicyTree.evaluate",
     lambda a, k, r: int(bool(r)), True, False),
    ("policy.tree.sealed_assets", "encumbra.policy.tree", "PolicyTree.sealed_assets",
     lambda a, k, r: len(a[1].intst), True, False),
    ("policy.tree.spent_native", "encumbra.policy.tree", "PolicyTree.spent_native",
     lambda a, k, r: len(a[2].intst), True, False),
    ("policy.tree.clone", "encumbra.policy.tree", "PolicyTree.clone", None, True, False),
    ("policy.tree.validate_structure", "encumbra.policy.tree", "PolicyTree.validate_structure",
     lambda a, k, r: len(a[0].nodes), True, False),
    ("policy.update.check_update", "encumbra.policy.update", "check_update", None, True, True),
    ("fallback.on_policy_change", "encumbra.fallback.system", "FallbackSystem.on_policy_change",
     None, False, False),
    ("fallback.flush", "encumbra.fallback.system", "FallbackSystem.flush", None, True, False),
    ("fallback.encrypt_state", "encumbra.fallback.system", "encrypt_state",
     lambda a, k, r: len(_arg(a, k, 1, "plaintext")), True, False),
    ("fallback.execute", "encumbra.fallback.system", "FallbackSystem.execute", None, False, True),
    ("simchain.submit", "encumbra.simchain", "SimChain.submit", None, True, True),
    ("simchain.advance", "encumbra.simchain", "SimChain.advance", lambda a, k, r: len(r), True, False),
    ("simchain.prove_inclusion", "encumbra.simchain", "SimChain.prove_inclusion", None, True, True),
    ("simchain.check_proof", "encumbra.simchain", "SimChain.check_proof", None, False, True),
    ("merkle.merkle_root", "encumbra.simchain", "merkle_root", lambda a, k, r: len(a[0]), False, False),
    ("merkle.merkle_path", "encumbra.simchain", "merkle_path", lambda a, k, r: len(a[0]), True, False),
    ("merkle.verify_path", "encumbra.simchain", "verify_path", None, False, False),
    ("txpolicy.approves_chain_tx", "encumbra.txpolicy", "TxLedger.approves_chain_tx", None, False, False),
    ("txpolicy.claim_deposit", "encumbra.txpolicy", "TxLedger.claim_deposit", None, False, False),
    ("txpolicy.prove_deposit", "encumbra.txpolicy", "TxLedger.prove_deposit", None, False, True),
    ("txpolicy.commit_request", "encumbra.txpolicy", "TxLedger.commit_request", None, False, False),
    ("txpolicy.prove_tx_inclusion", "encumbra.txpolicy", "TxLedger.prove_tx_inclusion", None, True, True),
    ("crypto.sign", "encumbra.crypto", "SigningKey.sign", None, True, False),
    ("crypto.verify", "encumbra.crypto", "verify", None, True, False),
    ("darkdao.cast_vote", "encumbra.darkdao", "DarkDao.cast_vote", None, True, False),
    ("darkdao.accept_bribe", "encumbra.darkdao", "DarkDao.accept_bribe", None, False, False),
    ("darkdao.cast_bought_vote", "encumbra.darkdao", "DarkDao.cast_bought_vote", None, False, False),
    ("darkdao.tally", "encumbra.darkdao", "DarkDao.tally", None, False, False),
)

# ``signing_digest`` is counted, not timed: it is cheap and called
# from everywhere.  Each module that imported it by name is patched.
DIGEST_CALLERS = (
    "encumbra.messages",
    "encumbra.manager",
    "encumbra.simchain",
    "encumbra.txpolicy",
    "encumbra.engine",
    "encumbra.scenario",
    "encumbra.fallback.trigger",
)
DIGEST_METRIC = "messages.signing_digest.calls"

RATIOS = {
    "policy.tree.evaluate_per_sign": "nodes/sign",
    "policy.tree.log_scanned_per_sign": "entries/sign",
    "policy.update.nodes_validated_per_update": "nodes/update",
    "fallback.payload_kb_per_write": "KB",
    "simchain.blocks_per_advance": "blocks",
    "simchain.txs_per_block": "txs",
    "merkle.leaves_per_proof": "leaves",
    "txpolicy.prove_tx_success_ratio": "ratio",
}

# Reported by run.py beside the traced functions: tracing cost, the
# post-run probes, the scaling table and the collision reproduction.
EXTRA_UNITS = {
    "trace.steps_per_s": "1/s",
    "trace.overhead_pct": "%",
    "probe.lw_verify.log_contains_all_ms": "ms",
    "probe.lw_verify.approves_all_ms": "ms",
    "probe.lw_verify.log_extends_ms": "ms",
    "probe.log_prefix_digest_ms": "ms",
    "probe.log_len": "entries",
    "scaling.lw_sign_log1k_ms": "ms",
    "scaling.lw_sign_log2k_ms": "ms",
    "scaling.lw_sign_log4k_ms": "ms",
    "scaling.spawn_node_50_ms": "ms",
    "scaling.spawn_node_100_ms": "ms",
    "scaling.spawn_node_200_ms": "ms",
    "scaling.spawn_node_300_ms": "ms",
    "scaling.block_2000_reverse_ms": "ms",
    "defect.tx_digest_collision.fail": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for name, _, _, _, p50, fail in SPECS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        if p50:
            units[f"{name}.p50_us"] = "us"
        if fail:
            units[f"{name}.fail"] = "count"
    units[DIGEST_METRIC] = "count"
    units.update(RATIOS)
    units.update(EXTRA_UNITS)
    return units


class Tracer:
    """In-memory spans around patched layer functions.

    Spans live in flat arrays (one slot per span), which the garbage
    collector does not scan, so tracing adds little memory pressure.
    """

    def __init__(self):
        self.names: List[str] = []
        self.name_of = array("H")
        self.parent = array("q")  # span index, or -1 at top level
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.failed = bytearray()
        self.digests = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, attr, size, _, _ in SPECS:
            owner, leaf = _resolve(module, attr)
            self._patch(owner, leaf, self._timed(name, getattr(owner, leaf), size))
        for module in DIGEST_CALLERS:
            owner = importlib.import_module(module)
            self._patch(owner, "signing_digest", self._counted(owner.signing_digest))

    def close(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def _patch(self, owner, leaf: str, replacement) -> None:
        self._patches.append((owner, leaf, owner.__dict__[leaf]))
        setattr(owner, leaf, replacement)

    def _counted(self, original):
        def counted(*args, **kwargs):
            self.digests += 1
            return original(*args, **kwargs)

        return counted

    def _timed(self, name: str, original, size: Optional[SizeFn]):
        name_index = len(self.names)
        self.names.append(name)
        stack, starts, ends = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            index = len(starts)
            self.name_of.append(name_index)
            self.parent.append(stack[-1] if stack else -1)
            self.size.append(0)
            self.failed.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            except Exception:
                ends[index] = perf_counter()
                self.failed[index] = 1
                raise
            else:
                ends[index] = perf_counter()
            finally:
                stack.pop()
            if size is not None:
                self.size[index] = size(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # reduction

    def table(self) -> Dict[str, dict]:
        """Per function: calls, fail, self_ms, p50_us and summed size."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * len(durations)
        for parent, took in zip(self.parent, durations):
            if parent >= 0:
                child_time[parent] += took
        rows = {name: {"calls": 0, "fail": 0, "self_ms": 0.0, "size": 0} for name in self.names}
        each: Dict[str, List[float]] = {name: [] for name in self.names}
        for index, took in enumerate(durations):
            name = self.names[self.name_of[index]]
            row = rows[name]
            row["calls"] += 1
            row["fail"] += self.failed[index]
            row["size"] += self.size[index]
            row["self_ms"] += (took - child_time[index]) * 1e3
            each[name].append(took)
        for name, row in rows.items():
            row["p50_us"] = statistics.median(each[name]) * 1e6 if each[name] else 0.0
        return rows

    def write(self, path: str) -> None:
        """Spans as JSON: names, then [name, start_us, end_us, parent]."""
        origin = self.start[0] if self.start else 0.0
        spans = [
            [n, round((s - origin) * 1e6, 3), round((e - origin) * 1e6, 3), p]
            for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": spans}, handle, separators=(",", ":"))


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics reported by a traced run, by name."""
    rows = tracer.table()
    out: Dict[str, float] = {}
    for name, _, _, _, p50, fail in SPECS:
        row = rows[name]
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_ms"] = row["self_ms"]
        if p50:
            out[f"{name}.p50_us"] = row["p50_us"]
        if fail:
            out[f"{name}.fail"] = row["fail"]
    out[DIGEST_METRIC] = tracer.digests
    sign, advance = rows["manager.lw_sign"], rows["simchain.advance"]
    signed = sign["calls"] - sign["fail"]
    prove = rows["txpolicy.prove_tx_inclusion"]
    ratios = (
        _share(rows["policy.tree.evaluate"]["calls"], signed),
        _share(rows["policy.tree.sealed_assets"]["size"] + rows["policy.tree.spent_native"]["size"],
               sign["calls"]),
        _share(rows["policy.tree.validate_structure"]["size"],
               rows["policy.update.check_update"]["calls"]),
        _share(rows["fallback.encrypt_state"]["size"] / 1024, rows["fallback.encrypt_state"]["calls"]),
        _share(advance["size"], advance["calls"]),
        _share(rows["merkle.merkle_root"]["size"], advance["size"]),
        _share(rows["merkle.merkle_path"]["size"], rows["merkle.merkle_path"]["calls"]),
        _share(prove["calls"] - prove["fail"], prove["calls"]),
    )
    out.update(zip(RATIOS, ratios))
    return out


# ----------------------------------------------------------------------
# post-run probes: calls no scenario command reaches


def _median_ms(call: Callable[[], object], repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        began = perf_counter()
        call()
        times.append(perf_counter() - began)
    return statistics.median(times) * 1e3


def probe_engine(engine) -> Tuple[Dict[str, float], List[str]]:
    """Time ``lw_verify`` predicates and ``log_prefix_digest`` on the
    wallet with the longest log; returns (metrics, check failures)."""
    manager = engine.manager
    wallet = max(manager.wallets(), key=lambda w: len(w.intst))
    wid, log = wallet.wallet_id, wallet.intst
    subject = log[-1].player
    messages = [entry.message for entry in log[-32:]]
    half = len(log) // 2
    prefix = manager.log_prefix_digest(wid, half).hex()
    asks = {
        "log_contains_all": ("log-contains-all",),
        "approves_all": ("approves-all",),
        "log_extends": ("log-extends", prefix, half),
    }
    out, problems = {}, []
    for label, predicate in asks.items():
        verdict, _ = manager.lw_verify(wid, subject, messages, predicate)
        if label != "approves_all" and not verdict:
            problems.append(f"lw_verify {label} is False on {wid}")
        out[f"probe.lw_verify.{label}_ms"] = _median_ms(
            lambda: manager.lw_verify(wid, subject, messages, predicate)
        )
    out["probe.log_prefix_digest_ms"] = _median_ms(lambda: manager.log_prefix_digest(wid))
    out["probe.log_len"] = len(log)
    return out, problems


def scaling_metrics(result, scenarios) -> Tuple[Dict[str, float], List[str]]:
    """The scaling table, read from the step latencies of one untimed
    pass over the scaling scripts (see ``workloads.scaling``)."""
    measured: Dict[str, List[float]] = {}  # wallet id -> measured step latencies
    lines = iter(result.transcript)
    times = iter(result.step_times)
    problems = []
    for scenario in scenarios:
        next(lines)  # "== name" header
        for step in scenario.steps:
            took, line = next(times), next(lines)
            if not line.startswith("ok"):
                problems.append(f"{scenario.name}: {line}")
            if step.kwargs.get("as", step.kwargs.get("node", "")).startswith("m"):
                measured.setdefault(step.positional[0], []).append(took)
    out = {}
    for size in SIGN_LOG_SIZES:
        out[f"scaling.lw_sign_log{size // 1000}k_ms"] = statistics.median(measured[f"s{size}"]) * 1e3
    for size in SPAWN_TREE_SIZES:
        out[f"scaling.spawn_node_{size}_ms"] = statistics.median(measured[f"g{size}"]) * 1e3
    included = len(result.runners[-1].engine.chain.tip().txs)
    if included != 2000:
        problems.append(f"reverse-order block holds {included} txs, not 2000")
    out["scaling.block_2000_reverse_ms"] = result.step_times[-1] * 1e3
    return out, problems


def collision_failures() -> int:
    """Failed steps of ``collision.scn``, the tx-digest collision: 1
    while the defect stands, 0 once a tx digest tells senders apart."""
    from encumbra.scenario import parse_scenario
    from loop import run_pass

    path = Path(__file__).resolve().parent / "collision.scn"
    return run_pass([parse_scenario(path.read_text(), "collision")]).failed
