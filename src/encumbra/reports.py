"""Run reports: host-side costs, confirmation latency, ledger books.

Every number a report prints is produced by this simulation — the gas
figures come from a stated cost model and the latencies from seeded
draws out of the configured delay distributions.  Each report carries
the same banner saying so.  The reference columns are fixed constants
for a known deployment shape, included for scale, not as measurements
of this code.

Reports render as aligned text plus a JSON-ready dict so the CLI can
write machine-readable companions next to the human output.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from .config import Config, ORACLE_MODES
from .engine import Engine, engine_seed
from .simchain import mode_delays
from .txpolicy import HOST_OPS, REPORT_SIBLINGS, simulated_gas

BANNER = "simulated — not a measurement"


def gas_to_usd(gas: int, config: Config) -> float:
    wei = gas * config["host.gas_price_gwei"] * 10**9
    return wei / 10**18 * config["host.token_usd"]


def costs_report(config: Config, engine: Engine | None = None) -> Tuple[str, Dict[str, Any]]:
    """Host operation costs under the simulated gas model."""
    rows: List[Dict[str, Any]] = []
    for op, (_, _, reference) in HOST_OPS.items():
        model = simulated_gas(op, REPORT_SIBLINGS)
        row = {
            "operation": op,
            "model_gas": model,
            "model_usd": round(gas_to_usd(model, config), 4),
            "reference_gas": reference,
            "reference_usd": round(gas_to_usd(reference, config), 4),
        }
        rows.append(row)
    metered: Dict[str, Any] = {}
    if engine is not None:
        for wallet_id, ledger in sorted(engine.ledgers.items()):
            metered[wallet_id] = {
                op: {"count": count, "gas": gas}
                for op, (count, gas) in sorted(ledger.gas_summary().items())
            }
    data = {
        "banner": BANNER,
        "gas_price_gwei": config["host.gas_price_gwei"],
        "token_usd": config["host.token_usd"],
        "operations": rows,
        "metered": metered,
    }

    width = max(len(op) for op in HOST_OPS)
    lines = [
        f"host operation costs ({BANNER})",
        f"gas price {config['host.gas_price_gwei']} gwei, "
        f"token ${config['host.token_usd']}",
        "",
        f"{'operation':<{width}}  {'model gas':>10}  {'model $':>8}  "
        f"{'ref gas':>10}  {'ref $':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['operation']:<{width}}  {row['model_gas']:>10}  "
            f"{row['model_usd']:>8.4f}  {row['reference_gas']:>10}  "
            f"{row['reference_usd']:>8.4f}"
        )
    if metered:
        lines.append("")
        lines.append("metered this run:")
        for wallet_id, ops in metered.items():
            for op, entry in ops.items():
                lines.append(
                    f"  {wallet_id}: {op} x{entry['count']} = {entry['gas']} gas"
                )
    return "\n".join(lines) + "\n", data


def latency_report(config: Config) -> Tuple[str, Dict[str, Any]]:
    """Confirmation delays drawn for a seeded probe label.

    Draws the delays of heights 1 through ``oracle.trials`` (no blocks
    are produced) and reports each mode's delay between block timestamp
    and confirmation, against the configured distribution.
    """
    trials = int(config["oracle.trials"])
    seed = engine_seed(config)
    models = {mode: config.delay_model(mode) for mode in ORACLE_MODES}
    draws = [
        mode_delays(seed, "latency-probe", models, h) for h in range(1, trials + 1)
    ]
    modes: Dict[str, Any] = {}
    for mode in ORACLE_MODES:
        delays = [drawn[mode] for drawn in draws]
        mean, stddev = models[mode]
        modes[mode] = {
            "trials": trials,
            "mean_s": round(statistics.fmean(delays), 2),
            "stddev_s": round(statistics.stdev(delays), 2),
            "configured_mean_s": mean,
            "configured_stddev_s": stddev,
        }
    data = {"banner": BANNER, "modes": modes}

    lines = [
        f"confirmation latency over {trials} blocks ({BANNER})",
        "",
        f"{'mode':<10}  {'mean s':>9}  {'stddev s':>9}  {'cfg mean':>9}  {'cfg std':>8}",
    ]
    for mode in ORACLE_MODES:
        entry = modes[mode]
        lines.append(
            f"{mode:<10}  {entry['mean_s']:>9.2f}  {entry['stddev_s']:>9.2f}  "
            f"{entry['configured_mean_s']:>9.1f}  {entry['configured_stddev_s']:>8.1f}"
        )
    return "\n".join(lines) + "\n", data


def ledger_report(engine: Engine) -> Tuple[str, Dict[str, Any]]:
    """Books of every transaction-encumbered wallet in the run."""
    wallets: Dict[str, Any] = {}
    for wallet_id, ledger in sorted(engine.ledgers.items()):
        snapshot = ledger.snapshot()
        snapshot["chain_balance"] = engine.chain.balance(ledger.wallet_address)
        snapshot["sub_total"] = sum(ledger.ether_sub.values())
        snapshot["unproven_claims"] = sorted(
            d.hex() for d in ledger.claims if d not in ledger.proven_deposits
        )
        wallets[wallet_id] = snapshot
    data = {
        "banner": BANNER,
        "time": engine.time,
        "height": engine.chain.height,
        "wallets": wallets,
    }

    lines = [f"transaction ledgers at t={engine.time} ({BANNER})", ""]
    if not wallets:
        lines.append("no transaction-encumbered wallets in this run")
    for wallet_id, snap in wallets.items():
        lines.append(f"wallet {wallet_id}")
        lines.append(f"  chain balance    {snap['chain_balance']}")
        lines.append(f"  recognized nonce {snap['recognized_nonce']}")
        lines.append(
            f"  proven {snap['total_proven']}  deducted {snap['total_deducted']}  "
            f"sub total {snap['sub_total']}"
        )
        for node_id, balance in snap["ether_sub"].items():
            lines.append(f"  node {node_id:<12} {balance}")
        if snap["unproven_claims"]:
            lines.append(f"  unproven claims  {len(snap['unproven_claims'])}")
    return "\n".join(lines) + "\n", data


REPORTS = ("costs", "latency", "ledger")
