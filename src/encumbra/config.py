"""Run configuration: defaults, YAML overlay, dotted-key access.

A config is a flat mapping from dotted keys to scalars.  YAML files may
use nesting or dotted keys; both flatten to the same mapping.  Unknown
keys are rejected so a typo in a scenario header fails loudly instead
of silently running with defaults.
"""

from __future__ import annotations

from typing import Any, Dict

import yaml

DEFAULTS: Dict[str, Any] = {
    "engine.seed": 0,
    "chain.chain_id": 1,
    "chain.block_interval_s": 12,
    # Confirmation oracle: per-mode delay model (seconds).
    "oracle.mode": "finalized",
    "oracle.latest.mean_s": 49.0,
    "oracle.latest.stddev_s": 7.4,
    "oracle.justified.mean_s": 648.7,
    "oracle.justified.stddev_s": 125.2,
    "oracle.finalized.mean_s": 1036.9,
    "oracle.finalized.stddev_s": 113.8,
    "oracle.trials": 160,
    # Host-side pricing used by the cost report.
    "host.gas_price_gwei": 100,
    "host.token_usd": 0.06919,
    "host.reimburse_gas": 50_000,
    "txpolicy.commit_required": True,
    # Key-recovery fallback.
    "fallback.window_s": 604_800,
    "fallback.bounty_wei": 10**18,
    "fallback.min_deposit_wei": 10**17,
    "fallback.batch_interval_s": 3600,
    "fallback.repos": 3,
    "fallback.repo_reachable": True,
    "fallback.committee": 5,
    "fallback.threshold": 3,
    "reliable_chain.block_interval_s": 12,
    "reliable_chain.chain_id": 2,
}

_MODES = ("latest", "justified", "finalized")


def _flatten(prefix: str, node: Any, out: Dict[str, Any]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(sub, value, out)
    else:
        out[prefix] = node


class Config:
    """Immutable-by-convention dotted-key configuration."""

    def __init__(self, overrides: Dict[str, Any] | None = None):
        self._values = dict(DEFAULTS)
        if overrides:
            self.apply(overrides)

    def apply(self, overrides: Dict[str, Any]) -> None:
        flat: Dict[str, Any] = {}
        _flatten("", overrides, flat)
        for key, value in flat.items():
            if key not in self._values:
                raise KeyError(f"unknown config key: {key}")
            current = self._values[key]
            if isinstance(current, bool):
                if isinstance(value, str):
                    value = value.lower() in ("1", "true", "yes", "on")
                value = bool(value)
            elif isinstance(current, int) and not isinstance(value, bool):
                value = int(value)
            elif isinstance(current, float):
                value = float(value)
            self._values[key] = value

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def delay_model(self, mode: str) -> tuple[float, float]:
        if mode not in _MODES:
            raise KeyError(f"unknown oracle mode: {mode}")
        return (self[f"oracle.{mode}.mean_s"], self[f"oracle.{mode}.stddev_s"])

    @classmethod
    def from_yaml(cls, path: str) -> "Config":
        with open(path, "r", encoding="utf-8") as handle:
            loaded = yaml.safe_load(handle) or {}
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a mapping")
        config = cls()
        config.apply(loaded)
        return config


ORACLE_MODES = _MODES
