"""Run configuration: defaults, YAML overlay, dotted-key access.

A config is a flat mapping from dotted keys to scalars.  YAML files may
use nesting or dotted keys; both flatten to the same mapping.  Unknown
keys and values that do not parse as the key's type are rejected, so a
typo in a scenario header fails loudly instead of silently running with
defaults.  So are values the program cannot run with: a float that is
not finite, a block interval under 1 s, fewer than 2 latency trials, an
engine seed or a chain id outside [0, 2**64) (both are encoded as
unsigned 64-bit integers), no storage repository for the fallback's
escrow, and an oracle mode outside ``ORACLE_MODES``.
PyYAML is imported only when a YAML file is read.
"""

from __future__ import annotations

import math
from typing import Any, Dict

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
    "fallback.committee": 5,
    "fallback.threshold": 3,
    "reliable_chain.block_interval_s": 12,
}

ORACLE_MODES = ("latest", "justified", "finalized")
# The range [least, bound) an integer key can run with: a chain with an
# interval under 1 s never stops producing blocks, the latency report needs
# two trials for a deviation, the seed and the chain id are encoded as
# unsigned 64-bit integers, and escrow with no repository never replicates.
_RANGES = {
    "engine.seed": (0, 2**64),
    "chain.chain_id": (0, 2**64),
    "chain.block_interval_s": (1, math.inf),
    "reliable_chain.block_interval_s": (1, math.inf),
    "oracle.trials": (2, math.inf),
    "fallback.repos": (1, math.inf),
}
_ANY_INT = (-math.inf, math.inf)
# The values a string key can run with.
_ONE_OF = {"oracle.mode": ORACLE_MODES}
_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _flatten(prefix: str, node: Any, out: Dict[str, Any]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(sub, value, out)
    else:
        out[prefix] = node


def _coerce(key: str, current: Any, value: Any) -> Any:
    """``value`` as the type of the key's ``current`` value, if the
    program can run with it."""
    try:
        if isinstance(current, bool):
            if isinstance(value, str):
                return _BOOLEANS[value.lower()]
            if value in (0, 1):
                return bool(value)
        elif isinstance(current, int) and not isinstance(value, bool):
            number = int(value)
            least, bound = _RANGES.get(key, _ANY_INT)
            if least <= number < bound:
                return number
        elif isinstance(current, float):
            number = float(value)
            if math.isfinite(number):
                return number
        elif key not in _ONE_OF or value in _ONE_OF[key]:
            return value
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"bad value for config key {key}: {value!r}")


class Config:
    """Immutable-by-convention dotted-key configuration."""

    def __init__(self, overrides: Dict[str, Any] | None = None):
        self._values = dict(DEFAULTS)
        if overrides:
            self.apply(overrides)

    def apply(self, overrides: Dict[str, Any]) -> None:
        """Overlay ``overrides``, each value coerced to its key's type.

        Raises ``KeyError`` for an unknown key and ``ValueError`` for a
        value that is not of that type or that the program cannot run
        with; either way nothing is applied.
        """
        flat: Dict[str, Any] = {}
        _flatten("", overrides, flat)
        coerced: Dict[str, Any] = {}
        for key, value in flat.items():
            if key not in self._values:
                raise KeyError(f"unknown config key: {key}")
            coerced[key] = _coerce(key, self._values[key], value)
        self._values.update(coerced)

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def delay_model(self, mode: str) -> tuple[float, float]:
        if mode not in ORACLE_MODES:
            raise KeyError(f"unknown oracle mode: {mode}")
        return (self[f"oracle.{mode}.mean_s"], self[f"oracle.{mode}.stddev_s"])

    @classmethod
    def from_yaml(cls, path: str) -> "Config":
        import yaml

        with open(path, "r", encoding="utf-8") as handle:
            loaded = yaml.safe_load(handle) or {}
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a mapping")
        config = cls()
        config.apply(loaded)
        return config
