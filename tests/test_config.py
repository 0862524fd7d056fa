"""Configuration defaults, overlays, and coercion rules."""

import os
import subprocess
import sys

import pytest

from encumbra.config import Config, ORACLE_MODES
from encumbra.reports import latency_report


def test_defaults():
    config = Config()
    assert config["engine.seed"] == 0
    assert config["chain.chain_id"] == 1
    assert config["chain.block_interval_s"] == 12
    assert config["oracle.mode"] == "finalized"
    assert config["oracle.trials"] == 160
    assert config["txpolicy.commit_required"] is True
    assert config["fallback.window_s"] == 604_800
    assert ORACLE_MODES == ("latest", "justified", "finalized")


def test_apply_dotted_and_nested():
    config = Config()
    config.apply({"oracle.mode": "latest"})
    assert config["oracle.mode"] == "latest"
    config.apply({"oracle": {"mode": "justified", "trials": 10}})
    assert config["oracle.mode"] == "justified"
    assert config["oracle.trials"] == 10
    config = Config({"chain": {"block_interval_s": 5}})
    assert config["chain.block_interval_s"] == 5


def test_unknown_key_rejected():
    config = Config()
    with pytest.raises(KeyError):
        config.apply({"oracle.mod": "latest"})
    with pytest.raises(KeyError):
        config.apply({"nonsense": 1})
    with pytest.raises(KeyError):
        config["also.nonsense"]


def test_the_reliable_chain_id_is_not_a_setting():
    # no transaction reaches the reliable chain, so its id is a constant
    with pytest.raises(KeyError):
        Config({"reliable_chain.chain_id": 3})
    # nor is a switch that makes every repository unreachable: it would
    # refuse every wallet step; tests set ``StorageRepo.reachable`` instead
    with pytest.raises(KeyError):
        Config({"fallback.repo_reachable": False})


def test_scalar_coercion():
    config = Config()
    config.apply({"engine.seed": "42"})
    assert config["engine.seed"] == 42
    config.apply({"oracle.latest.mean_s": "50.5"})
    assert config["oracle.latest.mean_s"] == 50.5
    for text, want in [
        ("true", True), ("false", False), ("1", True), ("0", False),
        ("yes", True), ("no", False), ("on", True), ("off", False),
    ]:
        config.apply({"txpolicy.commit_required": text})
        assert config["txpolicy.commit_required"] is want, text


def test_malformed_values_are_rejected_whole():
    config = Config()
    for key, value in [
        ("txpolicy.commit_required", "ture"),
        ("txpolicy.commit_required", ""),
        ("txpolicy.commit_required", 2),
        ("txpolicy.commit_required", None),
        ("engine.seed", "x"),
        ("engine.seed", None),
        ("oracle.latest.mean_s", "fast"),
        ("oracle.mode", "finalised"),
        ("oracle.mode", 3),
        # the seed and the chain id are encoded as unsigned 64-bit integers
        ("engine.seed", -1),
        ("engine.seed", 2**64),
        ("chain.chain_id", -1),
        ("chain.chain_id", str(2**64)),
        # escrow with no repository never replicates
        ("fallback.repos", 0),
    ]:
        with pytest.raises(ValueError, match=key):
            config.apply({"oracle.mode": "latest", key: value})
        assert config["oracle.mode"] == "finalized"  # nothing applied
    assert config["txpolicy.commit_required"] is True
    config.apply({"txpolicy.commit_required": 0})
    assert config["txpolicy.commit_required"] is False
    # the ends of each range are accepted
    config.apply({"engine.seed": 2**64 - 1, "chain.chain_id": 0, "fallback.repos": 1})
    assert (config["engine.seed"], config["chain.chain_id"], config["fallback.repos"]) == (
        2**64 - 1, 0, 1,
    )


@pytest.mark.parametrize("key", ["chain.block_interval_s", "reliable_chain.block_interval_s"])
def test_a_block_interval_under_one_second_is_refused(key):
    config = Config()
    for value in (0, "0", -12):
        with pytest.raises(ValueError, match=key):
            config.apply({"oracle.mode": "latest", key: value})
        assert config["oracle.mode"] == "finalized"  # nothing applied
    assert config[key] == 12
    config.apply({key: 1})
    assert config[key] == 1


def test_a_float_that_is_not_finite_is_refused():
    config = Config()
    keys = [f"oracle.{mode}.{field}" for mode in ORACLE_MODES for field in ("mean_s", "stddev_s")]
    for key in keys + ["host.token_usd"]:
        for value in ("inf", "-inf", "nan", float("nan"), "1e309"):
            with pytest.raises(ValueError, match=key):
                config.apply({"oracle.mode": "latest", key: value})
            assert config["oracle.mode"] == "finalized"  # nothing applied
    # an integer key refuses infinity too, as a ValueError
    with pytest.raises(ValueError, match="engine.seed"):
        config.apply({"engine.seed": float("inf")})
    config.apply({"oracle.latest.stddev_s": "-7.5"})
    assert config.delay_model("latest") == (49.0, -7.5)


def test_fewer_than_two_latency_trials_are_refused():
    config = Config()
    for value in (1, 0, -3):
        with pytest.raises(ValueError, match="oracle.trials"):
            config.apply({"oracle.mode": "latest", "oracle.trials": value})
        assert config["oracle.mode"] == "finalized"  # nothing applied
    config.apply({"oracle.trials": 2})
    _, data = latency_report(config)
    assert all(data["modes"][mode]["trials"] == 2 for mode in ORACLE_MODES)


def test_delay_model():
    config = Config()
    assert config.delay_model("latest") == (49.0, 7.4)
    assert config.delay_model("justified") == (648.7, 125.2)
    assert config.delay_model("finalized") == (1036.9, 113.8)
    with pytest.raises(KeyError):
        config.delay_model("instant")


def test_from_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("engine:\n  seed: 7\noracle.mode: latest\n")
    config = Config.from_yaml(str(path))
    assert config["engine.seed"] == 7
    assert config["oracle.mode"] == "latest"
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ValueError):
        Config.from_yaml(str(bad))


def test_yaml_is_imported_only_to_read_a_file():
    probe = "import sys, encumbra.cli; sys.exit('yaml' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
