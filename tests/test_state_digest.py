"""A refused step leaves no partial state, checked by one engine digest.

``tests/oracles/statedigest.py`` hashes the whole engine: chains,
wallets, ledgers, the DAO, the fallback and the trigger.  Every step a
bundled scenario marks ``?`` is refused, and each must leave that
digest as it found it; so must a release whose every replica is forged.
"""

from importlib import resources

import pytest

from encumbra import cli
from encumbra.errors import EngineError, InsufficientShares
from encumbra.scenario import COMMANDS, ScenarioRunner, parse_scenario
from tests.oracles.statedigest import state_digest
from tests.test_fallback import _forged, _wrong_seed, fallback_drill_before_release


def _check_refusals(name):
    """Run the bundled scenario step by step, checking that each ``?``
    step is refused and leaves the digest; returns how many there were."""
    text = resources.files("encumbra.scenarios").joinpath(f"{name}.scn").read_text()
    runner = ScenarioRunner(parse_scenario(text, name=name))
    refused = 0
    for step in runner.scenario.steps:
        handler = COMMANDS[step.command]
        if not step.tolerant:
            handler(runner, step.positional, step.kwargs)
            continue
        before = state_digest(runner.engine)
        with pytest.raises(EngineError):
            handler(runner, step.positional, step.kwargs)
        assert state_digest(runner.engine) == before, f"{name} line {step.lineno}"
        refused += 1
    return refused


def test_every_refused_bundled_step_leaves_the_state():
    assert sum(map(_check_refusals, cli.bundled_scenarios())) == 19


def test_the_digest_sees_a_step_that_succeeds():
    engine = fallback_drill_before_release().engine
    before = state_digest(engine)
    assert state_digest(engine) == before
    engine.recover()
    assert state_digest(engine) != before


def test_an_all_forged_release_leaves_the_state():
    """``recover`` with every repository serving a forged newest blob is
    refused, leaves the digest as it was and the release open."""
    engine = fallback_drill_before_release().engine
    system = engine.fallback
    forged = _forged(system, _wrong_seed)
    for repo in system.repos:
        repo.store(forged)
    before = state_digest(engine)
    with pytest.raises(InsufficientShares):
        engine.recover()
    assert state_digest(engine) == before
    assert system.executed is False
