"""Engine clock: ``advance`` and the sentinel's answer to a challenge."""

import random
from dataclasses import replace
from importlib import resources

import pytest

from encumbra.config import Config
from encumbra.engine import SENTINEL_OPERATOR, SENTINEL_WALLET, Engine
from encumbra.errors import BadProof
from encumbra.fallback.trigger import TriggerState, ping_message
from encumbra.scenario import ScenarioRunner, parse_scenario

WINDOW = 100


def _challenged(window=WINDOW, interval=5, opened_at=7):
    """An engine whose trigger was challenged at ``opened_at``."""
    engine = Engine(Config({
        "fallback.window_s": window,
        "chain.block_interval_s": interval,
        "reliable_chain.block_interval_s": interval,
    }))
    engine.advance(opened_at)
    engine.trigger.challenge("watcher", engine.trigger.min_deposit, engine.time)
    return engine


def _pings(engine):
    return [entry.message for entry in engine.manager.wallet(SENTINEL_WALLET).intst]


def _deadline(engine):
    return engine.trigger.challenge_record.opened_at + engine.trigger.window


def test_landing_on_the_last_second_answers_there():
    engine = _challenged()
    engine.advance(WINDOW - 2)
    assert engine.trigger.state is TriggerState.CHALLENGED  # one second short
    engine.advance(1)
    assert engine.time == _deadline(engine) - 1
    assert engine.trigger.state is TriggerState.DEFEATED
    assert _pings(engine) == [ping_message(engine.time)]


def test_an_advance_past_the_deadline_answers_on_the_way():
    engine = _challenged()
    engine.advance(3 * WINDOW)
    assert engine.time == 7 + 3 * WINDOW
    assert engine.trigger.state is TriggerState.DEFEATED
    assert _pings(engine) == [ping_message(_deadline(engine) - 1)]
    assert engine.trigger.payouts == {SENTINEL_OPERATOR: engine.trigger.min_deposit}


def test_starting_on_the_last_second():
    engine = _challenged()
    engine.sentinel_up = False
    engine.advance(WINDOW - 1)
    engine.sentinel_up = True
    engine.advance(0)  # no time passes, so nothing is answered
    assert engine.trigger.state is TriggerState.CHALLENGED
    assert _pings(engine) == []
    engine.advance(1)
    assert engine.time == _deadline(engine)
    assert engine.trigger.state is TriggerState.DEFEATED
    assert _pings(engine) == [ping_message(_deadline(engine) - 1)]


def test_no_answer_from_the_deadline_on():
    engine = _challenged()
    engine.sentinel_up = False
    engine.advance(WINDOW)  # at the deadline itself
    engine.sentinel_up = True
    engine.advance(3 * WINDOW)
    assert engine.trigger.state is TriggerState.CHALLENGED
    assert _pings(engine) == []
    engine.trigger.fire(engine.time)
    assert engine.trigger.state is TriggerState.TRIGGERED


def test_a_sentinel_that_is_down_never_answers():
    engine = _challenged()
    engine.sentinel_up = False
    engine.advance(3 * WINDOW)
    assert engine.time == 7 + 3 * WINDOW
    assert engine.trigger.state is TriggerState.CHALLENGED
    assert _pings(engine) == []


def test_a_respond_while_the_sentinel_is_down_is_refused():
    # Anyone may ask for a response, but only a live sentinel signs one:
    # otherwise a dark host's key could never be recovered.
    engine = _challenged()
    engine.sentinel_up = False
    with pytest.raises(BadProof):
        engine.respond_challenge("eve")
    assert engine.trigger.state is TriggerState.CHALLENGED
    assert _pings(engine) == [] and engine.trigger.payouts == {}
    engine.sentinel_up = True
    engine.respond_challenge("eve")
    assert engine.trigger.state is TriggerState.DEFEATED
    assert _pings(engine) == [ping_message(engine.time)]


def _advance_by_steps(engine, seconds):
    """The reference: walk the clock in legs that stop on the last
    second of an open challenge, answering there while the sentinel is
    up."""
    remaining = seconds
    while remaining > 0:
        step = remaining
        if engine.sentinel_up and engine.trigger.state is TriggerState.CHALLENGED:
            last = _deadline(engine) - 1
            if engine.time < last:
                step = min(step, last - engine.time)
                engine.chain.advance(step)
                engine.reliable.advance(step)
                remaining -= step
                if engine.time == last:
                    engine.respond_challenge(SENTINEL_OPERATOR)
                continue
            if engine.time == last:
                engine.respond_challenge(SENTINEL_OPERATOR)
        engine.chain.advance(step)
        engine.reliable.advance(step)
        remaining -= step
    engine.fallback.maybe_flush(engine.time)


def _observe(engine):
    return (
        engine.time,
        engine.chain.height,
        engine.reliable.height,
        engine.trigger.state,
        dict(engine.trigger.payouts),
        _pings(engine),
    )


@pytest.mark.parametrize("seed", range(6))
def test_advance_matches_a_leg_by_leg_walk(seed):
    rng = random.Random(seed)
    for _ in range(10):
        window = rng.randint(5, 600)
        interval = rng.choice([1, 5, 12])
        opened_at = rng.randint(0, 50)
        engines = [_challenged(window, interval, opened_at) for _ in range(2)]
        for _ in range(4):
            seconds = rng.choice([0, window - 2, window - 1, window, window + 1, 3 * window])
            seconds = rng.choice([seconds, rng.randint(0, window)])
            sentinel_up = rng.random() < 0.8
            for engine in engines:
                engine.sentinel_up = sentinel_up
            engines[0].advance(seconds)
            _advance_by_steps(engines[1], seconds)
            assert _observe(engines[0]) == _observe(engines[1])


def _bundled_engine(name):
    text = resources.files("encumbra.scenarios").joinpath(f"{name}.scn").read_text()
    runner = ScenarioRunner(parse_scenario(text, name=name))
    runner.run()
    return runner.engine


def test_check_invariants_names_each_violation():
    """A finished bundled run violates nothing; each broken invariant is
    reported on its own line, and the tree's reason reaches the operator."""
    engine = _bundled_engine("txcycle")
    assert engine.check_invariants() == []
    engine.chain.minted += 5
    engine.reliable.minted += 3
    ledger = engine.ledgers["vault"]
    ledger.total_proven += 7
    tree = engine.manager.tree_of("vault")
    tree.put(replace(tree.nodes["n1"], node_id="twin"))
    problems = engine.check_invariants()
    assert problems[:3] == [
        "target chain conservation gap 5",
        "reliable chain conservation gap 3",
        f"vault ledger books off: {ledger.total_proven - ledger.total_deducted}",
    ] and len(problems) == 4
    assert problems[3].startswith("vault tree invalid: UpdateRefused ")
    assert problems[3] != "vault tree invalid: UpdateRefused "

    engine = _bundled_engine("darkdao")
    assert engine.check_invariants() == []
    offer = engine.dao.offers["o1"]
    offer.reserved += 1
    assert engine.check_invariants() == ["offer o1 escrow off"]
    offer.reserved = offer.escrow + 1
    offer.reservations = {"gov": offer.reserved}
    assert engine.check_invariants() == ["offer o1 escrow off"]
