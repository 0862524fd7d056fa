"""Cost contracts: the work a command does, counted rather than timed.

Each contract runs one command against two sizes of history and asserts
that the counted units do not grow with the history.
"""

import pytest

from encumbra import crypto, simchain
from encumbra.config import ORACLE_MODES
from encumbra.simchain import SimChain, delay_bounds

SEED = crypto.digest(b"cost-contracts")
INTERVAL = 12
# Later than any height's confirmation.
FAR_FUTURE = 10**12
# The default delay means with no deviation: every height draws the same
# delays, so the window a read walks has the same length at any age.
FIXED = {"latest": (49.0, 0.0), "justified": (648.7, 0.0), "finalized": (1036.9, 0.0)}


@pytest.fixture
def drawn_heights(monkeypatch):
    """The heights whose delays ``SimChain`` draws, in draw order."""
    drawn = []
    real = simchain.mode_delays

    def counting(seed, label, models, height):
        drawn.append(height)
        return real(seed, label, models, height)

    monkeypatch.setattr(simchain, "mode_delays", counting)
    return drawn


@pytest.mark.parametrize("models", [FIXED, None], ids=["fixed", "default"])
@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_an_oracle_read_draws_the_window_not_the_chain(mode, models, drawn_heights):
    """A read at the tip time draws at most the heights within the delay
    bound of it, on a chain of 100 blocks as on one of 1,000; a read
    past every confirmation draws none."""
    counts = []
    for blocks in (100, 1000):
        chain = SimChain(SEED, block_interval=INTERVAL, delay_models=models)
        chain.advance(INTERVAL * blocks)
        del drawn_heights[:]
        chain.confirmed_height(mode)
        counts.append(len(drawn_heights))

        late = SimChain(SEED, block_interval=INTERVAL, delay_models=models)
        late.advance(INTERVAL * blocks)
        del drawn_heights[:]
        assert late.confirmed_height(mode, at_time=FAR_FUTURE) == blocks
        assert drawn_heights == []
    window = delay_bounds(chain.delay_models)[mode] // INTERVAL + 1
    assert max(counts) <= window
    if models is FIXED:
        assert counts[0] == counts[1]


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_a_later_read_resumes_from_the_last_answer(mode, monkeypatch):
    """Reads at a clock that only moves forward examine each height about
    once: a read looks at the heights its answer moved past, plus the one
    that ends its walk, however old the chain."""
    examined = []
    real = SimChain._delays

    def counting(chain, height):
        examined.append(height)
        return real(chain, height)

    monkeypatch.setattr(SimChain, "_delays", counting)
    chain = SimChain(SEED, block_interval=INTERVAL)
    chain.advance(INTERVAL * 1000)
    answer = chain.confirmed_height(mode)
    for _ in range(50):
        del examined[:]
        assert chain.confirmed_height(mode) == answer
        assert len(examined) <= 1
        chain.advance(INTERVAL)
        del examined[:]
        previous, answer = answer, chain.confirmed_height(mode)
        assert len(examined) <= answer - previous + 1
