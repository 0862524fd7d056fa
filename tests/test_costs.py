"""Cost contracts: the work a command does, counted rather than timed.

Each contract runs one command against two sizes of history and asserts
that the counted units do not grow with the history.
"""

import pytest

from encumbra import crypto, simchain
from encumbra.config import ORACLE_MODES
from encumbra.messages import ChainTx, signing_digest
from encumbra.simchain import SignedTx, SimChain, delay_bounds

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


def _count_calls(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("pool", ["empty", "waiting"])
def test_an_advance_sweeps_once_and_hashes_each_later_height(pool, monkeypatch):
    """An advance over 100 or 1,000 intervals builds at most one
    ``Block`` and at most one set of Merkle levels, and hashes once per
    height; a pool whose txs wait on a nonce gap changes none of that."""
    key = crypto.derive_signing_key(SEED, "acct", "payer")

    def signed(nonce):
        tx = ChainTx(1, nonce, 0, 0, b"\x01" * 20, 1)
        return SignedTx(tx=tx, signature=key.sign(signing_digest(tx)))

    counts = dict.fromkeys(("Block", "merkle_levels", "digest"), 0)
    _count_calls(monkeypatch, simchain, "Block", counts)
    _count_calls(monkeypatch, simchain, "merkle_levels", counts)
    _count_calls(monkeypatch, crypto, "digest", counts)
    for intervals in (100, 1000):
        chain = SimChain(SEED, block_interval=INTERVAL)
        chain.fund(key.address, 10**6)
        if pool == "waiting":
            chain.submit(signed(0))
            for nonce in range(2, 50):
                chain.submit(signed(nonce))  # nonce 1 never comes
        for name in counts:
            counts[name] = 0
        assert len(chain.advance(INTERVAL * intervals)) == intervals
        if pool == "waiting":
            # the first height holds nonce 0: one block, one Merkle build
            # over one leaf (one hash), and a header hash per height
            assert counts == {"Block": 1, "merkle_levels": 1, "digest": intervals + 1}
            assert len(chain.pending) == 48
        else:
            assert counts == {"Block": 0, "merkle_levels": 0, "digest": intervals}
