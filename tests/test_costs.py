"""Cost contracts: the work a command does, counted rather than timed.

Each contract runs one command against two sizes of history and asserts
that the counted units do not grow with the history.
"""

from importlib import resources

import pytest

from encumbra import crypto, simchain
from encumbra.config import ORACLE_MODES
from encumbra.merkle import EMPTY_ROOT, MerklePath
from encumbra.messages import ChainTx, signing_digest
from encumbra.scenario import ScenarioRunner, parse_scenario
from encumbra.simchain import InclusionProof, SignedTx, SimChain, delay_bounds

SEED = crypto.digest(b"cost-contracts")
INTERVAL = 12
# Later than any height's confirmation.
FAR_FUTURE = 10**12
# The default delay means with no deviation: every height draws the same
# delays, so the window a read walks has the same length at any age.
FIXED = {"latest": (49.0, 0.0), "justified": (648.7, 0.0), "finalized": (1036.9, 0.0)}


@pytest.fixture
def draws(monkeypatch):
    """The (height, mode) of each delay ``SimChain`` draws, in draw
    order: one entry per ``sample_delay`` call."""
    drawn = []
    real = simchain.sample_delay

    def counting(seed, label, mode, height, mean, stddev):
        drawn.append((height, mode))
        return real(seed, label, mode, height, mean, stddev)

    monkeypatch.setattr(simchain, "sample_delay", counting)
    return drawn


def _heights(draws):
    return {height for height, _ in draws}


@pytest.mark.parametrize("models", [FIXED, None], ids=["fixed", "default"])
@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_an_oracle_read_draws_the_window_not_the_chain(mode, models, draws):
    """A read at the tip time draws at most the heights within the delay
    bound of it, on a chain of 100 blocks as on one of 1,000; a read
    past every confirmation draws none."""
    counts = []
    for blocks in (100, 1000):
        chain = SimChain(SEED, block_interval=INTERVAL, delay_models=models)
        chain.advance(INTERVAL * blocks)
        del draws[:]
        chain.confirmed_height(mode)
        counts.append(len(_heights(draws)))

        late = SimChain(SEED, block_interval=INTERVAL, delay_models=models)
        late.advance(INTERVAL * blocks)
        del draws[:]
        assert late.confirmed_height(mode, at_time=FAR_FUTURE) == blocks
        assert draws == []
    window = delay_bounds(chain.delay_models)[mode] // INTERVAL + 1
    assert max(counts) <= window
    if models is FIXED:
        assert counts[0] == counts[1]


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_a_later_read_resumes_from_the_last_answer(mode, draws):
    """Reads at a clock that only moves forward draw each height about
    once: a read draws at the heights its answer moved past, plus the one
    that ends its walk, however old the chain."""
    chain = SimChain(SEED, block_interval=INTERVAL)
    chain.advance(INTERVAL * 1000)
    answer = chain.confirmed_height(mode)
    for _ in range(50):
        del draws[:]
        assert chain.confirmed_height(mode) == answer
        assert len(_heights(draws)) <= 1
        chain.advance(INTERVAL)
        del draws[:]
        previous, answer = answer, chain.confirmed_height(mode)
        assert len(_heights(draws)) <= answer - previous + 1


def test_a_finalized_read_draws_at_most_two_modes_a_height(draws):
    """Under the default models a finalized read draws at most two modes
    per newly confirmed height, plus one for the height that ends its
    walk, and never ``latest``: its raw bound lies within every slack a
    finalized walk meets."""
    chain = SimChain(SEED, block_interval=INTERVAL)
    chain.advance(INTERVAL * 1000)
    start = (chain.time - delay_bounds(chain.delay_models)["finalized"]) // INTERVAL
    answer = chain.confirmed_height("finalized")
    assert len(draws) <= 2 * (answer - start) + 1
    for _ in range(200):
        chain.advance(INTERVAL)
        del draws[:]
        previous, answer = answer, chain.confirmed_height("finalized")
        assert len(draws) <= 2 * (answer - previous) + 1
        assert all(mode != "latest" for _, mode in draws)


def _count_calls(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("pool", ["empty", "waiting"])
def test_an_advance_sweeps_once_and_hashes_each_later_height(pool, monkeypatch):
    """An advance over 100 or 1,000 intervals builds at most one
    ``Block`` and at most one set of Merkle levels, and hashes no empty
    height; a pool whose txs wait on a nonce gap changes none of that.
    The first read of the recent hashes hashes each unread height once,
    and a second read hashes none."""
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
            # over one leaf (one hash), and its header hash
            assert counts == {"Block": 1, "merkle_levels": 1, "digest": 2}
            assert len(chain.pending) == 48
        else:
            assert counts == {"Block": 0, "merkle_levels": 0, "digest": 0}
        unread = intervals - (pool == "waiting")
        counts["digest"] = 0
        recent = chain.recent_block_hashes()
        assert counts["digest"] == unread
        counts["digest"] = 0
        assert chain.recent_block_hashes() == recent
        assert counts["digest"] == 0
        assert recent[-1] == chain.tip().block_hash


def test_a_recovery_hashes_no_reliable_header(monkeypatch):
    """The fallback drill runs its reliable chain past 1,000 heights, and
    ``recover`` reads the finalized time without a header: the reliable
    chain hashes genesis only."""
    text = resources.files("encumbra.scenarios").joinpath("fallback.scn").read_text()
    runner = ScenarioRunner(parse_scenario(text, name="fallback"))
    recovered = []
    real = runner.engine.recover

    def counting(*args, **kwargs):
        released = real(*args, **kwargs)
        recovered.append(released)
        return released

    monkeypatch.setattr(runner.engine, "recover", counting)
    runner.run()
    reliable = runner.engine.reliable
    assert reliable.block_interval == 600 and reliable.height > 1000
    assert recovered
    assert reliable._hashes == [reliable.header(0).block_hash]


def test_verifying_a_proof_at_an_empty_height_hashes_no_header(monkeypatch):
    """A proof that cites an empty height is checked against the empty
    root: its leaf is the one hash, and no header is hashed."""
    chain = SimChain(SEED, block_interval=INTERVAL)
    chain.advance(INTERVAL * 1000)
    counts = dict.fromkeys(("block_hash", "digest"), 0)
    _count_calls(monkeypatch, simchain, "block_hash", counts)
    _count_calls(monkeypatch, crypto, "digest", counts)
    proof = InclusionProof(EMPTY_ROOT, 500, MerklePath(index=0, siblings=()))
    assert not chain.verify_proof(proof)
    assert counts == {"block_hash": 0, "digest": 1}
    assert len(chain._hashes) == 1
