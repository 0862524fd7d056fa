"""Simulated chain: blocks, balances, confirmation oracle, proofs."""

import bisect
import dataclasses
import json
import math
import random
import statistics
from pathlib import Path

import pytest

from encumbra import crypto, simchain
from encumbra.config import ORACLE_MODES, Config
from encumbra.engine import Engine, engine_seed
from encumbra.errors import BadProof, InvalidSignature, NotYetConfirmed, UnknownTx
from encumbra.merkle import merkle_levels, merkle_path, merkle_root
from encumbra.messages import ChainTx, PersonalSign, signing_digest
from encumbra.reports import latency_report
from encumbra.simchain import FEE_SINK, InclusionProof, SignedTx, SimChain, mode_delays
from encumbra.state import LogEntry, OracleState
from tests.oracles.chainref import ChainRef
from tests.oracles.oracleref import DenseOracle

SEED = crypto.digest(b"simchain-tests")
# Later than any height's confirmation.
FAR_FUTURE = 10**12


def _key(label):
    return crypto.derive_signing_key(SEED, "acct", label)


def _signed(key, nonce, to, value, fee=0, gas=0, chain_id=1):
    tx = ChainTx(chain_id, nonce, fee, gas, to, value)
    return SignedTx(tx=tx, signature=key.sign(signing_digest(tx)))


def test_funding_and_balances():
    chain = SimChain(SEED)
    alice = _key("alice")
    chain.fund(alice.address, 10**18)
    assert chain.balance(alice.address) == 10**18
    assert chain.minted == 10**18
    assert chain.nonce(alice.address) == 0
    assert chain.balance(b"\x00" * 20) == 0


def test_blocks_come_due_on_the_interval():
    chain = SimChain(SEED, block_interval=12)
    assert chain.height == chain.tip().height == 0
    produced = chain.advance(11)
    assert list(produced) == []
    produced = chain.advance(1)
    assert list(produced) == [1]
    produced = chain.advance(36)
    assert list(produced) == [2, 3, 4]
    assert chain.height == chain.tip().height == 4
    assert chain.header(3).timestamp == 36
    assert chain.header(4).parent_hash == chain.header(3).block_hash
    with pytest.raises(ValueError):
        chain.advance(-1)


def test_block_hash_is_cached_header_digest():
    chain = SimChain(SEED)
    alice, bob = _key("alice"), _key("bob")
    chain.fund(alice.address, 10**18)
    chain.submit(_signed(alice, 0, bob.address, 1))
    chain.advance(36)
    for height in range(chain.height + 1):
        block = chain.header(height)
        first = block.block_hash
        assert block.block_hash is first  # computed once per block
        assert chain.header(height) == block and chain.header(height).block_hash == first
        assert first == simchain.block_hash(
            block.height, block.parent_hash, block.tx_root, block.timestamp
        ) == crypto.digest(
            b"block-v1"
            + block.height.to_bytes(8, "big")
            + block.parent_hash
            + block.tx_root
            + block.timestamp.to_bytes(8, "big")
        )
        twin = dataclasses.replace(block)
        assert twin == block and twin.block_hash == first
        # the stored Merkle levels are outside equality, hashing and repr
        assert block.levels == merkle_levels([s.digest for s in block.txs])
        bare = dataclasses.replace(block, levels=())
        assert bare == block and hash(bare) == hash(block) and repr(bare) == repr(block)
        assert bare.block_hash == first
        assert dataclasses.replace(block, timestamp=block.timestamp + 1).block_hash != first
    assert len(chain.header(1).txs) == 1
    assert chain.header(2).parent_hash == chain.header(1).block_hash
    assert chain.tip().block_hash == chain.recent_block_hashes()[-1]


def test_signed_tx_derives_digest_and_sender_once():
    alice, bob = _key("alice"), _key("bob")
    signed = _signed(alice, 3, bob.address, 7, fee=2, gas=5)
    assert signed.digest == signing_digest(signed.tx)
    assert signed.sender == crypto.address_of(signed.signature.public_key) == alice.address
    assert signed.digest is signed.digest and signed.sender is signed.sender
    # equality, hashing and repr see only the tx and its signature
    twin = SignedTx(tx=signed.tx, signature=signed.signature)
    object.__setattr__(twin, "digest", b"\x00" * 32)
    object.__setattr__(twin, "sender", b"\x00" * 20)
    assert twin == signed and hash(twin) == hash(signed)
    assert repr(twin) == repr(signed)
    assert "digest" not in repr(signed) and "sender" not in repr(signed)
    # replace derives both again from the new fields
    other = dataclasses.replace(signed, tx=dataclasses.replace(signed.tx, nonce=4))
    assert other.digest == signing_digest(other.tx) != signed.digest
    assert other.sender == alice.address
    resigned = dataclasses.replace(signed, signature=bob.sign(signed.digest))
    assert resigned.sender == bob.address and resigned.digest == signed.digest


def test_transfer_accounting_and_fee_sink():
    chain = SimChain(SEED)
    alice, bob = _key("alice"), _key("bob")
    chain.fund(alice.address, 5 * 10**18)
    fee, gas = 10**9, 21000
    signed = _signed(alice, 0, bob.address, 10**18, fee=fee, gas=gas)
    chain.submit(signed)
    chain.advance(12)
    cap = fee * gas
    assert chain.balance(alice.address) == 5 * 10**18 - 10**18 - cap
    assert chain.balance(bob.address) == 10**18
    assert chain.balance(FEE_SINK) == cap
    assert chain.nonce(alice.address) == 1
    assert chain.includes(signed.digest)
    # worst-case fee is charged in full; conservation holds to the wei
    assert chain.total_circulating() == chain.minted


def test_submit_rejects_bad_material():
    chain = SimChain(SEED, chain_id=1)
    alice = _key("alice")
    chain.fund(alice.address, 10**18)
    with pytest.raises(InvalidSignature):
        chain.submit(_signed(alice, 0, b"\x01" * 20, 1, chain_id=2))
    good = _signed(alice, 0, b"\x01" * 20, 1)
    bad = SignedTx(tx=good.tx, signature=_key("mallory").sign(b"forged"))
    with pytest.raises(InvalidSignature):
        chain.submit(bad)
    # the sender's own signature, made over a different tx
    other = _signed(alice, 0, b"\x01" * 20, 2)
    swapped = SignedTx(tx=good.tx, signature=other.signature)
    assert swapped.sender == alice.address
    with pytest.raises(InvalidSignature):
        chain.submit(swapped)
    assert chain.pending == []


def test_proofs_read_the_blocks_stored_levels():
    chain = SimChain(SEED)
    keys = [_key(f"payer{i}") for i in range(3)]
    sent = []
    for key in keys:
        chain.fund(key.address, 10**18)
    for nonce in range(3):
        for index, key in enumerate(keys):
            signed = _signed(key, nonce, bytes([index + 1]) * 20, nonce + 1)
            chain.submit(signed)
            sent.append(signed)
    chain.advance(12)
    block = chain.tip()
    assert set(block.txs) == set(sent) and len(block.txs) == 9
    digests = [signed.digest for signed in block.txs]
    levels = merkle_levels(digests)
    assert block.levels == levels and block.tx_root == merkle_root(levels)
    chain.advance(2000)
    for index, signed in enumerate(block.txs):
        proof = chain.prove_inclusion(signed.digest)
        assert proof.block_height == block.height
        assert proof.path == merkle_path(levels, index)
        assert chain.check_proof(proof) is signed


def test_nonce_gap_fills_within_one_block():
    chain = SimChain(SEED)
    alice = _key("alice")
    chain.fund(alice.address, 10**19)
    later = _signed(alice, 1, b"\x02" * 20, 2)
    first = _signed(alice, 0, b"\x01" * 20, 1)
    chain.submit(later)
    chain.submit(first)
    (height,) = chain.advance(12)
    assert [s.tx.nonce for s in chain.header(height).txs] == [0, 1]
    assert chain.pending == []


def test_future_nonce_waits_stale_nonce_drops():
    chain = SimChain(SEED)
    alice = _key("alice")
    chain.fund(alice.address, 10**19)
    chain.submit(_signed(alice, 5, b"\x03" * 20, 1))
    chain.advance(24)
    assert chain.nonce(alice.address) == 0
    assert len(chain.pending) == 1
    chain.submit(_signed(alice, 0, b"\x04" * 20, 1))
    chain.advance(12)
    # the replay at a consumed nonce is dropped for good
    stale = _signed(alice, 0, b"\x05" * 20, 7)
    chain.submit(stale)
    chain.advance(12)
    assert not chain.includes(stale.digest)
    assert chain.pending == [] or all(s.tx.nonce == 5 for s in chain.pending)


def test_double_submit_of_one_tx_lands_once():
    chain = SimChain(SEED)
    alice = _key("alice")
    chain.fund(alice.address, 10**19)
    signed = _signed(alice, 0, b"\x06" * 20, 3)
    chain.submit(signed)
    chain.submit(signed)
    chain.advance(12)
    assert chain.includes(signed.digest)
    assert chain.nonce(alice.address) == 1
    assert chain.balance(b"\x06" * 20) == 3


def test_insufficient_balance_drops_at_inclusion():
    chain = SimChain(SEED)
    alice = _key("alice")
    chain.fund(alice.address, 100)
    signed = _signed(alice, 0, b"\x07" * 20, 101)
    chain.submit(signed)
    chain.advance(12)
    assert not chain.includes(signed.digest)
    assert chain.pending == []
    assert chain.balance(alice.address) == 100


def test_balance_history():
    chain = SimChain(SEED)
    alice, bob = _key("alice"), _key("bob")
    chain.fund(alice.address, 1000)
    chain.advance(36)  # heights 1..3
    chain.submit(_signed(alice, 0, bob.address, 400))
    chain.advance(12)  # height 4
    assert chain.balance_at(alice.address, 0) == 1000
    assert chain.balance_at(alice.address, 3) == 1000
    assert chain.balance_at(alice.address, 4) == 600
    assert chain.balance_at(bob.address, 3) == 0
    assert chain.balance_at(bob.address, 4) == 400
    assert chain.balance_at(_key("carol").address, 4) == 0


def test_balance_at_bisects_the_history():
    """``balance_at`` agrees with a lookup over the list of heights, on
    random histories and at heights before the first entry."""

    def by_height_list(history, height):
        heights = [h for h, _ in history]
        idx = bisect.bisect_right(heights, height) - 1
        return history[idx][1] if idx >= 0 else 0

    rng = random.Random(219)
    chain = SimChain(SEED)
    for trial in range(200):
        address = trial.to_bytes(20, "big")
        heights = sorted(rng.sample(range(1, 60), rng.randint(0, 12)))
        history = [(h, rng.randint(0, 10**6)) for h in heights]
        if history:
            chain._balance_history[address] = history
        for height in range(-2, 63):
            assert chain.balance_at(address, height) == by_height_list(history, height)


def test_confirmation_modes_are_ordered_and_monotone():
    chain = SimChain(SEED)
    chain.advance(12 * 40)
    for height in range(1, 41):
        delays = mode_delays(SEED, chain.label, chain.delay_models, height)
        # a block confirms strictly after its timestamp, latest first
        assert 1 <= delays["latest"] <= delays["justified"] <= delays["finalized"]
    previous = -1
    for now in range(0, 4000, 100):
        confirmed = chain.confirmed_height("finalized", at_time=now)
        assert confirmed >= previous
        previous = confirmed
    assert chain.confirmed_height("latest") >= chain.confirmed_height("finalized")


def test_prove_inclusion_waits_for_the_oracle():
    chain = SimChain(SEED, proof_mode="finalized")
    alice = _key("alice")
    chain.fund(alice.address, 10**18)
    signed = _signed(alice, 0, b"\x08" * 20, 5)
    chain.submit(signed)
    chain.advance(12)
    with pytest.raises(NotYetConfirmed):
        chain.prove_inclusion(signed.digest)
    with pytest.raises(NotYetConfirmed):
        chain.prove_inclusion(signed.digest, mode="latest")
    chain.advance(2000)
    proof = chain.prove_inclusion(signed.digest)
    assert proof.block_height == 1
    assert chain.verify_proof(proof)
    assert chain.check_proof(proof).digest == signed.digest
    with pytest.raises(UnknownTx):
        chain.prove_inclusion(b"\x00" * 32)


def test_check_proof_rejects_wrong_block():
    chain = SimChain(SEED)
    alice = _key("alice")
    chain.fund(alice.address, 10**18)
    signed = _signed(alice, 0, b"\x09" * 20, 5)
    chain.submit(signed)
    chain.advance(2000)
    proof = chain.prove_inclusion(signed.digest)
    wrong = InclusionProof(proof.tx_digest, proof.block_height + 1, proof.path)
    assert not chain.verify_proof(wrong)
    with pytest.raises(BadProof):
        chain.check_proof(wrong)


def test_snapshot_digest_tracks_state():
    def run(extra):
        chain = SimChain(SEED)
        alice = _key("alice")
        chain.fund(alice.address, 10**18)
        chain.submit(_signed(alice, 0, b"\x0a" * 20, 9))
        chain.advance(60)
        if extra:
            chain.submit(_signed(alice, 1, b"\x0b" * 20, 1))
            chain.advance(12)
        return chain.snapshot_digest()

    assert run(False) == run(False)
    assert run(False) != run(True)


def _finalized_answers(oracle):
    """The finalized height every 5 s, past the last confirmation."""
    return [oracle.confirmed_height("finalized", at_time=t) for t in range(0, 2400, 5)]


def test_seed_and_label_steer_the_delay_draws():
    a = SimChain(SEED, label="a")
    b = SimChain(SEED, label="b")
    c = SimChain(crypto.digest(b"other"), label="a")
    a.advance(120)
    b.advance(120)
    c.advance(120)
    models = a.delay_models

    def delays(seed, label):
        return [mode_delays(seed, label, models, h)["finalized"] for h in range(1, 11)]

    assert delays(SEED, "a") != delays(SEED, "b")
    assert delays(SEED, "a") != delays(crypto.digest(b"other"), "a")
    answers_a = _finalized_answers(a)
    assert answers_a != _finalized_answers(b)
    assert answers_a != _finalized_answers(c)
    # and the same construction replays identically
    again = SimChain(SEED, label="a")
    again.advance(120)
    assert answers_a == _finalized_answers(again) == _finalized_answers(DenseOracle(again))
    assert delays(SEED, "a") == delays(SEED, "a")


def _oracle_call(oracle, op, *args):
    try:
        return ("ok", getattr(oracle, op)(*args))
    except Exception as error:  # compared, not swallowed
        return (type(error).__name__, str(error))


# (block interval, delay models) the oracle must answer under: intervals
# shorter and longer than any delay, negative and zero deviations, and
# negative means.
ORACLE_CONFIGS = {
    "default": (12, None),
    "interval-1": (1, None),
    "interval-7": (
        7, {"latest": (30.0, -12.0), "justified": (200.0, -80.0), "finalized": (260.0, 40.0)}
    ),
    "interval-600": (600, None),
    "fixed": (12, {"latest": (5.0, 0.0), "justified": (-40.0, 0.0), "finalized": (90.0, 0.0)}),
    "negative-mean": (
        12, {"latest": (-20.0, 3.0), "justified": (-5.0, -30.0), "finalized": (15.0, 60.0)}
    ),
}


@pytest.mark.parametrize("config", ORACLE_CONFIGS)
@pytest.mark.parametrize("seed", range(4))
def test_oracle_matches_the_dense_reference(seed, config):
    """Answering from the delay bound gives the answers of drawing every
    height in order from genesis: same values, same exceptions, at past,
    present and future times, and no height drawn that the dense oracle
    does not draw.  Proofs of txs submitted along the way, which walk
    only up to their tx, give the dense verdict and name its confirmed
    height when refused, and the full reads after them still agree."""
    interval, models = ORACLE_CONFIGS[config]
    rng = random.Random(seed)
    chain = SimChain(SEED, block_interval=interval, delay_models=models, label="diff")
    reference = DenseOracle(chain)
    payer = _key("payer")
    chain.fund(payer.address, 10**18)
    submitted = []

    for _ in range(300):
        roll = rng.random()
        if roll < 0.25:
            if rng.random() < 0.5:
                signed = _signed(payer, len(submitted), b"\x0c" * 20, 1)
                submitted.append(chain.submit(signed))
            seconds = rng.choice([0, rng.randrange(1, 40), rng.randrange(40, 2000)])
            chain.advance(seconds * interval // 12)
            continue
        mode = rng.choice(ORACLE_MODES + ("bogus",))
        if roll < 0.4:
            included = [digest for digest in submitted if chain.includes(digest)]
            if not included or mode == "bogus":
                continue
            digest = rng.choice(included[-3:])  # the newest, where walks draw
            height = chain._tx_index[digest][0]
            confirmed = reference.confirmed_height(mode)
            try:
                proof = chain.prove_inclusion(digest, mode)
            except NotYetConfirmed as refused:
                assert height > confirmed, (digest, mode)
                assert refused.detail == f"height {height} above confirmed {confirmed}"
            else:
                assert proof.block_height == height <= confirmed, (digest, mode)
            if rng.random() < 0.5:  # a full read resumes from the proof's walk
                assert chain.confirmed_height(mode) == confirmed, (digest, mode)
            continue
        tip = chain.height
        if roll < 0.65:
            at_time = rng.choice([
                None,
                chain.time,
                rng.randrange(0, chain.time + 1),
                chain.time + rng.randrange(1, 5000),
                -rng.randrange(1, 100),
            ])
        else:
            # a time around some height's confirmation, past the tip too
            height = rng.choice([
                tip,
                tip + rng.randrange(1, 5),
                rng.randrange(0, tip + 1),
                -1,
            ])
            at_time = height * interval + rng.randrange(0, 2500)
        call = ("confirmed_height", mode, at_time)
        assert _oracle_call(chain, *call) == _oracle_call(reference, *call), call

    assert chain.height > 100
    assert {height for height, _ in chain._drawn} <= set(reference.drawn())
    assert len([d for d in submitted if chain.includes(d)]) > 10


# Delay models for the per-mode check: the defaults, zero and negative
# deviations, negative means (where the clamp to 1 decides), and a
# justified raw bound above the finalized one.
CHECK_MODELS = {
    "default": None,
    "deviations": {"latest": (30.0, 0.0), "justified": (200.0, -80.0), "finalized": (260.0, -4.0)},
    "negative-mean": {"latest": (-20.0, 3.0), "justified": (-5.0, -30.0), "finalized": (-50.0, 1.0)},
    "justified-above": {
        "latest": (49.0, 7.4), "justified": (900.0, 200.0), "finalized": (1036.9, 20.0)
    },
}


@pytest.mark.parametrize("name", CHECK_MODELS)
def test_the_per_mode_check_agrees_with_mode_delays(name):
    """A height confirms for a mode at a slack exactly when its clamped
    ``mode_delays`` entry is at most that slack, at slacks on each raw
    bound and each delay and one either side, on a fresh chain and on
    one that kept its draws."""
    kept = SimChain(SEED, delay_models=CHECK_MODELS[name], label="check")
    models = kept.delay_models
    raw = [simchain.raw_bound(*models[mode]) for mode in ORACLE_MODES]
    if name == "justified-above":
        assert raw[1] > raw[2]
    rng = random.Random(5)
    for height in [1, 2] + rng.sample(range(3, 10**6), 30):
        delays = mode_delays(SEED, "check", models, height)
        for mode in ORACLE_MODES:
            slacks = {-3, 0, 1, 2}
            for at in raw + list(delays.values()):
                slacks |= {at - 1, at, at + 1}
            for slack in sorted(slacks):
                now = height * kept.block_interval + slack
                expected = delays[mode] <= slack
                fresh = SimChain(SEED, delay_models=models, label="check")
                assert fresh._confirms(height, mode, now) is expected, (height, mode, slack)
                assert kept._confirms(height, mode, now) is expected, (height, mode, slack)
    assert "bogus" not in ORACLE_MODES
    for at_time in (None, -1, 0, 10**9):
        with pytest.raises(KeyError):
            kept.confirmed_height("bogus", at_time=at_time)


def test_oracle_draws_only_inside_the_window(monkeypatch):
    draws = []
    real = simchain.sample_delay

    def counting(seed, label, mode, height, mean, stddev):
        draws.append((height, mode))
        return real(seed, label, mode, height, mean, stddev)

    monkeypatch.setattr(simchain, "sample_delay", counting)
    chain = SimChain(SEED)
    reference = DenseOracle(chain)
    chain.advance(12 * 500)
    assert draws == []
    # a read at time 0 draws nothing: height 1 confirms after 12, and a
    # slack below 1 decides without a draw
    assert chain.confirmed_height("latest", at_time=0) == 0
    assert draws == []
    # a read 5 s after height 1 draws height 1's latest delay only
    assert chain.confirmed_height("latest", at_time=17) == 0
    assert draws == [(1, "latest")]
    for now in (12 * 5, 2000, 3000, chain.time - 100, chain.time):
        for mode in ORACLE_MODES:
            answer = chain.confirmed_height(mode, at_time=now)
            mine = len(draws)
            assert answer == reference.confirmed_height(mode, at_time=now)
            del draws[mine:]  # the reference's own draws
    # each height's mode is drawn at most once, and only at heights the
    # dense oracle draws too, and fewer of them
    assert len(draws) == len(set(draws))
    assert {height for height, _ in draws} < set(reference.drawn())
    # a read past every confirmation is settled by the bound
    fresh = SimChain(SEED)
    fresh.advance(12 * 500)
    del draws[:]
    for mode in ORACLE_MODES:
        assert fresh.confirmed_height(mode, at_time=FAR_FUTURE) == 500
    assert draws == []


def test_answers_and_latency_report_read_one_source():
    """The chain's answers and the latency report both come from
    ``mode_delays``: a prefix is confirmed at the running max of
    timestamp + delay, and a report mean is the mean of the drawn
    delays."""
    chain = SimChain(SEED, label="tie")
    chain.advance(12 * 200)
    for mode in ORACLE_MODES:
        expected = [0]
        for height in range(1, 201):
            delay = mode_delays(SEED, "tie", chain.delay_models, height)[mode]
            expected.append(max(expected[-1], height * 12 + delay))
        for now in range(-12, expected[-1] + 24, 7):
            answer = chain.confirmed_height(mode, at_time=now)
            assert answer == bisect.bisect_right(expected, now) - 1

    config = Config({"engine.seed": 5, "oracle.trials": 40})
    _, data = latency_report(config)
    models = {mode: config.delay_model(mode) for mode in ORACLE_MODES}
    draws = [
        mode_delays(engine_seed(config), "latency-probe", models, h) for h in range(1, 41)
    ]
    for mode in ORACLE_MODES:
        delays = [drawn[mode] for drawn in draws]
        assert data["modes"][mode]["trials"] == 40
        assert data["modes"][mode]["mean_s"] == round(statistics.fmean(delays), 2)
        assert data["modes"][mode]["stddev_s"] == round(statistics.stdev(delays), 2)


class _Fixed(random.Random):
    """A ``random.Random`` whose ``random()`` returns the given values."""

    def __init__(self, *values):
        super().__init__(0)
        self._values = iter(values)

    def random(self):
        return next(self._values)


def test_the_delay_bound_covers_every_draw():
    # ``random()`` lies in [0, 1 - 2**-53]; gauss's radius is largest at
    # the top, and its angle term at 0.0 gives the whole radius.
    top = math.nextafter(1.0, 0.0)
    assert top == 1 - 2**-53
    assert _Fixed(0.0, top).gauss(0.0, 1.0) == simchain.GAUSS_Z_MAX
    assert _Fixed(0.0, 0.0).gauss(0.0, 1.0) == 0.0
    assert math.isclose(simchain.GAUSS_Z_MAX, math.sqrt(106 * math.log(2)))
    for angle in (0.125, 0.25, 0.5, 0.75, top):
        assert abs(_Fixed(angle, top).gauss(0.0, 1.0)) <= simchain.GAUSS_Z_MAX

    defaults = Config()
    default_models = {mode: defaults.delay_model(mode) for mode in ORACLE_MODES}
    # 2014 s, or 168 blocks of 12 s, for finalized under the default config
    assert simchain.delay_bounds(default_models)["finalized"] == 2014
    below_zero = {mode: (-500.0, 1.0) for mode in ORACLE_MODES}
    assert simchain.delay_bounds(below_zero) == {mode: 1 for mode in ORACLE_MODES}
    for models in [default_models, below_zero] + [
        m for _, m in ORACLE_CONFIGS.values() if m
    ]:
        bounds = simchain.delay_bounds(models)
        assert list(bounds.values()) == sorted(bounds.values())
        for label in ("target", "reliable"):
            for height in range(1, 700):
                delays = mode_delays(SEED, label, models, height)
                assert all(delays[m] <= bounds[m] for m in ORACLE_MODES), (models, height)


def test_conservation_over_random_traffic():
    rng = random.Random(31)
    chain = SimChain(SEED)
    keys = [_key(i) for i in range(4)]
    for key in keys:
        chain.fund(key.address, rng.randrange(10**18, 10**19))
    for step in range(60):
        sender = rng.choice(keys)
        receiver = rng.choice(keys)
        value = rng.randrange(0, 10**17)
        fee = rng.choice([0, 10**9])
        signed = _signed(
            sender, chain.nonce(sender.address), receiver.address, value,
            fee=fee, gas=21000 if fee else 0,
        )
        chain.submit(signed)
        chain.advance(rng.choice([0, 12, 24]))
        assert chain.total_circulating() == chain.minted
    assert chain.height > 8
    assert chain.recent_block_hashes() == tuple(
        chain.header(h).block_hash for h in range(chain.height - 7, chain.height + 1)
    )


VECTOR_SEED = crypto.digest(b"block-vectors")


def _vector_chain():
    """The seeded chain of ``tests/fixtures/block_vectors.json``: txs at
    some heights, with advances of 0, 1 and many intervals (and parts of
    one) between them."""
    chain = SimChain(VECTOR_SEED, block_interval=12)
    alice, bob, carol = (crypto.derive_signing_key(VECTOR_SEED, "acct", n) for n in "abc")
    chain.fund(alice.address, 10**18)
    chain.advance(0)
    chain.submit(_signed(alice, 0, bob.address, 5 * 10**17, fee=10**9, gas=21000))
    chain.advance(12)  # height 1 holds it
    chain.advance(60)  # heights 2-6 are empty
    # bob pays from what alice sent; carol's nonce 1 waits for nonce 0
    chain.submit(_signed(bob, 0, carol.address, 10**17))
    chain.submit(_signed(carol, 1, alice.address, 3))
    chain.submit(_signed(alice, 1, carol.address, 7, fee=10**9, gas=21000))
    chain.advance(7)  # no height due yet
    chain.advance(5)  # height 7
    chain.submit(_signed(carol, 0, bob.address, 11))
    chain.advance(12 * 30 + 5)  # heights 8-37, carol's pair lands at 8
    chain.fund(carol.address, 13)
    chain.submit(_signed(carol, 2, bob.address, 10**19))  # cannot pay
    chain.submit(_signed(carol, 4, bob.address, 1))  # waits on a gap forever
    chain.advance(24)  # heights 38-39
    chain.advance(12 * 100)  # heights 40-139
    for nonce in (3, 2):
        chain.submit(_signed(alice, nonce, bob.address, nonce))
    chain.advance(12)  # height 140 holds both, in nonce order
    return chain


def test_block_header_vectors():
    """Every height's header hash, empty heights included, matches the
    vectors pinned before empty heights were stored as hashes."""
    data = json.loads((Path(__file__).parent / "fixtures" / "block_vectors.json").read_text())
    chain = _vector_chain()
    assert chain.block_interval == data["block_interval"]
    headers = [chain.header(h) for h in range(chain.height + 1)]
    assert [b.block_hash.hex() for b in headers] == data["block_hashes_hex"]
    assert {str(b.height): len(b.txs) for b in headers if b.txs} == data["heights_with_txs"]
    assert {str(b.height): b.tx_root.hex() for b in headers if b.txs} == data["tx_roots_hex"]
    assert chain.recent_block_hashes() == tuple(
        bytes.fromhex(h) for h in data["block_hashes_hex"][-8:]
    )


def _assert_same_ledger(chain, ref):
    assert chain.time == ref.time and chain.height == ref.blocks[-1].height
    assert chain.tip() == ref.blocks[-1]
    assert chain.recent_block_hashes() == tuple(b.block_hash for b in ref.blocks[-8:])
    assert chain.balances == ref.balances and chain.nonces == ref.nonces
    assert chain.minted == ref.minted
    assert chain.pending == ref.pending
    assert chain._tx_index == ref._tx_index


def _assert_same_chain(chain, ref):
    """Everything block production writes, at every height."""
    _assert_same_ledger(chain, ref)
    assert len(chain._hashes) == len(ref.blocks)
    for block in ref.blocks:
        mine = chain.header(block.height)
        assert mine == block and mine.levels == block.levels
        assert mine.block_hash == block.block_hash == chain._hashes[block.height]
    with pytest.raises(UnknownTx):
        chain.header(chain.height + 1)
    with pytest.raises(UnknownTx):
        chain.header(-1)
    assert chain._balance_history == ref._balance_history
    for address in ref._balance_history:
        for height in range(-1, chain.height + 2):
            assert chain.balance_at(address, height) == ref.balance_at(address, height)
    for digest, (height, index) in ref._tx_index.items():
        block = ref.blocks[height]
        assert chain.tx(digest) is block.txs[index]
        proof = InclusionProof(digest, height, merkle_path(block.levels, index))
        assert chain.verify_proof(proof)
        assert chain.check_proof(proof) is block.txs[index]


@pytest.mark.parametrize("seed", range(8))
def test_chain_matches_the_per_height_reference(seed):
    """Sweeping the pool once per advance and storing later heights as
    hashes gives what sweeping at every height gave: the same hash at
    every height, headers, balances, nonces, pending pool, tx locations
    and balance history, over seeded pools with nonce gaps, duplicates,
    txs that cannot pay and transfers that fund a later sender."""
    rng = random.Random(seed)
    interval = rng.choice([1, 5, 12])
    chain = SimChain(SEED, block_interval=interval)
    ref = ChainRef(block_interval=interval)
    keys = [_key(f"diff{i}") for i in range(5)]
    # the last two start empty: only transfers (or a later fund) pay for them
    for key in keys[:3]:
        amount = rng.randrange(10**6, 10**8)
        chain.fund(key.address, amount)
        ref.fund(key.address, amount)
    sent = []
    for _ in range(150):
        roll = rng.random()
        if roll < 0.55:
            if sent and rng.random() < 0.15:
                signed = rng.choice(sent)  # the same tx again
            else:
                sender = rng.choice(keys)
                expected = chain.nonce(sender.address)
                nonce = max(0, expected + rng.choice([-1, 0, 0, 0, 1, 2, 3]))
                value = rng.choice([0, rng.randrange(1, 10**6), rng.randrange(10**7, 10**9)])
                fee = rng.choice([0, 0, 7])
                signed = _signed(
                    sender, nonce, rng.choice(keys).address, value, fee=fee, gas=fee and 3
                )
            sent.append(signed)
            chain.submit(signed)
            ref.submit(signed)
        elif roll < 0.65:
            address, amount = rng.choice(keys).address, rng.randrange(0, 10**8)
            chain.fund(address, amount)
            ref.fund(address, amount)
        else:
            seconds = rng.choice([
                0,
                rng.randrange(1, interval + 1),
                interval,
                interval * rng.randrange(2, 40) + rng.randrange(0, interval),
            ])
            produced = chain.advance(seconds)
            assert list(produced) == [b.height for b in ref.advance(seconds)]
            _assert_same_ledger(chain, ref)
        assert chain.total_circulating() == chain.minted
    assert len(ref._tx_index) > 10 and chain.pending
    _assert_same_chain(chain, ref)


def _eager_ost(ost, ref, interval):
    """``ost`` with the hashes of the reference's eager headers at the
    tip of its instant."""
    tip = ost.chain_time // interval
    hashes = tuple(b.block_hash for b in ref.blocks[max(0, tip - 7) : tip + 1])
    return OracleState(ost.chain_time, hashes, ost.recognized_nonce)


@pytest.mark.parametrize("seed", range(6))
def test_oracle_snapshots_match_the_eager_reference(seed):
    """A signature's oracle snapshot, whose hashes are read late, encodes
    to the bytes of the reference chain's eager headers at the tip of
    the sign, whether it is read at once or after later blocks.  Signs
    fall between advances of 1 to 300 intervals, and at a height both
    before and after a block of txs is produced; the log digest at every
    length and every header match the reference too."""
    rng = random.Random(seed)
    engine = Engine()
    chain, manager, interval = engine.chain, engine.manager, engine.chain.block_interval
    ref = ChainRef(block_interval=interval)
    manager.register_player("am")
    manager.lw_gen(access_manager="am", wallet_id="w", policy_kind="allow")
    payers = [f"payer{i}" for i in range(3)]
    for name in payers:
        ref.fund(engine.external_account(name, 10**21), 10**21)

    def sign():
        manager.lw_sign("am", "w", PersonalSign(rng.randbytes(8)))
        entry = manager.wallet("w").intst[-1]
        if rng.random() < 0.3:  # read at once; the rest are read at the end
            assert entry.ost.encode() == _eager_ost(entry.ost, ref, interval).encode()

    def advance(seconds):
        engine.advance(seconds)
        ref.advance(seconds)

    for _ in range(40):
        roll = rng.random()
        if roll < 0.4:
            advance(interval * rng.randint(1, 300) + rng.randrange(interval))
            sign()
        elif roll < 0.7:
            # a sign at this height before and after its block of txs
            advance(interval - chain.time % interval - 1)
            sign()
            for name in rng.sample(payers, rng.randint(1, 3)):
                signed = engine.account_tx(name, rng.randbytes(20), rng.randrange(10**6))
                chain.submit(signed)
                ref.submit(signed)
            sign()
            advance(1)
            assert chain.header(chain.height).txs
            sign()
        else:
            advance(rng.randrange(interval))  # perhaps no new height
            sign()
    log = manager.wallet("w").intst
    eager = [LogEntry(e.player, e.message, _eager_ost(e.ost, ref, interval), e.node_id) for e in log]
    for entry, twin in zip(log, eager):
        assert entry.ost == twin.ost and entry.ost.encode() == twin.ost.encode()
    running = b"\x00" * 32
    for length in range(len(log) + 1):
        assert manager.log_prefix_digest("w", length) == running
        if length < len(log):
            running = crypto.digest(running + eager[length].encode())
    assert len(ref._tx_index) > 10
    _assert_same_chain(chain, ref)
