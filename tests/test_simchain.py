"""Simulated chain: blocks, balances, confirmation oracle, proofs."""

import bisect
import dataclasses
import random
import statistics

import pytest

from encumbra import crypto, simchain
from encumbra.config import ORACLE_MODES, Config
from encumbra.engine import engine_seed
from encumbra.errors import BadProof, InvalidSignature, NotYetConfirmed, UnknownTx
from encumbra.merkle import merkle_levels, merkle_path, merkle_root
from encumbra.messages import ChainTx, signing_digest
from encumbra.reports import latency_report
from encumbra.simchain import FEE_SINK, InclusionProof, SignedTx, SimChain, mode_delays

SEED = crypto.digest(b"simchain-tests")
# Later than any height's confirmation: a read at this time draws every
# block the chain has.
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
    assert chain.tip().height == 0
    produced = chain.advance(11)
    assert produced == []
    produced = chain.advance(1)
    assert [b.height for b in produced] == [1]
    produced = chain.advance(36)
    assert [b.height for b in produced] == [2, 3, 4]
    assert chain.tip().height == 4
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
    for block in chain.blocks:
        first = block.block_hash
        assert block.block_hash is first  # computed once per block
        assert first == crypto.digest(
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
    assert len(chain.blocks[1].txs) == 1


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
    (block,) = chain.advance(12)
    assert [s.tx.nonce for s in block.txs] == [0, 1]
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


def _finalized_prefixes(chain):
    chain.confirmed_height("finalized", at_time=FAR_FUTURE)
    return list(chain._prefix_times["finalized"])


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
    times_a = _finalized_prefixes(a)
    assert times_a != _finalized_prefixes(b)
    assert times_a != _finalized_prefixes(c)
    # and the same construction replays identically
    again = SimChain(SEED, label="a")
    again.advance(120)
    assert times_a == _finalized_prefixes(again)
    assert delays(SEED, "a") == delays(SEED, "a")


def _oracle_call(chain, op, *args):
    try:
        return ("ok", getattr(chain, op)(*args))
    except Exception as error:  # compared, not swallowed
        return (type(error).__name__, str(error))


def _oracle_lists(chain):
    return {m: list(chain._prefix_times[m]) for m in ORACLE_MODES}


@pytest.mark.parametrize("seed", range(4))
def test_lazy_oracle_matches_eager_order(seed):
    """Drawing on first read gives the answers of drawing every block
    when it is produced: same values, same exceptions, same lists."""
    rng = random.Random(seed)
    lazy = SimChain(SEED, label="diff")
    eager = SimChain(SEED, label="diff")

    def fill_to_tip(chain):
        chain.confirmed_height("latest", at_time=FAR_FUTURE)
        assert len(chain._prefix_times[ORACLE_MODES[0]]) == len(chain.blocks)

    for _ in range(300):
        roll = rng.random()
        if roll < 0.25:
            seconds = rng.choice([0, rng.randrange(1, 40), rng.randrange(40, 2000)])
            lazy.advance(seconds)
            eager.advance(seconds)
            fill_to_tip(eager)
            continue
        mode = rng.choice(ORACLE_MODES)
        tip = lazy.tip().height
        if roll < 0.65:
            at_time = rng.choice([
                None,
                lazy.time,
                rng.randrange(0, lazy.time + 1),
                lazy.time + rng.randrange(1, 5000),
            ])
            call = ("confirmed_height", mode, at_time)
        else:
            # a time around some height's confirmation, past the tip too
            height = rng.choice([
                tip,
                tip + rng.randrange(1, 5),
                rng.randrange(0, tip + 1),
                -1,
            ])
            at_time = height * lazy.block_interval + rng.randrange(0, 2500)
            call = ("confirmed_height", mode, at_time)
        assert _oracle_call(lazy, *call) == _oracle_call(eager, *call), call

    assert lazy.tip().height > 100
    drawn = _oracle_lists(lazy)
    full = _oracle_lists(eager)
    for mode in ORACLE_MODES:
        assert drawn[mode] == full[mode][: len(drawn[mode])]
    fill_to_tip(lazy)
    assert _oracle_lists(lazy) == _oracle_lists(eager)


def test_oracle_draws_only_what_is_read(monkeypatch):
    draws = []
    real = simchain.sample_delay

    def counting(seed, label, mode, height, mean, stddev):
        draws.append((mode, height))
        return real(seed, label, mode, height, mean, stddev)

    monkeypatch.setattr(simchain, "sample_delay", counting)
    chain = SimChain(SEED)
    chain.advance(12 * 500)
    assert draws == []
    # the first read at time 0 draws height 1 only: it confirms after 12
    assert chain.confirmed_height("latest", at_time=0) == 0
    assert draws == [(m, 1) for m in ORACLE_MODES]
    chain.confirmed_height("latest", at_time=12 * 5)
    drawn = len(draws) // len(ORACLE_MODES)
    assert draws == [(m, h) for h in range(1, drawn + 1) for m in ORACLE_MODES]
    assert chain._prefix_times["latest"][drawn] > 12 * 5
    assert chain._prefix_times["latest"][drawn - 1] <= 12 * 5
    confirmed = chain.confirmed_height("finalized", at_time=2000)
    drawn = len(draws) // len(ORACLE_MODES)
    assert confirmed < drawn < 500
    # the last drawn height is the first whose prefix confirms after t
    assert chain._prefix_times["finalized"][drawn] > 2000
    assert chain._prefix_times["finalized"][drawn - 1] <= 2000
    # a read past every confirmation draws up to the tip and no further
    assert chain.confirmed_height("finalized", at_time=FAR_FUTURE) == 500
    assert chain.confirmed_height("latest", at_time=FAR_FUTURE) == 500
    assert len(draws) == 500 * len(ORACLE_MODES)


def test_prefixes_and_latency_report_read_one_source():
    """The chain's prefix times and the latency report both come from
    ``mode_delays``: a prefix is the running max of timestamp + delay,
    and a report mean is the mean of the drawn delays."""
    chain = SimChain(SEED, label="tie")
    chain.advance(12 * 200)
    chain.confirmed_height("finalized", at_time=FAR_FUTURE)
    for mode in ORACLE_MODES:
        expected = [0]
        for height in range(1, 201):
            delay = mode_delays(SEED, "tie", chain.delay_models, height)[mode]
            expected.append(max(expected[-1], height * 12 + delay))
        assert chain._prefix_times[mode] == expected

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
    assert chain.recent_block_hashes(4) == tuple(
        b.block_hash for b in chain.blocks[-4:]
    )
