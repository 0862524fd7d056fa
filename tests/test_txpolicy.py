"""Transaction-encumbrance ledger: deposits, commitments, attribution, gas."""

import pytest

from encumbra import crypto
from encumbra.assets import NATIVE, destination
from encumbra.engine import Engine
from encumbra.errors import (
    AlreadyClaimed,
    BadProof,
    NotYetConfirmed,
    PolicyRefusal,
    StaleNonce,
    UnknownDeposit,
    UnknownNode,
    UnknownTx,
)
from encumbra.manager import attestation_digest
from encumbra.messages import ChainTx, signing_digest
from encumbra.policy.tree import ROOT_ID, Grant, PlayerController, PolicyTree
from encumbra.policy.update import spawn
from encumbra.simchain import SignedTx, SimChain
from encumbra.state import OracleState, StateTriple
from encumbra.txpolicy import (
    HOST_OPS,
    OP_ADD_POLICY,
    OP_ADD_SUB_POLICY,
    OP_DEPLOY_POLICY,
    OP_DEPOSIT_COMMITMENT,
    OP_PROVE_DEPOSIT,
    OP_PROVE_TX,
    OP_TX_COMMITMENT,
    TxLedger,
    simulated_gas,
)

SEED = crypto.digest(b"txpolicy-tests")
ETH = 10**18
FAR = 10**9  # expiry far beyond any chain time these tests reach
D1 = b"\x61" * 20
D2 = b"\x62" * 20
FEE = 10**9
GAS = 21_000
CAP = FEE * GAS


def _st(t=0, nonce=0):
    return StateTriple(
        intst=(),
        ost=OracleState(chain_time=t, block_hashes=(), recognized_nonce=nonce),
        extst=b"",
    )


def _build(commit_required=True, reimburse_wei=5 * 10**15):
    chain = SimChain(SEED)
    wallet = crypto.derive_signing_key(SEED, "wallet")
    box = {"tree": PolicyTree("am")}
    ledger = TxLedger(
        "w1",
        wallet.address,
        chain,
        lambda: box["tree"],
        commit_required=commit_required,
        reimburse_wei=reimburse_wei,
    )
    return chain, wallet, box, ledger


def _carve(box, ledger, node_id="n1", player="renter", dest=D1, t=0):
    box["tree"] = spawn(
        box["tree"], "am", ROOT_ID, node_id, PlayerController(player), FAR,
        [Grant(destination(dest), 1, 0, FAR)], _st(t),
    )
    ledger.register_grant(node_id, dest)


def _deposit(chain, frm, wallet_address, nonce, value):
    tx = ChainTx(1, nonce, FEE, GAS, wallet_address, value)
    return SignedTx(tx=tx, signature=frm.sign(signing_digest(tx)))


def _outflow(wallet, nonce, to, value):
    tx = ChainTx(1, nonce, FEE, GAS, to, value)
    return SignedTx(tx=tx, signature=wallet.sign(signing_digest(tx)))


def _finalized_proof(chain, digest):
    chain.advance(3000)  # past the worst plausible finalization delay
    return chain.prove_inclusion(digest)


# ----------------------------------------------------------------------
# gas model


def test_gas_model_values():
    assert simulated_gas(OP_DEPLOY_POLICY) == 3_021_000
    assert simulated_gas(OP_ADD_POLICY) == 161_000
    assert simulated_gas(OP_ADD_SUB_POLICY) == 121_000
    assert simulated_gas(OP_DEPOSIT_COMMITMENT) == 61_000
    assert simulated_gas(OP_PROVE_DEPOSIT, siblings=0) == 81_000
    assert simulated_gas(OP_TX_COMMITMENT) == 61_000
    assert simulated_gas(OP_PROVE_TX, siblings=0) == 116_000
    with pytest.raises(KeyError):
        simulated_gas("mint unicorn")


def test_proofs_price_above_their_commitments():
    for siblings in range(9):
        dep = simulated_gas(OP_PROVE_DEPOSIT, siblings=siblings)
        assert dep > simulated_gas(OP_DEPOSIT_COMMITMENT)
        out = simulated_gas(OP_PROVE_TX, siblings=siblings)
        assert out > simulated_gas(OP_TX_COMMITMENT)
    # per-sibling cost is linear
    base = simulated_gas(OP_PROVE_DEPOSIT, siblings=0)
    for siblings in range(1, 9):
        assert simulated_gas(OP_PROVE_DEPOSIT, siblings=siblings) == base + 5_000 * siblings
    assert len(HOST_OPS) == 7


def test_ctor_and_grant_registration_meter():
    chain, wallet, box, ledger = _build()
    assert ledger.gas_log == [(OP_ADD_POLICY, 161_000)]
    _carve(box, ledger)
    assert ledger.gas_log[-1] == (OP_ADD_SUB_POLICY, 121_000)
    summary = ledger.gas_summary()
    assert summary[OP_ADD_POLICY] == (1, 161_000)
    assert summary[OP_ADD_SUB_POLICY] == (1, 121_000)


# ----------------------------------------------------------------------
# deposits


def test_claim_must_precede_inclusion():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    _carve(box, ledger, node_id="n2", player="other", dest=D2)
    whale = crypto.derive_signing_key(SEED, "whale")
    chain.fund(whale.address, 100 * ETH)
    dep = _deposit(chain, whale, wallet.address, 0, ETH)

    ledger.claim_deposit("n1", dep.digest)
    logged = len(ledger.gas_log)
    ledger.claim_deposit("n1", dep.digest)  # idempotent, not re-metered
    assert len(ledger.gas_log) == logged
    with pytest.raises(AlreadyClaimed):
        ledger.claim_deposit("n2", dep.digest)

    # late (nonce 1) can land only after dep (nonce 0)
    late = _deposit(chain, whale, wallet.address, 1, ETH)
    chain.submit(dep)
    chain.submit(late)
    chain.advance(24)
    assert chain.includes(late.digest)
    with pytest.raises(AlreadyClaimed):
        ledger.claim_deposit("n1", late.digest)

    with pytest.raises(UnknownNode):
        ledger.claim_deposit("ghost", crypto.digest(b"x"))


def test_prove_deposit_credits_once():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    _carve(box, ledger, node_id="n2", player="other", dest=D2)
    whale = crypto.derive_signing_key(SEED, "whale")
    chain.fund(whale.address, 100 * ETH)
    dep = _deposit(chain, whale, wallet.address, 0, 2 * ETH)

    ledger.claim_deposit("n1", dep.digest)
    chain.submit(dep)
    chain.advance(12)
    with pytest.raises(NotYetConfirmed):
        chain.prove_inclusion(dep.digest)
    proof = _finalized_proof(chain, dep.digest)

    with pytest.raises(AlreadyClaimed):
        ledger.prove_deposit("n2", proof)  # claimed by n1, not n2
    assert ledger.prove_deposit("n1", proof) == 2 * ETH
    assert ledger.ether_sub["n1"] == 2 * ETH
    assert ledger.total_proven == 2 * ETH

    logged = len(ledger.gas_log)
    assert ledger.prove_deposit("n1", proof) == 0  # replay credits nothing
    assert len(ledger.gas_log) == logged + 1  # but the proof still costs gas
    assert ledger.ether_sub["n1"] == 2 * ETH


def test_prove_deposit_rejects_strangers():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    whale = crypto.derive_signing_key(SEED, "whale")
    stranger = crypto.derive_signing_key(SEED, "stranger")
    chain.fund(whale.address, 100 * ETH)

    # pays someone else entirely
    misdirected = _deposit(chain, whale, stranger.address, 0, ETH)
    ledger.claim_deposit("n1", misdirected.digest)
    chain.submit(misdirected)
    proof = _finalized_proof(chain, misdirected.digest)
    with pytest.raises(BadProof):
        ledger.prove_deposit("n1", proof)

    # pays the wallet but was never claimed
    unclaimed = _deposit(chain, whale, wallet.address, 1, ETH)
    chain.submit(unclaimed)
    proof = _finalized_proof(chain, unclaimed.digest)
    with pytest.raises(UnknownDeposit):
        ledger.prove_deposit("n1", proof)


# ----------------------------------------------------------------------
# the signing gate


def test_approval_gates_fire_in_order():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    ledger.ether_sub["n1"] = ETH
    good = ChainTx(1, 0, FEE, GAS, D1, ETH - CAP)
    st = _st()

    assert not ledger.approves_chain_tx("n1", ChainTx(5, 0, FEE, GAS, D1, 0), st)
    assert not ledger.approves_chain_tx("n1", ChainTx(1, 1, FEE, GAS, D1, 0), st)
    over = ChainTx(1, 0, FEE, GAS, D1, ETH - CAP + 1)
    assert not ledger.approves_chain_tx("n1", over, st)
    # within budget but not committed
    assert not ledger.approves_chain_tx("n1", good, st)
    ledger.commit_request("n1", signing_digest(good))
    assert ledger.approves_chain_tx("n1", good, st)
    # a commitment binds the exact digest, not the shape
    twin = ChainTx(1, 0, FEE, GAS, D1, ETH - CAP - 1)
    assert not ledger.approves_chain_tx("n1", twin, st)


def test_commit_gate_can_be_waived():
    chain, wallet, box, ledger = _build(commit_required=False)
    _carve(box, ledger)
    ledger.ether_sub["n1"] = ETH
    tx = ChainTx(1, 0, FEE, GAS, D1, ETH // 2)
    assert ledger.approves_chain_tx("n1", tx, _st())


def test_unlimited_bypasses_the_commit_gate():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    ledger.ether_sub["n1"] = ETH
    ledger.unlimited[("n1", D1)] = True
    tx = ChainTx(1, 0, FEE, GAS, D1, ETH // 2)
    assert ledger.approves_chain_tx("n1", tx, _st())
    # re-granting the same destination demotes the holder back to limited
    ledger.register_grant("n1", D1)
    assert not ledger.approves_chain_tx("n1", tx, _st())


def test_evaluate_routes_chain_tx_through_the_ledger():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    ledger.ether_sub["n1"] = ETH
    st = _st()
    tx = ChainTx(1, 0, FEE, GAS, D1, ETH // 2)
    ledger.commit_request("n1", signing_digest(tx))
    assert box["tree"].evaluate("n1", "renter", tx, st, ledger=ledger)
    # destination demand still applies: D2 was never carved to n1
    stray = ChainTx(1, 0, FEE, GAS, D2, ETH // 2)
    ledger.commit_request("n1", signing_digest(stray))
    assert not box["tree"].evaluate("n1", "renter", stray, st, ledger=ledger)
    # ledger says no once the recognized nonce moves on
    assert not box["tree"].evaluate("n1", "renter", tx, _st(nonce=1), ledger=ledger)


def test_the_ledger_gates_signing_across_tree_swaps():
    """The engine gives the ledger to the wallet's tree policy, so it
    still gates a chain tx after a spawn and a seal install new trees."""
    engine = Engine()
    for name in ("am", "renter"):
        engine.manager.register_player(name)
    gated = engine.create_wallet(
        "gated", "am", native_capacity=10 * ETH, fund_wei=10 * ETH, with_ledger=True
    )
    plain = engine.create_wallet("plain", "am", native_capacity=10 * ETH, fund_wei=10 * ETH)
    ledger = engine.ledger_of("gated")
    for wallet in (gated, plain):
        engine.manager.spawn_node(
            "am", wallet.wallet_id, ROOT_ID, "n1", PlayerController("renter"), FAR,
            [Grant(NATIVE, ETH, 0, FAR), Grant(destination(D1), 1, 0, FAR)],
        )
        engine.manager.seal_asset("am", wallet.wallet_id, "n1", destination(D1))
    assert gated.policy.ledger is ledger
    assert plain.policy.ledger is None
    tx = engine.wallet_tx("gated", D1, 1)
    # the node's native grant alone allows the tx ...
    engine.signed_wallet_tx("renter", "plain", tx)
    # ... but n1 has no ledger balance, so the ledger refuses it
    with pytest.raises(PolicyRefusal):
        engine.signed_wallet_tx("renter", "gated", tx)


def test_every_destination_carve_through_the_manager_reaches_the_ledger():
    """The manager registers a carved destination when the change
    commits, so a spawn or re-grant made straight through it (as
    ``DarkDao.enroll`` does) reaches the ledger as a scenario step does."""
    engine = Engine()
    for name in ("am", "renter"):
        engine.manager.register_player(name)
    engine.create_wallet("w", "am", native_capacity=10 * ETH, with_ledger=True)
    ledger = engine.ledger_of("w")
    logged = len(ledger.gas_log)
    engine.manager.spawn_node(
        "am", "w", ROOT_ID, "n1", PlayerController("renter"), FAR,
        [Grant(NATIVE, ETH, 0, FAR), Grant(destination(D1), 1, 0, FAR)],
    )
    assert ledger.unlimited == {("n1", D1): False}
    assert ledger.gas_log[logged:] == [(OP_ADD_SUB_POLICY, simulated_gas(OP_ADD_SUB_POLICY))]
    engine.manager.spawn_node("am", "w", ROOT_ID, "n2", PlayerController("renter"), FAR, [])
    engine.manager.add_node_grants("am", "w", "n2", [Grant(destination(D2), 1, 0, FAR)])
    assert ledger.unlimited == {("n1", D1): False, ("n2", D2): False}
    assert [op for op, _ in ledger.gas_log[logged:]] == [OP_ADD_SUB_POLICY] * 2


def test_commit_request_rules():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    _carve(box, ledger, node_id="n2", player="other", dest=D2)
    digest = crypto.digest(b"req")
    ledger.commit_request("n1", digest)
    logged = len(ledger.gas_log)
    ledger.commit_request("n1", digest)  # idempotent
    assert len(ledger.gas_log) == logged
    with pytest.raises(AlreadyClaimed):
        ledger.commit_request("n2", digest)
    with pytest.raises(UnknownNode):
        ledger.commit_request("ghost", digest)


# ----------------------------------------------------------------------
# outgoing recognition and attribution


def test_prove_tx_charges_the_committed_node():
    chain, wallet, box, ledger = _build(reimburse_wei=5 * 10**15)
    _carve(box, ledger)
    chain.fund(wallet.address, 2 * ETH)
    ledger.ether_sub["n1"] = ETH
    ledger.fund_host_fees("n1", 10**16)

    out = _outflow(wallet, 0, D1, ETH // 2)
    ledger.commit_request("n1", out.digest)
    chain.submit(out)
    proof = _finalized_proof(chain, out.digest)

    assert ledger.prove_tx_inclusion("renter", proof) == "n1"
    assert ledger.recognized_nonce == 1
    cost = ETH // 2 + CAP
    assert ledger.ether_sub["n1"] == ETH - cost
    assert ledger.total_deducted == cost
    # host fee reimbursement is capped by what the node staged
    assert ledger.player_host_credit["renter"] == 5 * 10**15
    assert ledger.host_fee_sub["n1"] == 10**16 - 5 * 10**15
    # the holder graduates to unlimited for its destination
    assert ledger.unlimited[("n1", D1)] is True
    assert ledger.last_unlimited[D1] == "n1"

    with pytest.raises(StaleNonce):
        ledger.prove_tx_inclusion("renter", proof)  # nonce already recognized


def test_prove_tx_reimbursement_never_overdraws():
    chain, wallet, box, ledger = _build(reimburse_wei=5 * 10**15)
    _carve(box, ledger)
    chain.fund(wallet.address, 2 * ETH)
    ledger.ether_sub["n1"] = ETH
    ledger.fund_host_fees("n1", 2 * 10**15)  # less than the cap

    out = _outflow(wallet, 0, D1, ETH // 4)
    ledger.commit_request("n1", out.digest)
    chain.submit(out)
    proof = _finalized_proof(chain, out.digest)
    ledger.prove_tx_inclusion("renter", proof)
    assert ledger.player_host_credit["renter"] == 2 * 10**15
    assert ledger.host_fee_sub["n1"] == 0


def test_prove_tx_falls_back_to_last_unlimited():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    chain.fund(wallet.address, 3 * ETH)
    ledger.ether_sub["n1"] = 2 * ETH

    first = _outflow(wallet, 0, D1, ETH // 2)
    ledger.commit_request("n1", first.digest)
    chain.submit(first)
    ledger.prove_tx_inclusion("renter", _finalized_proof(chain, first.digest))

    # no commitment this time: attribution rides the graduation record
    second = _outflow(wallet, 1, D1, ETH // 4)
    chain.submit(second)
    assert ledger.prove_tx_inclusion("renter", _finalized_proof(chain, second.digest)) == "n1"
    assert ledger.unattributed == []


def test_prove_tx_without_attribution_is_recorded():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    chain.fund(wallet.address, 2 * ETH)
    before = dict(ledger.ether_sub)

    leak = _outflow(wallet, 0, D2, ETH // 2)  # no holder, no commitment
    chain.submit(leak)
    proof = _finalized_proof(chain, leak.digest)
    assert ledger.prove_tx_inclusion("renter", proof) is None
    assert ledger.unattributed == [leak.digest]
    assert ledger.recognized_nonce == 1  # recognition advances regardless
    assert ledger.ether_sub == before


def test_prove_tx_rejects_inbound_proofs():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    whale = crypto.derive_signing_key(SEED, "whale")
    chain.fund(whale.address, 10 * ETH)
    dep = _deposit(chain, whale, wallet.address, 0, ETH)
    chain.submit(dep)
    proof = _finalized_proof(chain, dep.digest)
    with pytest.raises(BadProof):
        ledger.prove_tx_inclusion("renter", proof)


# ----------------------------------------------------------------------
# provenance


def test_sub_balances_are_book_entries_not_grants():
    chain, wallet, box, ledger = _build()
    box["tree"] = spawn(
        box["tree"], "am", ROOT_ID, "n1", PlayerController("renter"), 100,
        [Grant(destination(D1), 1, 0, 100)], _st(),
    )
    ledger.register_grant("n1", D1)
    ledger.ether_sub["n1"] = ETH
    # the node expires, the money stays on its book line
    assert not box["tree"].nodes["n1"].active_at(101)
    assert ledger.ether_sub["n1"] == ETH


def test_ledger_digest_tracks_claims_and_nonce():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    d0 = ledger.ledger_digest()
    ledger.claim_deposit("n1", crypto.digest(b"dep"))
    d1 = ledger.ledger_digest()
    assert d1 != d0
    ledger.recognized_nonce += 1
    d2 = ledger.ledger_digest()
    assert d2 not in (d0, d1)

    # a twin ledger replaying the same book arrives at the same digest
    chain2, wallet2, box2, twin = _build()
    _carve(box2, twin)
    twin.claim_deposit("n1", crypto.digest(b"dep"))
    twin.recognized_nonce += 1
    assert twin.ledger_digest() == d2


def test_snapshot_is_sorted_and_hex_keyed():
    chain, wallet, box, ledger = _build()
    _carve(box, ledger)
    ledger.claim_deposit("n1", crypto.digest(b"b"))
    ledger.claim_deposit("n1", crypto.digest(b"a"))
    snap = ledger.snapshot()
    assert snap["wallet"] == "w1"
    assert snap["recognized_nonce"] == 0
    assert list(snap["claims"]) == sorted(snap["claims"])
    for key in ("ether_sub", "host_fee_sub", "player_host_credit", "proven"):
        assert isinstance(snap[key], dict)
    assert snap["total_proven"] == 0 and snap["total_deducted"] == 0


# ----------------------------------------------------------------------
# non-ownership: lw_verify's never-claimed predicate


def _dusted_engine():
    """A ledger wallet ``w`` with one carve, and an unclaimed dust
    deposit to it included on chain."""
    engine = Engine()
    for name in ("am", "renter"):
        engine.manager.register_player(name)
    wallet = engine.create_wallet("w", "am", native_capacity=10 * ETH, with_ledger=True)
    engine.manager.spawn_node(
        "am", "w", ROOT_ID, "n1", PlayerController("renter"), FAR,
        [Grant(destination(D1), 1, 0, FAR)],
    )
    engine.external_account("whale", fund_wei=100 * ETH)
    dust = engine.account_tx("whale", wallet.address, ETH // 100)
    engine.chain.submit(dust)
    engine.advance(3000)
    return engine, wallet, dust


def _never_claimed(tx_digest, ledger_digest):
    return ("never-claimed", tx_digest.hex(), ledger_digest.hex())


def _verdict(engine, tx_digest, wallet_id="w"):
    """The verdict on ``tx_digest`` against the live digest of ``w``'s ledger."""
    predicate = _never_claimed(tx_digest, engine.ledger_of("w").ledger_digest())
    return engine.manager.lw_verify(wallet_id, "auditor", [], predicate)[0]


def _attests_never_claimed(signature, public_key, tx_digest, ledger_digest):
    """A verifier's check: ``public_key`` signed a true never-claimed
    verdict on ``tx_digest`` against ``ledger_digest``."""
    payload = attestation_digest(
        "w", "auditor", [], _never_claimed(tx_digest, ledger_digest), True
    )
    return signature.public_key == public_key and crypto.verify(signature, payload)


def test_non_ownership_happy_path():
    engine, wallet, dust = _dusted_engine()
    ledger_digest = engine.ledger_of("w").ledger_digest()
    verdict, signature = engine.manager.lw_verify(
        "w", "auditor", [], _never_claimed(dust.digest, ledger_digest)
    )
    assert verdict
    assert _attests_never_claimed(signature, wallet.public_key, dust.digest, ledger_digest)


def test_non_ownership_refuses_bad_targets():
    engine, wallet, dust = _dusted_engine()
    assert _verdict(engine, dust.digest)
    assert not _verdict(engine, crypto.digest(b"ghost"))

    stranger = engine.external_account("stranger")
    sideways = engine.account_tx("whale", stranger, ETH)
    engine.chain.submit(sideways)
    engine.advance(24)
    assert engine.chain.includes(sideways.digest)
    assert not _verdict(engine, sideways.digest)

    claimed = engine.account_tx("whale", wallet.address, ETH)
    engine.ledger_of("w").claim_deposit("n1", claimed.digest)
    engine.chain.submit(claimed)
    engine.advance(24)
    assert engine.chain.includes(claimed.digest)
    assert not _verdict(engine, claimed.digest)

    # a wallet with no ledger attests to no deposit
    plain = engine.create_wallet("plain", "am")
    unledgered = engine.account_tx("whale", plain.address, ETH)
    engine.chain.submit(unledgered)
    engine.advance(24)
    assert engine.chain.includes(unledgered.digest)
    assert not _verdict(engine, unledgered.digest, wallet_id="plain")


def test_non_ownership_verification_binds_everything():
    engine, wallet, dust = _dusted_engine()
    ledger = engine.ledger_of("w")
    signed_digest = ledger.ledger_digest()
    verdict, signature = engine.manager.lw_verify(
        "w", "auditor", [], _never_claimed(dust.digest, signed_digest)
    )
    assert verdict
    assert _attests_never_claimed(signature, wallet.public_key, dust.digest, signed_digest)

    other = engine.create_wallet("other", "am")
    assert not _attests_never_claimed(signature, other.public_key, dust.digest, signed_digest)

    # ledger moved on: the attestation no longer matches the live snapshot,
    # and asking again about the old snapshot gets a false verdict
    ledger.claim_deposit("n1", crypto.digest(b"later"))
    live_digest = ledger.ledger_digest()
    assert not _attests_never_claimed(signature, wallet.public_key, dust.digest, live_digest)
    assert not engine.manager.lw_verify(
        "w", "auditor", [], _never_claimed(dust.digest, signed_digest)
    )[0]

    # tampered target breaks the signature binding
    forged_target = crypto.digest(b"other-target")
    assert not _attests_never_claimed(
        signature, wallet.public_key, forged_target, signed_digest
    )
