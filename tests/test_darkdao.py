"""Vote-market refusals: each one is recorded by code and leaves the
market as it found it."""

import pytest

from encumbra.engine import proposal_id_of
from encumbra.errors import PolicyRefusal, StepFailure
from encumbra.scenario import ScenarioRunner, parse_scenario

MARKET = """\
player voter
player buyer
player poor
wallet gov am=voter policy=tree update=tree fund=5eth
wallet gov2 am=voter policy=tree update=tree fund=5eth
wallet empty am=poor policy=tree update=tree
advance 60
proposal prop1 dao=main snapshot=tip close=+3600
proposal soon dao=main snapshot=tip close=+10
enroll gov dao=main
enroll gov2 dao=main
enroll empty dao=main
offer o1 briber=buyer proposal=prop1 choice=2 price=0.001eth escrow=1eth
offer tiny briber=buyer proposal=prop1 choice=2 price=1eth escrow=1wei
offer late briber=buyer proposal=soon choice=1 price=0.001eth escrow=1eth
accept gov owner=voter offer=o1
advance 20
"""

REFUSALS = {
    "UnknownProposal": "offer o2 briber=buyer proposal=nosuch choice=1 price=1wei escrow=1eth",
    "UnknownOffer": "offer o1 briber=buyer proposal=prop1 choice=1 price=1wei escrow=9eth",
    "ProposalClosed": "accept gov2 owner=voter offer=late",
    "EscrowExhausted": "accept gov2 owner=voter offer=tiny",
    "NoReservation": "accept empty owner=poor offer=o1",
    "NotDelegatee": "accept gov2 owner=buyer offer=o1",
    "AlreadyDelegated": "accept gov owner=voter offer=tiny",
}


def _run(script):
    runner = ScenarioRunner(parse_scenario(script, name="market"))
    runner.run()
    return runner


def _market(runner):
    dao = runner.engine.dao
    offers = {
        offer_id: (offer.reserved, offer.escrow, dict(offer.reservations))
        for offer_id, offer in dao.offers.items()
    }
    return offers, dict(dao.delegations)


@pytest.mark.parametrize("code", sorted(REFUSALS))
def test_a_refused_market_step_records_its_code_and_changes_nothing(code):
    before = _market(_run(MARKET))
    assert before[0]["o1"][2] and before[1]  # a reservation and a delegation stand
    runner = _run(MARKET + f"? {REFUSALS[code]}\n")
    command = REFUSALS[code].split()[0]
    lineno = MARKET.count("\n") + 1
    assert runner.transcript[-1] == f"refused L{lineno} {command} {code}"
    assert _market(runner) == before


# Moves 3 ETH from a wallet that has voted to a second enrolled wallet.
MOVE_THEN_VOTE = """\
player voter
wallet gov am=voter policy=tree update=tree capacity=5eth fund=5eth
wallet gov2 am=voter policy=tree update=tree
advance 60
proposal p dao=main snapshot={snapshot} close=+3600
enroll gov dao=main
enroll gov2 dao=main
vote gov player=voter proposal=p choice=1
spawn gov actor=voter node=mover controller=voter dest=gov2 native=4eth
sign gov player=voter to=gov2 value=3eth as=t
submit t
advance 12
vote gov2 player=voter proposal=p choice=1
tally p
"""


def test_a_balance_votes_once_at_its_snapshot():
    runner = _run(MOVE_THEN_VOTE.format(snapshot="tip"))
    assert runner.transcript[-1] == "ok L14 tally p {1:5000000000000000000}"


@pytest.mark.parametrize("snapshot", ["6", "1000"])
def test_a_snapshot_above_the_chain_height_is_refused(snapshot):
    """A snapshot not yet produced would read live balances, so moved
    funds would vote again."""
    script = MOVE_THEN_VOTE.format(snapshot=snapshot)
    with pytest.raises(StepFailure, match=f"snapshot {snapshot} outside 0..5"):
        _run(script)
    setup = "".join(script.splitlines(keepends=True)[:4])
    runner = _run(setup + f"? proposal p dao=main snapshot={snapshot} close=+3600\n")
    assert runner.transcript[-1] == "refused L5 proposal StepFailure"
    assert runner.engine.dao.proposals == {}


def test_a_taken_proposal_id_is_refused():
    """Re-adding a closed proposal would reopen it and let votes change
    after close."""
    script = MARKET + "? proposal soon dao=main snapshot=tip close=+3600\n"
    runner = _run(script)
    assert runner.transcript[-1] == f"refused L{MARKET.count(chr(10)) + 1} proposal StepFailure"
    dao = runner.engine.dao
    soon = dao.proposals[proposal_id_of("soon")]
    assert soon.close_time == 70 < runner.engine.time
    with pytest.raises(PolicyRefusal):
        dao.cast_vote("voter", "gov2", soon.proposal_id, 1)
    with pytest.raises(StepFailure, match="already exists"):
        dao.add_proposal(soon.proposal_id, soon.domain_hash, 0, 10**9)
    assert dao.proposals[soon.proposal_id] is soon
