"""Vote-market refusals: each one is recorded by code and leaves the
market as it found it."""

import pytest

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
