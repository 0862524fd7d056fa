"""Scenario runs end to end: golden transcripts, scenario-level
regressions and the CLI's exit codes.

The transcripts under tests/fixtures/transcripts/ are the stdout of
``encumbra --scenario <name> --report costs --report latency --report
ledger`` for each bundled scenario; byte equality is the determinism
contract of ``engine.py`` written down as a test.  The files under
tests/fixtures/reports/<name>/ are the JSON those reports write with
``--out``; the ledger report's claim and proof digests are pinned there.
"""

import collections
import os
import pathlib
import random
import re
import subprocess
import sys
from importlib import resources

import pytest

from encumbra import cli, simchain
from encumbra.engine import dao_domain
from encumbra.assets import destination
from encumbra.errors import EngineError, ParseError, StepFailure, UnknownPolicy, UpdateRefused
from encumbra.policy.registry import REGISTRY_POLICIES, UPDATE_RULES
from encumbra.policy.tree import INFINITE_EXPIRY, ROOT_ID, Grant, PlayerController
from encumbra.policy.update import check_update
from encumbra.scenario import COMMANDS, SYNTAX, ScenarioRunner, parse_scenario

HERE = pathlib.Path(__file__).parent
TRANSCRIPTS = HERE / "fixtures" / "transcripts"
REPORT_JSON = HERE / "fixtures" / "reports"
SCENARIO_DOCS = HERE.parent / "docs" / "scenario.md"
REPORTS = ["--report", "costs", "--report", "latency", "--report", "ledger"]


def test_every_bundled_scenario_has_a_transcript():
    stored = sorted(path.stem for path in TRANSCRIPTS.glob("*.txt"))
    assert stored == cli.bundled_scenarios()


@pytest.mark.parametrize("name", cli.bundled_scenarios())
def test_bundled_transcript_is_byte_identical(name, capsys):
    assert cli.main(["--scenario", name, *REPORTS]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (TRANSCRIPTS / f"{name}.txt").read_bytes()


def test_bundled_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Two processes under different string-hash seeds print the same
    bytes for the bundled scenarios with all three reports, and hand the
    same escrow plaintexts to ``encrypt_state``, so neither output nor
    escrow follows the iteration order of a set or dict of strings."""
    probe = (
        "import hashlib, sys\n"
        "from encumbra import cli\n"
        "from encumbra.fallback import system\n"
        "encrypt, digests = system.encrypt_state, open(sys.argv[1], 'w')\n"
        "def recording(public, plaintext, version, seed):\n"
        "    print(hashlib.sha256(plaintext).hexdigest(), file=digests)\n"
        "    return encrypt(public, plaintext, version, seed)\n"
        "system.encrypt_state = recording\n"
        "for name in cli.bundled_scenarios():\n"
        "    assert cli.main(['--scenario', name, *sys.argv[2:]]) == 0\n"
        "digests.close()\n"
    )
    outs, escrows = [], []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=hash_seed)
        env.pop("ENGINE_LOG", None)
        digests = tmp_path / f"escrow-{hash_seed}.txt"
        run = subprocess.run(
            [sys.executable, "-c", probe, str(digests), *REPORTS],
            env=env, capture_output=True, check=True,
        )
        outs.append(run.stdout)
        escrows.append(digests.read_text(encoding="ascii").split())
    assert outs[0] == outs[1]
    assert escrows[0] == escrows[1]
    names = cli.bundled_scenarios()
    assert outs[0] == b"".join((TRANSCRIPTS / f"{name}.txt").read_bytes() for name in names)
    escrow = HERE / "fixtures" / "escrow"
    assert escrows[0] == [
        line for name in names for line in (escrow / f"{name}.txt").read_text(encoding="ascii").split()
    ]


@pytest.mark.parametrize("name", cli.bundled_scenarios())
def test_bundled_report_json_is_byte_identical(name, tmp_path, capsys):
    assert cli.main(["--scenario", name, *REPORTS, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    stored = sorted(path.name for path in (REPORT_JSON / name).glob("*.json"))
    assert stored == ["costs.json", "latency.json", "ledger.json"]
    for report in stored:
        assert (tmp_path / report).read_bytes() == (REPORT_JSON / name / report).read_bytes()


def _run(script):
    runner = ScenarioRunner(parse_scenario(script, name="test"))
    runner.run()
    return runner


def test_refused_enroll_leaves_no_program_behind():
    runner = _run(
        "player voter\n"
        "wallet gov am=voter policy=tree update=tree fund=5eth\n"
        "spawn gov actor=voter node=dao-vote controller=voter\n"
    )
    before = dict(runner.engine.manager.wallet("gov").policy.programs)
    with pytest.raises(EngineError):
        runner.engine.dao.enroll("gov", dao_domain("main"))
    assert runner.engine.manager.wallet("gov").policy.programs == before
    assert "gov" not in runner.engine.dao.enrollments


def test_an_outsider_cannot_hang_a_node_on_a_tree():
    # An empty spawn moves no authority, but it takes a node id: one
    # under alice's root would block her enroll.
    runner = _run(
        "player alice\nplayer eve\n"
        "wallet gov am=alice policy=tree update=tree fund=5eth\n"
        "? spawn gov actor=eve node=dao-vote controller=eve\n"
        "enroll gov dao=main\n"
    )
    assert runner.transcript[-2:] == [
        "refused L4 spawn UpdateRefused",
        "ok L5 enroll gov/dao-vote",
    ]


def test_a_failed_tree_step_names_its_reason_on_stderr_only(tmp_path, capsys):
    script = (
        "player alice\nplayer eve\n"
        "wallet gov am=alice policy=tree update=tree\n"
        "spawn gov actor=eve node=x controller=eve\n"
    )
    path = tmp_path / "outsider.scn"
    path.write_text(script, encoding="utf-8")
    assert cli.main(["--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "step failure: line 4: spawn failed with UpdateRefused: actor does not control root"
    )
    assert _run(script.replace("spawn", "? spawn")).transcript[-1] == (
        "refused L4 spawn UpdateRefused"
    )


def test_a_frozen_tree_wallet_takes_no_tree_change():
    shop = "5a" * 20
    runner = _run(
        "player am\nplayer alice\n"
        "wallet t am=am policy=tree update=tree capacity=1eth\n"
        "wallet f am=am policy=tree update=frozen capacity=1eth\n"
        f"spawn t actor=am node=n controller=alice dest={shop} until=10 expiry=1000\n"
        "advance 20\n"
    )
    manager, dao = runner.engine.manager, runner.engine.dao
    frozen = manager.wallet("f")
    frozen.policy.tree = manager.tree_of("t")  # one tree under both rules
    asset = destination(bytes.fromhex(shop))
    changes = [
        lambda w: manager.spawn_node("am", w, ROOT_ID, "m", PlayerController("alice"), 1000, []),
        lambda w: manager.add_node_grants("am", w, "n", [Grant(asset, 1, 30, 40)]),
        lambda w: manager.seal_asset("am", w, "n", asset),
        lambda w: manager.unseal_asset("am", w, asset),
        lambda w: dao.enroll(w, dao_domain("main")),
    ]
    for change in changes:
        tree, version = manager.tree_of("f"), frozen.policy_version
        with pytest.raises(UpdateRefused) as refused:
            change("f")
        assert refused.value.detail == "f is frozen"
        assert manager.tree_of("f") is tree and frozen.policy_version == version
        change("t")  # the tree rule admits the same change
    assert "f" not in dao.enrollments and "t" in dao.enrollments
    assert manager.wallet("t").policy_version == 6


def test_a_seal_or_unseal_that_changes_nothing_is_refused():
    # A no-op would still commit a tree: it would bump policy_version
    # and write escrow (a blocking write for a seal, a queued increase
    # for an unseal).  Each refused step leaves the run as if it were
    # not there.
    head = (
        "player am\nplayer alice\naccount shop\naccount cafe\n"
        "wallet w am=am capacity=1eth\n"
        "spawn w actor=am node=n controller=alice dest=shop\n"
        "seal w actor=am node=n dest=shop\n"
    )
    noops = [
        "? seal w actor=am node=n dest=shop\n",
        "? seal w actor=alice node=n dest=shop\n",
        "? unseal w actor=am dest=cafe\n",
    ]
    tail = "unseal w actor=am dest=shop\n"

    def state(runner):
        engine = runner.engine
        wallet = engine.manager.wallet("w")
        return (
            wallet.policy_version,
            engine.fallback.version,
            list(engine.fallback.pending_increases),
            dict(wallet.policy.tree.manual_seals),
        )

    assert state(_run(head)) == state(_run(head + "".join(noops)))
    clean = _run(head + tail)
    refused = _run(head + "".join(noops) + tail + "? unseal w actor=am dest=shop\n")
    assert state(refused) == state(clean)
    assert [line.split(" ", 2)[2] for line in refused.transcript if line.startswith("refused")] == [
        "seal UpdateRefused", "seal UpdateRefused", "unseal UpdateRefused", "unseal UpdateRefused",
    ]
    # sealing the asset for another node is a change, not a no-op
    moved = _run(head + "spawn w actor=am node=m controller=alice\nseal w actor=am node=m dest=shop\n")
    assert set(moved.engine.manager.tree_of("w").manual_seals.values()) == {"m"}


@pytest.mark.parametrize("keys, code", [
    ("policy=allow fund=1eth ledger=on", "UnknownPolicy"),
    # a tree under the swap rule could be swapped away with all it sold
    ("update=any fund=1eth", "UnknownPolicy"),
    ("policy=allow capacity=1eth fund=1eth", "UnknownPolicy"),
    ("ledger=yes fund=1eth", "StepFailure"),
])
def test_a_refused_wallet_step_leaves_nothing_behind(keys, code):
    head = "player am\n"
    tail = "wallet w am=am\nwallet v am=am\n"
    clean = _run(head + tail)
    refused = _run(head + f"? wallet w am=am {keys}\n" + tail)
    assert refused.transcript[1] == f"refused L2 wallet {code}"

    def state(runner):
        engine = runner.engine
        return (
            [wallet.wallet_id for wallet in engine.manager.wallets()],
            engine.chain.minted,
            engine.fallback.version,
            engine.manager.wallet("w").address,
            engine.manager.wallet("v").address,
            engine.chain.balance(engine.manager.wallet("w").address),
            dict(engine.ledgers),
        )

    assert state(refused) == state(clean)


def test_a_refused_sign_to_a_bound_symbol_signs_nothing():
    script = (
        "player am\nplayer alice\naccount shop\nwallet w am=am capacity=10eth\n"
        "spawn w actor=am node=n controller=alice native=1eth dest=shop\n"
        "sign w player=alice to=shop value=1wei nonce=0 as=t\n"
    )
    clean = _run(script)
    refused = _run(script + "? sign w player=alice to=shop value=1wei nonce=1 as=t\n")
    assert refused.transcript[-1] == "refused L7 sign StepFailure"
    for runner in (clean, refused):
        wallet = runner.engine.manager.wallet("w")
        assert (len(wallet.intst), wallet.policy_version) == (1, 1)
    assert refused.symbols["t"].tx.nonce == 0  # the first binding stands


@pytest.mark.parametrize("step", [
    "build ghost to=shop value=1wei as=t",
    "build ghost to=shop value=1wei nonce=3 as=t",
    "sign ghost player=am to=shop value=1wei",
    "sign ghost player=am to=shop value=1wei nonce=3",
    "sign-personal ghost player=am payload=hi",
])
def test_a_step_on_an_unknown_wallet_is_refused(step):
    runner = _run("player am\naccount shop\n? " + step + "\n")
    assert runner.transcript[-1] == f"refused L3 {step.split()[0]} UnknownWallet"
    assert runner.symbols == {}


@pytest.mark.parametrize("step", ["prove-tx w tx=t submitter=am", "prove-deposit w node=n tx=t"])
@pytest.mark.parametrize("wait", [24, 3000])
def test_a_proof_step_on_a_wallet_without_a_ledger_reads_no_oracle(step, wait, monkeypatch):
    """A proof on an `allow` wallet, which has no ledger, is refused with
    `UnknownWallet` before its tx is confirmed as after, and draws no
    delay: the ledger is looked up before the oracle is read."""
    drawn = []
    real = simchain.sample_delay
    monkeypatch.setattr(simchain, "sample_delay", lambda *a: drawn.append(a) or real(*a))
    runner = _run(
        "player am\naccount shop\nwallet w am=am policy=allow fund=1eth\n"
        f"sign w player=am to=shop value=1wei as=t\nsubmit t\nadvance {wait}\n? {step}\n"
    )
    assert runner.transcript[-1] == f"refused L7 {step.split()[0]} UnknownWallet"
    assert drawn == []


def test_a_seller_cannot_swap_its_tree_away_to_take_back_a_sold_vote():
    # Were a tree wallet made under the swap rule, its owner could sell
    # the vote, swap to `allow`, vote anyway and still be paid.
    runner = _run(
        "player voter\nplayer buyer\n"
        "? wallet gov am=voter policy=tree update=any fund=5eth\n"
        "wallet gov am=voter policy=tree update=tree fund=5eth\n"
        "advance 60\n"
        "proposal prop1 dao=main snapshot=tip close=+3600\n"
        "enroll gov dao=main\n"
        "offer o1 briber=buyer proposal=prop1 choice=2 price=0.001eth escrow=1eth\n"
        "accept gov owner=voter offer=o1\n"
        "? vote gov player=voter proposal=prop1 choice=1\n"
        "? update gov player=voter policy=allow\n"
        "? vote gov player=voter proposal=prop1 choice=1\n"
        "buy-vote o1 wallet=gov player=buyer\n"
        "advance 3700\n"
        "claim-payment gov offer=o1\n"
        "tally prop1\n"
    )
    refused = [line for line in runner.transcript if line.startswith("refused")]
    assert refused == [
        "refused L3 wallet UnknownPolicy",
        "refused L10 vote PolicyRefusal",
        "refused L11 update UpdateRefused",
        "refused L12 vote PolicyRefusal",
    ]
    assert runner.transcript[-1] == "ok L16 tally prop1 {2:5000000000000000000}"


def _ledger_script(seed):
    """Seeded wallet steps over every policy, update rule and ledger
    setting, with refused ones among them, then spawns and swaps."""
    rng = random.Random(seed)
    lines = ["player am", "player renter", "account shop"]
    made = []
    for n in range(12):
        policy = rng.choice(["tree", "tree", "allow", "deny"])
        update = rng.choice(["tree", "any", "frozen"])
        ledger = rng.choice(["on", "off"])
        keys = f"policy={policy} update={update} ledger={ledger}"
        legal = update != "any" if policy == "tree" else ledger == "off"
        lines.append(f"{'' if legal else '? '}wallet w{n} am=am {keys} fund=1eth")
        if legal:
            made.append((f"w{n}", policy, update))
    for wallet, policy, update in made:
        if (policy, update) == ("tree", "tree"):
            lines.append(f"spawn {wallet} actor=am node=n controller=renter dest=shop")
        elif update == "any":
            lines.append(f"update {wallet} player=am policy={rng.choice(['allow', 'deny'])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["txcycle", 1, 2, 3])
def test_the_engine_ledgers_are_the_wallets_ledgers(source):
    if source == "txcycle":
        text = resources.files("encumbra.scenarios").joinpath("txcycle.scn").read_text()
    else:
        text = _ledger_script(source)
    engine = _run(text).engine
    held = [(w.wallet_id, w.policy.ledger) for w in engine.manager.wallets()]
    held = [(wallet_id, ledger) for wallet_id, ledger in held if ledger is not None]
    assert held and list(engine.ledgers.items()) == held
    for wallet_id, ledger in held:
        assert ledger.tree is engine.manager.tree_of(wallet_id)


def test_enroll_registers_its_program():
    runner = _run(
        "player voter\n"
        "wallet gov am=voter policy=tree update=tree fund=5eth\n"
        "enroll gov dao=main\n"
    )
    programs = runner.engine.manager.wallet("gov").policy.programs
    assert list(programs) == ["darkdao:gov"]


def _run_checking_trees(runner, after_step=None):
    """Run each step, then check every engine invariant.

    ``check_update`` checks only what an update touches, relying on the
    old tree being valid at the engine's time; ``check_invariants``
    checks that precondition after every step, with both chains'
    conservation, each ledger's books and each offer's escrow.  Returns
    each step's outcome.
    """
    outcomes = []
    for step in runner.scenario.steps:
        try:
            COMMANDS[step.command](runner, step.positional, step.kwargs)
            outcomes.append((step, "ok"))
        except EngineError:
            outcomes.append((step, "refused"))
        if after_step is not None:
            after_step(step)
        assert runner.engine.check_invariants() == [], step
    return outcomes


@pytest.mark.parametrize("name", cli.bundled_scenarios())
def test_bundled_scenarios_keep_every_tree_valid(name):
    text = resources.files("encumbra.scenarios").joinpath(f"{name}.scn").read_text()
    outcomes = _run_checking_trees(ScenarioRunner(parse_scenario(text, name=name)))
    assert [o == "refused" for _, o in outcomes] == [s.tolerant for s, _ in outcomes]


def _nested_spawn_script(seed):
    """Nested spawns on one tree wallet, with windows that run out, and
    re-grants of live nodes whose grants have all expired.

    Children of the root hold a platform of their own, their children a
    key under it; a re-grant hands a node a new platform or key, since
    a node holds at most one fungible grant.
    """
    rng = random.Random(seed)
    users = ["u0", "u1", "u2", "u3"]
    lines = [
        f"config engine.seed={seed} chain.block_interval_s=600 "
        "reliable_chain.block_interval_s=600",
        "player am",
        *(f"player {u}" for u in users),
        f"wallet w am=am policy=tree update=tree capacity={10**24}",
    ]
    now = 0
    # node -> [parent, controller, expiry, grants' end, free wei, platform]
    nodes = {"root": [None, "am", INFINITE_EXPIRY, INFINITE_EXPIRY, 10**24, ""]}
    for n in range(160):
        roll = rng.random()
        if roll < 0.15:
            step = rng.randint(100, 900)
            now += step
            lines.append(f"advance {step}")
            continue
        lapsed = [
            node for node, (parent, _, expiry, end, _, _) in nodes.items()
            if parent is not None and end < now <= expiry and now <= nodes[parent][3]
            and (parent == "root" or nodes[parent][5])
        ]
        if roll < 0.35 and lapsed:
            node = rng.choice(lapsed)
            parent = nodes[node][0]
            end = min(nodes[node][2], nodes[parent][3], now + rng.randint(100, 1500))
            if parent == "root":
                nodes[node][5] = f"dao:{node}.{n}"
                grant = f"cap={nodes[node][5]}"
            else:
                grant = f"cap=proposal:{node}.{n} platform={nodes[parent][5]}"
            nodes[node][3:5] = [end, 0]
            lines.append(
                f"grant w actor={nodes[parent][1]} node={node} {grant} start={now} until={end}"
            )
            continue
        parent = rng.choice([node for node, row in nodes.items() if now <= row[3] and row[4] > 3])
        _, actor, expiry, end, free, platform = nodes[parent]
        node, controller = f"n{n}", rng.choice(users)
        expiry = min(expiry, now + rng.randint(200, 3000))
        end = min(expiry, end, now + rng.randint(100, 2000))
        native = free // rng.randint(2, 5)
        nodes[parent][4] -= native
        mine = f"dao:{node}" if parent == "root" else ""
        grant = f"native={native} start={now} until={end}"
        if mine:
            grant += f" cap={mine}"
        elif platform:
            grant += f" cap=proposal:{node} platform={platform}"
        lines.append(
            f"spawn w actor={actor} parent={parent} node={node} "
            f"controller={controller} expiry={expiry} {grant}"
        )
        nodes[node] = [parent, controller, expiry, end, native, mine]
    return "\n".join(lines) + "\n"


def _collect_expired(engine, wallet_id):
    """Garbage-collect a wallet's expired nodes through ``check_update``,
    as the access manager; no scenario command does this."""
    wallet = engine.manager.wallet(wallet_id)
    tree = wallet.policy.tree
    st = engine.manager._state_triple(wallet, b"")
    t = st.ost.chain_time
    candidate = tree.clone()
    for node_id, node in tree.nodes.items():
        if t > node.expiry:
            candidate.remove(node_id)
    check_update("am", tree, candidate, st)
    wallet.policy.tree = candidate
    return len(tree.nodes) - len(candidate.nodes)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nested_spawns_regrants_and_gc_keep_the_tree_valid(seed):
    runner = ScenarioRunner(parse_scenario(_nested_spawn_script(seed), name="nested"))
    collected = []

    def collect_after_advance(step):
        if step.command == "advance":
            collected.append(_collect_expired(runner.engine, "w"))

    outcomes = _run_checking_trees(runner, collect_after_advance)
    tally = collections.Counter((step.command, o) for step, o in outcomes)
    # the run is not vacuous: spawns and re-grants were admitted, and
    # garbage collection removed nodes
    assert tally["spawn", "ok"] > 40, tally
    assert tally["grant", "ok"] > 0, tally
    assert sum(collected) > 0, collected


def _documented_choices(key):
    text = SCENARIO_DOCS.read_text(encoding="utf-8")
    (line,) = [l for l in text.splitlines() if l.startswith("wallet <id>")]
    return set(re.search(rf"\[{key}=([\w|-]+)\]", line).group(1).split("|"))


def test_documented_wallet_names_are_the_registry_names():
    assert _documented_choices("policy") == {"tree", *REGISTRY_POLICIES}
    assert _documented_choices("update") == set(UPDATE_RULES)


@pytest.mark.parametrize("policy", sorted(REGISTRY_POLICIES))
@pytest.mark.parametrize("update", UPDATE_RULES)
def test_every_documented_name_is_accepted(policy, update):
    swaps = update == "any"
    runner = _run(
        "player am\n"
        f"wallet w am=am policy={policy} update={update}\n"
        f"{'' if swaps else '? '}update w player=am policy={policy}\n"
    )
    assert runner.transcript[1].startswith("ok L2 wallet w ")
    assert runner.transcript[2].startswith("ok L3" if swaps else "refused L3")


@pytest.mark.parametrize("bad", ["policy=deny-all", "update=am-only"])
def test_undocumented_names_are_refused(bad):
    with pytest.raises(StepFailure) as raised:
        _run(f"player am\nwallet w am=am {bad}\n")
    assert isinstance(raised.value.__cause__, UnknownPolicy)


def _documented_syntax():
    """Command -> (positional count, required keys, optional keys), as
    the command lines of the doc's Commands section state them."""
    text = SCENARIO_DOCS.read_text(encoding="utf-8").split("## Commands", 1)[1]
    text = text.split("\n## ", 1)[0]
    grant_kwargs = re.search(r"`<grant kwargs>` stands for\s+`([^`]+)`", text).group(1)
    lines = []
    for block in re.findall(r"```\n(.*?)```", text, flags=re.S):
        for line in block.splitlines():
            if line.startswith(" "):
                lines[-1] += line
            else:
                lines.append(line)
    out = {}
    for line in lines:
        line = line.replace("<grant kwargs>", grant_kwargs)
        name, *args = line.split()
        count = 0
        while count < len(args) and "=" not in args[count] and args[count][0] not in "[(":
            count += 1
        keys = {True: set(), False: set()}
        for match in re.finditer(r"([a-z][\w-]*)=", line):
            head = line[: match.start()]
            depth = sum(head.count(c) for c in "[(") - sum(head.count(c) for c in "])")
            keys[depth == 0].add(match.group(1))
        out[name] = (count, keys[True], keys[False])
    return out


def test_documented_commands_match_their_declarations():
    declared = {
        name: (len(syntax.positional), set(syntax.required), set(syntax.optional))
        for name, syntax in SYNTAX.items()
    }
    assert _documented_syntax() == declared


@pytest.mark.parametrize(
    "script, line, col, reason",
    [
        ("player am\nplayer am bob\n", 2, 11, "extra positional argument 'bob'"),
        ("player am\n? fund am\n", 2, 3, "fund needs <amount>"),
        ("spawn w actor=am\n", 1, 1, "spawn needs node="),
        ("wallet w am=am colour=red\n", 1, 16, "wallet takes no key 'colour'"),
        ("? config engine.seed=3\nplayer am\n", 1, 1, "'?' on a config line, which is not a step"),
    ],
)
def test_a_step_that_breaks_its_declaration_is_a_parse_error(script, line, col, reason):
    with pytest.raises(ParseError) as raised:
        parse_scenario(script)
    assert (raised.value.line, raised.value.col, raised.value.reason) == (line, col, reason)


@pytest.mark.parametrize("controls", ["", "controller=alice program=p"])
def test_spawn_needs_exactly_one_controller(controls):
    runner = _run(
        "player am\nplayer alice\naccount shop\nwallet w am=am capacity=10eth\n"
        f"? spawn w actor=am node=n native=1eth dest=shop {controls}\n"
        "spawn w actor=am node=m native=1eth dest=shop controller=alice\n"
        "sign w player=alice to=shop value=1wei\n"
    )
    assert runner.transcript[4] == "refused L5 spawn StepFailure"
    assert list(runner.engine.manager.tree_of("w").nodes) == ["root", "m"]


EXIT_CASES = {
    "failing-step": (
        "player am\naccount shop\nwallet w am=am policy=deny fund=1eth\n"
        "sign w player=am to=shop value=1wei\n",
        1,
    ),
    "tolerant-step-succeeds": ("player am\n? player bob\n", 1),
    "unknown-command": ("player am\nfrobnicate x\n", 2),
    "positional-after-key": ("player am\nwallet w am=am fund=1 oops\n", 2),
    "unknown-config-key": ("config nosuch.key=1\nplayer am\n", 2),
    "missing-key": ("spawn w actor=am\n", 2),
    "extra-positional": ("player am bob\n", 2),
    "unknown-key": ("wallet w am=am colour=red\n", 2),
}


def test_cli_exits_zero_on_a_bundled_scenario(capsys):
    assert cli.main(["--scenario", cli.bundled_scenarios()[0]]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_cli_exit_codes(case, tmp_path, capsys):
    script, code = EXIT_CASES[case]
    path = tmp_path / f"{case}.scn"
    path.write_text(script, encoding="utf-8")
    assert cli.main(["--scenario", str(path)]) == code
    assert capsys.readouterr().err


@pytest.mark.parametrize("header", [
    "txpolicy.commit_required=ture",
    "engine.seed=x",
    "chain.block_interval_s=0",
    "reliable_chain.block_interval_s=-12",
    "oracle.finalized.mean_s=inf",
    "oracle.trials=1",
    "oracle.mode=finalised",
    "engine.seed=-1",
    "engine.seed=18446744073709551616",
    "chain.chain_id=-1",
    "fallback.repos=0",
])
def test_cli_reports_a_malformed_config_value(header, tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(f"config {header}\nplayer am\n", encoding="utf-8")
    assert cli.main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: bad value for config key {header.split('=')[0]}")


MALFORMED_PRELUDE = (
    "player am\nplayer voter\naccount shop fund=1eth\n"
    "wallet w am=am capacity=10eth ledger=on\n"
    "wallet gov am=voter fund=5eth\nenroll gov dao=main\n"
    "proposal p dao=main close=+100\n"
)

MALFORMED_STEPS = [
    "advance 1x",
    "assert-trigger bogus",
    "recover shares=x",
    "spawn w actor=am node=n controller=am cap=zz",
    # a capability key given in hex is 32 bytes
    "spawn w actor=am node=n controller=am cap=abcd",
    "spawn w actor=am node=n controller=am cap=dao:x platform=abcd",
    "vote gov player=voter proposal=p choice=x",
    "offer o briber=am proposal=p choice=x price=1 escrow=1",
    "build w to=shop value=1wei nonce=x as=t",
    "sign w player=am to=shop value=1wei gas=x",
    "sign w player=am to=shop value=1wei fee=x",
    "proposal q dao=main close=+100 snapshot=x",
    "assert-nonce w eq=x",
    # amounts and absolute times take no sign; `+N` is a relative time
    "fund shop -3",
    "fund shop +3",
    "advance -5",
    "advance +5",
    "account payer fund=-2",
    "wallet v am=am capacity=-1eth",
    "wallet v am=am fund=-1",
    "host-fees w node=root amount=-1",
    "offer o briber=am proposal=p choice=1 price=-1 escrow=1",
    "offer o briber=am proposal=p choice=1 price=1 escrow=-1gwei",
    "spawn w actor=am node=n controller=am until=-5",
    "spawn w actor=am node=n controller=am until=+-5",
    # nor do counts, nonces, gas, fees, snapshot heights and choices
    "proposal q dao=main close=+100 snapshot=-3",
    "proposal q dao=main close=+100 snapshot=+3",
    "sign w player=am to=shop value=1wei fee=-3",
    "sign w player=am to=shop value=1wei gas=-5",
    "sign w player=am to=shop value=1wei nonce=-1",
    "build w to=shop value=1wei nonce=+0 as=t",
    # a switch is on or off, nothing else
    "xfer shop to=w value=1wei as=t submit=yes",
    "vote gov player=voter proposal=p choice=-1",
    "recover shares=+3",
    # int() skips white space before a sign
    "fund shop \t-3",
    "sign w player=am to=shop value=1wei fee=\t-3",
]


@pytest.mark.parametrize("step", MALFORMED_STEPS)
def test_cli_reports_a_malformed_step_value(step, tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text(MALFORMED_PRELUDE + step + "\n", encoding="utf-8")
    assert cli.main(["--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("step failure: line 8: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("step", MALFORMED_STEPS)
def test_a_tolerant_malformed_step_is_refused(step):
    runner = _run(MALFORMED_PRELUDE + "? " + step + "\n")
    assert runner.transcript[-1] == f"refused L8 {step.split()[0]} StepFailure"
    assert runner.symbols == {}


RECOVERY_PRELUDE = (
    "config chain.block_interval_s=600 reliable_chain.block_interval_s=600\n"
    "player ops\nplayer watcher\n"
    "wallet w1 am=ops policy=tree update=tree capacity=1eth\n"
    "sentinel down\nchallenge challenger=watcher deposit=0.1eth\n"
    "advance 604801\nfire\nadvance 3000\n"
)


@pytest.mark.parametrize("count", ["-1", "9"])
def test_cli_fails_a_share_count_outside_the_committee(count, tmp_path, capsys):
    path = tmp_path / "recover.scn"
    path.write_text(RECOVERY_PRELUDE + f"recover shares={count}\n", encoding="utf-8")
    assert cli.main(["--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("step failure: line 10: ")


def test_a_share_count_outside_the_committee_releases_nothing():
    runner = _run(
        RECOVERY_PRELUDE + "? recover shares=-1\n? recover shares=9\n? recover shares=2\n"
    )
    assert runner.transcript[-3:] == [
        "refused L10 recover StepFailure",
        "refused L11 recover StepFailure",
        "refused L12 recover InsufficientShares",
    ]
    assert not runner.engine.fallback.executed
    # the whole committee is in range, and the release was ready
    assert [w for w, _ in runner.engine.recover(5)["ops"]] == ["w1"]
    assert runner.engine.fallback.executed


def test_cli_exits_two_on_a_missing_scenario_file(tmp_path, capsys):
    assert cli.main(["--scenario", str(tmp_path / "absent.scn")]) == 2
    assert "no scenario file" in capsys.readouterr().err
