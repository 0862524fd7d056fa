"""Scenario runs end to end: golden transcripts, scenario-level
regressions and the CLI's exit codes.

The transcripts under tests/fixtures/transcripts/ are the stdout of
``encumbra --scenario <name> --report costs --report latency --report
ledger`` for each bundled scenario; byte equality is the determinism
contract of ``engine.py`` written down as a test.  The files under
tests/fixtures/reports/<name>/ are the JSON those reports write with
``--out``; the ledger report's claim and proof digests are pinned there.
"""

import pathlib
import re

import pytest

from encumbra import cli
from encumbra.engine import dao_domain
from encumbra.errors import EngineError, StepFailure, UnknownPolicy
from encumbra.policy.registry import REGISTRY_POLICIES, UPDATE_RULES
from encumbra.scenario import ScenarioRunner, parse_scenario

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
    before = dict(runner.engine.manager.tree_of("gov").programs)
    with pytest.raises(EngineError):
        runner.engine.dao.enroll("gov", dao_domain("main"))
    assert runner.engine.manager.tree_of("gov").programs == before
    assert "gov" not in runner.engine.dao.enrollments


def test_enroll_registers_its_program():
    runner = _run(
        "player voter\n"
        "wallet gov am=voter policy=tree update=tree fund=5eth\n"
        "enroll gov dao=main\n"
    )
    programs = runner.engine.manager.tree_of("gov").programs
    assert list(programs) == ["darkdao:gov"]


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


EXIT_CASES = {
    "failing-step": (
        "player am\naccount shop\nwallet w am=am policy=deny fund=1eth\n"
        "sign w player=am to=shop value=1wei\n",
        1,
    ),
    "tolerant-step-succeeds": ("player am\n? player bob\n", 1),
    "unknown-command": ("player am\nfrobnicate x\n", 2),
    "positional-after-key": ("player am\nwallet w am=am a=1 oops\n", 2),
    "unknown-config-key": ("config nosuch.key=1\nplayer am\n", 2),
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


def test_cli_exits_two_on_a_missing_scenario_file(tmp_path, capsys):
    assert cli.main(["--scenario", str(tmp_path / "absent.scn")]) == 2
    assert "no scenario file" in capsys.readouterr().err
