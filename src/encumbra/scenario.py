"""Line-oriented scenario language driving one engine deterministically.

A scenario file is a sequence of commands, one per line.  ``#`` starts
a comment, blank lines are skipped.  ``config`` lines are only legal
before the first command and overlay the run configuration.  A ``?``
prefix marks a step that must fail: the refusal code is recorded and
the run continues; if the step unexpectedly succeeds the run aborts.

Values accept underscores and the suffixes ``eth``, ``gwei``, ``wei``.
Times accept ``+N`` (relative to the current engine clock at execution
time) and ``inf``.  ``as=<name>`` binds a produced transaction to a
symbol that later steps reference.  Each handler's ``@command``
decorator declares the command's positional arguments and keys, and
the parser rejects a step that breaks its declaration.  The full
grammar lives in docs/scenario.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .assets import NATIVE, capability, destination, personal_payload_key
from .config import Config
from .darkdao import VOTE_NODE_ID
from .engine import Engine, dao_domain, proposal_id_of
from .errors import EngineError, ParseError, StepFailure
from .fallback.trigger import TriggerState
from .messages import ChainTx, PersonalSign, signing_digest
from .policy.tree import Grant, INFINITE_EXPIRY, PlayerController, ProgramController
from .simchain import SignedTx


@dataclass(frozen=True)
class Request:
    """An unsigned transaction bound to a symbol before signing."""

    tx: ChainTx

    @property
    def digest(self) -> bytes:
        return signing_digest(self.tx)


@dataclass(frozen=True)
class Step:
    lineno: int
    tolerant: bool
    command: str
    positional: Tuple[str, ...]
    kwargs: Dict[str, str]


@dataclass(frozen=True)
class Syntax:
    """What a command takes: positional names, required and optional keys."""

    positional: Tuple[str, ...]
    required: Tuple[str, ...]
    optional: Tuple[str, ...]


@dataclass
class Scenario:
    name: str
    config_overrides: Dict[str, str] = field(default_factory=dict)
    steps: List[Step] = field(default_factory=list)


def _split_tokens(line: str) -> List[Tuple[int, str]]:
    """Tokens with their 1-based starting column."""
    out = []
    col = 0
    for raw in line.split(" "):
        if raw:
            out.append((col + 1, raw))
        col += len(raw) + 1
    return out


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    scenario = Scenario(name=name)
    seen_command = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _split_tokens(line)
        col0, head = tokens[0]
        tolerant = False
        if head == "?":
            tolerant = True
            tokens = tokens[1:]
            if not tokens:
                raise ParseError(lineno, col0, "bare '?' with no command")
            if tokens[0][1] == "config":
                raise ParseError(lineno, col0, "'?' on a config line, which is not a step")
            col0, head = tokens[0]
        if head == "config":
            if seen_command:
                raise ParseError(lineno, col0, "config after first command")
            for col, token in tokens[1:]:
                if "=" not in token:
                    raise ParseError(lineno, col, f"expected key=value, got {token!r}")
                key, value = token.split("=", 1)
                scenario.config_overrides[key] = value
            continue
        syntax = SYNTAX.get(head)
        if syntax is None:
            raise ParseError(lineno, col0, f"unknown command {head!r}")
        seen_command = True
        positional: List[str] = []
        kwargs: Dict[str, str] = {}
        for col, token in tokens[1:]:
            if "=" in token:
                key, value = token.split("=", 1)
                if not key:
                    raise ParseError(lineno, col, "empty key")
                if key in kwargs:
                    raise ParseError(lineno, col, f"duplicate key {key!r}")
                if key not in syntax.required and key not in syntax.optional:
                    raise ParseError(lineno, col, f"{head} takes no key {key!r}")
                kwargs[key] = value
            else:
                if kwargs:
                    raise ParseError(
                        lineno, col, "positional argument after key=value"
                    )
                if len(positional) == len(syntax.positional):
                    raise ParseError(lineno, col, f"extra positional argument {token!r}")
                positional.append(token)
        if len(positional) < len(syntax.positional):
            missing = syntax.positional[len(positional)]
            raise ParseError(lineno, col0, f"{head} needs <{missing}>")
        for key in syntax.required:
            if key not in kwargs:
                raise ParseError(lineno, col0, f"{head} needs {key}=")
        scenario.steps.append(
            Step(lineno, tolerant, head, tuple(positional), kwargs)
        )
    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".scn"):
        name = name[: -len(".scn")]
    return parse_scenario(text, name=name)


# ----------------------------------------------------------------------
# value parsing

_SUFFIX = {"eth": 10**18, "gwei": 10**9, "wei": 1}


def parse_int(text: str, what: str) -> int:
    """``text`` as a non-negative integer; a sign or a malformed value
    fails the step."""
    if not text.strip().startswith(("+", "-")):
        try:
            return int(text)
        except ValueError:
            pass
    raise StepFailure(f"bad {what} {text!r}")


def parse_amount(text: str) -> int:
    """A non-negative amount in wei; any sign fails the step."""
    lowered = text.lower().replace("_", "")
    for suffix, scale in _SUFFIX.items():
        if lowered.endswith(suffix):
            body = lowered[: -len(suffix)]
            if "." not in body:
                return parse_int(body, "amount") * scale
            # exact decimal arithmetic; floats drift at wei resolution
            whole, frac = body.split(".", 1)
            if not frac.isdecimal() or (whole and not whole.isdecimal()):
                raise StepFailure(f"bad amount {text!r}")
            if scale < 10 ** len(frac):
                raise StepFailure(f"amount {text!r} finer than 1 {suffix}")
            return int(whole or "0") * scale + int(frac) * (scale // 10 ** len(frac))
    return parse_int(lowered, "amount")


def parse_switch(kw: Dict[str, str], key: str, default: str) -> bool:
    """Key ``key`` (else ``default``) as ``on`` or ``off``; any other
    value fails the step."""
    value = kw.get(key, default)
    if value not in ("on", "off"):
        raise StepFailure(f"bad {key} {value!r}")
    return value == "on"


class ScenarioRunner:
    """Executes a parsed scenario against a fresh engine."""

    def __init__(self, scenario: Scenario, config: Optional[Config] = None):
        self.scenario = scenario
        merged = config or Config()
        if scenario.config_overrides:
            merged.apply(dict(scenario.config_overrides))
        self.engine = Engine(merged)
        # symbol -> SignedTx or unsigned Request
        self.symbols: Dict[str, object] = {}
        self.transcript: List[str] = []

    # -- helpers --------------------------------------------------------

    def parse_time(self, text: str) -> int:
        if text == "inf":
            return INFINITE_EXPIRY
        if text.startswith("+"):
            return self.engine.time + parse_amount(text[1:])
        return parse_amount(text)

    def _symbol(self, name: str) -> SignedTx:
        found = self.symbols.get(name)
        if found is None:
            raise StepFailure(f"unknown tx symbol {name!r}")
        return found

    def _unbound(self, symbol: Optional[str]) -> Optional[str]:
        """``symbol``, refused if bound; checked before a step signs."""
        if symbol in self.symbols:
            raise StepFailure(f"tx symbol {symbol!r} already bound")
        return symbol

    def _bind(self, symbol: Optional[str], signed: SignedTx) -> str:
        if symbol is not None:
            self.symbols[symbol] = signed
        return signed.digest.hex()[:12]

    def _grants_from(self, kwargs: Dict[str, str]) -> List[Grant]:
        start = self.parse_time(kwargs.get("start", "0"))
        until = self.parse_time(kwargs.get("until", kwargs.get("expiry", "inf")))
        grants: List[Grant] = []
        if "native" in kwargs:
            grants.append(Grant(NATIVE, parse_amount(kwargs["native"]), start, until))
        if "dest" in kwargs:
            address = self.engine.resolve_address(kwargs["dest"])
            grants.append(Grant(destination(address), 1, start, until))
        if "cap" in kwargs:
            key = self._capability_key(kwargs["cap"])
            platform = (
                self._capability_key(kwargs["platform"])
                if "platform" in kwargs
                else None
            )
            grants.append(
                Grant(capability(key), 1, start, until, platform=platform)
            )
        return grants

    def _capability_key(self, text: str) -> bytes:
        if text.startswith("dao:"):
            return dao_domain(text[len("dao:") :])
        if text.startswith("proposal:"):
            return proposal_id_of(text[len("proposal:") :])
        if text.startswith("personal:"):
            return personal_payload_key(text[len("personal:") :].encode())
        try:
            key = bytes.fromhex(text)
        except ValueError:
            key = b""
        if len(key) != 32:
            raise StepFailure(f"bad capability key {text!r}")
        return key

    # -- execution ------------------------------------------------------

    def run(self, echo: bool = False) -> List[str]:
        import sys

        def emit(line: str) -> None:
            self.transcript.append(line)
            if echo:
                print(line, file=sys.stderr)

        for step in self.scenario.steps:
            handler = COMMANDS[step.command]
            try:
                summary = handler(self, step.positional, step.kwargs)
            except EngineError as error:
                if not step.tolerant:
                    raise StepFailure(
                        f"line {step.lineno}: {step.command} failed with "
                        f"{error.code}: {error.detail or error}"
                    ) from error
                emit(f"refused L{step.lineno} {step.command} {error.code}")
                continue
            if step.tolerant:
                raise StepFailure(
                    f"line {step.lineno}: {step.command} succeeded but was "
                    "expected to fail"
                )
            emit(f"ok L{step.lineno} {step.command} {summary}")
        return self.transcript


# ----------------------------------------------------------------------
# command handlers: (runner, positional, kwargs) -> transcript summary

Handler = Callable[[ScenarioRunner, Tuple[str, ...], Dict[str, str]], str]
COMMANDS: Dict[str, Handler] = {}
SYNTAX: Dict[str, Syntax] = {}

# Keys ``_grants_from`` reads; ``expiry=`` stands in for ``until=``.
GRANT_KEYS = "native dest cap platform start until expiry"


def command(name: str, positional: str = "", required: str = "", optional: str = ""):
    """Register a handler as command ``name``, declaring its positional
    arguments and its required and optional keys (space-separated)."""

    def register(handler: Handler) -> Handler:
        COMMANDS[name] = handler
        SYNTAX[name] = Syntax(
            tuple(positional.split()), tuple(required.split()), tuple(optional.split())
        )
        return handler

    return register


@command("player", "name")
def _cmd_player(r: ScenarioRunner, pos, kw) -> str:
    key = r.engine.manager.register_player(pos[0])
    return f"{pos[0]} {key.hex()[:8]}"


@command("wallet", "id", "am", "policy update capacity fund ledger")
def _cmd_wallet(r: ScenarioRunner, pos, kw) -> str:
    wallet = r.engine.create_wallet(
        pos[0],
        access_manager=kw["am"],
        policy_kind=kw.get("policy", "tree"),
        update_rule=kw.get("update", "tree"),
        native_capacity=(
            parse_amount(kw["capacity"]) if "capacity" in kw else None
        ),
        fund_wei=parse_amount(kw.get("fund", "0")),
        with_ledger=parse_switch(kw, "ledger", "off"),
    )
    return f"{pos[0]} addr={wallet.address.hex()[:12]}"


@command("account", "name", optional="fund")
def _cmd_account(r: ScenarioRunner, pos, kw) -> str:
    address = r.engine.external_account(pos[0], parse_amount(kw.get("fund", "0")))
    return f"{pos[0]} addr={address.hex()[:12]}"


@command("fund", "target amount")
def _cmd_fund(r: ScenarioRunner, pos, kw) -> str:
    r.engine.chain.fund(r.engine.resolve_address(pos[0]), parse_amount(pos[1]))
    return f"{pos[0]} +{pos[1]}"


@command("advance", "seconds")
def _cmd_advance(r: ScenarioRunner, pos, kw) -> str:
    r.engine.advance(parse_amount(pos[0]))
    return f"t={r.engine.time} height={r.engine.chain.height}"


@command("spawn", "wallet", "actor node", f"parent controller program {GRANT_KEYS}")
def _cmd_spawn(r: ScenarioRunner, pos, kw) -> str:
    grants = r._grants_from(kw)
    if ("controller" in kw) == ("program" in kw):
        raise StepFailure("spawn needs exactly one of controller= and program=")
    if "program" in kw:
        controller = ProgramController(kw["program"])
    else:
        controller = PlayerController(kw["controller"])
    r.engine.manager.spawn_node(
        kw["actor"], pos[0], kw.get("parent", "root"), kw["node"], controller,
        r.parse_time(kw.get("expiry", "inf")), grants,
    )
    return f"{pos[0]}/{kw['node']} grants={len(grants)}"


@command("grant", "wallet", "actor node", GRANT_KEYS)
def _cmd_grant(r: ScenarioRunner, pos, kw) -> str:
    grants = r._grants_from(kw)
    r.engine.manager.add_node_grants(kw["actor"], pos[0], kw["node"], grants)
    return f"{pos[0]}/{kw['node']} +{len(grants)}"


@command("seal", "wallet", "actor node dest")
def _cmd_seal(r: ScenarioRunner, pos, kw) -> str:
    asset = destination(r.engine.resolve_address(kw["dest"]))
    r.engine.manager.seal_asset(kw["actor"], pos[0], kw["node"], asset)
    return f"{pos[0]} {asset.label()}"


@command("unseal", "wallet", "actor dest")
def _cmd_unseal(r: ScenarioRunner, pos, kw) -> str:
    asset = destination(r.engine.resolve_address(kw["dest"]))
    r.engine.manager.unseal_asset(kw["actor"], pos[0], asset)
    return f"{pos[0]} {asset.label()}"


@command("update", "wallet", "player policy")
def _cmd_update(r: ScenarioRunner, pos, kw) -> str:
    r.engine.manager.lw_update(kw["player"], pos[0], kw["policy"])
    return f"{pos[0]} -> {kw['policy']}"


def _build_request(r: ScenarioRunner, wallet_id: str, kw) -> ChainTx:
    return r.engine.wallet_tx(
        wallet_id,
        to=r.engine.resolve_address(kw["to"]),
        value=parse_amount(kw["value"]),
        nonce=parse_int(kw["nonce"], "nonce") if "nonce" in kw else None,
        gas_limit=parse_int(kw.get("gas", "21000"), "gas"),
        fee_gwei=parse_int(kw["fee"], "fee") if "fee" in kw else None,
    )


@command("build", "wallet", "to value as", "nonce gas fee")
def _cmd_build(r: ScenarioRunner, pos, kw) -> str:
    """Prepare an unsigned request so its digest can be committed."""
    tx = _build_request(r, pos[0], kw)
    r.symbols[r._unbound(kw["as"])] = Request(tx)
    return f"{pos[0]} nonce={tx.nonce} {signing_digest(tx).hex()[:12]}"


@command("sign", "wallet", "player", "tx to value nonce gas fee as")
def _cmd_sign(r: ScenarioRunner, pos, kw) -> str:
    if "tx" in kw:
        tx = r._symbol(kw["tx"]).tx
    elif "to" in kw and "value" in kw:
        tx = _build_request(r, pos[0], kw)
    else:
        raise StepFailure("sign needs tx= or both to= and value=")
    symbol = r._unbound(kw.get("as"))
    signed = r.engine.signed_wallet_tx(kw["player"], pos[0], tx)
    return f"{pos[0]} nonce={tx.nonce} {r._bind(symbol, signed)}"


@command("sign-personal", "wallet", "player payload")
def _cmd_sign_personal(r: ScenarioRunner, pos, kw) -> str:
    message = PersonalSign(kw["payload"].encode())
    signature = r.engine.manager.lw_sign(kw["player"], pos[0], message)
    return f"{pos[0]} {signature.to_hex()[:12]}"


@command("submit", "symbol")
def _cmd_submit(r: ScenarioRunner, pos, kw) -> str:
    signed = r._symbol(pos[0])
    if isinstance(signed, Request):
        raise StepFailure(f"{pos[0]!r} is an unsigned request")
    digest = r.engine.chain.submit(signed)
    return f"{pos[0]} {digest.hex()[:12]}"


@command("xfer", "account", "to value", "as submit")
def _cmd_xfer(r: ScenarioRunner, pos, kw) -> str:
    submit = parse_switch(kw, "submit", "on")
    signed = r.engine.account_tx(
        pos[0],
        to=r.engine.resolve_address(kw["to"]),
        value=parse_amount(kw["value"]),
    )
    summary = r._bind(r._unbound(kw.get("as")), signed)
    if submit:
        r.engine.chain.submit(signed)
    return f"{pos[0]} {summary}"


@command("claim", "wallet", "node tx")
def _cmd_claim(r: ScenarioRunner, pos, kw) -> str:
    signed = r._symbol(kw["tx"])
    r.engine.ledger_of(pos[0]).claim_deposit(kw["node"], signed.digest)
    return f"{pos[0]}/{kw['node']} {kw['tx']}"


@command("prove-deposit", "wallet", "node tx")
def _cmd_prove_deposit(r: ScenarioRunner, pos, kw) -> str:
    signed = r._symbol(kw["tx"])
    ledger = r.engine.ledger_of(pos[0])
    proof = r.engine.chain.prove_inclusion(signed.digest)
    credited = ledger.prove_deposit(kw["node"], proof)
    return f"{pos[0]}/{kw['node']} +{credited}"


@command("commit", "wallet", "node tx")
def _cmd_commit(r: ScenarioRunner, pos, kw) -> str:
    signed = r._symbol(kw["tx"])
    r.engine.ledger_of(pos[0]).commit_request(kw["node"], signed.digest)
    return f"{pos[0]}/{kw['node']} {kw['tx']}"


@command("host-fees", "wallet", "node amount")
def _cmd_host_fees(r: ScenarioRunner, pos, kw) -> str:
    amount = parse_amount(kw["amount"])
    r.engine.ledger_of(pos[0]).fund_host_fees(kw["node"], amount)
    return f"{pos[0]}/{kw['node']} +{amount}"


@command("prove-tx", "wallet", "tx submitter")
def _cmd_prove_tx(r: ScenarioRunner, pos, kw) -> str:
    signed = r._symbol(kw["tx"])
    ledger = r.engine.ledger_of(pos[0])
    proof = r.engine.chain.prove_inclusion(signed.digest)
    node = ledger.prove_tx_inclusion(kw["submitter"], proof)
    return f"{pos[0]} -> {node or 'unattributed'}"


@command("proposal", "name", "dao close", "snapshot")
def _cmd_proposal(r: ScenarioRunner, pos, kw) -> str:
    snapshot = kw.get("snapshot", "tip")
    height = (
        r.engine.chain.height
        if snapshot == "tip"
        else parse_int(snapshot, "snapshot")
    )
    r.engine.dao.add_proposal(
        proposal_id_of(pos[0]), dao_domain(kw["dao"]), height, r.parse_time(kw["close"])
    )
    return f"{pos[0]} snapshot={height}"


@command("enroll", "wallet", "dao")
def _cmd_enroll(r: ScenarioRunner, pos, kw) -> str:
    r.engine.dao.enroll(pos[0], dao_domain(kw["dao"]))
    return f"{pos[0]}/{VOTE_NODE_ID}"


@command("vote", "wallet", "player proposal choice")
def _cmd_vote(r: ScenarioRunner, pos, kw) -> str:
    pid = proposal_id_of(kw["proposal"])
    r.engine.dao.cast_vote(kw["player"], pos[0], pid, parse_int(kw["choice"], "choice"))
    return f"{pos[0]} choice={kw['choice']}"


@command("offer", "name", "briber proposal choice price escrow")
def _cmd_offer(r: ScenarioRunner, pos, kw) -> str:
    r.engine.dao.post_offer(
        pos[0],
        briber=kw["briber"],
        proposal_id=proposal_id_of(kw["proposal"]),
        choice=parse_int(kw["choice"], "choice"),
        price_per_token=parse_amount(kw["price"]),
        escrow=parse_amount(kw["escrow"]),
    )
    return pos[0]


@command("accept", "wallet", "owner offer")
def _cmd_accept(r: ScenarioRunner, pos, kw) -> str:
    payment = r.engine.dao.accept_bribe(kw["owner"], pos[0], kw["offer"])
    return f"{pos[0]} reserved={payment}"


@command("buy-vote", "offer", "player wallet")
def _cmd_buy_vote(r: ScenarioRunner, pos, kw) -> str:
    r.engine.dao.cast_bought_vote(kw["player"], kw["wallet"], pos[0])
    return f"{pos[0]} via {kw['wallet']}"


@command("claim-payment", "wallet", "offer")
def _cmd_claim_payment(r: ScenarioRunner, pos, kw) -> str:
    paid = r.engine.dao.claim_payment(pos[0], kw["offer"])
    return f"{pos[0]} +{paid}"


@command("tally", "proposal")
def _cmd_tally(r: ScenarioRunner, pos, kw) -> str:
    tally = r.engine.dao.tally(proposal_id_of(pos[0]))
    inner = " ".join(f"{c}:{w}" for c, w in sorted(tally.items()))
    return f"{pos[0]} {{{inner}}}"


@command("sentinel", "mode")
def _cmd_sentinel(r: ScenarioRunner, pos, kw) -> str:
    if pos[0] not in ("up", "down"):
        raise StepFailure(f"sentinel mode {pos[0]!r}")
    r.engine.sentinel_up = pos[0] == "up"
    return pos[0]


@command("challenge", required="challenger deposit")
def _cmd_challenge(r: ScenarioRunner, pos, kw) -> str:
    r.engine.trigger.challenge(kw["challenger"], parse_amount(kw["deposit"]), r.engine.time)
    return f"by {kw['challenger']} t={r.engine.time}"


@command("respond", optional="responder")
def _cmd_respond(r: ScenarioRunner, pos, kw) -> str:
    r.engine.respond_challenge(kw.get("responder", "sentinel-op"))
    return f"t={r.engine.time}"


@command("fire")
def _cmd_fire(r: ScenarioRunner, pos, kw) -> str:
    r.engine.trigger.fire(r.engine.time)
    return f"t={r.engine.time}"


@command("recover", optional="shares")
def _cmd_recover(r: ScenarioRunner, pos, kw) -> str:
    count = parse_int(kw["shares"], "shares") if "shares" in kw else None
    released = r.engine.recover(count)
    total = sum(len(v) for v in released.values())
    return f"wallets={total} managers={len(released)}"


@command("assert-balance", "target", optional="eq min max")
def _cmd_assert_balance(r: ScenarioRunner, pos, kw) -> str:
    target = pos[0]
    balance = r.engine.chain.balance(r.engine.resolve_address(target))
    if "eq" in kw and balance != parse_amount(kw["eq"]):
        raise StepFailure(f"{target} balance {balance} != {kw['eq']}")
    if "min" in kw and balance < parse_amount(kw["min"]):
        raise StepFailure(f"{target} balance {balance} < {kw['min']}")
    if "max" in kw and balance > parse_amount(kw["max"]):
        raise StepFailure(f"{target} balance {balance} > {kw['max']}")
    return f"{target}={balance}"


@command("assert-nonce", "wallet", "eq")
def _cmd_assert_nonce(r: ScenarioRunner, pos, kw) -> str:
    nonce = r.engine.ledger_of(pos[0]).recognized_nonce
    if nonce != parse_int(kw["eq"], "nonce"):
        raise StepFailure(f"{pos[0]} nonce {nonce} != {kw['eq']}")
    return f"{pos[0]}={nonce}"


@command("assert-trigger", "state")
def _cmd_assert_trigger(r: ScenarioRunner, pos, kw) -> str:
    if pos[0] not in {state.value for state in TriggerState}:
        raise StepFailure(f"unknown trigger state {pos[0]!r}")
    actual = r.engine.trigger.state
    if actual is not TriggerState(pos[0]):
        raise StepFailure(f"trigger {actual.value} != {pos[0]}")
    return pos[0]
