"""Top-level composition: one platform instance plus its simulated world.

The engine owns the clock.  ``advance`` moves both chains forward in
lockstep, flushes batched escrow replication, and (while the sentinel
is marked up) answers any open liveness challenge at the moment it
would otherwise lapse.  Beyond that it is a thin, deterministic facade
that spans the subsystems: it creates wallets with their funding and
ledgers, builds transactions at the oracle's nonce, answers challenges,
recovers keys and checks invariants.  Tree changes go to the manager.
A wallet's ledger lives on its tree policy, made once with the wallet;
``ledgers`` is a view derived from the wallets, not a table of its own.

Determinism contract: two engines built from equal configs that
execute equal call sequences produce byte-identical signatures, block
hashes, and report numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import crypto
from .config import Config, ORACLE_MODES
from .darkdao import DarkDao
from .errors import BadProof, EngineError, StepFailure, UnknownAccount, UnknownPolicy, UnknownWallet
from .fallback.system import FallbackSystem, verify_released_key
from .fallback.trigger import TriggerContract, TriggerState, ping_message
from .manager import Wallet, WalletManager
from .messages import ChainTx, signing_digest
from .simchain import SignedTx, SimChain
from .state import OracleState
from .txpolicy import TxLedger

SENTINEL_WALLET = "sentinel"
SENTINEL_OPERATOR = "sentinel-op"
# The reliable chain carries no transactions, so its id signs nothing.
RELIABLE_CHAIN_ID = 2

DEFAULT_GAS_LIMIT = 21_000
GWEI = 10**9


def dao_domain(name: str) -> bytes:
    return crypto.digest(b"dao-domain-v1" + name.encode())


def proposal_id_of(name: str) -> bytes:
    return crypto.digest(b"proposal-v1" + name.encode())


def engine_seed(config: Config) -> bytes:
    """The run seed every key, chain and escrow draw derives from."""
    seed = int(config["engine.seed"])
    return crypto.digest(b"engine-seed-v1" + seed.to_bytes(8, "big"))


class Engine:
    def __init__(self, config: Optional[Config] = None):
        self.config = config or Config()
        cfg = self.config
        self.seed = engine_seed(cfg)

        models = {mode: cfg.delay_model(mode) for mode in ORACLE_MODES}
        self.chain = SimChain(
            seed=self.seed,
            chain_id=cfg["chain.chain_id"],
            block_interval=cfg["chain.block_interval_s"],
            proof_mode=cfg["oracle.mode"],
            delay_models=models,
            label="target",
        )
        self.reliable = SimChain(
            seed=self.seed,
            chain_id=RELIABLE_CHAIN_ID,
            block_interval=cfg["reliable_chain.block_interval_s"],
            delay_models=models,
            label="reliable",
        )

        self.manager = WalletManager(self.seed, ost_provider=self._oracle_state)
        self.fallback = FallbackSystem(
            self.manager,
            self.seed,
            committee=cfg["fallback.committee"],
            threshold=cfg["fallback.threshold"],
            repos=cfg["fallback.repos"],
            batch_interval=cfg["fallback.batch_interval_s"],
        )

        self.manager.register_player(SENTINEL_OPERATOR)
        sentinel = self.manager.lw_gen(
            access_manager=SENTINEL_OPERATOR,
            wallet_id=SENTINEL_WALLET,
            policy_kind="allow",
            update_rule="frozen",
        )
        self.trigger = TriggerContract(
            sentinel_public_key=sentinel.public_key,
            window=cfg["fallback.window_s"],
            min_deposit=cfg["fallback.min_deposit_wei"],
            bounty=cfg["fallback.bounty_wei"],
        )
        self.sentinel_up = True

        self.dao = DarkDao(self.manager, self.chain)
        self._account_keys: Dict[str, crypto.SigningKey] = {}

    # ------------------------------------------------------------------
    # oracle and clock

    def _recognized_nonce(self, wallet: Wallet) -> int:
        """The nonce a wallet's ledger has seen proven, or the chain's
        nonce for a wallet without one."""
        ledger = wallet.policy.ledger
        return self.chain.nonce(wallet.address) if ledger is None else ledger.recognized_nonce

    def _oracle_state(self, wallet: Wallet) -> OracleState:
        return OracleState(
            chain_time=self.chain.time,
            block_hashes=self.chain.recent_block_hashes(),
            recognized_nonce=self._recognized_nonce(wallet),
        )

    @property
    def time(self) -> int:
        return self.chain.time

    def advance(self, seconds: int) -> None:
        """Advance the whole world.  The sentinel, while up, answers an
        open challenge just before its deadline would pass."""
        target = self.time + seconds
        if seconds > 0 and self.sentinel_up and self.trigger.state is TriggerState.CHALLENGED:
            respond_at = self.trigger.challenge_record.opened_at + self.trigger.window - 1
            if self.time <= respond_at <= target:
                self._step(respond_at - self.time)
                self.respond_challenge(SENTINEL_OPERATOR)
        self._step(target - self.time)
        self.fallback.maybe_flush(self.time)

    def _step(self, seconds: int) -> None:
        if seconds > 0:
            self.chain.advance(seconds)
            self.reliable.advance(seconds)

    # ------------------------------------------------------------------
    # players, wallets, accounts

    def create_wallet(
        self,
        wallet_id: str,
        access_manager: str,
        policy_kind: str = "tree",
        update_rule: str = "tree",
        native_capacity: Optional[int] = None,
        fund_wei: int = 0,
        with_ledger: bool = False,
    ) -> Wallet:
        if with_ledger and policy_kind != "tree":
            raise UnknownPolicy("wallet has no delegation tree")
        wallet = self.manager.lw_gen(
            access_manager=access_manager,
            wallet_id=wallet_id,
            policy_kind=policy_kind,
            update_rule=update_rule,
            native_capacity=native_capacity,
        )
        if fund_wei:
            self.chain.fund(wallet.address, fund_wei)
        if with_ledger:
            policy, cfg = wallet.policy, self.config
            policy.ledger = TxLedger(
                wallet_id=wallet_id,
                wallet_address=wallet.address,
                chain=self.chain,
                tree=lambda: policy.tree,
                commit_required=cfg["txpolicy.commit_required"],
                reimburse_wei=cfg["host.reimburse_gas"] * cfg["host.gas_price_gwei"] * GWEI,
            )
        return wallet

    @property
    def ledgers(self) -> Dict[str, TxLedger]:
        """Wallet id -> ledger, in wallet creation order: a view of the
        wallets' policies, which are the one store of each ledger."""
        return {
            wallet.wallet_id: wallet.policy.ledger
            for wallet in self.manager.wallets()
            if wallet.policy.ledger is not None
        }

    def ledger_of(self, wallet_id: str) -> TxLedger:
        ledger = self.manager.wallet(wallet_id).policy.ledger
        if ledger is None:
            raise UnknownWallet(f"{wallet_id} has no transaction ledger")
        return ledger

    def external_account(self, name: str, fund_wei: int = 0) -> bytes:
        key = self._account_keys.get(name)
        if key is None:
            key = crypto.derive_signing_key(self.seed, "account", name)
            self._account_keys[name] = key
        if fund_wei:
            self.chain.fund(key.address, fund_wei)
        return key.address

    def resolve_address(self, name: str) -> bytes:
        """Wallet id, account name, or 40-hex-digit literal."""
        if name in self._account_keys:
            return self._account_keys[name].address
        try:
            return self.manager.wallet(name).address
        except UnknownWallet:
            pass
        try:
            raw = bytes.fromhex(name)
        except ValueError:
            raise UnknownAccount(name) from None
        if len(raw) != 20:
            raise UnknownAccount(name)
        return raw

    # ------------------------------------------------------------------
    # transactions

    def build_tx(
        self,
        to: bytes,
        value: int,
        nonce: int,
        gas_limit: int = DEFAULT_GAS_LIMIT,
        fee_gwei: Optional[int] = None,
    ) -> ChainTx:
        fee = self.config["host.gas_price_gwei"] if fee_gwei is None else fee_gwei
        return ChainTx(
            chain_id=self.chain.chain_id,
            nonce=nonce,
            max_fee_per_gas=fee * GWEI,
            gas_limit=gas_limit,
            to=to,
            value=value,
        )

    def wallet_tx(
        self,
        wallet_id: str,
        to: bytes,
        value: int,
        nonce: Optional[int] = None,
        gas_limit: int = DEFAULT_GAS_LIMIT,
        fee_gwei: Optional[int] = None,
    ) -> ChainTx:
        wallet = self.manager.wallet(wallet_id)
        if nonce is None:
            nonce = self._recognized_nonce(wallet)
        return self.build_tx(to, value, nonce, gas_limit, fee_gwei)

    def signed_wallet_tx(
        self, player: str, wallet_id: str, tx: ChainTx, extst: bytes = b""
    ) -> SignedTx:
        signature = self.manager.lw_sign(player, wallet_id, tx, extst)
        return SignedTx(tx=tx, signature=signature)

    def account_tx(
        self,
        name: str,
        to: bytes,
        value: int,
        gas_limit: int = DEFAULT_GAS_LIMIT,
        fee_gwei: Optional[int] = None,
    ) -> SignedTx:
        key = self._account_keys.get(name)
        if key is None:
            raise UnknownAccount(name)
        tx = self.build_tx(
            to, value, nonce=self.chain.nonce(key.address), gas_limit=gas_limit,
            fee_gwei=fee_gwei,
        )
        return SignedTx(tx=tx, signature=key.sign(signing_digest(tx)))

    # ------------------------------------------------------------------
    # liveness and recovery

    def respond_challenge(self, responder: str) -> None:
        """Produce a fresh sentinel ping and defeat the open challenge;
        refused, with nothing signed, while the sentinel is down."""
        if not self.sentinel_up:
            raise BadProof("the sentinel is down")
        ping = ping_message(self.time)
        signature = self.manager.lw_sign(SENTINEL_OPERATOR, SENTINEL_WALLET, ping)
        self.trigger.respond(responder, ping, signature, self.time)

    def recover(self, share_count: Optional[int] = None) -> Dict[str, List[Tuple[str, bytes]]]:
        """Run the fallback release with the first ``share_count`` shares
        (the threshold by default); a count outside 0..committee is
        refused before anything is read."""
        count = self.fallback.threshold if share_count is None else share_count
        if not 0 <= count <= len(self.fallback.shares):
            raise StepFailure(f"shares={count} outside 0..{len(self.fallback.shares)}")
        shares = self.fallback.shares[:count]
        reliable = self.reliable
        finalized = reliable.confirmed_height("finalized") * reliable.block_interval
        released = self.fallback.execute(shares, self.trigger, finalized)
        for pairs in released.values():
            for wallet_id, seed in pairs:
                wallet = self.manager.wallet(wallet_id)
                if not verify_released_key(seed, wallet.public_key):
                    raise StepFailure(f"released key for {wallet_id} does not verify")
        return released

    # ------------------------------------------------------------------
    # invariants

    def check_invariants(self) -> List[str]:
        """The violations, none when all hold, of: both chains conserve
        value, the books of each ledger a wallet's policy holds balance,
        every tree is valid, and each offer's reservations add up to
        ``reserved``, which escrow covers."""
        problems = []
        for chain in (self.chain, self.reliable):
            gap = chain.minted - chain.total_circulating()
            if gap:
                problems.append(f"{chain.label} chain conservation gap {gap}")
        for wallet_id, ledger in self.ledgers.items():
            books = ledger.total_proven - ledger.total_deducted
            if books != sum(ledger.ether_sub.values()):
                problems.append(f"{wallet_id} ledger books off: {books}")
        for wallet in self.manager.wallets():
            tree = getattr(wallet.policy, "tree", None)
            try:
                if tree is not None:
                    tree.validate_structure(self.time)
            except EngineError as error:
                problems.append(f"{wallet.wallet_id} tree invalid: {error.code} {error.detail}")
        for offer in self.dao.offers.values():
            reserved = sum(offer.reservations.values())
            if offer.reserved != reserved or reserved > offer.escrow:
                problems.append(f"offer {offer.offer_id} escrow off")
        return problems
