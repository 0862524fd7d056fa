"""Seeded `.scn` script generators, one per benchmark workload.

Each generator is a pure function of its seed and a size factor: the
same arguments give byte-identical script text.  The scripts use only
the scenario language (docs/scenario.md), so the program under test
sees nothing but the generated input.  Why each workload exists is
written down in bench/README.md.
"""

from __future__ import annotations

import random
from importlib import resources
from typing import Callable, Dict, List, Tuple

# A workload is one or more named scripts run back to back, each
# against a fresh engine.
Scripts = List[Tuple[str, str]]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sign_log(seed: int, size: float = 1.0) -> Scripts:
    """Two tree wallets; each player signs through several nodes.

    Chain transactions are signed at explicit nonces ahead of the chain
    and submitted ``lag`` signatures later, so seals stay outstanding
    while each wallet's log grows to several hundred entries.  One sign in
    ten is a refusal the script expects (``?``).
    """
    rng = _rng("sign-log", seed)
    wallets = ("w0", "w1")
    users = [f"u{i}" for i in range(6)]
    pay_nodes = 3
    lag = 48
    shops = [f"shop{i}" for i in range(len(users) * pay_nodes)]
    out = [f"config engine.seed={seed}"]
    out += [f"account {s}" for s in shops]
    out += [f"player am-{w}" for w in wallets] + [f"player {u}" for u in users]
    held: Dict[Tuple[str, str], List[str]] = {}
    for w in wallets:
        out.append(
            f"wallet {w} am=am-{w} policy=tree update=tree capacity=10000eth fund=10000eth"
        )
        order = shops[:]
        rng.shuffle(order)
        for i, u in enumerate(users):
            held[w, u] = order[i * pay_nodes : (i + 1) * pay_nodes]
            for k, shop in enumerate(held[w, u]):
                out.append(
                    f"spawn {w} actor=am-{w} node={u}.p{k} controller={u} "
                    f"dest={shop} native=400eth"
                )
            out.append(
                f"spawn {w} actor=am-{w} node={u}.m controller={u} cap=personal:{w}.{u}"
            )
    nonce = {w: 0 for w in wallets}
    queue: Dict[str, List[str]] = {w: [] for w in wallets}
    # Fixed shares of each kind of sign, in seeded order, so that every
    # seed gives the same mix.
    signs = int(1200 * size)
    kinds = ["refused-tx"] * (signs // 20) + ["refused-personal"] * (signs // 20)
    kinds += ["personal"] * (signs * 3 // 20)
    kinds += ["tx"] * (signs - len(kinds))
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        w = rng.choice(wallets)
        u = rng.choice(users)
        other = rng.choice([x for x in users if x != u])
        if kind == "refused-tx":
            shop = rng.choice(held[w, other])
            out.append(f"? sign {w} player={u} to={shop} value=0.001eth nonce={nonce[w]}")
        elif kind == "refused-personal":
            out.append(f"? sign-personal {w} player={u} payload={w}.{other}")
        elif kind == "personal":
            out.append(f"sign-personal {w} player={u} payload={w}.{u}")
        else:
            sym = f"t{i}"
            out.append(
                f"sign {w} player={u} to={rng.choice(held[w, u])} value=0.001eth "
                f"nonce={nonce[w]} as={sym}"
            )
            nonce[w] += 1
            queue[w].append(sym)
            if len(queue[w]) > lag:
                out.append(f"submit {queue[w].pop(0)}")
        if i % 12 == 11:
            out.append("advance 12")
    return [("sign-log", "\n".join(out) + "\n")]


def tree_growth(seed: int, size: float = 1.0) -> Scripts:
    """Several wallets grow deep delegation trees by nested spawns.

    Every spawn is made by the controller of the parent node and carves
    a native slice; children of a top node also carve a proposal-level
    capability under the top node's platform, and the first child of a
    proposal holder inherits that proposal.  ``advance 3600`` every
    twenty spawns triggers the batched escrow flush; occasional seals
    force a synchronous escrow write; top-node controllers sign now and
    then.  The script ends with a recovery drill.
    """
    rng = _rng("tree-growth", seed)
    sizes = [max(8, int(n * size)) for n in (120, 140, 160)]
    rng.shuffle(sizes)
    users = [f"u{i}" for i in range(8)]
    top = 6
    out = [
        f"config engine.seed={seed} fallback.window_s=600 "
        "chain.block_interval_s=600 reliable_chain.block_interval_s=600"
    ]
    out += [f"player {u}" for u in users]
    growth: List[List[str]] = []
    tops: List[List[Tuple[str, str, str]]] = []  # (wallet, node, controller)
    for k, target in enumerate(sizes):
        w = f"t{k}"
        out.append(f"player am-{w}")
        out.append(
            f"wallet {w} am=am-{w} policy=tree update=tree capacity={10**31} fund=100eth"
        )
        # node -> [controller, unreserved wei, platform it holds,
        #          proposal grant it holds, proposal passed to a child]
        nodes: Dict[str, list] = {}
        order: List[str] = []
        lines: List[str] = []
        tops.append([])
        # Distinct controllers, so a top node's signer tries one node.
        for i, ctl in enumerate(rng.sample(users, top)):
            node = f"{w}.{i}"
            out.append(f"account sink-{node}")
            lines.append(
                f"spawn {w} actor=am-{w} node={node} controller={ctl} "
                f"native={10**30} dest=sink-{node} cap=dao:{node}"
            )
            nodes[node] = [ctl, 10**30, f"dao:{node}", "", False]
            order.append(node)
            tops[k].append((w, node, ctl))
        for n in range(top, target):
            parent = rng.choice(order)
            ctl, free, platform, proposal, passed = nodes[parent]
            node = f"{parent}.{n}"
            cap = free // 4
            nodes[parent][1] = free - cap
            grant = ""
            if platform:
                grant = f" cap=proposal:{node} platform={platform}"
            elif proposal and not passed:
                grant = proposal
                nodes[parent][4] = True
            child = rng.choice(users)
            lines.append(
                f"spawn {w} actor={ctl} parent={parent} node={node} controller={child} "
                f"native={cap}{grant}"
            )
            nodes[node] = [child, cap, "", grant, False]
            order.append(node)
        growth.append(lines)
    # Grow the trees side by side: always extend the least-grown one.
    done = [0] * len(sizes)
    total = sum(sizes)
    for n in range(total):
        k = min(range(len(sizes)), key=lambda j: (done[j] / sizes[j], j))
        out.append(growth[k][done[k]])
        done[k] += 1
        grown = tops[k][: done[k]]  # top nodes come first
        if n % 8 == 7:
            w, node, ctl = rng.choice(grown)
            out.append(f"sign {w} player={ctl} to=sink-{node} value=0.01eth as=g{n}")
            out.append(f"submit g{n}")
        if n % 60 == 59:
            w, node, _ = rng.choice(grown)
            out.append(f"seal {w} actor=am-{w} node={node} dest=sink-{node}")
            out.append(f"unseal {w} actor=am-{w} dest=sink-{node}")
        if n % 20 == 19:
            out.append("advance 3600")
    out += [
        "sentinel down",
        f"challenge challenger={users[0]} deposit=0.1eth",
        "? fire",
        "advance 601",
        "fire",
        "advance 3000",
        "recover",
    ]
    return [("tree-growth", "\n".join(out) + "\n")]


def ledger_dao(seed: int, size: float = 1.0) -> Scripts:
    """Ledger vaults with renter nodes, one payment per vault per round.

    Each round every vault builds, commits, signs and submits one
    payment; after ``advance 1500`` every vault proves its transaction.
    Payees come from a shared list and amounts from a short menu, as
    recurring payments do.  Deposits are claimed, proven and funded
    with host fees; each round also runs one vote-market proposal.
    """
    rng = _rng("ledger-dao", seed)
    vaults = [f"v{i}" for i in range(max(2, int(24 * size)))]
    rounds = max(2, int(20 * size))
    payees = [f"p{j}" for j in range(4)]
    menu = ("0.01eth", "0.02eth", "0.05eth", "0.1eth")
    # Each vault's host sets its own gas price.  A tx digest does not
    # cover the sender (bench/README.md), so without this two vaults
    # paying the same payee the same amount at the same nonce would sign
    # one and the same tx, and only one of them could prove it.
    fees = [100 + k for k in range(len(vaults))]
    out = [f"config engine.seed={seed}"]
    out += ["player am", "player b0"] + [f"player r{v}" for v in vaults]
    out += [f"account {p}" for p in payees]
    out += [f"account f{v} fund=10000eth" for v in vaults]
    for v in vaults:
        out.append(f"wallet {v} am=am policy=tree update=tree ledger=on")
        out += [f"spawn {v} actor=am node=n{j} controller=r{v} dest={p}" for j, p in enumerate(payees)]
        out.append(f"enroll {v} dao=main")
    # One depositor per vault; its account nonce moves once per block,
    # so each node's first deposit waits for the previous one's block.
    for j in range(len(payees)):
        for v in vaults:
            out.append(f"xfer f{v} to={v} value=5eth as=d{v}.{j}")
            out.append(f"claim {v} node=n{j} tx=d{v}.{j}")
        out.append("advance 12")
    out.append("advance 1500")
    for j in range(len(payees)):
        for v in vaults:
            out.append(f"prove-deposit {v} node=n{j} tx=d{v}.{j}")
            out.append(f"host-fees {v} node=n{j} amount=0.05eth")
    for r in range(rounds):
        out.append(f"proposal q{r} dao=main close=+1000")
        out.append(f"offer o{r} briber=b0 proposal=q{r} choice=2 price=0.001eth escrow=1000eth")
        # Fixed counts per round: 30% of vaults sell their vote, 40% vote
        # themselves, 10% top up a node.
        order = rng.sample(vaults, len(vaults))
        sellers = order[: len(vaults) * 3 // 10]
        voters = order[len(sellers) : len(sellers) + len(vaults) * 4 // 10]
        topups = rng.sample(vaults, max(1, len(vaults) // 10))
        deposits = []
        for k, v in enumerate(vaults):
            j = rng.randrange(len(payees))
            out.append(
                f"build {v} to={payees[j]} value={rng.choice(menu)} fee={fees[k]} as=x{r}.{v}"
            )
            out.append(f"commit {v} node=n{j} tx=x{r}.{v}")
            out.append(f"sign {v} player=r{v} tx=x{r}.{v} as=y{r}.{v}")
            out.append(f"submit y{r}.{v}")
            if v in sellers:
                out.append(f"accept {v} owner=am offer=o{r}")
                out.append(f"buy-vote o{r} player=b0 wallet={v}")
            elif v in voters:
                out.append(f"vote {v} player=am proposal=q{r} choice={rng.choice((1, 2))}")
            if v in topups:
                j = rng.randrange(len(payees))
                sym = f"d{v}.{j}.r{r}"
                out.append(f"xfer f{v} to={v} value=2eth as={sym}")
                out.append(f"claim {v} node=n{j} tx={sym}")
                deposits.append((v, f"n{j}", sym))
        out.append("advance 1500")
        for v in vaults:
            out.append(f"prove-tx {v} tx=y{r}.{v} submitter=r{v}")
        for v, node, sym in deposits:
            out.append(f"prove-deposit {v} node={node} tx={sym}")
        for v in sellers:
            out.append(f"claim-payment {v} offer=o{r}")
        out.append(f"tally q{r}")
    return [("ledger-dao", "\n".join(out) + "\n")]


def bundled(seed: int, size: float = 1.0) -> Scripts:
    """The shipped scenarios, each under the run seed."""
    package = resources.files("encumbra.scenarios")
    names = sorted(e.name for e in package.iterdir() if e.name.endswith(".scn"))
    return [
        (name[: -len(".scn")], f"config engine.seed={seed}\n" + package.joinpath(name).read_text())
        for name in names
    ]


# Sizes of the scaling table, and how many measured steps straddle each.
SIGN_LOG_SIZES = (1000, 2000, 4000)
SPAWN_TREE_SIZES = (50, 100, 200, 300)
SIGN_SAMPLES = 101
SPAWN_SAMPLES = 5


def scaling(seed: int) -> Scripts:
    """Scripts whose step latencies give the scaling table.

    ``sign-scaling`` grows one wallet per log size to just below it, with
    seals outstanding as in ``sign-log``, and ``spawn-scaling`` grows one
    flat tree per tree size.  Then both take their measured steps
    (symbols and node ids starting with ``m``) round-robin across the
    sizes, so that a slow spell of the machine hits every size alike.
    ``reverse-block`` submits 2000 transactions in reverse nonce order
    and produces them as one block.
    """
    head = f"config engine.seed={seed}"
    sign = [head, "player am", "player u", "account shop"]
    nonce = {size: 0 for size in SIGN_LOG_SIZES}
    queue: Dict[int, List[str]] = {size: [] for size in SIGN_LOG_SIZES}
    for size in SIGN_LOG_SIZES:
        sign.append(f"wallet s{size} am=am policy=tree update=tree capacity=10000eth fund=10000eth")
        sign.append(f"spawn s{size} actor=am node=p controller=u dest=shop native=5000eth")

    def sign_once(size: int, tag: str) -> None:
        sym = f"{tag}{size}.{nonce[size]}"
        sign.append(f"sign s{size} player=u to=shop value=0.001eth nonce={nonce[size]} as={sym}")
        nonce[size] += 1
        queue[size].append(sym)
        if len(queue[size]) > 48:
            sign.append(f"submit {queue[size].pop(0)}")
        if sum(nonce.values()) % 12 == 0:
            sign.append("advance 12")

    for size in SIGN_LOG_SIZES:
        while nonce[size] < size - SIGN_SAMPLES // 2 - 1:
            sign_once(size, "g")
    for _ in range(SIGN_SAMPLES):
        for size in SIGN_LOG_SIZES:
            sign_once(size, "m")

    spawn = [head, "player am"]
    for size in SPAWN_TREE_SIZES:
        spawn.append(f"wallet g{size} am=am policy=tree update=tree capacity={10**30}")
        grown = size - SPAWN_SAMPLES // 2 - 1  # nodes, root included
        spawn += [
            f"spawn g{size} actor=am node=n{i} controller=am native={10**20}"
            for i in range(grown - 1)
        ]
    for r in range(SPAWN_SAMPLES):
        spawn += [
            f"spawn g{size} actor=am node=m{r} controller=am native={10**20}"
            for size in SPAWN_TREE_SIZES
        ]

    block = [head, "player x", "account sink"]
    block.append("wallet b am=x policy=allow update=frozen fund=10000eth")
    block += [f"sign b player=x to=sink value=1wei nonce={n} as=r{n}" for n in range(2000)]
    block += [f"submit r{n}" for n in reversed(range(2000))]
    block.append("advance 12")
    return [
        (name, "\n".join(lines) + "\n")
        for name, lines in (("sign-scaling", sign), ("spawn-scaling", spawn), ("reverse-block", block))
    ]


WORKLOADS: Dict[str, Callable[..., Scripts]] = {
    "sign-log": sign_log,
    "tree-growth": tree_growth,
    "ledger-dao": ledger_dao,
    "bundled": bundled,
}
