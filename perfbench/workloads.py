"""The four benchmark workloads: seeded inputs, CLI calls and their checks.

A workload writes its inputs into a snapshot directory during set-up.  A
repeated set-up generates the same inputs again and rewrites only the files
whose content differs.  The runner makes a work directory equal to the
snapshot before a run (and again before each traced pass), calls `reset`,
and then runs `ops(cycle)` for cycle 0, 1, 2, ... in order, with the work
directory as the current directory.  Every op's argv is a CLI argument
list; the runner compares the exit status with `status`, and `check` gets
stdout and returns None or a reason.

Each workload also gives `cycle_s`, the seconds one cycle takes on the
reference machine with the yardstick the runner spawns after each call,
and `min_cycles`.  A run's cycle count comes from these and `--seconds`
only, never from the speed of the code under test.

The program sees only the generated config, coin and key files.  See
README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import checks
from checks import COSTS_HEADER, SURFACE_HEADER, Game

# Inputs are generated for this many distinct cycles, the most a run at
# `run_seconds` makes; longer runs repeat them.
CYCLES = 3


@dataclass
class Op:
    kind: str
    argv: list
    check: Callable[[bytes], Optional[str]]
    key: Optional[str] = None  # calls with one key must print the same bytes
    pin: bool = False          # compare with the digest of `key` in digests.json
    status: int = 0            # expected exit status


def _rng(seed, *parts):
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _write(path, text):
    """Write `text` to `path` unless the file already holds exactly it."""
    data = text.encode("utf-8")
    if _read(path) == data:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def random_game(rng, n, equal_credits=False, budget="none"):
    """A game with n types: near-uniform prior, evenly spaced credits, each
    jittered by the seed.  The narrow ranges keep the solver's work alike
    from seed to seed.  With `equal_credits` two adjacent credits coincide,
    which gives the program alternate optima."""
    weights = [rng.randint(4, 6) for _ in range(n)]
    total = sum(weights)
    alloc = [10 + 40 * i + rng.randint(0, 8) for i in range(n)]
    if equal_credits:
        i = rng.randrange(n - 1)
        alloc[i + 1] = alloc[i]
    cost = rng.randint(8, 12)
    game = Game([f"t{i}" for i in range(n)], [Fraction(w, total) for w in weights],
                alloc, cost, rng.randint(4 * cost, 6 * cost))
    if budget == "at":
        game.budget = game.general_threshold()
    elif budget == "above":
        game.budget = game.general_threshold() * Fraction(rng.randint(101, 300), 100)
    return game


def ftbp_game(rng, num_users=1):
    """Two-type game on the transit-benefits calibration (credits 50/105)."""
    q = Fraction(rng.randint(10, 90), 100)
    cost = rng.choice((25, 75, 125))
    fine = rng.choice([k for k in (100, 300, 500) if k >= cost])
    return Game(["low", "high"], [q, 1 - q], [50, 105], cost, fine, num_users=num_users)


class GameWorkload:
    """Shared plumbing for the game workloads: configs written at set-up,
    `solve` and `cost` ops checked against HiGHS."""

    max_cycles = math.inf    # inputs repeat every CYCLES cycles
    min_cycles = 1

    def __init__(self, seed):
        self.seed = seed
        self.games = {}
        self.optima = {}

    def add_game(self, name, game):
        self.games[name] = game

    def setup(self, snap):
        """Generate the seeded games and write their configs."""
        self.games, self.optima = {}, {}
        self.make_games()
        for name, game in self.games.items():
            _write(os.path.join(snap, "games", f"{name}.cfg"), game.to_text())

    def reset(self, work):
        pass

    def optimum(self, name):
        if name not in self.optima:
            self.optima[name] = checks.highs_optimum(self.games[name])
        return self.optima[name]

    def solve_op(self, name):
        game = self.games[name]
        return Op(f"solve-n{game.n}", ["solve", "--config", f"games/{name}.cfg"],
                  lambda out: checks.check_solve(out, game, self.optimum(name)),
                  key=f"solve:{name}", pin=True)

    def cost_op(self, name):
        game = self.games[name]
        return Op(f"cost-n{game.n}", ["cost", "--config", f"games/{name}.cfg"],
                  lambda out: checks.check_cost(out, game, self.optimum(name)),
                  key=f"cost:{name}", pin=True)


class SolveLP(GameWorkload):
    """`solve` and `cost` on 6-9 type games; the exact LP does the work."""

    name = "solve-lp"
    # One cycle: n-type games in call order, each called with `solve` and
    # `cost`.  Eight-type games are half the calls and nine-type ones, the
    # slowest, a sixth, so from two cycles on the median and the
    # 11th-largest call both fall among the eight-type calls.  The
    # seven-type game has two equal credits.
    SIZES = (8, 6, 8, 9, 7, 8)
    BUDGETS = ("none", "above", "at", "none", "above", "at")
    EQUAL_CREDITS_SLOT = 4
    cycle_s = 9.1

    def make_games(self):
        for cycle in range(CYCLES):
            for slot, (n, budget) in enumerate(zip(self.SIZES, self.BUDGETS)):
                rng = _rng(self.seed, self.name, cycle, slot)
                self.add_game(f"c{cycle}-s{slot}-n{n}",
                              random_game(rng, n, equal_credits=slot == self.EQUAL_CREDITS_SLOT,
                                          budget=budget))

    def ops(self, cycle):
        c = cycle % CYCLES
        names = [f"c{c}-s{slot}-n{n}" for slot, n in enumerate(self.SIZES)]
        return [op for name in names for op in (self.solve_op(name), self.cost_op(name))]

    def sizes(self):
        return {"games_per_cycle_by_type_count": dict(Counter(self.SIZES))}


class VerifyGrid(GameWorkload):
    """Grid-scan verification and the non-existence probe."""

    name = "verify-grid"
    # One cycle in call order.  ("two", users, budgeted): FTBP-calibrated
    # two-type verify at the default resolution, budgeted ones below the
    # two-type threshold; ("three",): a three-type verify; ("probe",): the
    # two-user probe.  Cheap two-type calls are 12 of 20, so the median
    # sits among them.  From three cycles on, the 11th-largest call falls
    # in the middle of the 18 heavy calls (three-type and 10^6-user
    # verifies) rather than at the edge of a cluster, where it would swing
    # with the noise of one or two calls.
    CYCLE = (("two", 1, True), ("three",), ("two", 4000, False), ("two", 10**6, False),
             ("probe",), ("two", 1, False), ("two", 10**6, False), ("two", 1, True),
             ("two", 4000, False), ("two", 1, False), ("three",), ("two", 1, True),
             ("two", 10**6, False), ("probe",), ("two", 4000, False), ("two", 1, False),
             ("two", 10**6, False), ("two", 1, True), ("two", 4000, False), ("two", 1, False))
    cycle_s = 13.0
    min_cycles = 3
    PROBE_RESOLUTION = 100   # the CLI default
    THREE_TYPE_RESOLUTION = 100

    def make_games(self):
        for cycle in range(CYCLES):
            for slot, (kind, *params) in enumerate(self.CYCLE):
                rng = _rng(self.seed, self.name, cycle, slot)
                if kind == "three":
                    game = random_game(rng, 3)
                else:
                    budgeted = kind == "probe" or params[1]
                    game = ftbp_game(rng, num_users=2 if kind == "probe" else params[0])
                    while budgeted and game.two_type_threshold() == 0:
                        game = ftbp_game(rng, num_users=game.num_users)
                    if budgeted:
                        game.budget = game.two_type_threshold() * Fraction(rng.randint(10, 90), 100)
                self.add_game(f"c{cycle}-s{slot}-{kind}", game)

    def ops(self, cycle):
        c = cycle % CYCLES
        out = []
        for slot, (kind, *params) in enumerate(self.CYCLE):
            name = f"c{c}-s{slot}-{kind}"
            argv = [kind if kind == "probe" else "verify", "--config", f"games/{name}.cfg"]
            if kind == "probe":
                check = lambda out: checks.check_probe(out, self.PROBE_RESOLUTION)
                label = "probe"
            else:
                check = lambda out: checks.check_verify(out)
                label = "verify-3type" if kind == "three" else f"verify-2type-u{params[0]}"
                if kind == "three":
                    argv += ["--resolution", str(self.THREE_TYPE_RESOLUTION)]
            out.append(Op(label, argv, check, key=name, pin=True))
        return out

    def sizes(self):
        labels = (kind if kind != "two" else f"two_users_{p[0]}" + ("_budget" if p[1] else "")
                  for kind, *p in self.CYCLE)
        return {"calls_per_cycle": dict(Counter(labels)),
                "resolutions": {"two": 200, "three": self.THREE_TYPE_RESOLUTION,
                                "probe": self.PROBE_RESOLUTION}}


class CasestudySweep(GameWorkload):
    """Cost sweeps and misreporting surfaces in rational and float mode."""

    name = "casestudy-sweep"
    FINE_Q = ",".join(str(Fraction(i, 1000)) for i in range(1, 1000))
    PERCENT_Q = ",".join(str(Fraction(i, 100)) for i in range(1, 100))
    # Rows: q_min x c x k (x coalition sizes for the sweep).
    SWEEP_ROWS = {"preset": 99 * 3 * 3 * 2, "fine": 999 * 3 * 3 * 2}
    SURFACE_ROWS = {"preset": 3 * 6 * 10, "fine": 99 * 6 * 10}
    cycle_s = 4.9

    def __init__(self, seed):
        super().__init__(seed)
        self.outputs = {}
        self.mode_stats = {}

    def make_games(self):
        rng = _rng(self.seed, self.name)
        self.add_game("calibration", Game(
            ["low", "high"], [Fraction(1, 2), Fraction(1, 2)],
            [50 + rng.randint(-5, 5), 105 + rng.randint(-5, 5)], 25, 100, num_users=4000))

    def _csv_op(self, cmd, label, mode):
        key = f"{cmd}:{label}:{mode}"
        header, rows = {"sweep": (COSTS_HEADER, self.SWEEP_ROWS),
                        "surface": (SURFACE_HEADER, self.SURFACE_ROWS)}[cmd]
        argv = [cmd, "--mode", mode]
        if label == "fine":
            grid = self.FINE_Q if cmd == "sweep" else self.PERCENT_Q
            argv += ["--qmin-grid", grid, "--config", "games/calibration.cfg"]

        def check(out):
            problem = checks.check_csv(out, header, rows[label])
            if problem is None and mode == "float":
                rational = self.outputs.get(f"{cmd}:{label}:rational")
                if rational is None:
                    return "float CSV ran before its rational twin"
                problem = checks.compare_modes(rational, out, self.mode_stats)
            elif problem is None:
                self.outputs[key] = out
            return problem

        return Op(f"{cmd}-{label}-{mode}", argv, check, key=key, pin=mode == "rational")

    def ops(self, cycle):
        game = self.games["calibration"]
        out = [self._csv_op(cmd, label, mode) for mode in ("rational", "float")
               for cmd, label in (("sweep", "fine"), ("sweep", "preset"),
                                  ("surface", "preset"), ("surface", "fine"))]
        out += [
            Op("bounds", ["bounds", "--config", "games/calibration.cfg"],
               lambda out: checks.check_bounds(out, game), key="bounds", pin=True),
            self.cost_op("calibration"),
        ]
        return out

    def sizes(self):
        return {"grid_rows": {f"{cmd}_{label}": rows[label]
                              for cmd, rows in (("sweep", self.SWEEP_ROWS),
                                                ("surface", self.SURFACE_ROWS))
                              for label in rows},
                "games_by_type_count": {"types_2": 1}}


class LedgerLog:
    """Ed25519 ledger: spends, a double-spend, mints and audit-log replays."""

    name = "ledger-log"
    USERS = 8
    RECORDS = 500        # approved receipts in the snapshot
    max_cycles = 24      # cycles one run, or passes one traced run, may use
    min_cycles = 1
    MINT_BASE = 1_000_000
    # Spends, mints and the re-spend cost about the same; three audit-logs
    # per cycle give the 11th-largest call a cluster to fall in.
    CYCLE = ("spend", "mint", "audit-log", "spend", "respend", "audit-log", "mint", "spend",
             "audit-log")
    SPENDS = CYCLE.count("spend")
    cycle_s = 4.8

    def __init__(self, seed):
        self.seed = seed
        self.coins = self.RECORDS + self.SPENDS * self.max_cycles
        self.records = 0
        self.work = None

    def setup(self, snap):
        """Generate the seeded keys and prices, mint every coin, spend the
        first RECORDS through the library (which appends them to the log),
        and write coin files for the coins the cycles spend again (the first
        `max_cycles`) or for the first time."""
        import auditgame.ledger as L

        rng = _rng(self.seed, self.name)
        self.admin_sk = rng.randbytes(32)
        self.user_sks = [rng.randbytes(32) for _ in range(self.USERS)]
        self.prices = [rng.randint(1, 20) for _ in range(self.coins)]
        self.admin_pk = _public_key(self.admin_sk)
        self.user_pks = [_public_key(sk) for sk in self.user_sks]

        ledger_dir = os.path.join(snap, "ledger")
        _write_key(os.path.join(ledger_dir, "admin.key"), self.admin_sk, self.admin_pk)
        for i, (sk, pk) in enumerate(zip(self.user_sks, self.user_pks)):
            _write_key(os.path.join(snap, "users", f"u{i}.key"), sk, pk)
        os.makedirs(os.path.join(snap, "minted"), exist_ok=True)
        log_path = os.path.join(ledger_dir, "log.jsonl")
        if os.path.exists(log_path):     # from an earlier set-up
            os.remove(log_path)
        scheme = L.Ed25519Scheme()
        state = L.LedgerState.load(scheme, self.admin_sk, self.admin_pk,
                                   log_path,
                                   rng=_rng(self.seed, self.name, "challenges"))
        for j in range(self.coins):
            owner = j % self.USERS
            coin = state.mint(self.user_pks[owner], L.CoinMetadata(coin_id=j))
            if j < self.max_cycles or j >= self.RECORDS:
                _write(os.path.join(snap, "coins", f"{j}.json"),
                       json.dumps(coin.to_dict(), sort_keys=True) + "\n")
            if j < self.RECORDS:
                raw = L.RawReceipt(goods=f"item-{j}", price=self.prices[j], coins=(coin,))
                receipt = L.sign_receipt(scheme, self.user_sks[owner], raw, state.begin_spend(raw))
                if not state.finalize_spend(receipt).approved:
                    raise RuntimeError("set-up spend was rejected")

    def reset(self, work):
        self.work = work
        self.records = self.RECORDS

    def _spend(self, coin, expect_reason=None):
        def check(out):
            problem = checks.check_spend(out, expect_reason)
            if problem is None and expect_reason is None:
                self.records += 1
            return problem

        owner = coin % self.USERS
        return Op("respend" if expect_reason else "spend",
                  ["ledger", "spend", "--dir", "ledger", "--coin", f"coins/{coin}.json",
                   "--signer-key", f"users/u{owner}.key", "--goods", f"item-{coin}",
                   "--price", str(self.prices[coin])], check, status=1 if expect_reason else 0)

    def _mint(self, coin_id):
        owner = coin_id % self.USERS
        path = f"minted/{coin_id}.json"

        def check(out):
            return checks.check_mint(out, os.path.join(self.work, path), coin_id,
                                     self.user_pks[owner], self.admin_pk)

        return Op("mint", ["ledger", "mint", "--dir", "ledger", "--recipient-key",
                           f"users/u{owner}.key", "--coin-id", str(coin_id), "--out", path], check)

    def _audit_log(self):
        return Op("audit-log", ["ledger", "audit-log", "--dir", "ledger"],
                  lambda out: checks.check_audit_log(out, self.records))

    def ops(self, cycle):
        mints = self.CYCLE.count("mint")
        fresh = iter(range(self.RECORDS + cycle * self.SPENDS, self.RECORDS + (cycle + 1) * self.SPENDS))
        minted = iter(range(self.MINT_BASE + cycle * mints, self.MINT_BASE + (cycle + 1) * mints))
        out = []
        for kind in self.CYCLE:
            if kind == "spend":
                out.append(self._spend(next(fresh)))
            elif kind == "respend":
                out.append(self._spend(cycle, "double-spend"))
            elif kind == "mint":
                out.append(self._mint(next(minted)))
            else:
                out.append(self._audit_log())
        return out

    def sizes(self):
        return {"log_records": self.RECORDS, "users": self.USERS,
                "calls_per_cycle": {k: self.CYCLE.count(k) for k in sorted(set(self.CYCLE))}}


def _public_key(sk: bytes) -> bytes:
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    return Ed25519PrivateKey.from_private_bytes(sk).public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw)


def _write_key(path, sk: bytes, pk: bytes):
    # The CLI's key file format: secret hex, then public hex.
    _write(path, f"{sk.hex()}\n{pk.hex()}\n")
    os.chmod(path, 0o600)


WORKLOADS = {w.name: w for w in (SolveLP, VerifyGrid, CasestudySweep, LedgerLog)}
