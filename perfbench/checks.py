"""Independent checks of CLI outputs.

Nothing here imports `auditgame`: optima come from scipy's HiGHS on a
program built from the config, caps and costs from the paper's formulas in
floating point, and ledger signatures from `cryptography` directly.  Each
check returns None when the output is right and a one-line reason when it
is not; output it cannot parse raises ValueError, KeyError or IndexError,
which the runner reports as a failed check.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

REL_TOL = 1e-7            # solve / cost against HiGHS
FLOAT_MODE_REL_TOL = 1e-9   # float-mode CSV against rational, as in tests/test_casestudy.py

COSTS_HEADER = "q_min,c,k,l,cost_no_audit,cost_audit,budget,excess,dominates,reference_line"
SURFACE_HEADER = "q_min,c,k,max_misreport_prob"
BOUNDS_HEADER = "signal,truth,cap"


class Game:
    """A game config as the benchmark wrote it (exact values)."""

    def __init__(self, types, prior, alloc, cost, fine, budget=None, num_users=1):
        self.types = tuple(types)
        self.prior = tuple(Fraction(q) for q in prior)
        self.alloc = tuple(Fraction(f) for f in alloc)
        self.cost = Fraction(cost)
        self.fine = Fraction(fine)
        self.budget = None if budget is None else Fraction(budget)
        self.num_users = num_users

    @property
    def n(self):
        return len(self.types)

    @property
    def df(self):
        return max(self.alloc) - min(self.alloc)

    def to_text(self):
        lines = [
            f"types = {','.join(self.types)}",
            f"prior = {','.join(str(q) for q in self.prior)}",
            "alloc = " + ", ".join(f"{t}: {f}" for t, f in zip(self.types, self.alloc)),
            f"audit_cost = {self.cost}",
            f"fine = {self.fine}",
            f"num_users = {self.num_users}",
        ]
        if self.budget is not None:
            lines.append(f"budget = {self.budget}")
        return "\n".join(lines) + "\n"

    def margin_coeff(self, s, m):
        """Coefficient of pi(s|m) in signal s's audit-profitability margin."""
        c = -self.cost * self.prior[m]
        if s != m:
            c += self.prior[m] * (self.fine + max(self.alloc[s] - self.alloc[m], 0))
        return c

    def truthful_payout(self):
        return sum(q * f for q, f in zip(self.prior, self.alloc))

    def general_threshold(self):
        df = self.df
        return self.cost * df / (self.fine + df) if df > 0 else Fraction(0)

    def two_type_misreport(self):
        lo, hi = (0, 1) if self.alloc[0] <= self.alloc[1] else (1, 0)
        denom = self.prior[lo] * (self.fine - self.cost + self.df)
        if denom <= 0:
            return Fraction(1)
        return min(Fraction(1), self.prior[hi] * self.cost / denom)

    def two_type_threshold(self):
        return self.general_threshold() * (1 - self.two_type_misreport())


def highs_optimum(game: Game) -> float:
    """Optimal average payout of the no-audit program, solved by HiGHS."""
    from scipy.optimize import linprog

    n = game.n
    obj = [-float(game.prior[m] * game.alloc[s]) for m in range(n) for s in range(n)]
    a_eq = [[1.0 if v // n == m else 0.0 for v in range(n * n)] for m in range(n)]
    a_ub = [[float(game.margin_coeff(v % n, v // n)) if v % n == s else 0.0
             for v in range(n * n)] for s in range(n)]
    res = linprog(obj, A_ub=a_ub, b_ub=[0.0] * n, A_eq=a_eq, b_eq=[1.0] * n,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on a reference program: {res.message}")
    return -res.fun


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(abs(ref), 1.0)


def _fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


def check_solve(out: bytes, game: Game, optimum: float):
    f = _fields(out.decode())
    rows = []
    for t in game.types:
        raw = f.get(f"strategy_exact[{t}]")
        if raw is None:
            return f"missing strategy_exact[{t}]"
        rows.append([Fraction(p) for p in raw.split(",")])
    n = game.n
    for m, row in enumerate(rows):
        if len(row) != n or any(p < 0 for p in row) or sum(row) != 1:
            return f"strategy row {game.types[m]} is not a distribution"
    for s in range(n):
        if sum(game.margin_coeff(s, m) * rows[m][s] for m in range(n)) > 0:
            return f"auditing signal {game.types[s]} is profitable"
    payout = sum(game.prior[m] * rows[m][s] * game.alloc[s] for m in range(n) for s in range(n))
    if not _close(float(payout), optimum, REL_TOL):
        return f"payout {float(payout)} differs from HiGHS optimum {optimum}"
    if Fraction(f["excess_exact"]) != payout - game.truthful_payout():
        return "excess_exact is not payout minus truthful payout"
    if any(float(a) != 0 for a in f["audit"].split(",")):
        return "no-audit equilibrium reports audits"
    return None


def check_cost(out: bytes, game: Game, optimum: float):
    f = _fields(out.decode())
    got = {k: float(f[k]) for k in
           ("cost_no_audit", "cost_audit", "budget_component", "excess_component")}
    users = game.num_users
    excess = optimum - float(game.truthful_payout())
    df = float(game.df)
    c, k = float(game.cost), float(game.fine)
    if game.n == 2:
        lo = 0 if game.alloc[0] <= game.alloc[1] else 1
        p = excess / (float(game.prior[lo]) * df) if df > 0 else 0.0
        budget = c * df * (1 - p) / (k + df)   # coalition size 1
    else:
        budget = users * c * df / (k + df)
    want = {
        "cost_no_audit": users * (float(max(game.alloc)) - float(game.truthful_payout())),
        "excess_component": users * excess,
        "budget_component": budget,
    }
    want["cost_audit"] = want["budget_component"] + want["excess_component"]
    for key, ref in want.items():
        if not _close(got[key], ref, REL_TOL):
            return f"{key} {got[key]} differs from reference {ref}"
    return None


def check_verify(out: bytes):
    return None if "passed: true" in out.decode().splitlines() else "verification did not pass"


def check_probe(out: bytes, resolution: int):
    f = _fields(out.decode())
    profiles, certified = f.get("profiles"), f.get("certified")
    if profiles != str((resolution + 1) ** 2):
        return f"probe covered {profiles} profiles"
    if certified != profiles:
        return f"probe certified {certified} of {profiles} profiles"
    return None


def check_bounds(out: bytes, game: Game):
    lines = out.decode().splitlines()
    if not lines or lines[0] != BOUNDS_HEADER:
        return "bounds header is wrong"
    if len(lines) - 1 != game.n * (game.n - 1):
        return f"bounds has {len(lines) - 1} rows"
    for line in lines[1:]:
        s_label, m_label, cap = line.split(",")
        s, m = game.types.index(s_label), game.types.index(m_label)
        denom = float(game.prior[m] * (game.fine - game.cost + game.alloc[s] - game.alloc[m]))
        want = 1.0 if denom <= 0 else min(1.0, float(game.prior[s] * game.cost) / denom)
        if not _close(float(cap), want, 1e-12):
            return f"cap[{s_label}|{m_label}] {cap} differs from {want}"
    return None


def check_csv(out: bytes, header: str, rows: int):
    text = out.decode()
    if not text.startswith(header + "\n"):
        return "CSV header is wrong"
    got = text.count("\n") - 1
    return None if got == rows else f"CSV has {got} rows, expected {rows}"


def compare_modes(rational: bytes, floating: bytes, stats: dict):
    """Float-mode CSV against the rational CSV of the same grid.

    Numbers must agree to FLOAT_MODE_REL_TOL; text fields must match.
    `stats` collects how many numbers differ in their 15-digit rendering
    and the largest relative gap, which are reported, not gated.
    """
    r_rows = list(csv.reader(io.StringIO(rational.decode())))
    f_rows = list(csv.reader(io.StringIO(floating.decode())))
    if len(r_rows) != len(f_rows) or r_rows[:1] != f_rows[:1]:
        return "float and rational CSVs differ in shape"
    for r_row, f_row in zip(r_rows[1:], f_rows[1:]):
        for a, b in zip(r_row, f_row):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return f"text field {a!r} differs from {b!r}"
            stats["sig15_mismatches"] = stats.get("sig15_mismatches", 0) + 1
            gap = abs(x - y) / max(abs(x), 1.0)
            stats["worst_rel_gap"] = max(stats.get("worst_rel_gap", 0.0), gap)
            if gap > FLOAT_MODE_REL_TOL:
                return f"float value {b} differs from rational {a}"
    return None


def check_spend(out: bytes, expect_reason=None):
    want = "approved\n" if expect_reason is None else f"rejected: {expect_reason}\n"
    if out.decode() != want:
        return f"spend printed {out.decode().strip()!r}, expected {want.strip()!r}"
    return None


def check_mint(out: bytes, coin_path, coin_id: int, owner_pk: bytes, admin_pk: bytes):
    want = f"minted coin {coin_id} for {owner_pk.hex()[:16]}...\n"
    if out.decode() != want:
        return f"mint printed {out.decode().strip()!r}"
    try:
        with open(coin_path, "r", encoding="utf-8") as fh:
            coin = json.load(fh)
        sig = bytes.fromhex(coin["issuer_sig"])
        meta = coin["metadata"]
        owner = coin["owner_pk"]
    except (OSError, ValueError, KeyError):
        return "minted coin file is unreadable"
    if owner != owner_pk.hex() or meta.get("coin_id") != coin_id:
        return "minted coin names the wrong owner or id"
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    payload = json.dumps({"owner_pk": owner, "metadata": meta},
                         sort_keys=True, separators=(",", ":")).encode()
    try:
        Ed25519PublicKey.from_public_bytes(admin_pk).verify(sig, payload)
    except InvalidSignature:
        return "minted coin's issuer signature does not verify"
    return None


def check_audit_log(out: bytes, records: int):
    lines = out.decode().splitlines()
    if not lines or lines[-1] != f"total: {records}":
        return f"audit-log ends {lines[-1] if lines else ''!r}, expected total {records}"
    body = lines[:-1]
    if len(body) != records:
        return f"audit-log lists {len(body)} records"
    if not all(line.startswith(f"{i}: ") and line.endswith("verified=true")
               for i, line in enumerate(body)):
        return "audit-log has an unverified or misnumbered record"
    return None
