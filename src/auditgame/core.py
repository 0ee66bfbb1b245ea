"""Domain model for the benefits-program audit game.

A configured game has a finite type space with a shared prior, a credit
allocation per type, an audit cost c, a fine k for detected misreports,
an optional audit budget, and a user population with a maximum coalition
size.  Users signal a type; the administrator may audit each signal.

This module holds the game instance and strategy types, the stage payoffs,
the expected-utility and excess-payment functionals, and the
administrator's audit best response.  All operations are pure functions of
immutable values and are safe to share across threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import InputError
from .numeric import Num, as_fraction

PRIOR_TOLERANCE = Fraction(1, 10**12)


def _positive_part(x: Fraction) -> Fraction:
    return x if x > 0 else Fraction(0)


@dataclass(frozen=True)
class GameConfig:
    """One audit-game instance.

    `alloc` is stored as a tuple aligned with `types`; `budget` of None
    means the administrator is not budget-constrained.
    """

    types: tuple
    prior: tuple
    alloc: tuple
    audit_cost: Fraction
    fine: Fraction
    budget: Optional[Fraction] = None
    num_users: int = 1
    coalition_size: int = 1

    def __post_init__(self):
        types = tuple(str(t) for t in self.types)
        if len(types) < 2:
            raise InputError("need at least two types; a single type leaves no scope to misreport")
        if len(set(types)) != len(types):
            raise InputError("type labels must be distinct")
        prior = tuple(as_fraction(q) for q in self.prior)
        alloc = self.alloc
        if isinstance(alloc, Mapping):
            missing = [t for t in types if t not in alloc]
            if missing:
                raise InputError(f"alloc missing entries for types {missing}")
            extra = [t for t in alloc if t not in types]
            if extra:
                raise InputError(f"alloc has entries for unknown types {extra}")
            alloc = tuple(as_fraction(alloc[t]) for t in types)
        else:
            alloc = tuple(as_fraction(v) for v in alloc)
        if len(prior) != len(types) or len(alloc) != len(types):
            raise InputError("prior and alloc must match the number of types")
        if any(q < 0 for q in prior):
            raise InputError("prior entries must be non-negative")
        if abs(sum(prior) - 1) > PRIOR_TOLERANCE:
            raise InputError(f"prior must sum to 1 (got {sum(prior)})")
        if any(v < 0 for v in alloc):
            raise InputError("credit amounts must be non-negative")
        cost = as_fraction(self.audit_cost)
        fine = as_fraction(self.fine)
        if cost < 0:
            raise InputError("audit cost must be non-negative")
        if fine < cost:
            raise InputError(f"fine {fine} must be at least the audit cost {cost}")
        budget = None if self.budget is None else as_fraction(self.budget)
        if budget is not None and budget < 0:
            raise InputError("budget must be non-negative")
        if not isinstance(self.num_users, int) or self.num_users < 1:
            raise InputError("num_users must be a positive integer")
        if not isinstance(self.coalition_size, int) or self.coalition_size < 1:
            raise InputError("coalition_size must be a positive integer")
        if self.coalition_size > self.num_users:
            raise InputError("coalition_size cannot exceed num_users")
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "alloc", alloc)
        object.__setattr__(self, "audit_cost", cost)
        object.__setattr__(self, "fine", fine)
        object.__setattr__(self, "budget", budget)

    # -- lookup helpers -------------------------------------------------

    @property
    def n_types(self) -> int:
        return len(self.types)

    def index(self, label) -> int:
        try:
            return self.types.index(str(label))
        except ValueError:
            raise InputError(f"unknown type label {label!r}; known types: {self.types}") from None

    def credit(self, label) -> Fraction:
        return self.alloc[self.index(label)]

    def credit_at(self, i: int) -> Fraction:
        return self.alloc[i]

    @property
    def alloc_map(self) -> dict:
        return dict(zip(self.types, self.alloc))

    @property
    def delta_f_max(self) -> Fraction:
        return max(self.alloc) - min(self.alloc)

    @property
    def is_two_type(self) -> bool:
        return len(self.types) == 2

    def low_high_indices(self) -> tuple:
        """Indices of the min- and max-credit types (two-type games)."""
        if not self.is_two_type:
            raise InputError("low/high split is defined for two-type games only")
        if self.alloc[0] <= self.alloc[1]:
            return 0, 1
        return 1, 0

    def drop_zero_prior_types(self) -> "GameConfig":
        """Remove types with zero prior probability, warning when any are dropped."""
        if all(q > 0 for q in self.prior):
            return self
        keep = [i for i, q in enumerate(self.prior) if q > 0]
        dropped = [self.types[i] for i in range(self.n_types) if i not in keep]
        warnings.warn(f"dropping zero-probability types {dropped} before equilibrium construction")
        if len(keep) < 2:
            raise InputError("fewer than two types have positive probability")
        return replace(
            self,
            types=tuple(self.types[i] for i in keep),
            prior=tuple(self.prior[i] for i in keep),
            alloc=tuple(self.alloc[i] for i in keep),
        )

    # -- config file I/O ------------------------------------------------

    _REQUIRED_KEYS = ("types", "prior", "alloc", "audit_cost", "fine")
    _OPTIONAL_KEYS = ("budget", "num_users", "coalition_size")

    @classmethod
    def from_text(cls, text: str) -> "GameConfig":
        """Parse a key-value config document.

        Lines have the form ``key = value``; `#` starts a comment.  Lists
        are comma-separated; `alloc` uses ``label: amount`` pairs.  Numbers
        accept integers, decimals, and rational strings "p/q".
        """
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in entries:
                raise InputError(f"config line {lineno}: duplicate key {key!r}")
            entries[key] = value.strip()
        known = set(cls._REQUIRED_KEYS) | set(cls._OPTIONAL_KEYS)
        unknown = sorted(set(entries) - known)
        if unknown:
            raise InputError(f"unknown config keys {unknown}; known keys: {sorted(known)}")
        missing = [k for k in cls._REQUIRED_KEYS if k not in entries]
        if missing:
            raise InputError(f"config missing required keys {missing}")
        types = tuple(t.strip() for t in entries["types"].split(",") if t.strip())
        prior = tuple(as_fraction(v) for v in entries["prior"].split(","))
        alloc = {}
        for item in entries["alloc"].split(","):
            if ":" not in item:
                raise InputError(f"alloc entries must look like 'label: amount', got {item!r}")
            label, _, amount = item.partition(":")
            alloc[label.strip()] = as_fraction(amount)
        kwargs = {}
        if "budget" in entries:
            kwargs["budget"] = as_fraction(entries["budget"])
        for key in ("num_users", "coalition_size"):
            if key in entries:
                try:
                    kwargs[key] = int(entries[key])
                except ValueError:
                    raise InputError(f"{key} must be an integer, got {entries[key]!r}") from None
        return cls(
            types=types,
            prior=prior,
            alloc=alloc,
            audit_cost=as_fraction(entries["audit_cost"]),
            fine=as_fraction(entries["fine"]),
            **kwargs,
        )

    @classmethod
    def from_file(cls, path) -> "GameConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


@dataclass(frozen=True)
class Strategy:
    """A user signaling policy: row-stochastic matrix with rows[type][signal]."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(as_fraction(p) for p in row) for row in self.rows)
        if not rows:
            raise InputError("strategy needs at least one row")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise InputError("strategy rows must all have the same length")
            if any(p < 0 or p > 1 for p in row):
                raise InputError(f"strategy row {i} has entries outside [0, 1]")
            if abs(sum(row) - 1) > PRIOR_TOLERANCE:
                raise InputError(f"strategy row {i} sums to {sum(row)}, expected 1")
        if len(rows) != width:
            raise InputError("strategy matrix must be square (one row per type, one column per signal)")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def truthful(cls, n_types: int) -> "Strategy":
        return cls(tuple(
            tuple(Fraction(1) if s == m else Fraction(0) for s in range(n_types))
            for m in range(n_types)
        ))

    @property
    def n_types(self) -> int:
        return len(self.rows)

    def prob(self, signal_idx: int, type_idx: int) -> Fraction:
        """pi(signal | type) by index."""
        return self.rows[type_idx][signal_idx]

    def with_row(self, type_idx: int, row: Sequence[Num]) -> "Strategy":
        rows = list(self.rows)
        rows[type_idx] = tuple(as_fraction(p) for p in row)
        return Strategy(tuple(rows))


def two_type_strategy(cfg: GameConfig, misreport_prob: Num) -> Strategy:
    """Two-type strategy: high type truthful, low type over-reports with the given probability."""
    p = as_fraction(misreport_prob)
    lo, hi = cfg.low_high_indices()
    rows = [[Fraction(0)] * 2 for _ in range(2)]
    rows[hi][hi] = Fraction(1)
    rows[lo][hi] = p
    rows[lo][lo] = 1 - p
    return Strategy(tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class AuditPolicy:
    """Administrator audit probabilities, one per signal."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(as_fraction(p) for p in self.probs)
        if any(p < 0 or p > 1 for p in probs):
            raise InputError("audit probabilities must lie in [0, 1]")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def zero(cls, n_types: int) -> "AuditPolicy":
        return cls(tuple(Fraction(0) for _ in range(n_types)))

    @property
    def n_signals(self) -> int:
        return len(self.probs)

    def is_zero(self) -> bool:
        return all(p == 0 for p in self.probs)


@dataclass(frozen=True)
class StrategyProfile:
    """Per-user strategies and audit policies.

    `strategies` and `audits` list the users' entries; each listed user
    stands for `copies` identical users.  A symmetric profile of N users
    (`replicated`) therefore stores one strategy, one audit policy and
    copies = N, and nothing in this class grows with N.
    """

    strategies: tuple
    audits: tuple
    copies: int = 1

    def __post_init__(self):
        strategies = tuple(self.strategies)
        audits = tuple(self.audits)
        if not strategies:
            raise InputError("profile needs at least one user strategy")
        if len(audits) != len(strategies):
            raise InputError("profile needs one audit policy per user")
        if not isinstance(self.copies, int) or self.copies < 1:
            raise InputError("profile copies must be a positive integer")
        width = strategies[0].n_types
        for s in strategies:
            if s.n_types != width:
                raise InputError("all user strategies must share one type space")
        for a in audits:
            if a.n_signals != width:
                raise InputError("audit policies must cover every signal")
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "audits", audits)

    @classmethod
    def single(cls, strategy: Strategy, audit: AuditPolicy) -> "StrategyProfile":
        return cls((strategy,), (audit,))

    @classmethod
    def replicated(cls, strategy: Strategy, audit: AuditPolicy, n_users: int) -> "StrategyProfile":
        """Symmetric profile: every one of `n_users` users plays (strategy, audit)."""
        return cls((strategy,), (audit,), copies=n_users)

    @property
    def n_users(self) -> int:
        return len(self.strategies) * self.copies

    @property
    def is_symmetric(self) -> bool:
        return all(s == self.strategies[0] for s in self.strategies) and \
            all(a == self.audits[0] for a in self.audits)

    def validate_budget(self, cfg: GameConfig) -> None:
        """Check the aggregate audit-spend cap when a budget applies.

        The administrator must be able to pay for audits if every user
        sends its most-audited signal, so the cap is c times the sum over
        users of their maximum audit probability.
        """
        if cfg.budget is None or cfg.audit_cost == 0:
            return
        spend = cfg.audit_cost * self.copies * sum(max(a.probs) for a in self.audits)
        if spend > cfg.budget:
            raise InputError(
                f"audit policy spends up to {spend} but the budget is {cfg.budget}"
            )


# -- stage payoffs -----------------------------------------------------


def _check_flag(audit_flag) -> int:
    if audit_flag not in (0, 1):
        raise InputError(f"audit flag must be 0 or 1, got {audit_flag!r}")
    return int(audit_flag)


def admin_payoff(audit_flag, signal, truth, cfg: GameConfig) -> Fraction:
    """Administrator stage payoff for one (audit decision, signal, true type)."""
    a = _check_flag(audit_flag)
    f_s = cfg.credit(signal)
    f_m = cfg.credit(truth)
    if a == 0:
        return -f_s
    if cfg.index(signal) == cfg.index(truth):
        return -cfg.audit_cost - f_m
    return cfg.fine - cfg.audit_cost - min(f_m, f_s)


def user_payoff(audit_flag, signal, truth, cfg: GameConfig) -> Fraction:
    """User stage payoff for one (audit decision, signal, true type)."""
    a = _check_flag(audit_flag)
    f_s = cfg.credit(signal)
    f_m = cfg.credit(truth)
    if a == 0:
        return f_s
    if cfg.index(signal) == cfg.index(truth):
        return f_m
    return min(f_m, f_s) - cfg.fine


# -- expected utilities ------------------------------------------------


def _check_dims(pi: Strategy, sigma: AuditPolicy, cfg: GameConfig) -> None:
    if pi.n_types != cfg.n_types:
        raise InputError(f"strategy is {pi.n_types}x{pi.n_types} but the game has {cfg.n_types} types")
    if sigma.n_signals != cfg.n_types:
        raise InputError(f"audit policy covers {sigma.n_signals} signals but the game has {cfg.n_types} types")


def admin_utility(pi: Strategy, sigma: AuditPolicy, cfg: GameConfig) -> Fraction:
    """Administrator expected payoff under (pi, sigma)."""
    _check_dims(pi, sigma, cfg)
    total = Fraction(0)
    for m in range(cfg.n_types):
        q_m = cfg.prior[m]
        if q_m == 0:
            continue
        for s in range(cfg.n_types):
            p = pi.rows[m][s]
            if p == 0:
                continue
            total += p * (-q_m * cfg.alloc[s] + sigma.probs[s] * audit_margin_coef(cfg, s, m))
    return total


def user_utility_type(pi: Strategy, sigma: AuditPolicy, truth, cfg: GameConfig) -> Fraction:
    """Expected payoff of a user whose true type is `truth`."""
    _check_dims(pi, sigma, cfg)
    m = cfg.index(truth)
    f_m = cfg.alloc[m]
    total = Fraction(0)
    for s in range(cfg.n_types):
        p = pi.rows[m][s]
        if p == 0:
            continue
        penalty = Fraction(0)
        if s != m:
            penalty = sigma.probs[s] * (_positive_part(cfg.alloc[s] - f_m) + cfg.fine)
        total += p * (cfg.alloc[s] - penalty)
    return total


def user_utility_avg(pi: Strategy, sigma: AuditPolicy, cfg: GameConfig) -> Fraction:
    """Prior-weighted average of the per-type user utilities."""
    return sum(
        (cfg.prior[m] * user_utility_type(pi, sigma, cfg.types[m], cfg)
         for m in range(cfg.n_types)),
        Fraction(0),
    )


def excess_payments(pi: Strategy, sigma: AuditPolicy, cfg: GameConfig) -> Fraction:
    """Expected payout above each user's entitled credit amount.

    Only unaudited over-reports contribute: an audited misreporter is
    fined, and an audited truthful user receives exactly its entitlement.
    """
    _check_dims(pi, sigma, cfg)
    total = Fraction(0)
    for m in range(cfg.n_types):
        q_m = cfg.prior[m]
        if q_m == 0:
            continue
        for s in range(cfg.n_types):
            if s == m:
                continue
            over = _positive_part(cfg.alloc[s] - cfg.alloc[m])
            if over == 0:
                continue
            total += q_m * pi.rows[m][s] * (1 - sigma.probs[s]) * over
    return total


# -- administrator best response ----------------------------------------


def audit_margin_coef(cfg: GameConfig, signal_idx: int, type_idx: int) -> Fraction:
    """Audit margin of `signal` per unit of pi(signal | type).

    q_m * ((f_s - f_m)+ + k - c) off the diagonal: auditing a misreporter
    recovers the over-payment and the fine at cost c.  On the diagonal it
    is -q_m * c, since a truthful user is never fined.  The administrator
    audits signal s exactly when sum_m pi(s|m) * coef(s, m) > 0.
    """
    q_m = cfg.prior[type_idx]
    if signal_idx == type_idx:
        return -q_m * cfg.audit_cost
    over = _positive_part(cfg.alloc[signal_idx] - cfg.alloc[type_idx])
    return q_m * (over + cfg.fine - cfg.audit_cost)


def audit_gain_terms(pi: Strategy, cfg: GameConfig, signal_idx: int) -> tuple:
    """LHS and RHS of the per-signal audit-profitability comparison.

    Auditing `signal` is strictly profitable exactly when the expected
    recovery (fines plus clawed-back over-payments) exceeds the expected
    audit cost: LHS > RHS.
    """
    s = signal_idx
    rhs = Fraction(0)
    margin = Fraction(0)
    for m in range(cfg.n_types):
        p = pi.rows[m][s]
        rhs += cfg.audit_cost * p * cfg.prior[m]
        margin += p * audit_margin_coef(cfg, s, m)
    return rhs + margin, rhs


def audited_probability(cfg: GameConfig, budget_cap) -> Fraction:
    """Probability the administrator gives each audited signal: min(1, cap/c),
    or 1 without a cap or when auditing is free."""
    if budget_cap is None or cfg.audit_cost == 0:
        return Fraction(1)
    return min(Fraction(1), budget_cap / cfg.audit_cost)


def best_response(pi: Strategy, cfg: GameConfig, budget_cap=None) -> AuditPolicy:
    """Audit best response to a user strategy.

    A signal is audited only when auditing it is strictly profitable; at
    exact indifference the administrator does not audit, and a never-sent
    signal is never audited.  Without a budget cap an audited signal gets
    probability 1; with a cap it gets min(1, budget/cost).  When the audit
    cost is zero every strictly profitable signal is still audited with
    probability 1 (auditing is free).
    """
    if pi.n_types != cfg.n_types:
        raise InputError(f"strategy is {pi.n_types}x{pi.n_types} but the game has {cfg.n_types} types")
    if budget_cap is not None:
        budget_cap = as_fraction(budget_cap)
        if budget_cap < 0:
            raise InputError("budget cap must be non-negative")
    audited_prob = audited_probability(cfg, budget_cap)
    probs = []
    for s in range(cfg.n_types):
        lhs, rhs = audit_gain_terms(pi, cfg, s)
        probs.append(audited_prob if lhs > rhs else Fraction(0))
    return AuditPolicy(tuple(probs))
