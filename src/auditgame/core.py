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

from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .errors import InputError
from .numeric import Num, as_fraction
from .record import Record

PRIOR_TOLERANCE = Fraction(1, 10**12)


class GameConfig(Record):
    """One audit-game instance.

    `alloc` is stored as a tuple aligned with `types`; `budget` of None
    means the administrator is not budget-constrained.
    """

    _fields = ("types", "prior", "alloc", "audit_cost", "fine", "budget", "num_users",
               "coalition_size")

    def __init__(self, types: tuple, prior: tuple, alloc: tuple, audit_cost: Fraction,
                 fine: Fraction, budget: Optional[Fraction] = None, num_users: int = 1,
                 coalition_size: int = 1):
        types = tuple(str(t) for t in types)
        if len(types) < 2:
            raise InputError("need at least two types; a single type leaves no scope to misreport")
        if len(set(types)) != len(types):
            raise InputError("type labels must be distinct")
        prior = tuple(as_fraction(q) for q in prior)
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
        cost = as_fraction(audit_cost)
        fine = as_fraction(fine)
        if cost < 0:
            raise InputError("audit cost must be non-negative")
        if fine < cost:
            raise InputError(f"fine {fine} must be at least the audit cost {cost}")
        budget = None if budget is None else as_fraction(budget)
        if budget is not None and budget < 0:
            raise InputError("budget must be non-negative")
        if type(num_users) is not int or num_users < 1:
            raise InputError("num_users must be a positive integer")
        if type(coalition_size) is not int or coalition_size < 1:
            raise InputError("coalition_size must be a positive integer")
        if coalition_size > num_users:
            raise InputError("coalition_size cannot exceed num_users")
        self._set(types, prior, alloc, cost, fine, budget, num_users, coalition_size)

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

    # -- config document ------------------------------------------------

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
            label = label.strip()
            if label in alloc:
                raise InputError(f"alloc has a repeated label {label!r}")
            alloc[label] = as_fraction(amount)
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


class IntegerGame(Record):
    """A game's numbers as integers over two least common denominators.

    The prior is q_m = prior[m] / prior_den; the credits, the audit cost
    and the fine are f_i = alloc[i] / money_den, c = cost / money_den and
    k = fine / money_den.  Built by `integer_game`, the one home of this
    scaling.
    """

    _fields = ("prior", "prior_den", "alloc", "cost", "fine", "money_den")

    def __init__(self, prior: tuple, prior_den: int, alloc: tuple, cost: int, fine: int,
                 money_den: int):
        self._set(prior, prior_den, alloc, cost, fine, money_den)


def _over_common_denominator(values) -> tuple:
    """(numerators, d): Fractions `values` as numerators over their least common d."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def integer_game(cfg: GameConfig) -> IntegerGame:
    """`cfg`'s prior over one denominator, and its money amounts over another."""
    prior, prior_den = _over_common_denominator(cfg.prior)
    money, money_den = _over_common_denominator(cfg.alloc + (cfg.audit_cost, cfg.fine))
    return IntegerGame(prior, prior_den, money[:-2], money[-2], money[-1], money_den)


class Strategy(Record):
    """A user signaling policy: row-stochastic matrix with rows[type][signal]."""

    _fields = ("rows",)

    def __init__(self, rows: tuple):
        rows = tuple(tuple(as_fraction(p) for p in row) for row in rows)
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
        self._set(rows)

    @classmethod
    def from_integers(cls, rows: tuple, total: int) -> "Strategy":
        """The strategy rows[m][s] / total from square rows of non-negative
        integers that each sum to `total` > 0, as the exact solver gives
        them: `__init__`'s checks, on the integers."""
        if not rows:
            raise InputError("strategy needs at least one row")
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise InputError("strategy matrix must be square (one row per type, one column per signal)")
            if min(row) < 0 or sum(row) != total:
                raise InputError(f"strategy row {i} is not a distribution over {total}")
        zero = Fraction(0)
        strategy = cls.__new__(cls)
        strategy._set(tuple(tuple(Fraction(x, total) if x else zero for x in row)
                            for row in rows))
        return strategy

    @classmethod
    def truthful(cls, n_types: int) -> "Strategy":
        return cls.from_integers([[int(s == m) for s in range(n_types)]
                                  for m in range(n_types)], 1)

    @property
    def n_types(self) -> int:
        return len(self.rows)


def two_type_strategy(cfg: GameConfig, misreport_prob: Num) -> Strategy:
    """Two-type strategy: high type truthful, low type over-reports with the given probability."""
    p = as_fraction(misreport_prob)
    lo, hi = cfg.low_high_indices()
    rows = [[Fraction(0)] * 2 for _ in range(2)]
    rows[hi][hi] = Fraction(1)
    rows[lo][hi] = p
    rows[lo][lo] = 1 - p
    return Strategy(tuple(tuple(r) for r in rows))


class AuditPolicy(Record):
    """Administrator audit probabilities, one per signal."""

    _fields = ("probs",)

    def __init__(self, probs: tuple):
        probs = tuple(as_fraction(p) for p in probs)
        if any(p < 0 or p > 1 for p in probs):
            raise InputError("audit probabilities must lie in [0, 1]")
        self._set(probs)

    @classmethod
    def zero(cls, n_types: int) -> "AuditPolicy":
        return cls(tuple(Fraction(0) for _ in range(n_types)))

    @property
    def n_signals(self) -> int:
        return len(self.probs)

    def is_zero(self) -> bool:
        return all(p == 0 for p in self.probs)


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


def signal_payoff(f_s, f_m, k, audited, truthful: bool):
    """Expected payoff of a type of credit f_m from a signal of credit f_s audited
    with probability `audited`: f_s, less audited*((f_s - f_m)+ + k) unless
    `truthful`.  The one home of this rule; number-generic, like `audit_margin`."""
    if truthful or not audited:
        return f_s
    over = f_s - f_m
    return f_s - audited * ((over if over > 0 else 0) + k)


def top_signal(alloc) -> int:
    """The first signal, in type order, with the largest credit in `alloc`:
    every type's best reply to the zero audit, and the lexicographically
    greatest one.  Number-generic."""
    return alloc.index(max(alloc))


# -- expected utilities ------------------------------------------------


def _check_dims(pi: Strategy, sigma: Optional[AuditPolicy], cfg: GameConfig) -> None:
    if pi.n_types != cfg.n_types:
        raise InputError(f"strategy is {pi.n_types}x{pi.n_types} but the game has {cfg.n_types} types")
    if sigma is not None and sigma.n_signals != cfg.n_types:
        raise InputError(f"audit policy covers {sigma.n_signals} signals but the game has {cfg.n_types} types")


def admin_utility(pi: Strategy, sigma: AuditPolicy, cfg: GameConfig) -> Fraction:
    """Administrator expected payoff under (pi, sigma): minus the expected
    payout, plus sigma_s times the `audit_margins` of each signal s."""
    _check_dims(pi, sigma, cfg)
    payout = sum((q_m * p * f_s for q_m, row in zip(cfg.prior, pi.rows)
                  for p, f_s in zip(row, cfg.alloc) if p), Fraction(0))
    if sigma.is_zero():   # no audits: skip the n^2 margin terms, which add nothing
        return -payout
    margins = audit_margins(cfg.prior, cfg.alloc, cfg.audit_cost, cfg.fine, pi.rows)
    return sum((a * g for a, g in zip(sigma.probs, margins) if a), -payout)


def user_utility_type(pi: Strategy, sigma: AuditPolicy, truth, cfg: GameConfig) -> Fraction:
    """Expected payoff of a user whose true type is `truth`."""
    _check_dims(pi, sigma, cfg)
    m = cfg.index(truth)
    return sum((p * signal_payoff(f_s, cfg.alloc[m], cfg.fine, a, s == m)
                for s, (p, f_s, a) in enumerate(zip(pi.rows[m], cfg.alloc, sigma.probs)) if p),
               Fraction(0))


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
    unaudited = [1 - p for p in sigma.probs]
    return Fraction(excess_sum(cfg.prior, cfg.alloc, pi.rows, unaudited))


def excess_sum(prior, alloc, rows, unaudited):
    """Sum of q_m * pi(s|m) * u_s * (f_s - f_m)+ over the pairs s != m.

    `rows[m][s]` is pi(s|m) and `unaudited[s]` is u_s, the probability
    that signal s goes unaudited.  Number-generic: on the `integer_game`
    numbers of a game, with `rows` the numerators of a strategy over d and
    every u_s = 1, it is the no-audit excess times prior_den*money_den*d.
    """
    total = 0
    for m, q_m in enumerate(prior):
        if q_m == 0:
            continue
        f_m = alloc[m]
        for s, p in enumerate(rows[m]):
            if p == 0 or s == m:
                continue
            over = alloc[s] - f_m
            if over > 0:
                total += q_m * p * unaudited[s] * over
    return total


def misreport_cap_ratio(q_s, q_m, c, k, credit_gap) -> tuple:
    """(q_s*c, q_m*(k - c + credit_gap)): the ratio behind the cap on pi(s|m).

    The cap is min(1, numerator/denominator), or 1 when the denominator is
    not positive.  Number-generic: the `integer_game` numbers of a game
    give the same ratio in integers.
    """
    return q_s * c, q_m * (k - c + credit_gap)


def raw_misreport_cap(q_s, q_m, c, k, credit_gap):
    """Cap min(1, q_s*c / (q_m*(k - c + credit_gap))) on pi(s|m).

    `credit_gap` is f(s) - f(m).  A non-positive denominator makes the cap
    vacuous: 1.
    """
    numerator, denom = misreport_cap_ratio(q_s, q_m, c, k, credit_gap)
    if denom <= 0:
        return Fraction(1)
    return min(Fraction(1), numerator / denom)


# -- administrator best response ----------------------------------------


def audit_margin(q_m, f_s, f_m, c, k, truthful: bool):
    """Audit margin of a signal s per unit of pi(s|m): the one home of its formula.

    q_m * ((f_s - f_m)+ + k - c) off the diagonal: auditing a misreporter
    recovers the over-payment and the fine at cost c.  On the diagonal
    (`truthful`, s == m) it is -q_m * c, since a truthful user is never
    fined; `audit_margins` holds the audit rule.  Number-generic: on the
    `integer_game` numbers of a game it is the margin times
    prior_den * money_den.
    """
    if truthful:
        return -q_m * c
    over = f_s - f_m
    return q_m * ((over if over > 0 else 0) + k - c)


def audit_margin_coef(cfg: GameConfig, signal_idx: int, type_idx: int) -> Fraction:
    """`audit_margin` of signal `signal_idx` per unit of pi(signal | type)."""
    return audit_margin(cfg.prior[type_idx], cfg.alloc[signal_idx], cfg.alloc[type_idx],
                        cfg.audit_cost, cfg.fine, signal_idx == type_idx)


def audit_margins(prior, alloc, c, k, rows) -> list:
    """Per signal s, sum_m rows[m][s] * `audit_margin`(s, m), rows[m][s] being
    pi(s|m): the administrator audits s exactly when it is positive.

    Number-generic: on a game's `integer_game` numbers, with `rows` a
    strategy's numerators over d, it is the margins times prior_den*money_den*d.
    """
    n = len(prior)
    return [sum(rows[m][s] * audit_margin(prior[m], alloc[s], alloc[m], c, k, s == m)
                for m in range(n) if rows[m][s])
            for s in range(n)]


def audited_probability(cfg: GameConfig) -> Fraction:
    """Probability the administrator gives each audited signal: min(1, budget/c),
    or 1 without a budget or when auditing is free."""
    if cfg.budget is None or cfg.audit_cost == 0:
        return Fraction(1)
    return min(Fraction(1), cfg.budget / cfg.audit_cost)


def best_response(pi: Strategy, cfg: GameConfig) -> AuditPolicy:
    """Audit best response to a user strategy, under the game's budget.

    Signal s is audited, with `audited_probability`, exactly when its
    `audit_margins` entry is positive: at exact indifference the
    administrator does not audit, and a never-sent signal is never audited.
    """
    _check_dims(pi, None, cfg)
    audited, zero = audited_probability(cfg), Fraction(0)
    margins = audit_margins(cfg.prior, cfg.alloc, cfg.audit_cost, cfg.fine, pi.rows)
    return AuditPolicy(tuple(audited if g > 0 else zero for g in margins))
