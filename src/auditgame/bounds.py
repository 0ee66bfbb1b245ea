"""Caps and thresholds: the misreporting and excess-payment caps and the
budget thresholds that decide where they hold.

Every equilibrium of the audit game keeps each off-diagonal strategy entry
below a per-pair cap and keeps total excess payments below an aggregate
cap; both shrink as the fine grows or the audit cost falls.  The caps hold
where the budget does not hold audits back (`BudgetAnalysis.budget_binds`),
which `budget_thresholds` decides from the aggregate cap: the existence
thresholds are that cap, scaled by the coalition size or, in a two-type
game, by the share of low types that do not misreport.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Optional

from .core import GameConfig, misreport_cap_ratio, raw_misreport_cap
from .record import Record


def excess_payments_bound(cfg: GameConfig) -> Fraction:
    """Aggregate cap on equilibrium excess payments: c * df / (k + df)."""
    df = cfg.delta_f_max
    if df == 0:
        return Fraction(0)
    return cfg.audit_cost * df / (cfg.fine + df)


def two_type_params(cfg: GameConfig) -> tuple:
    """(q_lo, q_hi, df) of a two-type game: the priors of its low- and
    high-credit types and the credit gap between them."""
    lo, hi = cfg.low_high_indices()
    return cfg.prior[lo], cfg.prior[hi], cfg.alloc[hi] - cfg.alloc[lo]


def two_type_misreport_prob(cfg: GameConfig) -> Fraction:
    """Equilibrium probability that the low type claims the high credit."""
    q_lo, q_hi, df = two_type_params(cfg)
    return raw_misreport_cap(q_hi, q_lo, cfg.audit_cost, cfg.fine, df)


class Regime(enum.Enum):
    """Where a budget lies, a label for `solve` only: `BudgetAnalysis.budget_binds`
    decides.  NONEXISTENCE_POSSIBLE: below every threshold that guarantees existence."""

    UNCONSTRAINED = "UNCONSTRAINED"
    SUFFICIENT = "SUFFICIENT"
    TWO_TYPE_SUFFICIENT = "TWO_TYPE_SUFFICIENT"
    TWO_TYPE_ANY_BUDGET_SINGLE_USER = "TWO_TYPE_ANY_BUDGET_SINGLE_USER"
    NONEXISTENCE_POSSIBLE = "NONEXISTENCE_POSSIBLE"


class BudgetAnalysis(Record):
    """`budget_binds`: whether the budget holds audits back, so that the
    caps of this module do not apply (see `budget_thresholds`); the one
    decision, where `regime` is only the label that `solve` prints."""

    _fields = ("threshold_general", "threshold_two_type", "threshold_coalition", "regime",
               "budget_binds")

    def __init__(self, threshold_general: Fraction, threshold_two_type: Optional[Fraction],
                 threshold_coalition: Fraction, regime: Regime, budget_binds: bool):
        self._set(threshold_general, threshold_two_type, threshold_coalition, regime,
                  budget_binds)


def budget_thresholds(cfg: GameConfig) -> BudgetAnalysis:
    """Existence thresholds, the regime the configured budget falls in, and
    whether the budget binds.

    No budget, or one at or above the coalition threshold, never binds.
    Below it a two-type budget binds, with one user, at or below the
    two-type threshold, where the budget-exhausting branch applies; with
    several users the threshold itself is enough for the no-audit
    equilibrium, so it binds strictly below.  Below it a larger game's budget
    always binds.
    """
    general = excess_payments_bound(cfg)
    two_type = None
    if cfg.is_two_type:
        p = two_type_misreport_prob(cfg)
        two_type = general * (1 - p)
    coalition = cfg.coalition_size * general

    budget = cfg.budget
    if budget is None:
        regime, binds = Regime.UNCONSTRAINED, False
    elif budget >= coalition:
        regime, binds = Regime.SUFFICIENT, False
    elif cfg.is_two_type and cfg.num_users == 1:
        regime, binds = Regime.TWO_TYPE_ANY_BUDGET_SINGLE_USER, budget <= two_type
    elif cfg.is_two_type and budget >= two_type:
        regime, binds = Regime.TWO_TYPE_SUFFICIENT, False
    else:
        regime, binds = Regime.NONEXISTENCE_POSSIBLE, True
    return BudgetAnalysis(
        threshold_general=general,
        threshold_two_type=two_type,
        threshold_coalition=coalition,
        regime=regime,
        budget_binds=binds,
    )


class BoundReport(Record):
    """Per-pair caps plus the aggregate cap for one game instance.

    `caps` maps (signal_label, truth_label) to a Fraction.
    `binding_pairs` lists the (signal, truth) pairs where a supplied
    equilibrium strategy attains its cap; `vacuous_pairs` lists pairs whose
    cap degenerated to 1 for lack of a positive denominator.  When
    `budget_binds` the budget holds audits back, the caps do not apply, and
    the report claims none: `caps` is empty and `excess_cap` None.
    """

    _fields = ("caps", "excess_cap", "binding_pairs", "vacuous_pairs", "budget_binds")

    def __init__(self, caps: dict, excess_cap, binding_pairs: tuple, vacuous_pairs: tuple,
                 budget_binds: bool):
        self._set(caps, excess_cap, binding_pairs, vacuous_pairs, budget_binds)


def bound_report(cfg: GameConfig, strategy=None) -> BoundReport:
    """The caps that hold on every equilibrium of `cfg`; none where its
    budget binds (`budget_thresholds`)."""
    if budget_thresholds(cfg).budget_binds:
        return BoundReport(caps={}, excess_cap=None, binding_pairs=(), vacuous_pairs=(),
                           budget_binds=True)
    caps = {}
    vacuous = []
    binding = []
    for m, m_label in enumerate(cfg.types):
        for s, s_label in enumerate(cfg.types):
            if s == m:
                continue
            args = (cfg.prior[s], cfg.prior[m], cfg.audit_cost, cfg.fine,
                    cfg.alloc[s] - cfg.alloc[m])
            cap = caps[(s_label, m_label)] = raw_misreport_cap(*args)
            if misreport_cap_ratio(*args)[1] <= 0:
                vacuous.append((s_label, m_label))
            if strategy is not None and strategy.rows[m][s] == cap:
                binding.append((s_label, m_label))
    return BoundReport(
        caps=caps,
        excess_cap=excess_payments_bound(cfg),
        binding_pairs=tuple(binding),
        vacuous_pairs=tuple(vacuous),
        budget_binds=False,
    )
