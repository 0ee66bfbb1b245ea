"""Total-cost comparison: audit mechanism versus the no-audit status quo.

A mechanism's total cost is the budget set aside for audits plus the
excess payments made relative to fully truthful reporting.  Without
audits every user claims the largest credit, so the status-quo cost is
the full gap between the top credit and the truthful average.  The audit
mechanism pins its budget to the smallest amount that sustains the
equilibrium; with two types its total cost never exceeds the status quo,
and with more types it does so exactly when the fine reaches a threshold,
where one exists.  `dominates` is the exact comparison of the two totals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .bounds import (budget_thresholds, excess_payments_bound, two_type_misreport_prob,
                     two_type_params)
from .core import GameConfig
from .equilibrium import bp_equilibrium
from .errors import InputError
from .record import Record


class CostReport(Record):
    """`dominates` is `cost_audit <= cost_no_audit`.  `fine_threshold`, set
    for a multi-type game with positive headroom, is the fine at which that
    verdict flips."""

    _fields = ("cost_no_audit", "cost_audit", "budget_component", "excess_component",
               "regime_note", "fine_threshold")

    def __init__(self, cost_no_audit: Fraction, cost_audit: Fraction,
                 budget_component: Fraction, excess_component: Fraction,
                 regime_note: str = "", fine_threshold: Optional[Fraction] = None):
        self._set(cost_no_audit, cost_audit, budget_component, excess_component, regime_note,
                  fine_threshold)

    @property
    def dominates(self) -> bool:
        return self.cost_audit <= self.cost_no_audit


def cost_no_audit(cfg: GameConfig) -> Fraction:
    """Status-quo cost: the excess payments n * sum of q_m * (f_max - f_m)
    when every type claims the top credit."""
    top = max(cfg.alloc)
    return cfg.num_users * sum((q * (top - f) for q, f in zip(cfg.prior, cfg.alloc)), Fraction(0))


def cost_audit_two_type(cfg: GameConfig) -> CostReport:
    """Audit-mechanism cost at the pinned two-type budget.

    The budget is the two-type existence threshold times the coalition
    size; the no-audit cost, n*q_lo*df with two types, and the excess
    n*q_lo*p*df scale with the population.  Below the prior threshold
    c/(k + df) the mechanism sets no budget aside and collapses to the
    status quo exactly.
    """
    if not cfg.is_two_type:
        raise InputError("two-type cost analysis needs exactly two types")
    q_lo, _, df = two_type_params(cfg)
    p = two_type_misreport_prob(cfg)
    no_audit = cost_no_audit(cfg)
    budget = cfg.coalition_size * budget_thresholds(cfg).threshold_two_type
    excess = no_audit * p
    note = ""
    # Equal credits leave nothing to misreport for, whatever p is.
    if p == 1 and df > 0:
        note = (f"prior {q_lo} at or below {cfg.audit_cost}/({cfg.fine}+{df}): "
                "no audit budget is set aside and the mechanism reduces to no-audit")
    return CostReport(
        cost_no_audit=no_audit,
        cost_audit=budget + excess,
        budget_component=budget,
        excess_component=excess,
        regime_note=note,
    )


def cost_audit_multitype(cfg: GameConfig) -> CostReport:
    """Audit-mechanism cost with more than two types.

    Each user gets the general-threshold budget c*df/(k+df) and the
    equilibrium excess from the no-audit program; totals scale with the
    population.  With positive headroom (the no-audit cost less the excess,
    per user) the audit cost dominates exactly when the fine reaches the
    reported threshold.  The budget is pinned, so a configured budget plays
    no part, as in the two-type cost.
    """
    if cfg.n_types <= 2:
        raise InputError("multitype cost analysis needs more than two types")
    df = cfg.delta_f_max
    per_user_budget = excess_payments_bound(cfg)
    eq = bp_equilibrium(cfg.replace(budget=None))
    per_user_excess = eq.excess
    budget = cfg.num_users * per_user_budget
    excess = cfg.num_users * per_user_excess

    # The top credit less the expected credit of an equilibrium signal.
    no_audit = cost_no_audit(cfg)
    headroom = no_audit / cfg.num_users - per_user_excess
    fine_threshold, note = None, ""
    if headroom > 0:
        # budget + excess <= no_audit, solved for the fine.
        fine_threshold = df * (cfg.audit_cost / headroom - 1)
    else:
        note = "every claim already reaches the top credit"
    return CostReport(
        cost_no_audit=no_audit,
        cost_audit=budget + excess,
        budget_component=budget,
        excess_component=excess,
        regime_note=note,
        fine_threshold=fine_threshold,
    )


def compare(cfg: GameConfig) -> CostReport:
    """The cost report of `cfg`: the two-type or the multi-type one, by its number of types."""
    if cfg.is_two_type:
        return cost_audit_two_type(cfg)
    return cost_audit_multitype(cfg)
