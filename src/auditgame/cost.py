"""Total-cost comparison: audit mechanism versus the no-audit status quo.

A mechanism's total cost is the budget set aside for audits plus the
excess payments made relative to fully truthful reporting.  Without
audits every user claims the largest credit, so the status-quo cost is
the full gap between the top credit and the truthful average.  The audit
mechanism pins its budget to the threshold that the equilibrium
dispatcher obeys (`cost_audit`); with two types its total cost never
exceeds the status quo, and with more types it does so exactly when the
fine reaches a threshold, where one exists.  `dominates` is the exact
comparison of the two totals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .bounds import budget_thresholds, two_type_params
from .core import GameConfig
from .equilibrium import bp_equilibrium
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


def cost_audit(cfg: GameConfig) -> CostReport:
    """Audit-mechanism cost of `cfg`, for any number of types.

    The budget is the one `budget_thresholds` sets for the dispatcher, at
    which `signaling_equilibrium` answers: the coalition size times the
    per-user threshold, which is the two-type existence threshold with two
    types and the aggregate excess cap c*df/(k + df) with more.  A
    configured budget plays no part.  The excess is the no-audit program's
    (`bp_equilibrium`) per user, times the n users; on a single-user
    two-type game that is the excess just above the threshold, since
    exactly at it the dispatcher returns the budget-exhausting equilibrium,
    which pays more.  With two types and a low-type prior at or below
    c/(k + df) the mechanism sets no budget aside and reduces to the status
    quo exactly.  With more types and positive headroom (the no-audit cost
    less the excess), the audit cost dominates exactly when the fine
    reaches the reported threshold.
    """
    analysis = budget_thresholds(cfg)
    excess = cfg.num_users * bp_equilibrium(cfg.replace(budget=None)).excess
    no_audit = cost_no_audit(cfg)
    headroom = no_audit - excess
    fine_threshold, note = None, ""
    if cfg.is_two_type:
        budget = cfg.coalition_size * analysis.threshold_two_type
        q_lo, _, df = two_type_params(cfg)
        # Every low type claims the high credit; equal credits leave nothing to misreport for.
        if headroom == 0 and df > 0:
            note = (f"prior {q_lo} at or below {cfg.audit_cost}/({cfg.fine}+{df}): "
                    "no audit budget is set aside and the mechanism reduces to no-audit")
    else:
        budget = analysis.threshold_coalition
        if headroom > 0:
            # budget + excess <= no_audit, solved for the fine.
            fine_threshold = cfg.delta_f_max * (cfg.coalition_size * cfg.audit_cost / headroom - 1)
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
