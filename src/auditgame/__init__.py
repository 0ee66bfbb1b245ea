"""Audit-game equilibria for artificial-currency benefits programs.

Computes no-audit signaling equilibria through an exact linear program,
evaluates misreporting and excess-payment caps, classifies budget regimes,
compares audit against no-audit total cost, reproduces the transit-benefits
case study as CSV, and implements a signature-backed currency ledger.
"""

from .core import (
    AuditPolicy,
    GameConfig,
    Strategy,
    StrategyProfile,
    admin_payoff,
    admin_utility,
    best_response,
    excess_payments,
    two_type_strategy,
    user_payoff,
    user_utility_avg,
    user_utility_type,
)
from .equilibrium import (
    BudgetAnalysis,
    EquilibriumResult,
    Regime,
    VerificationReport,
    budget_thresholds,
    budgeted_two_type_equilibrium,
    signaling_equilibrium,
    two_type_closed_form,
    verify_equilibrium,
)
from .errors import InputError, NonexistenceError, RegimeError
from .lp import LinearProgram, LPSolution, bp_equilibrium, build_bp_lp, solve_bp, solve_lp
from .bounds import (
    BoundReport,
    bound_report,
    excess_payments_bound,
    fine_for_tolerance,
    misreport_prob_bound,
)
from .cost import CostReport, compare, cost_audit_multitype, cost_audit_two_type, cost_no_audit
from .casestudy import SweepSpec, ftbp_preset, surface_preset, sweep_costs, sweep_misreport_surface
from .oracle import nonexistence_probe

__version__ = "0.1.0"

__all__ = [
    "AuditPolicy", "BoundReport", "BudgetAnalysis", "CostReport",
    "EquilibriumResult", "GameConfig", "InputError",
    "LinearProgram", "LPSolution", "NonexistenceError", "Regime",
    "RegimeError", "Strategy", "StrategyProfile", "SweepSpec",
    "VerificationReport", "admin_payoff", "admin_utility", "best_response",
    "bound_report", "bp_equilibrium", "budget_thresholds",
    "budgeted_two_type_equilibrium", "build_bp_lp", "compare",
    "cost_audit_multitype", "cost_audit_two_type", "cost_no_audit",
    "excess_payments", "excess_payments_bound", "fine_for_tolerance",
    "ftbp_preset", "misreport_prob_bound", "nonexistence_probe", "signaling_equilibrium",
    "solve_bp", "solve_lp", "surface_preset", "sweep_costs", "sweep_misreport_surface",
    "two_type_closed_form", "two_type_strategy", "user_payoff",
    "user_utility_avg", "user_utility_type", "verify_equilibrium",
]
