"""Audit-game equilibria for benefits programs paid in program credits.

Computes no-audit signaling equilibria through an exact linear program,
evaluates misreporting and excess-payment caps, classifies budget regimes,
compares audit against no-audit total cost, reproduces the transit-benefits
case study as CSV, and implements a signature-backed currency ledger.

Importing the package loads no submodule: each public name, and each
submodule as `auditgame.<module>`, is imported on first access (PEP 562),
so a CLI call loads only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# The home submodule of each public name.
_HOME = {
    "AuditPolicy": "core", "BoundReport": "bounds", "BudgetAnalysis": "bounds",
    "CostReport": "cost", "EquilibriumResult": "equilibrium", "GameConfig": "core",
    "InputError": "errors", "NonexistenceError": "errors", "Regime": "bounds",
    "RegimeError": "errors",
    "Strategy": "core", "StrategyProfile": "core", "SweepSpec": "casestudy",
    "VerificationReport": "equilibrium", "admin_payoff": "core", "admin_utility": "core",
    "best_response": "core", "bound_report": "bounds", "bp_equilibrium": "equilibrium",
    "budget_thresholds": "bounds", "budgeted_two_type_equilibrium": "equilibrium",
    "compare": "cost", "cost_audit_multitype": "cost",
    "cost_audit_two_type": "cost", "cost_no_audit": "cost", "excess_payments": "core",
    "excess_payments_bound": "bounds", "fine_for_tolerance": "bounds",
    "ftbp_preset": "casestudy", "misreport_prob_bound": "bounds",
    "nonexistence_probe": "oracle", "signaling_equilibrium": "equilibrium",
    "surface_preset": "casestudy", "sweep_costs": "casestudy",
    "sweep_misreport_surface": "casestudy",
    "two_type_closed_form": "equilibrium", "two_type_strategy": "core",
    "user_payoff": "core", "user_utility_avg": "core", "user_utility_type": "core",
    "verify_equilibrium": "equilibrium",
}
_SUBMODULES = frozenset(("bounds", "casestudy", "cli", "core", "cost", "equilibrium", "errors",
                         "ledger", "lp", "numeric", "oracle"))

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
