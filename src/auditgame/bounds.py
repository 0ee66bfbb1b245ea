"""Misreporting-probability and excess-payment caps, and their inversion.

Every equilibrium of the audit game keeps each off-diagonal strategy entry
below a per-pair cap and keeps total excess payments below an aggregate
cap; both shrink as the fine grows or the audit cost falls.  The caps hold
where the budget does not hold audits back (`BudgetAnalysis.budget_binds`).
"""

from __future__ import annotations

from fractions import Fraction

from .core import GameConfig, misreport_cap_ratio, raw_misreport_cap
from .errors import InputError
from .numeric import as_fraction
from .record import Record


def is_vacuous_pair(cfg: GameConfig, signal, truth) -> bool:
    """True when the per-pair cap degenerates to 1 for lack of a positive denominator."""
    s, m = cfg.index(signal), cfg.index(truth)
    _, denominator = misreport_cap_ratio(cfg.prior[s], cfg.prior[m], cfg.audit_cost, cfg.fine,
                                         cfg.alloc[s] - cfg.alloc[m])
    return denominator <= 0


def misreport_prob_bound(cfg: GameConfig, signal, truth) -> Fraction:
    """Equilibrium cap on the probability that type `truth` signals `signal`."""
    s, m = cfg.index(signal), cfg.index(truth)
    if s == m:
        raise InputError("the misreporting cap is defined for signal != truth")
    return raw_misreport_cap(cfg.prior[s], cfg.prior[m], cfg.audit_cost, cfg.fine,
                             cfg.alloc[s] - cfg.alloc[m])


def excess_payments_bound(cfg: GameConfig) -> Fraction:
    """Aggregate cap on equilibrium excess payments: c * df / (k + df)."""
    df = cfg.delta_f_max
    if df == 0:
        return Fraction(0)
    return cfg.audit_cost * df / (cfg.fine + df)


def fine_for_tolerance(cfg: GameConfig, max_excess) -> Fraction:
    """Smallest fine keeping the aggregate excess cap at or below `max_excess`.

    For tolerances at or above the audit cost the minimum legal fine
    (equal to the cost) already suffices.
    """
    max_excess = as_fraction(max_excess)
    if max_excess <= 0:
        raise InputError("excess tolerance must be positive")
    df = cfg.delta_f_max
    c = cfg.audit_cost
    if max_excess >= c or df == 0:
        return c
    return max(c, df * (c / max_excess - 1))


class BoundReport(Record):
    """Per-pair caps plus the aggregate cap for one game instance.

    `caps` maps (signal_label, truth_label) to a Fraction.
    `binding_pairs` lists the (signal, truth) pairs where a supplied
    equilibrium strategy attains its cap; `vacuous_pairs` lists pairs whose
    cap degenerated to 1.  When `budget_binds` the budget holds audits
    back, the caps do not apply, and the report claims none: `caps` is
    empty and `excess_cap` None.
    """

    _fields = ("caps", "excess_cap", "binding_pairs", "vacuous_pairs", "budget_binds")

    def __init__(self, caps: dict, excess_cap, binding_pairs: tuple, vacuous_pairs: tuple,
                 budget_binds: bool):
        self._set(caps, excess_cap, binding_pairs, vacuous_pairs, budget_binds)

    def rows(self):
        """CSV-ready (signal, truth, cap) rows in type order."""
        for (s, m), cap in self.caps.items():
            yield s, m, cap


def bound_report(cfg: GameConfig, strategy=None) -> BoundReport:
    """The caps that hold on every equilibrium of `cfg`; none where its
    budget binds (`equilibrium.budget_thresholds`)."""
    # No budget never binds, so a game without one loads no equilibrium
    # module or solver here.
    if cfg.budget is not None:
        from .equilibrium import budget_thresholds
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
            cap = misreport_prob_bound(cfg, s_label, m_label)
            caps[(s_label, m_label)] = cap
            if is_vacuous_pair(cfg, s_label, m_label):
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
