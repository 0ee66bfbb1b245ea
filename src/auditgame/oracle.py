"""The non-existence probe for budgeted two-user, two-type games.

Below the two-type existence threshold no equilibrium exists.  The probe
backs that claim on a grid: it walks every profile of misreporting
probabilities (p1, p2) and certifies each with an explicit profitable
deviation and its exact utility gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import GameConfig
from .equilibrium import _two_type_params, budget_thresholds, two_type_misreport_prob
from .errors import InputError
from .numeric import sig15


@dataclass(frozen=True)
class ProbeReport:
    resolution: int
    budget: Fraction
    threshold: Fraction
    total_profiles: int
    certified: int
    case_counts: dict
    traces: tuple

    @property
    def fraction_certified(self) -> Fraction:
        return Fraction(self.certified, self.total_profiles)

    @property
    def complete(self) -> bool:
        return self.certified == self.total_profiles

    def to_text(self) -> str:
        lines = [
            f"resolution: {self.resolution}",
            f"budget: {sig15(self.budget)}",
            f"threshold: {sig15(self.threshold)}",
            f"profiles: {self.total_profiles}",
            f"certified: {self.certified}",
            f"fraction_certified: {sig15(self.fraction_certified)}",
        ]
        for name, count in sorted(self.case_counts.items()):
            lines.append(f"case[{name}]: {count}")
        for t in self.traces:
            lines.append(f"trace: {t}")
        return "\n".join(lines) + "\n"


def nonexistence_probe(cfg: GameConfig, resolution: int) -> ProbeReport:
    """Certify a profitable unilateral deviation at every quantized profile.

    Two users with a shared prior, two types, and a positive budget below
    the two-type threshold: every profile of misreporting probabilities
    (p1, p2) admits a strict improvement for someone, so no equilibrium
    exists.  The probe walks the full grid and certifies each profile with
    an explicit deviation and its exact utility gain.
    """
    if resolution < 10:
        raise InputError("grid resolution must be at least 10")
    if not cfg.is_two_type:
        raise InputError("the probe supports two-type games only")
    if cfg.num_users != 2:
        raise InputError("the probe models exactly two users")
    if cfg.budget is None or cfg.budget <= 0:
        raise InputError("the probe needs a positive finite budget")
    analysis = budget_thresholds(cfg)
    threshold = analysis.threshold_two_type
    if cfg.budget >= threshold:
        raise InputError(
            f"budget {cfg.budget} is at or above the two-type existence "
            f"threshold {threshold}; equilibria exist there"
        )

    _, _, q_lo, q_hi, df = _two_type_params(cfg)
    p_star = two_type_misreport_prob(cfg)
    c, k = cfg.audit_cost, cfg.fine

    def solo_utility(p):
        # Unaudited utility of a user misreporting with probability p.
        return q_lo * p * df

    certified = 0
    cases = {"below-threshold-raise": 0, "undercut-raise": 0,
             "tie-at-threshold-jump": 0, "tie-undercut": 0}
    traces = []
    total = (resolution + 1) ** 2
    half_share = Fraction(1, 2) * cfg.budget / c  # equal split at a two-way tie

    for i in range(resolution + 1):
        p1 = Fraction(i, resolution)
        for j in range(resolution + 1):
            p2 = Fraction(j, resolution)
            if p1 < p_star or p2 < p_star:
                # The under-shooting user rises to the audit-indifference
                # point, where it is still never audited.
                p_old = min(p1, p2)
                gain = solo_utility(p_star) - solo_utility(p_old)
                name = "below-threshold-raise"
            elif p1 != p2:
                # The lower violator rises toward the higher one; the
                # budget chases the maximal violator, so it stays unaudited.
                p_low, p_high = min(p1, p2), max(p1, p2)
                target = (p_low + p_high) / 2
                gain = solo_utility(target) - solo_utility(p_low)
                name = "undercut-raise"
            elif p1 == p_star:
                # Tied exactly at indifference: jumping to certain
                # misreporting beats it whenever the budget is below the
                # threshold.
                audited = min(Fraction(1), cfg.budget / c) if c > 0 else Fraction(1)
                util_jump = q_lo * (df - audited * (k + df))
                gain = util_jump - solo_utility(p_star)
                name = "tie-at-threshold-jump"
            else:
                # Tied strictly above indifference: each gets half the
                # budget; undercutting sheds the audit entirely.
                tied_util = q_lo * p1 * (df - half_share * (k + df))
                floor = p1 * (df - half_share * (k + df)) / df if df > 0 else Fraction(0)
                target = (max(floor, Fraction(0)) + p1) / 2
                gain = solo_utility(target) - tied_util
                name = "tie-undercut"
            if gain > 0:
                certified += 1
                cases[name] += 1
            if len(traces) < 3:
                rho1 = q_lo * p1 * (k + df) - (q_hi + q_lo * p1) * c
                traces.append(
                    f"p=({sig15(p1)},{sig15(p2)}) case={name} gain={sig15(gain)} rho1={sig15(rho1)}"
                )

    return ProbeReport(
        resolution=resolution,
        budget=cfg.budget,
        threshold=threshold,
        total_profiles=total,
        certified=certified,
        case_counts=cases,
        traces=tuple(traces),
    )
