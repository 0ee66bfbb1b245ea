"""The non-existence probe for budgeted two-user, two-type games.

Below the two-type existence threshold no equilibrium exists.  The probe
backs that claim on the 1/resolution grid of misreporting probabilities
(p1, p2): it splits the grid into four regions, on each of which one
deviation gains strictly, and certifies each region by the exact gain at
one of its profiles, at a cost that does not depend on the resolution.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import core
from .bounds import (budget_thresholds, excess_payments_bound, two_type_misreport_prob,
                     two_type_params)
from .core import GameConfig
from .errors import InputError
from .numeric import sig15
from .record import Record


class ProbeReport(Record):
    _fields = ("resolution", "budget", "threshold", "total_profiles", "certified",
               "case_counts", "traces")

    def __init__(self, resolution: int, budget: Fraction, threshold: Fraction,
                 total_profiles: int, certified: int, case_counts: dict, traces: tuple):
        self._set(resolution, budget, threshold, total_profiles, certified, case_counts, traces)

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


def _certificate(cfg: GameConfig, p_star: Fraction, p1: Fraction, p2: Fraction):
    """(case, gain) of the probe's deviation at profile (p1, p2): the gain is
    q_lo * df times a factor whose sign `nonexistence_probe` argues."""
    q_lo, _, df = two_type_params(cfg)
    low, high = min(p1, p2), max(p1, p2)
    if low < p_star:
        # The under-shooting user rises to the audit-indifference point,
        # where it is still never audited.
        case, factor = "below-threshold-raise", p_star - low
    elif low != high:
        # The lower violator rises halfway to the higher one; the budget
        # chases the maximal violator, so it stays unaudited.
        case, factor = "undercut-raise", (high - low) / 2
    elif p1 == p_star:
        # Tied exactly at indifference: jumping to certain misreporting
        # beats it whenever the budget is below the threshold.
        f_lo, f_hi = sorted(cfg.alloc)
        jump = core.signal_payoff(f_hi, f_lo, cfg.fine, core.audited_probability(cfg), False)
        case, factor = "tie-at-threshold-jump", (jump - f_lo) / df - p_star
    else:
        # Tied strictly above indifference, each audited with half the
        # budget: undercutting halfway to the tie's own floor p1 * alpha
        # sheds the audit entirely.
        alpha = 1 - cfg.budget / (2 * excess_payments_bound(cfg))
        case, factor = "tie-undercut", p1 * ((1 + max(alpha, 0)) / 2 - alpha)
    return case, q_lo * df * factor


def nonexistence_probe(cfg: GameConfig, resolution: int) -> ProbeReport:
    """Certify a profitable unilateral deviation at every quantized profile.

    Two users, two types, and 0 < budget < c*df*(1 - p*)/(k + df), which
    forces c > 0, df > 0, p* < 1 and q_lo > 0: every profile (p1, p2)
    admits a strict improvement for someone, so no equilibrium exists.

    With B = ceil(p* * resolution) grid values below p* and A the other
    resolution + 1 - B, the deviation splits the (resolution + 1)^2
    profiles into four regions: below-threshold-raise (min(p1, p2) < p*:
    (resolution + 1)^2 - A^2 profiles), undercut-raise (both at or above
    p*, unequal: A(A - 1)), tie-at-threshold-jump (p1 = p2 = p*: 1 if
    p* * resolution is an integer, else 0) and tie-undercut (the other A
    ties, p1 = p2 > p*).  On each region the gain is q_lo * df times a
    factor of one sign: p* - min(p1, p2); (p_high - p_low)/2; and
    p1 * ((1 + alpha+)/2 - alpha) with alpha = 1 - budget/(2 c df/(k + df))
    < 1, so p1(1 - alpha)/2 or p1(1/2 - alpha), both positive.  The tie at
    the threshold is one profile.  So the exact gain at a region's first
    profile in walk order (rows p1, then columns p2) certifies the region,
    and the cost does not depend on `resolution`.  The first three
    profiles of the walk are the traces.
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
    if not analysis.budget_binds:
        raise InputError(
            f"budget {cfg.budget} is at or above the two-type existence "
            f"threshold {threshold}; equilibria exist there"
        )

    p_star = two_type_misreport_prob(cfg)
    below = math.ceil(p_star * resolution)
    above = resolution + 1 - below
    on_grid = int(below == p_star * resolution)
    cases = {"below-threshold-raise": 0, "undercut-raise": 0,
             "tie-at-threshold-jump": 0, "tie-undercut": 0}
    # Each region's size and its first profile in walk order, as grid indices.
    for size, i, j in (((resolution + 1) ** 2 - above ** 2, 0, 0),
                       (above * (above - 1), below, below + 1),
                       (on_grid, below, below),
                       (above - on_grid, below + on_grid, below + on_grid)):
        if size:
            name, gain = _certificate(cfg, p_star, Fraction(i, resolution), Fraction(j, resolution))
            if gain > 0:
                cases[name] = size

    _, hi = cfg.low_high_indices()
    traces = []
    for j in range(3):
        p1, p2 = Fraction(0), Fraction(j, resolution)
        name, gain = _certificate(cfg, p_star, p1, p2)
        rho1 = core.audit_margins(cfg.prior, cfg.alloc, cfg.audit_cost, cfg.fine,
                                  core.two_type_strategy(cfg, p1).rows)[hi]
        traces.append(
            f"p=({sig15(p1)},{sig15(p2)}) case={name} gain={sig15(gain)} rho1={sig15(rho1)}"
        )

    return ProbeReport(
        resolution=resolution,
        budget=cfg.budget,
        threshold=threshold,
        total_profiles=(resolution + 1) ** 2,
        certified=sum(cases.values()),
        case_counts=cases,
        traces=tuple(traces),
    )
