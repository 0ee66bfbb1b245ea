"""Brute-force cross-checks: grid search, deviation scans, and the
non-existence probe for budgeted two-user games.

Everything here recomputes from first principles (quantized strategies,
explicit best responses, case-by-case deviation certificates) so the
closed forms, the solver and the exact verification can be checked
against an independent path: `deviation_search` enumerates every grid row
that `equilibrium.best_grid_deviation` reaches in closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import core
from .core import GameConfig, Strategy, StrategyProfile, _positive_part
from .equilibrium import budget_thresholds, grid_slack, two_type_misreport_prob
from .errors import InputError
from .numeric import sig15


@dataclass(frozen=True)
class GridSpec:
    """Probability quantization: multiples of 1/resolution.

    `max_enumeration` caps the number of strategies a joint search may
    visit; larger searches drop to a coarser effective resolution and
    flag it in their result.
    """

    resolution: int = 200
    max_enumeration: int = 2_000_000

    def __post_init__(self):
        if self.resolution < 10:
            raise InputError("grid resolution must be at least 10")
        if self.max_enumeration < 1000:
            raise InputError("enumeration cap is too small to be useful")


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _pair_caps(cfg: GameConfig, resolution: int):
    """Per-coordinate step caps for over-report entries, from the per-signal
    constraints with everything else dropped (a necessary condition, so the
    capped box contains every feasible point)."""
    caps = {}
    for m in range(cfg.n_types):
        for s in range(cfg.n_types):
            if s == m or cfg.alloc[s] < cfg.alloc[m]:
                continue
            denom = cfg.prior[m] * (cfg.fine - cfg.audit_cost + cfg.alloc[s] - cfg.alloc[m])
            if denom <= 0:
                cap = Fraction(1)
            else:
                cap = min(Fraction(1), cfg.prior[s] * cfg.audit_cost / denom)
            caps[(s, m)] = int(cap * resolution)  # floor
    return caps


@dataclass(frozen=True)
class GridSearchResult:
    strategy: Strategy
    objective: Fraction
    resolution_used: int
    coarse: bool
    points_evaluated: int


def grid_best_strategy(cfg: GameConfig, grid: GridSpec) -> GridSearchResult:
    """Exhaustive search over quantized no-audit-feasible strategies.

    Mass on under-reports is pinned to the diagonal: moving it there never
    shrinks the objective and never tightens a constraint when the fine
    covers the audit cost, so the restricted search still finds the
    global grid optimum.  When the capped joint grid would exceed the
    enumeration cap the resolution is halved until it fits (coarse mode).
    """
    n = cfg.n_types
    resolution = grid.resolution
    coarse = False
    while True:
        caps = _pair_caps(cfg, resolution)
        size = 1
        for m in range(n):
            limits = [caps[(s, m)] for s in range(n) if (s, m) in caps]
            size *= max(_count_rows(limits, resolution), 1)
        if size <= grid.max_enumeration or resolution <= 10:
            break
        resolution = max(10, resolution // 2)
        coarse = True

    caps = _pair_caps(cfg, resolution)
    # Precompute, per candidate row, its objective contribution and its
    # additive contribution to each signal's audit-profitability margin
    # (rhs - lhs), so the joint scan below is pure addition.
    per_type = []
    for m in range(n):
        coords = [s for s in range(n) if (s, m) in caps]
        limits = [caps[(s, m)] for s in coords]
        entries = []
        for steps in _bounded_tuples(limits, resolution):
            row = [Fraction(0)] * n
            used = 0
            for s, st in zip(coords, steps):
                row[s] = Fraction(st, resolution)
                used += st
            row[m] = Fraction(resolution - used, resolution)
            margins = []
            obj = Fraction(0)
            for s in range(n):
                mass = row[s] * cfg.prior[m]
                margin = cfg.audit_cost * mass
                if m != s:
                    margin -= mass * (cfg.fine + _positive_part(cfg.alloc[s] - cfg.alloc[m]))
                margins.append(margin)
                obj += mass * cfg.alloc[s]
            entries.append((tuple(row), tuple(margins), obj))
        per_type.append(entries)

    best = None
    best_rows = None
    evaluated = 0
    for combo in itertools.product(*per_type):
        evaluated += 1
        obj = Fraction(0)
        margins = [Fraction(0)] * n
        for _, row_margins, row_obj in combo:
            obj += row_obj
            for s in range(n):
                margins[s] += row_margins[s]
        if any(mg < 0 for mg in margins):
            continue
        if best is None or obj > best:
            best = obj
            best_rows = tuple(entry[0] for entry in combo)
    strategy = Strategy(tuple(best_rows))
    return GridSearchResult(
        strategy=strategy,
        objective=best,
        resolution_used=resolution,
        coarse=coarse,
        points_evaluated=evaluated,
    )


def _count_rows(limits, resolution) -> int:
    """Number of step tuples within per-coordinate limits and a total of at
    most `resolution` (the diagonal absorbs the remainder)."""
    ways = [0] * (resolution + 1)
    ways[0] = 1
    for lim in limits:
        prefix = [0] * (resolution + 2)
        for t in range(resolution + 1):
            prefix[t + 1] = prefix[t] + ways[t]
        ways = [
            prefix[t + 1] - prefix[max(0, t - lim)]
            for t in range(resolution + 1)
        ]
    return sum(ways)


def _bounded_tuples(limits, total_cap):
    if not limits:
        yield ()
        return
    head_cap = min(limits[0], total_cap)
    for head in range(head_cap + 1):
        for rest in _bounded_tuples(limits[1:], total_cap - head):
            yield (head,) + rest


def _feasible(cfg: GameConfig, rows) -> bool:
    """Per-signal no-audit feasibility for a full strategy matrix."""
    n = cfg.n_types
    for s in range(n):
        lhs = Fraction(0)
        rhs = Fraction(0)
        for m in range(n):
            mass = rows[m][s] * cfg.prior[m]
            rhs += cfg.audit_cost * mass
            if m != s:
                lhs += mass * (cfg.fine + _positive_part(cfg.alloc[s] - cfg.alloc[m]))
        if lhs > rhs:
            return False
    return True


# -- unilateral deviation search -----------------------------------------


def deviation_search(profile: StrategyProfile, cfg: GameConfig, grid: GridSpec) -> dict:
    """Best per-type utility improvement over quantized row replacements.

    The baseline for each type is its utility under the profile as given
    (its declared audit policy); every candidate replacement row is scored
    against the administrator's recomputed best response, budget-capped
    when the game has a budget.  Returns {type label: best gain found}.

    Multi-user profiles must be symmetric; the scan covers one user (the
    budget-coupled asymmetric case is the non-existence probe's job).
    """
    if any(s != profile.strategies[0] for s in profile.strategies) or \
            any(a != profile.audits[0] for a in profile.audits):
        raise InputError("deviation search needs a symmetric profile; "
                         "use the non-existence probe for asymmetric two-user games")
    pi = profile.strategies[0]
    sigma = profile.audits[0]
    n = cfg.n_types
    res = grid.resolution
    gains = {}
    for m in range(n):
        baseline = core.user_utility_type(pi, sigma, cfg.types[m], cfg)
        # Contributions of the unchanged rows to each signal's audit test.
        lhs_other = [Fraction(0)] * n
        rhs_other = [Fraction(0)] * n
        for mm in range(n):
            if mm == m:
                continue
            for s in range(n):
                mass = pi.rows[mm][s] * cfg.prior[mm]
                rhs_other[s] += cfg.audit_cost * mass
                if mm != s:
                    lhs_other[s] += mass * (cfg.fine + _positive_part(cfg.alloc[s] - cfg.alloc[mm]))
        if cfg.budget is None or cfg.audit_cost == 0:
            audited_prob = Fraction(1)
        else:
            audited_prob = min(Fraction(1), cfg.budget / cfg.audit_cost)
        best = None
        q_m = cfg.prior[m]
        f_m = cfg.alloc[m]
        for steps in _compositions(res, n):
            util = Fraction(0)
            for s in range(n):
                if steps[s] == 0:
                    continue
                p = Fraction(steps[s], res)
                mass = p * q_m
                lhs = lhs_other[s]
                rhs = rhs_other[s] + cfg.audit_cost * mass
                if s != m:
                    lhs = lhs + mass * (cfg.fine + _positive_part(cfg.alloc[s] - f_m))
                audit = audited_prob if lhs > rhs else Fraction(0)
                penalty = Fraction(0)
                if s != m:
                    penalty = audit * (_positive_part(cfg.alloc[s] - f_m) + cfg.fine)
                util += p * (cfg.alloc[s] - penalty)
            if best is None or util > best:
                best = util
        gains[cfg.types[m]] = best - baseline
    return gains


# -- coalition deviations (two-type games, small coalitions) --------------


def coalition_deviation_search(cfg: GameConfig, coalition_size: int,
                               grid: GridSpec) -> Fraction:
    """Best joint gain for a coalition in the two-type shared-prior game.

    Members jointly pick misreporting probabilities while everyone else
    plays the closed-form equilibrium; the administrator re-optimizes with
    its budget split equally among tied maximal violators.  A deviation
    counts when every member gains weakly and someone gains strictly;
    the return value is the best strict gain achieved by any such
    deviation, or None when the grid contains none (the certificate).
    Supported up to coalitions of size 3; larger coalitions blow up
    combinatorially and are out of scope.
    """
    if not cfg.is_two_type:
        raise InputError("coalition scan supports two-type games only")
    if coalition_size < 1 or coalition_size > 3:
        raise InputError("coalition scan supports sizes 1 to 3")
    if coalition_size > cfg.num_users:
        raise InputError("coalition cannot exceed the number of users")
    lo, hi, q_lo, q_hi, df = _two_type_quantities(cfg)
    p_star = two_type_misreport_prob(cfg)
    res = grid.resolution
    base_util = q_lo * cfg.alloc[lo] + q_hi * cfg.alloc[hi] + q_lo * p_star * df

    best = None
    candidates = [Fraction(i, res) for i in range(res + 1)]
    for combo in itertools.product(candidates, repeat=coalition_size):
        sigmas = _budget_split(cfg, combo, p_star)
        gains = []
        for p_i, sig_i in zip(combo, sigmas):
            util = (q_lo * cfg.alloc[lo] + q_hi * cfg.alloc[hi]
                    + q_lo * p_i * (df - sig_i * (cfg.fine + df)))
            gains.append(util - base_util)
        if min(gains) >= 0 and max(gains) > 0:
            if best is None or max(gains) > best:
                best = max(gains)
    return best


def _two_type_quantities(cfg: GameConfig):
    lo, hi = cfg.low_high_indices()
    return lo, hi, cfg.prior[lo], cfg.prior[hi], cfg.alloc[hi] - cfg.alloc[lo]


def _budget_split(cfg: GameConfig, probs, p_star):
    """Audit probabilities per user under the priority rule: the budget goes
    to maximal violators first, split equally among ties, then cascades."""
    n = len(probs)
    sigmas = [Fraction(0)] * n
    if cfg.audit_cost == 0:
        return tuple(Fraction(1) if p > p_star else Fraction(0) for p in probs)
    budget = cfg.budget if cfg.budget is not None else cfg.audit_cost * n
    remaining = budget
    violators = sorted(
        (i for i, p in enumerate(probs) if p > p_star),
        key=lambda i: probs[i], reverse=True,
    )
    tier_start = 0
    while tier_start < len(violators) and remaining > 0:
        level = probs[violators[tier_start]]
        tier = [i for i in violators if probs[i] == level]
        share = min(Fraction(1), remaining / (cfg.audit_cost * len(tier)))
        for i in tier:
            sigmas[i] = share
        remaining -= cfg.audit_cost * share * len(tier)
        tier_start += len(tier)
    return tuple(sigmas)


# -- non-existence probe ---------------------------------------------------


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


def nonexistence_probe(cfg: GameConfig, grid: GridSpec) -> ProbeReport:
    """Certify a profitable unilateral deviation at every quantized profile.

    Two users with a shared prior, two types, and a positive budget below
    the two-type threshold: every profile of misreporting probabilities
    (p1, p2) admits a strict improvement for someone, so no equilibrium
    exists.  The probe walks the full grid and certifies each profile with
    an explicit deviation and its exact utility gain.
    """
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

    lo, hi, q_lo, q_hi, df = _two_type_quantities(cfg)
    p_star = two_type_misreport_prob(cfg)
    c, k = cfg.audit_cost, cfg.fine
    res = grid.resolution

    def solo_utility(p):
        # Unaudited utility of a user misreporting with probability p.
        return q_lo * p * df

    certified = 0
    cases = {"below-threshold-raise": 0, "undercut-raise": 0,
             "tie-at-threshold-jump": 0, "tie-undercut": 0}
    traces = []
    total = (res + 1) ** 2
    half_share = Fraction(1, 2) * cfg.budget / c  # equal split at a two-way tie

    for i in range(res + 1):
        p1 = Fraction(i, res)
        for j in range(res + 1):
            p2 = Fraction(j, res)
            name = None
            gain = None
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
        resolution=res,
        budget=cfg.budget,
        threshold=threshold,
        total_profiles=total,
        certified=certified,
        case_counts=cases,
        traces=tuple(traces),
    )
