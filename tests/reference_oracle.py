"""Enumerating grid oracles: the independent cross-checks for the library.

Each oracle recomputes from first principles (quantized strategies,
explicit per-signal audit tests, every grid row or profile visited one by
one) so that the closed forms, the solver and the exact verification can
be checked against a path that shares none of their shortcuts:

* `grid_best_strategy` searches every quantized no-audit-feasible
  strategy, against `lp.bp_equilibrium`;
* `deviation_search` scores every row on the 1/resolution grid, against
  `equilibrium.best_grid_deviation`, which it never calls;
* `coalition_deviation_search` scans joint deviations of up to three
  users in the two-type game;
* `walk_nonexistence_probe` walks all (resolution + 1)^2 profiles of the
  two-user probe, against `oracle.nonexistence_probe`, which certifies
  each region of profiles once.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from auditgame.bounds import budget_thresholds, two_type_misreport_prob, two_type_params
from auditgame.core import AuditPolicy, GameConfig, Strategy
from auditgame.errors import InputError
from auditgame.numeric import sig15
from auditgame.oracle import ProbeReport


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


def _positive_part(x):
    """(x)+: x where positive, else 0."""
    return x if x > 0 else 0


def _over_common_denominator(values):
    """(numerators, d): Fractions `values` as integers over their least common d."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _game_integers(cfg: GameConfig):
    """(q, prior_den, f, c, k, money_den): the prior as integers over its
    least common denominator, and the credits, the audit cost and the fine
    over theirs."""
    q, prior_den = _over_common_denominator(cfg.prior)
    money, money_den = _over_common_denominator(cfg.alloc + (cfg.audit_cost, cfg.fine))
    n = cfg.n_types
    return q, prior_den, money[:n], money[n], money[n + 1], money_den


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
    capped box contains every feasible point).

    The cap on pi(s|m) is min(1, q_s*c / (q_m*(k - c + f_s - f_m))), or 1
    when that denominator is not positive, and its step cap the floor of
    cap * resolution; both sides of the ratio are integers here."""
    q, _, f, c, k, _ = _game_integers(cfg)
    caps = {}
    for m in range(cfg.n_types):
        for s in range(cfg.n_types):
            if s == m or f[s] < f[m]:
                continue
            denom = q[m] * (k - c + f[s] - f[m])
            caps[(s, m)] = (resolution if denom <= 0
                            else min(resolution, resolution * q[s] * c // denom))
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

    The scan runs on integers: a row's steps, its objective and its audit
    margins are integers over resolution * prior_den * money_den, one
    positive scale for every row, so the comparisons are those of the
    exact values.
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
    q, prior_den, f, c, k, money_den = _game_integers(cfg)
    # Precompute, per candidate row, its objective contribution and its
    # additive contribution to each signal's audit-profitability margin
    # (rhs - lhs), so the joint scan below is pure addition.
    per_type = []
    for m in range(n):
        coords = [s for s in range(n) if (s, m) in caps]
        limits = [caps[(s, m)] for s in coords]
        entries = []
        for steps in _bounded_tuples(limits, resolution):
            row = [0] * n
            for s, st in zip(coords, steps):
                row[s] = st
            row[m] = resolution - sum(steps)
            margins = []
            obj = 0
            for s in range(n):
                mass = row[s] * q[m]
                margin = c * mass
                if m != s:
                    margin -= mass * (k + _positive_part(f[s] - f[m]))
                margins.append(margin)
                obj += mass * f[s]
            entries.append((tuple(row), tuple(margins), obj))
        per_type.append(entries)

    best = None
    best_rows = None
    evaluated = 0
    for combo in itertools.product(*per_type):
        evaluated += 1
        obj = 0
        margins = [0] * n
        for _, row_margins, row_obj in combo:
            obj += row_obj
            for s in range(n):
                margins[s] += row_margins[s]
        if any(mg < 0 for mg in margins):
            continue
        if best is None or obj > best:
            best = obj
            best_rows = tuple(entry[0] for entry in combo)
    strategy = Strategy(tuple(tuple(Fraction(st, resolution) for st in row) for row in best_rows))
    return GridSearchResult(
        strategy=strategy,
        objective=Fraction(best, resolution * prior_den * money_den),
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
    """Per-signal no-audit feasibility for a full strategy matrix, compared
    on integers: the rows over their least common denominator, and the
    game's numbers as `_game_integers` gives them."""
    n = cfg.n_types
    q, _, f, c, k, _ = _game_integers(cfg)
    cells, _ = _over_common_denominator([p for row in rows for p in row])
    for s in range(n):
        lhs = rhs = 0
        for m in range(n):
            mass = cells[m * n + s] * q[m]
            rhs += c * mass
            if m != s:
                lhs += mass * (k + _positive_part(f[s] - f[m]))
        if lhs > rhs:
            return False
    return True


# -- unilateral deviation search -----------------------------------------


def deviation_search(pi: Strategy, sigma: AuditPolicy, cfg: GameConfig, grid: GridSpec) -> dict:
    """Best per-type utility improvement over quantized row replacements.

    The baseline for each type is its utility under the profile (pi, sigma)
    as given, with the declared audit policy `sigma`; every candidate replacement row is scored
    against the administrator's recomputed best response, budget-capped
    when the game has a budget.  Returns {type label: best gain found}.

    The scan runs on integers.  The prior, the money amounts and the
    profile's rows each go over their own least common denominator here,
    so every audit test compares integers and every candidate's utility is
    an integer over res * money_den * audit_den, audit_den being the
    audited probability's denominator.  Signal s's audit test involves only
    the mass on s, so each (signal, steps) pair is scored once and each
    row's utility is the sum of its signals' scores.

    Every user plays `pi` and is audited by `sigma`, so the scan covers
    one user (the budget-coupled asymmetric case is the non-existence
    probe's job).
    """
    n = cfg.n_types
    res = grid.resolution
    q, _, f, c, k, money_den = _game_integers(cfg)
    cells, rows_den = _over_common_denominator([p for row in pi.rows for p in row])
    rows = [cells[i * n:(i + 1) * n] for i in range(n)]
    if cfg.budget is None or cfg.audit_cost == 0:
        audited_prob = Fraction(1)
    else:
        audited_prob = min(Fraction(1), cfg.budget / cfg.audit_cost)
    a_num, a_den = audited_prob.numerator, audited_prob.denominator
    gains = {}
    for m in range(n):
        baseline = Fraction(0)
        for s in range(n):
            credit = cfg.alloc[s]
            if s != m:
                credit -= sigma.probs[s] * (_positive_part(credit - cfg.alloc[m]) + cfg.fine)
            baseline += pi.rows[m][s] * credit
        # score[s][st]: the utility of st steps on signal s, in units of
        # 1/(res * money_den * audit_den).  The audit test lhs > rhs is scaled
        # by rows_den * res * prior_den * money_den: lhs sums
        # mass * (k + (f_s - f_mm)+) over the types mm != s, rhs sums c * mass
        # over every type, and type m's mass on s is st * step.
        step = q[m] * rows_den
        score = []
        for s in range(n):
            lhs = rhs = 0
            for mm in range(n):
                if mm != m:
                    mass = rows[mm][s] * q[mm] * res
                    rhs += c * mass
                    if mm != s:
                        lhs += mass * (k + _positive_part(f[s] - f[mm]))
            loss = 0 if s == m else k + _positive_part(f[s] - f[m])
            free, audited = f[s] * a_den, f[s] * a_den - a_num * loss
            score.append([st * (audited if lhs + st * step * loss > rhs + st * step * c else free)
                          for st in range(res + 1)])
        best = max(sum(score[s][st] for s, st in enumerate(steps))
                   for steps in _compositions(res, n))
        gains[cfg.types[m]] = Fraction(best, res * money_den * a_den) - baseline
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
    lo, hi = cfg.low_high_indices()
    q_lo, q_hi, df = cfg.prior[lo], cfg.prior[hi], cfg.alloc[hi] - cfg.alloc[lo]
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


def walk_nonexistence_probe(cfg: GameConfig, resolution: int) -> ProbeReport:
    """The probe as a walk: certify every quantized profile one by one.

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

    q_lo, q_hi, df = two_type_params(cfg)
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
