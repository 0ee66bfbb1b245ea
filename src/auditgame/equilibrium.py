"""Equilibrium constructions and their verification.

Any game where the budget does not bind has the no-audit equilibrium of
the program that `lp.solve_integer` solves (`bp_equilibrium`).  The
two-type game has a closed-form unique equilibrium; a budgeted two-type
single-user game has an equilibrium for every budget, switching between
a budget-exhausting branch and the closed form at a threshold.  Games
dispatch through the budget regime of `bounds.budget_thresholds`: every
budgeted two-type game below the coalition threshold goes to that
construction, and a larger game below it gets a structured error rather
than a bogus profile.

Equilibria here lean on the audit rule resolving exact indifference to
no-audit.  If an administrator instead audited with positive probability
at indifference, no exact equilibrium would survive, but strategies with
misreporting mass just below the indifference point come within any
epsilon of the optimal utility, so near-equilibria always exist.  This
library models the no-audit tie-break only.
"""

from __future__ import annotations

from fractions import Fraction

from . import core, lp
from .bounds import Regime, budget_thresholds, excess_payments_bound, two_type_misreport_prob
from .core import (AuditPolicy, GameConfig, IntegerGame, Strategy, StrategyProfile,
                   positive_part, two_type_strategy)
from .errors import InputError, NonexistenceError, RegimeError
from .numeric import sig15
from .record import Record


class EquilibriumResult(Record):
    """A per-user equilibrium together with its headline quantities.

    All users play the same strategy (multi-user games with a sufficient
    budget decompose into identical single-user games), so the utilities
    and excess are per user; aggregate totals live in the cost module.
    `user_utilities` is aligned with cfg.types; `provenance` is one of
    lp, closed_form_two_type and budgeted_two_type.

    `multiplicity` is set when the no-audit program has more than one
    optimum.  `unique` is set when the construction proves this is the
    game's only equilibrium, which only the two-type closed form does; a
    unique program optimum leaves both clear.
    """

    _fields = ("profile", "user_utilities", "admin_utility", "excess", "provenance",
               "multiplicity", "unique", "notes")

    def __init__(self, profile: StrategyProfile, user_utilities: tuple,
                 admin_utility: Fraction, excess: Fraction, provenance: str,
                 multiplicity: bool = False, unique: bool = False, notes: tuple = ()):
        self._set(profile, user_utilities, admin_utility, excess, provenance, multiplicity,
                  unique, notes)

    def strategy(self) -> Strategy:
        return self.profile.strategy

    def audit(self) -> AuditPolicy:
        return self.profile.audit

    def user_utility_avg(self, cfg: GameConfig) -> Fraction:
        return sum((q * u for q, u in zip(cfg.prior, self.user_utilities)), Fraction(0))

    def to_text(self, cfg: GameConfig) -> str:
        lines = [
            f"provenance: {self.provenance}",
            f"types: {','.join(cfg.types)}",
        ]
        for m, label in enumerate(cfg.types):
            row = ",".join(sig15(p) for p in self.strategy().rows[m])
            lines.append(f"strategy[{label}]: {row}")
            exact = ",".join(str(p) for p in self.strategy().rows[m])
            lines.append(f"strategy_exact[{label}]: {exact}")
        lines.append("audit: " + ",".join(sig15(p) for p in self.audit().probs))
        for label, u in zip(cfg.types, self.user_utilities):
            lines.append(f"user_utility[{label}]: {sig15(u)}")
        lines.append(f"user_utility_avg: {sig15(self.user_utility_avg(cfg))}")
        lines.append(f"admin_utility: {sig15(self.admin_utility)}")
        lines.append(f"excess: {sig15(self.excess)}")
        lines.append(f"excess_exact: {self.excess}")
        lines.append(f"multiplicity: {str(self.multiplicity).lower()}")
        lines.append(f"unique: {str(self.unique).lower()}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def equilibrium_result(cfg: GameConfig, pi: Strategy, sigma: AuditPolicy, excess: Fraction,
                       provenance: str, **flags) -> EquilibriumResult:
    """The result of profile (pi, sigma), with each type's and the
    administrator's utility; `flags` are the remaining result fields."""
    user_utils = tuple(core.user_utility_type(pi, sigma, t, cfg) for t in cfg.types)
    return EquilibriumResult(StrategyProfile(pi, sigma, cfg.num_users), user_utils,
                             core.admin_utility(pi, sigma, cfg), excess, provenance, **flags)


def two_type_closed_form(cfg: GameConfig) -> EquilibriumResult:
    """Unique no-audit equilibrium of the two-type game."""
    if not cfg.is_two_type:
        raise InputError("the closed form applies to two-type games only")
    p = two_type_misreport_prob(cfg)
    pi = two_type_strategy(cfg, p)
    sigma = AuditPolicy.zero(2)
    return equilibrium_result(cfg, pi, sigma, core.excess_payments(pi, sigma, cfg),
                              "closed_form_two_type", unique=True)


def budgeted_two_type_equilibrium(cfg: GameConfig) -> EquilibriumResult:
    """Two-type equilibrium under any finite budget.

    Where the budget binds (`budget_thresholds`) the low type misreports
    always and the administrator exhausts its budget on the high signal;
    elsewhere the closed form applies with no audits.  With more than one
    user a binding positive budget admits no equilibrium.
    """
    if not cfg.is_two_type:
        raise InputError("the budgeted construction applies to two-type games only")
    if cfg.budget is None:
        raise InputError("budgeted construction needs a finite budget; use the closed form")
    analysis = budget_thresholds(cfg)
    threshold = analysis.threshold_two_type
    if not analysis.budget_binds:
        return two_type_closed_form(cfg)

    if cfg.num_users > 1 and cfg.budget > 0:
        raise NonexistenceError(
            f"no signaling equilibrium: {cfg.num_users} users with budget "
            f"{cfg.budget} strictly between 0 and the two-type existence "
            f"threshold {threshold}",
            budget=cfg.budget,
            threshold_two_type=threshold,
            threshold_general=analysis.threshold_general,
        )

    _, hi = cfg.low_high_indices()
    pi = two_type_strategy(cfg, 1)
    probs = [Fraction(0), Fraction(0)]
    probs[hi] = core.audited_probability(cfg)
    sigma = AuditPolicy(tuple(probs))
    return equilibrium_result(cfg, pi, sigma, core.excess_payments(pi, sigma, cfg),
                              "budgeted_two_type",
                              notes=(f"budget-exhausting branch; threshold {threshold}",))


def _check_optimum(cfg: GameConfig, game: IntegerGame, X, d) -> Fraction:
    """Check the optimum X/d of `cfg`'s program; return its excess payments.

    The internal consistency of every solve, decided exactly on the
    integers of `game`: no under-reporting mass, the audit best response
    vanishes, and both equilibrium bounds hold.
    """
    n = cfg.n_types
    P, F, C, K = game.prior, game.alloc, game.cost, game.fine
    for m in range(n):
        for s in range(n):
            if F[s] < F[m] and X[m][s] != 0:
                raise RuntimeError("optimum places mass on an under-report")
    if any(g > 0 for g in core.audit_margins(P, F, C, K, X)):
        raise RuntimeError("audit best response to the optimum is not identically zero")
    for m in range(n):
        for s in range(n):
            x = X[m][s]
            if s != m and x:
                # x/d > min(1, num/den), or x/d > 1 when den <= 0
                num, den = core.misreport_cap_ratio(P[s], P[m], C, K, F[s] - F[m])
                if x > d or (den > 0 and x * den > d * num):
                    raise RuntimeError("optimum exceeds a per-pair misreporting cap")
    excess = Fraction(core.excess_sum(P, F, X, [1] * n),
                      game.prior_den * game.money_den * d)
    if excess > excess_payments_bound(cfg):
        raise RuntimeError("optimum exceeds the aggregate excess-payments cap")
    return excess


def bp_equilibrium(cfg: GameConfig) -> EquilibriumResult:
    """No-audit equilibrium via the program; audits never occur on path.

    Raises `RegimeError` where the budget binds (`BudgetAnalysis.budget_binds`);
    `signaling_equilibrium` handles those budgets.

    Types of zero prior probability are dropped before the solve (an
    `InputError` if fewer than two types are left), and each is put back
    as a truthful row, pi(m|m) = 1; they add nothing to the excess.  The
    program is solved by `lp.solve_integer`: one run of the simplex loop
    from the truthful basis, over the columns that do not under-report,
    then the uniqueness test on the optimal face.  When the optimum is not
    unique the strategy is the lexicographically greatest optimum and the
    result carries the "alternate optima detected" note.  The optimum's
    invariants are checked on the solver's integers.
    """
    work = cfg.drop_zero_prior_types()
    if cfg.budget is not None and budget_thresholds(cfg).budget_binds:
        raise RegimeError(f"budget {cfg.budget} holds audits back, so the no-audit program "
                          "gives no equilibrium; use signaling_equilibrium")

    game = core.integer_game(work)
    X, d, multiple = lp.solve_integer(game)
    # Dropped zero-probability types add nothing to the excess.
    excess = _check_optimum(work, game, X, d)

    # Re-embed rows for any dropped zero-probability types as truthful.
    position = {label: i for i, label in enumerate(work.types)}
    work_index = [position.get(label) for label in cfg.types]
    rows = []
    for m, wm in enumerate(work_index):
        if wm is None:
            rows.append([d if s == m else 0 for s in range(cfg.n_types)])
        else:
            rows.append([0 if ws is None else X[wm][ws] for ws in work_index])
    pi = Strategy.from_integers(rows, d)
    notes = ("alternate optima detected",) if multiple else ()
    return equilibrium_result(cfg, pi, AuditPolicy.zero(cfg.n_types), excess, "lp",
                              multiplicity=multiple, notes=notes)


def signaling_equilibrium(cfg: GameConfig) -> EquilibriumResult:
    """Administrator-least-favorable signaling equilibrium for the regime.

    Unbudgeted games and budgets at or above the coalition threshold take
    the LP; any other two-type game takes `budgeted_two_type_equilibrium`.
    The returned excess is the tight upper bound on excess payments over
    all signaling equilibria of the instance.
    """
    analysis = budget_thresholds(cfg)
    regime = analysis.regime
    if regime in (Regime.UNCONSTRAINED, Regime.SUFFICIENT):
        result = bp_equilibrium(cfg)
    elif cfg.is_two_type:
        result = budgeted_two_type_equilibrium(cfg)
    else:
        raise NonexistenceError(
            f"no signaling equilibrium: budget {cfg.budget} lies below the "
            f"coalition-scaled existence threshold {analysis.threshold_coalition}",
            budget=cfg.budget,
            threshold_general=analysis.threshold_general,
        )
    return result.replace(notes=result.notes + (
        "excess is the tight upper bound over all signaling equilibria",
        f"regime {regime.value}"))


class VerificationReport(Record):
    """Outcome of checking a profile against the equilibrium conditions.

    `per_type_gain` maps each type label to the best utility improvement
    found.
    """

    _fields = ("br_matches", "expected_audit", "actual_audit", "per_type_gain", "grid_slack",
               "notes")

    def __init__(self, br_matches: bool, expected_audit: tuple, actual_audit: tuple,
                 per_type_gain: dict, grid_slack: Fraction, notes: tuple = ()):
        self._set(br_matches, expected_audit, actual_audit, per_type_gain, grid_slack, notes)

    @property
    def max_gain(self):
        return max(self.per_type_gain.values())

    @property
    def deviations_ok(self) -> bool:
        return all(g <= self.grid_slack for g in self.per_type_gain.values())

    @property
    def passed(self) -> bool:
        return self.br_matches and self.deviations_ok

    def to_text(self) -> str:
        lines = [
            f"passed: {str(self.passed).lower()}",
            f"audit_best_response_matches: {str(self.br_matches).lower()}",
            f"expected_audit: {','.join(sig15(p) for p in self.expected_audit)}",
            f"actual_audit: {','.join(sig15(p) for p in self.actual_audit)}",
            f"grid_slack: {sig15(self.grid_slack)}",
        ]
        for label, gain in self.per_type_gain.items():
            lines.append(f"max_gain[{label}]: {sig15(gain)}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def grid_slack(cfg: GameConfig, resolution: int) -> Fraction:
    """Utility Lipschitz bound over one grid cell: (df_max + k) / resolution."""
    return (cfg.delta_f_max + cfg.fine) / resolution


def _fill(items, steps: int) -> Fraction:
    """Best total of `steps` unit steps over (value per step, cap) items."""
    total = Fraction(0)
    for value, cap in sorted(items, key=lambda item: item[0], reverse=True):
        take = min(cap, steps)
        total += value * take
        steps -= take
    return total


def best_grid_deviation(pi: Strategy, sigma: AuditPolicy, cfg: GameConfig,
                        resolution: int) -> dict:
    """Per-type best gain over rows on the 1/resolution grid.

    Type m's candidate rows replace row m of `pi`; each is scored against
    the administrator's (budget-capped) best response to the modified
    strategy, and the baseline is type m's utility under `sigma`.  Returns
    {type label: best gain}, the maximum that enumerating every grid row
    finds (`tests/reference_oracle.py` does that enumeration); see
    `verify_equilibrium` for why the greedy below is exact.
    """
    n = cfg.n_types
    audited_prob = core.audited_probability(cfg)
    coef = [[core.audit_margin_coef(cfg, s, m) for m in range(n)] for s in range(n)]
    margin = core.audit_margins(cfg.prior, cfg.alloc, cfg.audit_cost, cfg.fine, pi.rows)
    gains = {}
    for m in range(n):
        f_m = cfg.alloc[m]
        # caps[s]: the most steps k signal s takes unaudited, i.e. while the
        # other rows' margin + (k/res)·coef(s, m) <= 0 (a tie is not audited);
        # the diagonal is never fined.
        caps = []
        for s in range(n):
            other = margin[s] - pi.rows[m][s] * coef[s][m]
            if s == m:
                cap = resolution
            elif coef[s][m] > 0:
                cap = min(resolution, max(0, (-other * resolution) // coef[s][m]))
            else:
                cap = 0 if other > 0 else resolution
            caps.append(cap)
        safe = [(cfg.alloc[s], caps[s]) for s in range(n)]
        best = _fill(safe, resolution)
        for j in range(n):
            if caps[j] == resolution:
                continue
            over = positive_part(cfg.alloc[j] - f_m)
            audited = cfg.alloc[j] - audited_prob * (over + cfg.fine)
            forced = caps[j] + 1
            items = safe[:j] + [(audited, resolution)] + safe[j + 1:]
            best = max(best, forced * audited + _fill(items, resolution - forced))
        baseline = core.user_utility_type(pi, sigma, cfg.types[m], cfg)
        gains[cfg.types[m]] = best / resolution - baseline
    return gains


def verify_equilibrium(result: EquilibriumResult, cfg: GameConfig,
                       resolution: int = 200) -> VerificationReport:
    """Check the audit best response and find each type's best deviation.

    A deviation replaces one type's row by a row on the 1/resolution grid,
    scored against the administrator's recomputed best response; the
    report holds each type's best gain on that grid, computed exactly
    without enumerating the C(res+n-1, n-1) rows.  Gains below the
    reported grid slack are indistinguishable from discretization.
    Failures come back in the report rather than as exceptions.

    Why the greedy in `best_grid_deviation` finds the grid maximum.  Fix
    the other rows and let type m put k_s of the `res` steps on signal s.
    Signal s is audited exactly when its margin from the other rows plus
    (k_s/res)·coef(s, m) is positive, so its audit decision depends on
    k_s alone and the row's utility is a separable sum of g_s(k_s).  For
    s != m, coef(s, m) = q_m·((f_s−f_m)⁺ + k − c) ≥ 0 because k ≥ c, so
    the unaudited steps form an interval [0, K_s]: there g_s(k) =
    k·f_s/res, and above K_s g_s(k) = k·(f_s − a·((f_s−f_m)⁺ + k))/res,
    a the audited probability; the diagonal is never penalised (K_m =
    res).  If signals i and j are both audited and j's audited value is
    at least i's, moving all of i's steps onto j keeps j audited (the
    audited set has no upper cap), leaves i at the unpenalised zero and
    loses nothing.  So some maximum has at most one audited signal, and
    the grid maximum is the best of n cases: none audited (each k_s in
    [0, K_s]), or only j audited (k_j > K_j, every other k_s in [0, K_s]).
    Each case is a linear objective over boxes with sum k_s = res, solved
    exactly by filling the best value per step first.  The cost is
    O(n² log n) per type and does not depend on `res`.
    """
    if resolution < 10:
        raise InputError("verification resolution must be at least 10")
    pi = result.strategy()
    sigma = result.audit()
    expected = core.best_response(pi, cfg)
    br_matches = expected.probs == sigma.probs
    notes = []
    if not br_matches:
        notes.append("profile audit policy is not the best response to its strategy")
    return VerificationReport(
        br_matches=br_matches,
        expected_audit=expected.probs,
        actual_audit=sigma.probs,
        per_type_gain=best_grid_deviation(pi, sigma, cfg, resolution),
        grid_slack=grid_slack(cfg, resolution),
        notes=tuple(notes),
    )
