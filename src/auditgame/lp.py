"""Linear program for the no-audit signaling optimum, plus an exact solver.

The program maximizes the average credit payout over row-stochastic user
strategies subject to one per-signal constraint stating that auditing that
signal is not profitable for the administrator.  Its optimal value, minus
the truthful payout, is the worst-case excess payment over all equilibria.

Two exact solvers on `fractions.Fraction`, both with Bland's anti-cycling
pivot rule:

* `solve_lp` is a generic two-phase primal simplex for any
  `LinearProgram`; it reports infeasible and unbounded programs.
* `solve_bp` is specialised to the no-audit program.  The truthful
  strategy is always feasible, so it skips phase 1 and starts phase 2 at
  the truthful basis, and it drops the under-report columns, which are
  zero in every optimum.  It hands degenerate or tied optima to
  `solve_lp`, so both solvers return the same solution on every game.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import core
from .core import GameConfig, Strategy
from .errors import InputError, RegimeError

LESS_EQUAL = "<="
EQUAL = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to the given rows, x >= 0.

    Columns are the strategy entries pi(signal | type); `variable_index`
    maps a (signal_label, type_label) pair to its column.
    """

    objective: tuple
    rows: tuple          # (coeffs tuple, relation, rhs) triples
    variable_index: dict
    column_labels: tuple  # (signal_label, type_label) per column

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def lower_bounds(self) -> tuple:
        """Every variable is bounded below by zero."""
        return (Fraction(0),) * self.n_vars

    def to_debug_text(self) -> str:
        """Plain-text rendering: objective row, then constraint rows."""
        names = [f"pi({s}|{m})" for (s, m) in self.column_labels]

        def terms(coeffs):
            parts = [f"{c}*{n}" for c, n in zip(coeffs, names) if c != 0]
            return " + ".join(parts) if parts else "0"

        lines = [f"max {terms(self.objective)}"]
        for coeffs, rel, rhs in self.rows:
            lines.append(f"{terms(coeffs)} {rel} {rhs}")
        lines.append("all pi >= 0")
        return "\n".join(lines)


@dataclass(frozen=True)
class LPSolution:
    values: dict                 # (signal_label, type_label) -> Fraction
    objective_value: Optional[Fraction]
    status: str
    multiplicity_flag: bool = False


def build_bp_lp(cfg: GameConfig) -> LinearProgram:
    """Assemble the no-audit program for a game with strictly positive prior."""
    if cfg.n_types < 2:
        raise InputError("need at least two types; a single type leaves no scope to misreport")
    if any(q == 0 for q in cfg.prior):
        raise InputError(
            "prior must be strictly positive here; drop zero-probability types first"
        )
    n = cfg.n_types
    col_labels = []
    index = {}
    for m in range(n):
        for s in range(n):
            index[(cfg.types[s], cfg.types[m])] = len(col_labels)
            col_labels.append((cfg.types[s], cfg.types[m]))

    def col(s, m):
        return m * n + s

    objective = [Fraction(0)] * (n * n)
    for m in range(n):
        for s in range(n):
            objective[col(s, m)] = cfg.prior[m] * cfg.alloc[s]

    rows = []
    # Row-stochasticity: each type's signal distribution sums to one.
    for m in range(n):
        coeffs = [Fraction(0)] * (n * n)
        for s in range(n):
            coeffs[col(s, m)] = Fraction(1)
        rows.append((tuple(coeffs), EQUAL, Fraction(1)))
    # Per-signal no-audit condition, with the cost side moved left.
    for s in range(n):
        coeffs = [Fraction(0)] * (n * n)
        for m in range(n):
            coeffs[col(s, m)] = core.audit_margin_coef(cfg, s, m)
        rows.append((tuple(coeffs), LESS_EQUAL, Fraction(0)))

    return LinearProgram(
        objective=tuple(objective),
        rows=tuple(rows),
        variable_index=index,
        column_labels=tuple(col_labels),
    )


# -- two-phase primal simplex with Bland's rule --------------------------


def _pivot(tableau, basis, row, col):
    """Pivot on (row, col) in place, touching only the pivot row's nonzeros."""
    prow = tableau[row]
    piv = prow[col]
    nonzero = [(j, v / piv) for j, v in enumerate(prow) if v != 0]
    for j, v in nonzero:
        prow[j] = v
    for r, trow in enumerate(tableau):
        if r != row:
            factor = trow[col]
            if factor != 0:
                for j, v in nonzero:
                    trow[j] -= factor * v
    basis[row] = col


def _leaving_row(tableau, basis, rows, enter):
    """Ratio test over `rows`, ties to the smallest basic column; -1 if unbounded."""
    leave = -1
    best = None
    for r in rows:
        a = tableau[r][enter]
        if a > 0:
            ratio = tableau[r][-1] / a
            if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                best = ratio
                leave = r
    return leave


def _run_simplex(tableau, basis, cost, n_cols):
    """Minimize cost over the tableau in place; Bland's rule throughout.

    Returns "optimal" or "unbounded".  `cost` has one entry per column;
    the tableau rows are (coefficients..., rhs).
    """
    m = len(tableau)
    while True:
        # Reduced costs relative to the current basis.
        reduced = list(cost)
        for r in range(m):
            cb = cost[basis[r]]
            if cb != 0:
                row = tableau[r]
                for j in range(n_cols):
                    if row[j] != 0:
                        reduced[j] -= cb * row[j]
        enter = -1
        for j in range(n_cols):
            if j not in basis and reduced[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, reduced
        leave = _leaving_row(tableau, basis, range(m), enter)
        if leave < 0:
            return UNBOUNDED, reduced
        _pivot(tableau, basis, leave, enter)


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve exactly; report alternate optima via `multiplicity_flag`.

    The flag is set when some non-basic structural or slack column has a
    zero reduced cost at the optimum, which signals that the optimal face
    contains more than one point (possibly only through degeneracy).
    """
    n = lp.n_vars
    ub_rows = [i for i, r in enumerate(lp.rows) if r[1] == LESS_EQUAL]
    n_slack = len(ub_rows)
    slack_of_row = {}
    for j, i in enumerate(ub_rows):
        slack_of_row[i] = n + j
    n_struct = n + n_slack
    m = len(lp.rows)
    n_total = n_struct + m  # one artificial per row keeps phase 1 uniform

    tableau = []
    basis = []
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        row = list(coeffs) + [Fraction(0)] * (n_slack + m) + [rhs]
        if rel == LESS_EQUAL:
            row[slack_of_row[i]] = Fraction(1)
        elif rel != EQUAL:
            raise InputError(f"unsupported relation {rel!r}")
        if rhs < 0:
            row = [-v for v in row]
        row[n_struct + i] = Fraction(1)
        tableau.append(row)
        basis.append(n_struct + i)

    # Phase 1: drive the artificials to zero.
    phase1_cost = [Fraction(0)] * n_struct + [Fraction(1)] * m
    status, _ = _run_simplex(tableau, basis, phase1_cost, n_total)
    infeas = sum(tableau[r][-1] for r in range(m) if basis[r] >= n_struct)
    if status != OPTIMAL or infeas != 0:
        return LPSolution({}, None, INFEASIBLE)

    # Pivot any leftover basic artificials out on a nonzero structural
    # entry; a fully zero row is redundant and its artificial stays at 0.
    for r in range(m):
        if basis[r] >= n_struct:
            for j in range(n_struct):
                if tableau[r][j] != 0:
                    _pivot(tableau, basis, r, j)
                    break

    # Phase 2: maximize the objective == minimize its negation.
    phase2_cost = [-c for c in lp.objective] + [Fraction(0)] * (n_slack + m)
    # Forbid artificials from re-entering by pricing them prohibitively.
    big = 1 + sum(abs(c) for c in lp.objective)
    for j in range(n_struct, n_total):
        phase2_cost[j] = Fraction(big)
    status, reduced = _run_simplex(tableau, basis, phase2_cost, n_total)
    if status == UNBOUNDED:
        return LPSolution({}, None, UNBOUNDED)

    assignment = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            assignment[basis[r]] = tableau[r][-1]
    multiplicity = any(
        j not in basis and reduced[j] == 0
        for j in range(n_struct)
    )
    return _optimal_solution(lp, assignment, multiplicity)


def _optimal_solution(lp: LinearProgram, assignment, multiplicity: bool) -> LPSolution:
    values = {key: assignment[colidx] for key, colidx in lp.variable_index.items()}
    objective_value = sum(c * x for c, x in zip(lp.objective, assignment))
    return LPSolution(values, objective_value, OPTIMAL, multiplicity)


# -- the no-audit program from the truthful basis ------------------------


def solve_bp(cfg: GameConfig) -> LPSolution:
    """Solve `build_bp_lp(cfg)` exactly; the same result as `solve_lp` on it.

    Phase 2 only, over the columns pi(s|m) with f_s >= f_m, starting at the
    truthful basis {pi(m|m)} + {slack_s}.  That basis is feasible because
    the audit row of signal s minus a_ss times the stochasticity row of
    type s has right-hand side c*q_s >= 0.  The reduced-cost row is the
    last tableau row and is pivoted with the others.

    At the optimum the pruned under-report columns are priced with the
    final duals.  When every basic value is positive and every nonbasic
    column, kept, pruned or slack, has a strictly negative reduced cost, the
    optimum of the full program is unique and nondegenerate, so its basis
    is unique too: `solve_lp` ends there with the same values and no
    multiplicity flag.  In every other case the result is
    `solve_lp(build_bp_lp(cfg))` itself.
    """
    lp = build_bp_lp(cfg)
    n = cfg.n_types
    obj = lp.objective
    coeffs = [row[0] for row in lp.rows]  # n stochasticity rows, then n audit rows

    def col(s, m):
        return m * n + s

    kept = [col(s, m) for m in range(n) for s in range(n) if cfg.alloc[s] >= cfg.alloc[m]]
    width = len(kept) + n  # kept columns, then one slack per audit row
    diag = [kept.index(col(m, m)) for m in range(n)]

    tableau = []
    for m in range(n):
        tableau.append([coeffs[m][o] for o in kept] + [Fraction(0)] * n + [Fraction(1)])
    for s in range(n):
        a_ss = coeffs[n + s][col(s, s)]
        row = [coeffs[n + s][o] - a_ss * coeffs[s][o] for o in kept] + [Fraction(0)] * n
        row[len(kept) + s] = Fraction(1)
        tableau.append(row + [-a_ss])
    basis = diag + [len(kept) + s for s in range(n)]
    # Reduced costs c_j - c_B B^-1 A_j; the last entry is minus the objective.
    reduced = [obj[o] for o in kept] + [Fraction(0)] * (n + 1)
    for m in range(n):
        cb = obj[col(m, m)]
        for j, v in enumerate(tableau[m]):
            if v != 0:
                reduced[j] -= cb * v
    tableau.append(reduced)

    rows = range(2 * n)
    while True:
        enter = next((j for j in range(width) if reduced[j] > 0), -1)
        if enter < 0:
            break
        leave = _leaving_row(tableau, basis, rows, enter)
        if leave < 0:
            return solve_lp(lp)  # cannot happen: the program is bounded
        _pivot(tableau, basis, leave, enter)

    # Unique optimum or not: any tie hands the game to the generic solver.
    basic = set(basis)
    if any(tableau[r][-1] == 0 for r in rows):
        return solve_lp(lp)
    if any(reduced[j] == 0 for j in range(width) if j not in basic):
        return solve_lp(lp)
    # Duals y = c_B B^-1, read off the slack and diagonal columns (never pruned).
    y_audit = [-reduced[len(kept) + s] for s in range(n)]
    y_stoch = [
        obj[col(m, m)] - coeffs[n + m][col(m, m)] * y_audit[m] - reduced[diag[m]]
        for m in range(n)
    ]
    for m in range(n):
        for s in range(n):
            if cfg.alloc[s] < cfg.alloc[m]:
                o = col(s, m)
                if obj[o] - y_stoch[m] - coeffs[n + s][o] * y_audit[s] >= 0:
                    return solve_lp(lp)

    assignment = [Fraction(0)] * lp.n_vars
    for r in rows:
        if basis[r] < len(kept):
            assignment[kept[basis[r]]] = tableau[r][-1]
    return _optimal_solution(lp, assignment, False)


# -- equilibrium through the program -------------------------------------


def _strategy_from_solution(cfg: GameConfig, sol: LPSolution) -> Strategy:
    rows = []
    for m in range(cfg.n_types):
        rows.append(tuple(sol.values[(cfg.types[s], cfg.types[m])] for s in range(cfg.n_types)))
    return Strategy(tuple(rows))


def bp_equilibrium(cfg: GameConfig):
    """No-audit equilibrium via the program; audits never occur on path.

    Requires either no budget or a budget at least the general existence
    threshold; smaller budgets need the regime-aware constructions in the
    `equilibrium` module.

    The program is solved by `solve_bp`: one simplex phase from the
    truthful basis, over the columns that do not under-report.  When the
    optimum is degenerate (a basic value is 0) or tied (a nonbasic column,
    pruned or slack, prices at exactly 0), it falls back to the generic
    two-phase `solve_lp` on the full program, so the strategy and the
    "alternate optima detected" note match that solver's on every game.
    """
    from . import bounds as _bounds
    from .equilibrium import EquilibriumResult, budget_thresholds

    work = cfg.drop_zero_prior_types()
    if cfg.budget is not None:
        analysis = budget_thresholds(cfg)
        if cfg.budget < analysis.threshold_general:
            raise RegimeError(
                f"budget {cfg.budget} is below the general equilibrium-existence "
                f"threshold {analysis.threshold_general}; use the budget-aware "
                "constructions in the equilibrium module"
            )

    sol = solve_bp(work)
    if sol.status != OPTIMAL:
        raise RuntimeError(
            f"solver returned {sol.status} on a no-audit program; "
            "these programs are always feasible and bounded"
        )
    pi_work = _strategy_from_solution(work, sol)

    # Internal consistency of every solve: no under-reporting mass, the
    # audit best response vanishes, and both equilibrium bounds hold.
    for m in range(work.n_types):
        for s in range(work.n_types):
            if work.alloc[s] < work.alloc[m] and pi_work.rows[m][s] != 0:
                raise RuntimeError("optimum places mass on an under-report")
    sigma = core.best_response(pi_work, work)
    if not sigma.is_zero():
        raise RuntimeError("audit best response to the optimum is not identically zero")
    for m in range(work.n_types):
        for s in range(work.n_types):
            if s == m:
                continue
            cap = _bounds.misreport_cap(
                work.prior[s], work.prior[m], work.audit_cost, work.fine,
                work.alloc[s] - work.alloc[m],
            )
            if pi_work.rows[m][s] > cap:
                raise RuntimeError("optimum exceeds a per-pair misreporting cap")
    excess = core.excess_payments(pi_work, sigma, work)
    if excess > _bounds.excess_payments_bound(work):
        raise RuntimeError("optimum exceeds the aggregate excess-payments cap")

    # Re-embed rows for any dropped zero-probability types as truthful.
    if work.types != cfg.types:
        rows = []
        for m, label in enumerate(cfg.types):
            if label in work.types:
                wm = work.types.index(label)
                row = [Fraction(0)] * cfg.n_types
                for s, slabel in enumerate(cfg.types):
                    row[s] = pi_work.rows[wm][work.types.index(slabel)] if slabel in work.types else Fraction(0)
                rows.append(tuple(row))
            else:
                rows.append(tuple(Fraction(1) if s == m else Fraction(0) for s in range(cfg.n_types)))
        pi = Strategy(tuple(rows))
    else:
        pi = pi_work
    sigma_full = core.AuditPolicy.zero(cfg.n_types)

    user_utils = tuple(
        core.user_utility_type(pi, sigma_full, t, cfg) for t in cfg.types
    )
    flags = []
    if sol.multiplicity_flag:
        flags.append("alternate optima detected")
    return EquilibriumResult(
        profile=core.StrategyProfile.replicated(pi, sigma_full, cfg.num_users),
        user_utilities=user_utils,
        admin_utility=core.admin_utility(pi, sigma_full, cfg),
        excess=core.excess_payments(pi, sigma_full, cfg),
        provenance="lp",
        multiplicity=sol.multiplicity_flag,
        notes=tuple(flags),
    )
