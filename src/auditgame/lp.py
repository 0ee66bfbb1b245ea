"""Linear program for the no-audit signaling optimum, and its exact solver.

The program maximizes the average credit payout over row-stochastic user
strategies subject to one per-signal constraint stating that auditing that
signal is not profitable for the administrator.  Its optimal value, minus
the truthful payout, is the worst-case excess payment over all equilibria.

`solve_bp` solves it on `fractions.Fraction` with one simplex loop,
`_maximize`: Bland's anti-cycling rule on a tableau whose last row holds
the reduced costs, built by `_reduced_row` and then pivoted with the
constraint rows.  The truthful strategy is always feasible, so the loop
starts at the truthful basis, over the columns that do not under-report.
The same loop, restricted to the optimal face, then decides whether the
optimum is unique and, when it is not, returns the lexicographically
greatest optimum, so the answer depends only on the game.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import core
from .core import GameConfig, Strategy
from .errors import InputError, RegimeError
from .record import Record

LESS_EQUAL = "<="
EQUAL = "="

OPTIMAL = "optimal"


class LinearProgram(Record):
    """Maximize objective . x subject to the given rows, x >= 0.

    `rows` holds (coeffs tuple, relation, rhs) triples.  Columns are the
    strategy entries pi(signal | type); `variable_index` maps a
    (signal_label, type_label) pair to its column, and `column_labels`
    holds that pair per column.
    """

    _fields = ("objective", "rows", "variable_index", "column_labels")

    def __init__(self, objective: tuple, rows: tuple, variable_index: dict,
                 column_labels: tuple):
        self._set(objective, rows, variable_index, column_labels)

    @property
    def n_vars(self) -> int:
        return len(self.objective)


class LPSolution(Record):
    """`values` maps (signal_label, type_label) to a Fraction.

    `multiplicity_flag` is set exactly when the optimum is not unique.
    """

    _fields = ("values", "objective_value", "status", "multiplicity_flag")

    def __init__(self, values: dict, objective_value: Optional[Fraction], status: str,
                 multiplicity_flag: bool = False):
        self._set(values, objective_value, status, multiplicity_flag)


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


# -- one simplex loop with Bland's rule ----------------------------------


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


def _reduced_row(tableau, basis, cost):
    """Reduced costs c - c_B B^-1 A of a canonical tableau, as a new row.

    `cost` has one entry per column.  The last entry of the row is minus
    the objective value c_B B^-1 b, so pivoting the row with the others
    keeps it exact for every later basis.
    """
    row = list(cost) + [Fraction(0)]
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            for j, v in enumerate(tableau[r]):
                if v != 0:
                    row[j] -= cb * v
    return row


def _maximize(tableau, basis, rows, columns):
    """Maximize in place with Bland's rule; False if the phase is unbounded.

    The last tableau row is the reduced-cost row from `_reduced_row`;
    `rows` are the constraint rows and only `columns`, in increasing
    order, may enter.  Basic columns price at exactly zero, so the first
    positive reduced cost is the smallest-index improving column.
    """
    reduced = tableau[-1]
    while True:
        enter = next((j for j in columns if reduced[j] > 0), -1)
        if enter < 0:
            return True
        leave = _leaving_row(tableau, basis, rows, enter)
        if leave < 0:
            return False
        _pivot(tableau, basis, leave, enter)


# -- the no-audit program from the truthful basis ------------------------


def solve_bp(cfg: GameConfig) -> LPSolution:
    """Solve `build_bp_lp(cfg)` exactly; the optimum is unique or lex-greatest.

    One Bland phase over the columns pi(s|m) with f_s >= f_m, starting at
    the truthful basis {pi(m|m)} + {slack_s}.  That basis is feasible
    because the audit row of signal s minus a_ss times the stochasticity
    row of type s has right-hand side c*q_s >= 0.  The under-report
    columns are zero in every optimum: since k >= c, moving mass from
    pi(s|m) to pi(m|m) keeps every row feasible and strictly raises the
    objective.

    The answer is then settled on the optimal face F: the current tableau
    with entering columns restricted to those whose reduced cost is
    exactly 0.

    * Uniqueness (Mangasarian, Linear Algebra Appl. 25, 1979): the optimum
      x* is unique when every nonbasic column prices strictly negative,
      and otherwise exactly when the sum of the columns that are 0 at x*
      has maximum 0 over F.  `multiplicity_flag` is set exactly when the
      optimum is not unique.
    * Tie rule: when it is not unique, the result is the lexicographically
      greatest optimum in column order (`build_bp_lp`'s columns, then the
      slacks).  Each column of F in turn is maximized over F, and F then
      keeps only the columns that still price at 0.
    """
    lp = build_bp_lp(cfg)
    n = cfg.n_types
    coeffs = [row[0] for row in lp.rows]  # n stochasticity rows, then n audit rows

    kept = [m * n + s for m in range(n) for s in range(n) if cfg.alloc[s] >= cfg.alloc[m]]
    width = len(kept) + n  # kept columns, then one slack per audit row

    tableau = []
    for m in range(n):
        tableau.append([coeffs[m][o] for o in kept] + [Fraction(0)] * n + [Fraction(1)])
    for s in range(n):
        a_ss = coeffs[n + s][s * n + s]
        row = [coeffs[n + s][o] - a_ss * coeffs[s][o] for o in kept] + [Fraction(0)] * n
        row[len(kept) + s] = Fraction(1)
        tableau.append(row + [-a_ss])
    basis = [kept.index(m * n + m) for m in range(n)] + [len(kept) + s for s in range(n)]
    rows = range(2 * n)

    def maximize(face, cost):
        """Maximize `cost` over the columns `face`; its optimal face and maximum."""
        tableau.append(_reduced_row(tableau, basis, cost))
        if not _maximize(tableau, basis, rows, face):
            raise RuntimeError("unbounded simplex phase on a bounded no-audit program")
        reduced = tableau.pop()
        return [j for j in face if reduced[j] == 0], -reduced[-1]

    def point():
        x = [Fraction(0)] * width
        for r in rows:
            x[basis[r]] = tableau[r][-1]
        return x

    zero, one = Fraction(0), Fraction(1)
    face, _ = maximize(range(width), [lp.objective[o] for o in kept] + [zero] * n)
    multiple = False
    if len(face) > len(basis):   # a nonbasic column prices at 0
        _, gain = maximize(face, [one if v == 0 else zero for v in point()])
        multiple = gain > 0
    if multiple:
        for j in range(width):
            if len(face) == len(basis):   # F is one vertex
                break
            if j in face:
                face, _ = maximize(face, [one if i == j else zero for i in range(width)])

    assignment = [zero] * lp.n_vars
    for o, v in zip(kept, point()):
        assignment[o] = v
    values = {key: assignment[o] for key, o in lp.variable_index.items()}
    objective_value = sum(c * v for c, v in zip(lp.objective, assignment))
    return LPSolution(values, objective_value, OPTIMAL, multiple)


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

    The program is solved by `solve_bp`: one run of the simplex loop from
    the truthful basis, over the columns that do not under-report, then
    the uniqueness test on the optimal face.  When the optimum is not
    unique the strategy is the lexicographically greatest optimum and the
    result carries the "alternate optima detected" note.
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
        profile=core.StrategyProfile(pi, sigma_full, cfg.num_users),
        user_utilities=user_utils,
        admin_utility=core.admin_utility(pi, sigma_full, cfg),
        excess=core.excess_payments(pi, sigma_full, cfg),
        provenance="lp",
        multiplicity=sol.multiplicity_flag,
        notes=tuple(flags),
    )
