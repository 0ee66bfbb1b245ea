"""The no-audit program in `Fraction`s and a generic two-phase simplex:
the test oracle for the exact solve behind `auditgame.bp_equilibrium`.

`build_bp_lp` writes the program of the `auditgame.lp` module docstring
out as a `LinearProgram`, with `Fraction` coefficients, columns pi(s|m)
by type m and then by signal s.  `solve_lp` solves any `LinearProgram`
exactly and reports infeasible and unbounded programs in its `Solution`'s
`status`.  `_run_simplex` recomputes every reduced cost from the original
costs at each basis; the library's loop instead carries them as a tableau
row.  Phase 2 lets only the structural and slack columns enter, so no
artificial can re-enter whatever the duals are.  The tests hold
`bp_equilibrium`'s optimum to this solver's objective, to its values when
the optimum is unique, and to a uniqueness test run on this solver.
"""

from fractions import Fraction
from typing import Optional

from auditgame import core
from auditgame.core import GameConfig
from auditgame.errors import InputError
from auditgame.record import Record

LESS_EQUAL = "<="
EQUAL = "="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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


class Solution(Record):
    """`solve_lp`'s result: `values` maps (signal_label, type_label) to a
    Fraction, and `status` is OPTIMAL, INFEASIBLE or UNBOUNDED; only an
    optimal solution has values and an objective value."""

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


def solve_lp(lp: LinearProgram) -> Solution:
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
        return Solution({}, None, INFEASIBLE)

    # Pivot any leftover basic artificials out on a nonzero structural
    # entry; a fully zero row is redundant and its artificial stays at 0.
    for r in range(m):
        if basis[r] >= n_struct:
            for j in range(n_struct):
                if tableau[r][j] != 0:
                    _pivot(tableau, basis, r, j)
                    break

    # Phase 2: maximize the objective == minimize its negation.  Only the
    # structural and slack columns may enter, so the artificials stay out.
    phase2_cost = [-c for c in lp.objective] + [Fraction(0)] * (n_slack + m)
    status, reduced = _run_simplex(tableau, basis, phase2_cost, n_struct)
    if status == UNBOUNDED:
        return Solution({}, None, UNBOUNDED)

    assignment = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            assignment[basis[r]] = tableau[r][-1]
    multiplicity = any(
        j not in basis and reduced[j] == 0
        for j in range(n_struct)
    )
    return _optimal_solution(lp, assignment, multiplicity)


def _optimal_solution(lp: LinearProgram, assignment, multiplicity: bool) -> Solution:
    values = {key: assignment[colidx] for key, colidx in lp.variable_index.items()}
    objective_value = sum(c * x for c, x in zip(lp.objective, assignment))
    return Solution(values, objective_value, OPTIMAL, multiplicity)
