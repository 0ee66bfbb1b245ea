"""The no-audit signaling program and its exact integer solver.

The program maximizes the average credit payout over row-stochastic user
strategies subject to one per-signal constraint stating that auditing that
signal is not profitable for the administrator.  Its optimal value, minus
the truthful payout, is the worst-case excess payment over all equilibria.

For a game of n types with prior q and credits f, its variables are the
n*n entries pi(s|m), ordered by type m and then by signal s, followed by
the n audit slacks, one per signal; this is the column order of the tie
rule.  The program is

    maximize    sum_m sum_s q_m * f_s * pi(s|m)
    subject to  sum_s pi(s|m) = 1                          for each type m,
                sum_m pi(s|m) * margin(s, m) <= 0          for each signal s,
                pi >= 0,

where margin(s, m) is `core.audit_margin` of signal s per unit of
pi(s|m), and audit slack s is the gap left in the row of signal s.

`solve_integer` solves it exactly on integers, with one simplex loop,
`_maximize`: Bland's anti-cycling rule on an integer tableau T with one
divisor d, so that T/d is the canonical tableau, and a last row that
holds the reduced costs times d, built by `_reduced_row`.  The tableau
comes straight from the game's integers (`core.integer_game`): each
audit row is scaled by the product of the two common denominators and
its slack stands for that multiple of the slack, which leaves every
ratio test and every reduced-cost sign, and so Bland's pivot path, as
they are.  `_pivot` applies Edmonds' integer rule
a' = (p*a - a_ic*a_rj) / d, whose division is exact (Edmonds, J. Res.
NBS 71B, 1967; Bareiss, Math. Comp. 22, 1968); the new divisor is the
pivot p.  The truthful strategy is always feasible, so the loop starts at
the truthful basis, with d = 1, over the columns that do not under-report.
A type of zero prior keeps only its best-reply column, basic from the
start, and no other type keeps a column into its signal (`solve_integer`).
The same loop, restricted to the optimal face, then decides whether the
optimum is unique and, when it is not, returns the lexicographically
greatest optimum, so the answer depends only on the game.
`equilibrium.bp_equilibrium` turns that answer into `Fraction`s once, at
the end, and builds the no-audit equilibrium from it.
"""

from __future__ import annotations

from . import core
from .core import IntegerGame


# -- one integer simplex loop with Bland's rule --------------------------


def _pivot(tableau, basis, d, row, col):
    """Edmonds' integer pivot on (row, col) in place; returns the new divisor.

    The pivot row stays as it is, every other row r becomes
    (p*T_r - T_r[col]*T_row) // d with p = T_row[col] > 0, an exact
    division, and p is the divisor of the new tableau.
    """
    prow = tableau[row]
    p = prow[col]
    for r, trow in enumerate(tableau):
        if r != row:
            a = trow[col]
            if a:
                trow[:] = [(p * t - a * v) // d for t, v in zip(trow, prow)]
            elif p != d:
                trow[:] = [p * t // d if t else 0 for t in trow]
    basis[row] = col
    return p


def _leaving_row(tableau, basis, rows, enter):
    """Ratio test over `rows` by cross-multiplication, ties to the smallest
    basic column; -1 if unbounded."""
    leave = -1
    for r in rows:
        a = tableau[r][enter]
        if a > 0:
            b = tableau[r][-1]
            if leave < 0:
                leave, best_b, best_a = r, b, a
                continue
            lhs, rhs = b * best_a, best_b * a
            if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                leave, best_b, best_a = r, b, a
    return leave


def _reduced_row(tableau, basis, d, cost):
    """Reduced costs d*c - sum_r c_B[r]*T_r of a canonical tableau, as a new row.

    `cost` has one integer entry per column.  The row holds the reduced
    costs c - c_B B^-1 A times the divisor d, and its last entry is minus
    d times the objective value, so pivoting the row with the others keeps
    it exact for every later basis.
    """
    row = [d * c for c in cost] + [0]
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb:
            for j, v in enumerate(tableau[r]):
                if v:
                    row[j] -= cb * v
    return row


def _maximize(tableau, basis, d, rows, columns):
    """Maximize in place with Bland's rule; returns the final divisor.

    The last tableau row is the reduced-cost row from `_reduced_row`;
    `rows` are the constraint rows and only `columns`, in increasing
    order, may enter.  Basic columns price at exactly zero, so the first
    positive reduced cost is the smallest-index improving column.
    """
    reduced = tableau[-1]
    while True:
        enter = next((j for j in columns if reduced[j] > 0), -1)
        if enter < 0:
            return d
        leave = _leaving_row(tableau, basis, rows, enter)
        if leave < 0:
            raise RuntimeError("unbounded simplex phase on a bounded no-audit program")
        d = _pivot(tableau, basis, d, leave, enter)


# -- the no-audit program from the truthful basis ------------------------


def _truthful_tableau(game: IntegerGame, kept: list):
    """The integer tableau of the program at the truthful basis, and that basis.

    Rows: n stochasticity rows, then n audit rows; columns: `kept`, one
    slack per audit row, then the right-hand side.  Audit row s is the
    no-audit row of signal s minus a_ss times the stochasticity row of
    type s, times prior_den*money_den, and its slack is that multiple of
    the row's slack, so the truthful basis is the identity and d = 1.  A
    zero-prior type's one kept column is its basic column: it is 1 in the
    type's stochasticity row and 0 in every audit row.
    """
    n = len(game.prior)
    P, F, C, K = game.prior, game.alloc, game.cost, game.fine
    margin = core.audit_margin
    a = [margin(P[m], F[m], F[m], C, K, True) for m in range(n)]   # a_mm, scaled
    width = len(kept) + n
    tableau = [[0] * (width + 1) for _ in range(2 * n)]
    basis = [0] * (2 * n)
    for j, (m, s) in enumerate(kept):
        tableau[m][j] = 1
        if s == m or not P[m]:   # a zero-prior type's one column is basic
            basis[m] = j
        else:
            tableau[n + s][j] = margin(P[m], F[s], F[m], C, K, False)
            tableau[n + m][j] = -a[m]
    for m in range(n):
        tableau[m][-1] = 1
        tableau[n + m][len(kept) + m] = 1
        tableau[n + m][-1] = -a[m]
        basis[n + m] = len(kept) + m
    return tableau, basis


def solve_integer(game: IntegerGame) -> tuple:
    """Solve the no-audit program of `game` on integers: (X, d, multiple).

    X[m][s] / d is the optimal pi(s|m), and `multiple` is set exactly
    when the optimum is not unique.

    The truthful basis {pi(m|m)} + {slack_s} is feasible because audit
    row s of `_truthful_tableau` has right-hand side c*q_s >= 0, and the
    under-report columns are zero in every optimum: since k >= c, moving
    mass from pi(s|m) to pi(m|m) keeps every row feasible and strictly
    raises the objective.  The optimal face F is the final tableau with
    entering columns restricted to those whose reduced cost is exactly 0.

    A type of zero prior keeps exactly one column: all mass on the first
    signal, in type order, with the largest credit.  That is its best
    reply to the zero audit, and the lexicographically greatest one, as
    the tie rule picks it; its objective and audit-row entries are all 0,
    so the program alone would leave its row free.  No type of positive
    prior keeps a column into a zero-prior signal: such a claim is audited,
    or sits at margin 0 in a column that the game without the zero-prior
    types does not have.  So the positive types' pivots, optimum and
    `multiple` are those of that smaller game.

    * Uniqueness (Mangasarian, Linear Algebra Appl. 25, 1979): the optimum
      x* is unique when every nonbasic column prices strictly negative,
      and otherwise exactly when the sum of the columns that are 0 at x*
      has maximum 0 over F.
    * Tie rule: when it is not unique, the result is the lexicographically
      greatest optimum in column order.  Each column of F in turn is
      maximized over F, and F then keeps only the columns that still price
      at 0.
    """
    n = len(game.prior)
    P, F = game.prior, game.alloc
    top = core.top_signal(F)
    kept = [(m, s) for m in range(n) for s in range(n)
            if (P[s] > 0 and F[s] >= F[m] if P[m] else s == top)]
    tableau, basis = _truthful_tableau(game, kept)
    n_kept = len(kept)
    width = n_kept + n   # kept columns, then one slack per audit row
    rows = range(2 * n)
    d = 1

    def maximize(face, cost):
        """Maximize `cost` over the columns `face`; its optimal face and
        d times its maximum."""
        nonlocal d
        tableau.append(_reduced_row(tableau, basis, d, cost))
        d = _maximize(tableau, basis, d, rows, face)
        reduced = tableau.pop()
        return [j for j in face if reduced[j] == 0], -reduced[-1]

    face, _ = maximize(range(width), [P[m] * F[s] for m, s in kept] + [0] * n)
    multiple = False
    if len(face) > len(basis):   # a nonbasic column prices at 0
        # The sum of the columns that are 0 at x*, each slack counted in
        # the unscaled program's units: a scaled slack weighs 1/scale
        # there, so every weight is multiplied by scale, which keeps the
        # phase's pivots those of the unscaled tableau.
        scale = game.prior_den * game.money_den
        x = [0] * width
        for r in rows:
            x[basis[r]] = tableau[r][-1]
        cost = [0 if v else scale if j < n_kept else 1 for j, v in enumerate(x)]
        _, gain = maximize(face, cost)
        multiple = gain > 0
    if multiple:
        for j in range(width):
            if len(face) == len(basis):   # F is one vertex
                break
            if j in face:
                face, _ = maximize(face, [int(i == j) for i in range(width)])

    X = [[0] * n for _ in range(n)]
    for r in rows:
        j = basis[r]
        if j < n_kept:
            m, s = kept[j]
            X[m][s] = tableau[r][-1]
    return X, d, multiple
