"""Presets and parameter sweeps for the transit-benefits case study.

The monthly calibration: 4000 employees, credits of 50 and 105 currency
units for the low and high commuting-cost types, audit costs between one
and five hours of local wages, fines in the range of common civil
penalties, and a reference line of 83,333 per month of claimed fraud.
Sweeps emit deterministic CSV for downstream plotting.

Each table has one kernel, which evaluates the closed forms on integers
and gives every cell as an exact ratio n/d.  The numeric mode chooses only
what the library rows hold, the `Fraction` n/d or the float `n / d`; the
CSV text is the same in both modes, so the CSV functions take no mode.

A kernel yields its rows one q_min value at a time, so the CSV can be
written while it is computed (`costs_csv_chunks`, `surface_csv_chunks`):
memory then grows with the c, k and coalition axes, not with the q_min
grid.  Every input error comes before the first batch, so a caller that
writes nothing until it has the first chunk writes nothing on an error.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import truediv

from .core import GameConfig
from .errors import InputError
from .numeric import (BEYOND_FLOAT_RANGE, FLOAT, RATIONAL, SMALLEST_NORMAL, as_fraction, check_mode,
                      sig15, sig15_ratio)
from .record import Record

COSTS_HEADER = ("q_min", "c", "k", "l", "cost_no_audit", "cost_audit",
                "budget", "excess", "dominates", "reference_line")
SURFACE_HEADER = ("q_min", "c", "k", "max_misreport_prob")


class SweepSpec(Record):
    _fields = ("base", "q_min_grid", "c_grid", "k_grid", "coalition_grid", "reference_line")

    def __init__(self, base: GameConfig, q_min_grid: tuple, c_grid: tuple, k_grid: tuple,
                 coalition_grid: tuple = (1,), reference_line: Fraction = Fraction(0)):
        for name, values in (("q_min_grid", q_min_grid), ("c_grid", c_grid),
                             ("k_grid", k_grid), ("coalition_grid", coalition_grid)):
            if not values:
                raise InputError(f"{name} must be non-empty")
        q_min_grid = tuple(as_fraction(q) for q in q_min_grid)
        c_grid = tuple(as_fraction(c) for c in c_grid)
        k_grid = tuple(as_fraction(k) for k in k_grid)
        coalition_grid = tuple(coalition_grid)
        reference_line = as_fraction(reference_line)
        if any(not 0 < q.numerator < q.denominator for q in q_min_grid):
            raise InputError("q_min grid values must lie strictly between 0 and 1")
        if any(c < 0 for c in c_grid):
            raise InputError("audit cost must be non-negative")
        # A fine below the audit cost stays allowed: the closed forms cover it.
        if any(k < 0 for k in k_grid):
            raise InputError("fine must be non-negative")
        if any(type(l) is not int or l < 1 for l in coalition_grid):
            raise InputError("coalition sizes must be positive integers")
        self._set(base, q_min_grid, c_grid, k_grid, coalition_grid, reference_line)


def _percent_grid():
    return tuple(Fraction(i, 100) for i in range(1, 100))


def ftbp_preset() -> SweepSpec:
    """Transit-benefits calibration: cost grids crossed with a 0.01-step prior grid."""
    base = GameConfig(
        types=("low", "high"),
        prior=(Fraction(1, 2), Fraction(1, 2)),
        alloc=(50, 105),
        audit_cost=25,
        fine=100,
        num_users=4000,
        coalition_size=1,
    )
    return SweepSpec(
        base=base,
        q_min_grid=_percent_grid(),
        c_grid=(25, 75, 125),
        k_grid=(100, 300, 500),
        coalition_grid=(1, 150),
        reference_line=83333,
    )


def surface_preset() -> SweepSpec:
    """Default grids for the misreporting-probability surface panels."""
    base = ftbp_preset().base
    return SweepSpec(
        base=base,
        q_min_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        c_grid=(25, 50, 75, 100, 125, 150),
        k_grid=tuple(range(100, 1001, 100)),
        coalition_grid=(1,),
        reference_line=83333,
    )


def sweep_costs(spec: SweepSpec, mode: str = RATIONAL) -> list:
    """One row per (q_min, c, k, l), ordered q_min-major.

    Grid crossings are evaluated through the closed forms behind
    `core.raw_misreport_cap`, `budget_thresholds`' two-type threshold and
    the two-type `cost.cost_audit`, whose program excess is n*q*p*df;
    they stay well defined where an instance validator would balk (a fine
    below the audit cost); rows where the formulas truly degenerate
    (k - c + df <= 0) are annotated rather than
    aborting the sweep.  The kernel `_costs` evaluates those forms on
    integer numerators and denominators.  A rational row holds each number
    as a `Fraction`; a float row holds the correctly rounded float of it,
    and a value beyond the float range is an input error.  Rows share one
    object per axis value and one `cost_no_audit` per (q_min,
    max(num_users, l)).
    """
    return _rows(_costs, spec, _COST_ROWS[check_mode(mode)])


def costs_csv_chunks(spec: SweepSpec):
    """`costs_csv(spec)` as an iterator of text chunks, one per q_min
    value, each made when it is asked for; every input error is raised by
    the first."""
    return _csv_chunks(COSTS_HEADER, _costs, spec, _COST_TEXT)


def costs_csv(spec: SweepSpec) -> str:
    """`sweep_costs(spec)` as UTF-8 CSV text under `COSTS_HEADER`.

    The text is printed from the exact values, so it is that of either
    numeric mode.
    """
    return "".join(costs_csv_chunks(spec))


def sweep_misreport_surface(spec: SweepSpec, mode: str = RATIONAL) -> list:
    """One row per (q_min, c, k): the largest equilibrium misreporting probability.

    The surface grids include points with c > k, which a validated game
    instance rejects; the cap's closed form covers them all the same.  The
    kernel `_surface` evaluates `core.raw_misreport_cap` on integers, and
    `mode` chooses the row type as in `sweep_costs`.
    """
    return _rows(_surface, spec, _SURFACE_ROWS[check_mode(mode)])


def surface_csv_chunks(spec: SweepSpec):
    """`surface_csv(spec)` in chunks, as `costs_csv_chunks`."""
    return _csv_chunks(SURFACE_HEADER, _surface, spec, _SURFACE_TEXT)


def surface_csv(spec: SweepSpec) -> str:
    """`sweep_misreport_surface(spec)` as UTF-8 CSV text under
    `SURFACE_HEADER`, that of either numeric mode."""
    return "".join(surface_csv_chunks(spec))


def _rows(kernel, spec: SweepSpec, sink: tuple) -> list:
    return [row for batch in _batches(kernel, spec, sink) for row in batch]


def _csv_chunks(header: tuple, kernel, spec: SweepSpec, sink: tuple):
    head = ",".join(header) + "\n"
    for batch in _batches(kernel, spec, sink):
        yield head + "".join(batch)
        head = ""


def _batches(kernel, spec: SweepSpec, sink: tuple):
    """The row batches of `kernel`'s table on `spec`, as `sink` emits them;
    a float beyond the float range (an `OverflowError`) is an input error."""
    # The q_min axis parametrizes the low type's prior, which only makes
    # sense against a two-type base game.
    if not spec.base.is_two_type:
        raise InputError("sweeps parametrize the two-type game; give a two-type base config")
    try:
        yield from kernel(spec, *sink)
    except OverflowError:
        raise InputError(BEYOND_FLOAT_RANGE) from None


# A kernel hands its sink `axis(value)` once per axis value and
# `ratio(n, d)` once per exact value n/d that many rows share (n >= 0,
# d > 0, not reduced).  It hands a row whose cells it has all converted so
# to `cells`, and any other row to `row`, with that row's own cells as
# integer ratios n, d.  Library rows keep the numbers, as `Fraction`s or
# floats; CSV text has strings as they are, integers in full and every
# other number by `numeric.sig15`.


def _same(value):
    return value


_COST_LINE = "%s,%s,%s,%s,%s,%.15g,%.15g,%.15g,%s,%s\n"
_COST_CELLS = _COST_LINE.replace("%.15g", "%s")


def _cost_line(q, c, k, l, no_audit, t_n, t_d, b_n, b_d, x_n, x_d, dominates, reference_line):
    """A cost row's CSV line.

    Each cost is divided once, and `_COST_LINE` formats the row.  A row
    with a non-zero cost below the smallest normal float, whose float keeps
    fewer digits or none, takes the costs from `sig15_ratio` instead.
    """
    total, budget, excess = t_n / t_d, b_n / b_d, x_n / x_d
    if ((total < SMALLEST_NORMAL and t_n) or (budget < SMALLEST_NORMAL and b_n)
            or (excess < SMALLEST_NORMAL and x_n)):
        return _cost_text(q, c, k, l, no_audit, sig15_ratio(t_n, t_d), sig15_ratio(b_n, b_d),
                          sig15_ratio(x_n, x_d), dominates, reference_line)
    return _COST_LINE % (q, c, k, l, no_audit, total, budget, excess, dominates, reference_line)


def _cost_text(*cells):
    return _COST_CELLS % cells


def _cost_row(ratio):
    """The emitter of library cost rows whose costs are `ratio(n, d)`."""
    def row(q, c, k, l, no_audit, t_n, t_d, b_n, b_d, x_n, x_d, dominates, reference_line):
        return _cost_dict(q, c, k, l, no_audit, ratio(t_n, t_d), ratio(b_n, b_d),
                          ratio(x_n, x_d), dominates, reference_line)
    return row


def _cost_dict(q, c, k, l, no_audit, total, budget, excess, dominates, reference_line):
    return {"q_min": q, "c": c, "k": k, "l": l, "reference_line": reference_line,
            "cost_no_audit": no_audit, "cost_audit": total, "budget": budget,
            "excess": excess, "dominates": dominates}


def _surface_line(q, c, k, n, d):
    # formatted as `_cost_line` formats costs
    cap = n / d
    if cap < SMALLEST_NORMAL and n:
        return _surface_text(q, c, k, sig15_ratio(n, d))
    return "%s,%s,%s,%.15g\n" % (q, c, k, cap)


def _surface_text(*cells):
    return "%s,%s,%s,%s\n" % cells


def _surface_row(ratio):
    def row(q, c, k, n, d):
        return _surface_dict(q, c, k, ratio(n, d))
    return row


def _surface_dict(q, c, k, cap):
    return {"q_min": q, "c": c, "k": k, "max_misreport_prob": cap}


_COST_TEXT = (sig15, sig15_ratio, _cost_line, _cost_text)
_COST_ROWS = {RATIONAL: (_same, Fraction, _cost_row(Fraction), _cost_dict),
              FLOAT: (float, truediv, _cost_row(truediv), _cost_dict)}
_SURFACE_TEXT = (sig15, sig15_ratio, _surface_line, _surface_text)
_SURFACE_ROWS = {RATIONAL: (_same, Fraction, _surface_row(Fraction), _surface_dict),
                 FLOAT: (float, truediv, _surface_row(truediv), _surface_dict)}


def _axis_pairs(spec: SweepSpec) -> list:
    """(c, k, note) per (c, k), c-major.

    `note` annotates a pair where k - c + df <= 0, on which the closed
    forms degenerate, and is None elsewhere.
    """
    df = spec.base.delta_f_max
    return [(c, k, f"error: fine {k} too small against audit cost {c}" if k - c + df <= 0 else None)
            for c in spec.c_grid for k in spec.k_grid]


def _costs(spec: SweepSpec, axis, ratio, row, cells):
    """Cost rows in `COSTS_HEADER` order, each cell from integers, one batch
    per q_min value.

    Write q = a/b in lowest terms (0 < a < b) and u = b - a, so 1 - q =
    u/b; df = df_n/df_d; n = max(num_users, l).  On a pair (c, k) with
    k - c + df > 0 take, in lowest terms and once per pair,

        e = c / (k - c + df) = e_n/e_d        g = l*c*df / (k + df) = g_n/g_d.

    `core.raw_misreport_cap` is then p = min(1, (1 - q)*c / (q*(k - c + df)))
    = min(1, P/(e_d*a)) with P = e_n*u.  Let D = e_d*a - P, so that
    1 - p = D/(e_d*a) when D > 0.  `cost.cost_audit`, whose two-type
    budget is l times `budget_thresholds`' two-type threshold
    c*df*(1 - p)/(k + df) and whose program excess is n*q*p*df, gives

        no_audit = n*q*df = n*df_n*a / (df_d*b),   once per (q, n);
        D <= 0 (p = 1): budget = 0, excess = total = no_audit, dominates;
        D > 0:  budget = g*(1 - p) = g_n*D / (g_d*e_d*a),
                excess = n*q*p*df = n*df_n*P / (df_d*b*e_d),
                total  = (g_n*df_d*D*b + n*df_n*g_d*P*a) / (g_d*e_d*a*df_d*b),

    and, since no_audit - excess = n*q*df*(1 - p) with 1 - p > 0, total <=
    no_audit exactly when g <= n*q*df, that is g_n*df_d*b <= n*df_n*g_d*a.
    The per-pair and per-n factors are formed once; a row costs a few
    integer products and one call of `row`; a row with p = 1 or an
    annotation has only shared cells.

    Every cost is below 2*n*df: no_audit and excess are at most n*q*df,
    and budget is at most l*df, since c*(q*(k + df) - c) <= q*(k + df)*
    (k + df - c).  So while 2*n*df, for the largest n, is below the
    largest float, no row can fail once the axis values and the reference
    line are converted, which is done before the first yield.  Otherwise
    the table is one batch, and an error comes before any of it.
    """
    df = spec.base.delta_f_max
    df_n, df_d = df.numerator, df.denominator
    reference_line = axis(spec.reference_line)
    zero = ratio(0, 1)
    users = spec.base.num_users
    coalitions = spec.coalition_grid
    counts = {max(users, l) * df_n for l in coalitions}
    in_range = 2 * max(users, *coalitions) * df < sys.float_info.max
    pairs = []
    for c, k, annotation in _axis_pairs(spec):
        if annotation is not None:
            pairs.append((axis(c), axis(k), annotation, 0, 0, ()))
            continue
        e = c / (k - c + df)
        per_l = []
        for l in coalitions:
            g = l * c * df / (k + df)
            ndf = max(users, l) * df_n
            g_n, g_d = g.numerator, g.denominator
            per_l.append((l, ndf, g_n, g_n * df_d, g_d, ndf * g_d))
        pairs.append((axis(c), axis(k), None, e.numerator, e.denominator, per_l))
    rows = []
    emit = rows.append
    for q in spec.q_min_grid:
        a, b = q.numerator, q.denominator
        u = b - a
        bd = df_d * b
        q_cell = axis(q)
        no_audits = {ndf: ratio(ndf * a, bd) for ndf in counts}
        for c, k, annotation, e_n, e_d, per_l in pairs:
            if annotation is not None:
                for l in coalitions:
                    emit(cells(q_cell, c, k, l, "", "", "", "", annotation, reference_line))
                continue
            P = e_n * u
            ea = e_d * a
            D = ea - P
            if D <= 0:
                for l, ndf, *_ in per_l:
                    no_audit = no_audits[ndf]
                    emit(cells(q_cell, c, k, l, no_audit, no_audit, zero, no_audit, "true",
                               reference_line))
                continue
            bde = bd * e_d
            Pa = P * a
            for l, ndf, g_n, gdf, g_d, ndfg in per_l:
                gea = g_d * ea
                emit(row(q_cell, c, k, l, no_audits[ndf],
                         gdf * D * b + ndfg * Pa, gea * bd, g_n * D, gea, ndf * P, bde,
                         "true" if gdf * b <= ndfg * a else "false", reference_line))
        if in_range:
            yield rows
            rows = []
            emit = rows.append
    if not in_range:
        yield rows


def _surface(spec: SweepSpec, axis, ratio, row, cells):
    """Surface rows in `SURFACE_HEADER` order, one batch per q_min value.

    With e = c/(k - c + df) = e_n/e_d once per (c, k) and q = a/b, the cap
    min(1, e*(b - a)/a) is 1 or e_n*(b - a) / (e_d*a) by one integer
    comparison; on a pair with k - c + df <= 0 the cap is vacuous, and
    e = 1/0 makes it 1.  A cap is at most 1 and the axis values are
    converted before the first yield, so no row after it can fail.
    """
    df = spec.base.delta_f_max
    one = ratio(1, 1)
    pairs = []
    for c, k, annotation in _axis_pairs(spec):
        e_n, e_d = 1, 0
        if annotation is None:
            e = c / (k - c + df)
            e_n, e_d = e.numerator, e.denominator
        pairs.append((axis(c), axis(k), e_n, e_d))
    for q in spec.q_min_grid:
        rows = []
        emit = rows.append
        a, b = q.numerator, q.denominator
        u = b - a
        q_cell = axis(q)
        for c, k, e_n, e_d in pairs:
            P = e_n * u
            ea = e_d * a
            emit(cells(q_cell, c, k, one) if P >= ea else row(q_cell, c, k, P, ea))
        yield rows
