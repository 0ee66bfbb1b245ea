"""Presets and parameter sweeps for the transit-benefits case study.

The monthly calibration: 4000 employees, credits of 50 and 105 currency
units for the low and high commuting-cost types, audit costs between one
and five hours of local wages, fines in the range of common civil
penalties, and a reference line of 83,333 per month of claimed fraud.
Sweeps emit deterministic CSV for downstream plotting.
"""

from __future__ import annotations

from fractions import Fraction

from .core import GameConfig, raw_misreport_cap, two_type_costs
from .errors import InputError
from .numeric import FLOAT, RATIONAL, as_fraction, check_mode, in_mode, sig15, sig15_ratio
from .record import Record

COSTS_HEADER = ("q_min", "c", "k", "l", "cost_no_audit", "cost_audit",
                "budget", "excess", "dominates", "reference_line")
SURFACE_HEADER = ("q_min", "c", "k", "max_misreport_prob")

_INF = float("inf")


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
        coalition_grid = tuple(int(l) for l in coalition_grid)
        reference_line = as_fraction(reference_line)
        if any(q <= 0 or q >= 1 for q in q_min_grid):
            raise InputError("q_min grid values must lie strictly between 0 and 1")
        if any(c < 0 for c in c_grid):
            raise InputError("audit cost must be non-negative")
        # A fine below the audit cost stays allowed: the closed forms cover it.
        if any(k < 0 for k in k_grid):
            raise InputError("fine must be non-negative")
        if any(l < 1 for l in coalition_grid):
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

    Grid crossings are evaluated through the raw closed forms
    (`core.raw_misreport_cap`, then `core.two_type_costs`), which stay
    well defined where an instance validator would balk (a fine below the
    audit cost); rows where the formulas truly degenerate (k - c + df <= 0)
    are annotated rather than aborting the sweep.  Rational mode evaluates
    those forms on integer numerators and denominators (`_rational_costs`),
    with no `Fraction` arithmetic per q_min value; float mode evaluates
    them as written (`_float_costs`), and a row with a value beyond the
    float range is an input error.  Every axis value is converted once,
    and rows share one object per axis value and one `cost_no_audit` per
    (q_min, max(num_users, l)).
    """
    return [{"q_min": q, "c": c, "k": k, "l": l, "reference_line": reference_line,
             "cost_no_audit": no_audit, "cost_audit": total, "budget": budget,
             "excess": excess, "dominates": dominates}
            for q, c, k, l, no_audit, total, budget, excess, dominates, reference_line
            in _cells(_COSTS, spec, mode, _VALUES)]


def costs_csv(spec: SweepSpec, mode: str = RATIONAL) -> str:
    """`sweep_costs(spec, mode)` as UTF-8 CSV text under `COSTS_HEADER`."""
    return _csv(COSTS_HEADER, _cells(_COSTS, spec, mode, _TEXT))


def sweep_misreport_surface(spec: SweepSpec, mode: str = RATIONAL) -> list:
    """One row per (q_min, c, k): the largest equilibrium misreporting probability.

    The surface grids include points with c > k, which a validated game
    instance rejects; the cap's closed form covers them all the same.
    Float mode evaluates `core.raw_misreport_cap` as written; rational
    mode evaluates it on integers (`_rational_surface`).
    """
    return [{"q_min": q, "c": c, "k": k, "max_misreport_prob": cap}
            for q, c, k, cap in _cells(_SURFACE, spec, mode, _VALUES)]


def surface_csv(spec: SweepSpec, mode: str = RATIONAL) -> str:
    """`sweep_misreport_surface(spec, mode)` as UTF-8 CSV text under `SURFACE_HEADER`."""
    return _csv(SURFACE_HEADER, _cells(_SURFACE, spec, mode, _TEXT))


def _csv(header: tuple, rows) -> str:
    line = ",".join(["%s"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join([line % row for row in rows])


def _same(value):
    return value


def _fraction_text(value: Fraction) -> str:
    return sig15_ratio(value.numerator, value.denominator)


# What a kernel hands its sink for each cell, by mode: in rational mode a
# converter of axis values and one of exact ratios (numerator, denominator),
# in float mode one converter of floats.  Library rows keep the numbers;
# CSV text has strings as they are, integers in full and every other
# number with 15 significant digits, by the rules of `numeric.sig15`: its
# ratio entry point `sig15_ratio`, and `"%.15g"` for a float.
_VALUES = {RATIONAL: (_same, Fraction), FLOAT: (_same,)}
_TEXT = {RATIONAL: (_fraction_text, sig15_ratio), FLOAT: ("%.15g".__mod__,)}


def _cells(kernels: dict, spec: SweepSpec, mode: str, sink: dict):
    """The rows of the table whose kernel per mode is `kernels`, as `sink` takes them."""
    check_mode(mode)
    _require_two_type_base(spec)
    return kernels[mode](spec, *sink[mode])


def _axis_pairs(spec: SweepSpec) -> list:
    """(c, k, note) per (c, k), c-major.

    `note` annotates a pair where k - c + df <= 0, on which the closed
    forms degenerate (the test is exact in both modes), and is None
    elsewhere.
    """
    df = spec.base.delta_f_max
    return [(c, k, f"error: fine {k} too small against audit cost {c}" if k - c + df <= 0 else None)
            for c in spec.c_grid for k in spec.k_grid]


def _rational_costs(spec: SweepSpec, axis, ratio):
    """Rational cost rows in `COSTS_HEADER` order, each cell from integers.

    `axis` converts each axis value once and `ratio(n, d)` each exact cost
    n/d (n >= 0, d > 0, not reduced).  Write q = a/b in lowest terms
    (0 < a < b) and u = b - a, so 1 - q = u/b; df = df_n/df_d;
    n = max(num_users, l).  On a pair (c, k) with k - c + df > 0 take, in
    lowest terms and once per pair,

        e = c / (k - c + df) = e_n/e_d        g = l*c*df / (k + df) = g_n/g_d.

    `core.raw_misreport_cap` is then p = min(1, (1 - q)*c / (q*(k - c + df)))
    = min(1, P/(e_d*a)) with P = e_n*u.  Let D = e_d*a - P, so that
    1 - p = D/(e_d*a) when D > 0.  `core.two_type_costs` gives

        no_audit = n*q*df = n*df_n*a / (df_d*b),   once per (q, n);
        D <= 0 (p = 1): budget = 0, excess = total = no_audit, dominates;
        D > 0:  budget = g*(1 - p) = g_n*D / (g_d*e_d*a),
                excess = n*q*p*df = n*df_n*P / (df_d*b*e_d),
                total  = (g_n*df_d*D*b + n*df_n*g_d*P*a) / (g_d*e_d*a*df_d*b),

    and, since no_audit - excess = n*q*df*(1 - p) with 1 - p > 0, total <=
    no_audit exactly when g <= n*q*df, that is g_n*df_d*b <= n*df_n*g_d*a.
    The per-pair and per-n factors are formed once; a row costs a few
    integer products and three calls of `ratio`.
    """
    df = spec.base.delta_f_max
    df_n, df_d = df.numerator, df.denominator
    reference_line = axis(spec.reference_line)
    zero = ratio(0, 1)
    users = spec.base.num_users
    coalitions = spec.coalition_grid
    counts = {max(users, l) for l in coalitions}
    pairs = []
    for c, k, note in _axis_pairs(spec):
        if note is not None:
            pairs.append((axis(c), axis(k), note, 0, 0, ()))
            continue
        e = c / (k - c + df)
        per_l = []
        for l in coalitions:
            g = l * c * df / (k + df)
            per_l.append((l, max(users, l), g.numerator, g.denominator))
        pairs.append((axis(c), axis(k), None, e.numerator, e.denominator, per_l))
    for q in spec.q_min_grid:
        a, b = q.numerator, q.denominator
        u = b - a
        bd = df_d * b
        q_cell = axis(q)
        no_audits = {n: ratio(n * df_n * a, bd) for n in counts}
        for c, k, note, e_n, e_d, per_l in pairs:
            if note is not None:
                for l in coalitions:
                    yield q_cell, c, k, l, "", "", "", "", note, reference_line
                continue
            P = e_n * u
            ea = e_d * a
            D = ea - P
            if D <= 0:
                for l, n, _, _ in per_l:
                    no_audit = no_audits[n]
                    yield q_cell, c, k, l, no_audit, no_audit, zero, no_audit, "true", reference_line
                continue
            bde = bd * e_d
            for l, n, g_n, g_d in per_l:
                gdf = g_n * df_d
                ndf = n * df_n
                ndfg = ndf * g_d
                yield (q_cell, c, k, l, no_audits[n],
                       ratio(gdf * D * b + ndfg * P * a, g_d * ea * bd),
                       ratio(g_n * D, g_d * ea), ratio(ndf * P, bde),
                       "true" if gdf * b <= ndfg * a else "false", reference_line)


def _float_costs(spec: SweepSpec, cell):
    """Float cost rows in `COSTS_HEADER` order: `core.raw_misreport_cap`
    once per (q_min, c, k), then `core.two_type_costs`, as written.

    `cell` converts each float once: the axis values, n*q*df once per
    (q_min, n) with n = max(num_users, l), and the row's costs.
    """
    df = in_mode(spec.base.delta_f_max, FLOAT)
    reference_line = cell(in_mode(spec.reference_line, FLOAT))
    pairs = []   # (c, k, k + df, annotation, c's cell, k's cell)
    for c, k, note in _axis_pairs(spec):
        c, k = in_mode(c, FLOAT), in_mode(k, FLOAT)
        pairs.append((c, k, k + df, note, cell(c), cell(k)))
    users = spec.base.num_users
    # l and n enter the products as floats, exactly as `int * float` would
    # convert them, so a count beyond the float range is an input error.
    coalitions = [(l, in_mode(l, FLOAT), max(users, l)) for l in spec.coalition_grid]
    counts = {n: in_mode(n, FLOAT) for _, _, n in coalitions}
    for q in spec.q_min_grid:
        q = in_mode(q, FLOAT)
        q_high = 1 - q
        q_cell = cell(q)
        per_n = {}
        for n, n_f in counts.items():
            n_q = n_f * q
            no_audit = n_q * df
            per_n[n] = (n_q, no_audit, cell(no_audit))
        per_l = [(l, l_f, *per_n[n]) for l, l_f, n in coalitions]
        for c, k, k_plus_df, note, c_cell, k_cell in pairs:
            if note is not None:
                for l, _, _ in coalitions:
                    yield q_cell, c_cell, k_cell, l, "", "", "", "", note, reference_line
                continue
            p = raw_misreport_cap(q_high, q, c, k, df)
            for l, l_f, n_q, no_audit, no_audit_cell in per_l:
                _, budget, excess = two_type_costs(p, c, df, k_plus_df, n_q, l_f)
                total = budget + excess
                # The costs are non-negative, so this fails on inf and nan alone.
                if not (total < _INF and no_audit < _INF):
                    raise InputError(
                        f"the float-mode cost row q_min={sig15(q)}, c={sig15(c)}, k={sig15(k)},"
                        f" l={l} has a value beyond the float range")
                yield (q_cell, c_cell, k_cell, l, no_audit_cell, cell(total), cell(budget),
                       cell(excess), "true" if total <= no_audit else "false", reference_line)


def _require_two_type_base(spec: SweepSpec) -> None:
    # The q_min axis parametrizes the low type's prior, which only makes
    # sense against a two-type base game.
    if not spec.base.is_two_type:
        raise InputError("sweeps parametrize the two-type game; give a two-type base config")


def _rational_surface(spec: SweepSpec, axis, ratio):
    """Rational surface rows in `SURFACE_HEADER` order.

    With e = c/(k - c + df) = e_n/e_d once per (c, k) and q = a/b, the cap
    min(1, e*(b - a)/a) is 1 or e_n*(b - a) / (e_d*a) by one integer
    comparison; on a pair with k - c + df <= 0 the cap is vacuous, and
    e = 1/0 makes it 1.
    """
    df = spec.base.delta_f_max
    one = ratio(1, 1)
    pairs = []
    for c, k, note in _axis_pairs(spec):
        e_n, e_d = 1, 0
        if note is None:
            e = c / (k - c + df)
            e_n, e_d = e.numerator, e.denominator
        pairs.append((axis(c), axis(k), e_n, e_d))
    for q in spec.q_min_grid:
        a, b = q.numerator, q.denominator
        u = b - a
        q_cell = axis(q)
        for c, k, e_n, e_d in pairs:
            P = e_n * u
            ea = e_d * a
            yield q_cell, c, k, one if P >= ea else ratio(P, ea)


def _float_surface(spec: SweepSpec, cell):
    """Float surface rows in `SURFACE_HEADER` order: `core.raw_misreport_cap` as written."""
    df = in_mode(spec.base.delta_f_max, FLOAT)
    pairs = []
    for c in spec.c_grid:
        for k in spec.k_grid:
            c_f, k_f = in_mode(c, FLOAT), in_mode(k, FLOAT)
            pairs.append((c_f, k_f, cell(c_f), cell(k_f)))
    for q in spec.q_min_grid:
        q = in_mode(q, FLOAT)
        q_high = 1 - q
        q_cell = cell(q)
        for c, k, c_cell, k_cell in pairs:
            yield q_cell, c_cell, k_cell, cell(raw_misreport_cap(q_high, q, c, k, df))


_COSTS = {RATIONAL: _rational_costs, FLOAT: _float_costs}
_SURFACE = {RATIONAL: _rational_surface, FLOAT: _float_surface}
