"""Presets and parameter sweeps for the transit-benefits case study.

The monthly calibration: 4000 employees, credits of 50 and 105 currency
units for the low and high commuting-cost types, audit costs between one
and five hours of local wages, fines in the range of common civil
penalties, and a reference line of 83,333 per month of claimed fraud.
Sweeps emit deterministic CSV for downstream plotting.
"""

from __future__ import annotations

import io
from fractions import Fraction

from .core import GameConfig, raw_misreport_cap, two_type_costs
from .errors import InputError
from .numeric import FLOAT, RATIONAL, as_fraction, check_mode, in_mode, sig15
from .record import Record

COSTS_HEADER = ("q_min", "c", "k", "l", "cost_no_audit", "cost_audit",
                "budget", "excess", "dominates", "reference_line")
SURFACE_HEADER = ("q_min", "c", "k", "max_misreport_prob")

_INF = float("inf")
_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    those forms on integer numerators and denominators (`_exact_cost_rows`),
    with no `Fraction` arithmetic per q_min value; float mode evaluates
    them as written, computing the cap once per (q_min, c, k) and n * q_min
    once per (q_min, l), and a row with a value beyond the float range is
    an input error.  Every axis value is converted once, and rows with
    equal axis values share one object, so `write_csv` formats each value
    once.
    """
    check_mode(mode)
    _require_two_type_base(spec)
    if mode == RATIONAL:
        return _exact_cost_rows(spec)
    df = in_mode(spec.base.delta_f_max, FLOAT)
    reference_line = in_mode(spec.reference_line, FLOAT)
    pairs = []   # (c, k, k + df, annotation)
    for c, k, note in _axis_pairs(spec):
        c, k = in_mode(c, FLOAT), in_mode(k, FLOAT)
        pairs.append((c, k, k + df, note))
    users = spec.base.num_users
    # l and n enter the products as floats, exactly as `int * float` would
    # convert them, so a count beyond the float range is an input error.
    coalitions = [(l, in_mode(l, FLOAT), in_mode(max(users, l), FLOAT))
                  for l in spec.coalition_grid]
    rows = []
    for q in spec.q_min_grid:
        q = in_mode(q, FLOAT)
        q_high = 1 - q
        n_qs = [(l, l_f, n * q) for l, l_f, n in coalitions]
        for c, k, k_plus_df, note in pairs:
            if note is not None:
                rows.extend(_annotated_row(q, c, k, l, reference_line, note) for l, _, _ in n_qs)
                continue
            p = raw_misreport_cap(q_high, q, c, k, df)
            for l, l_f, n_q in n_qs:
                no_audit, budget, excess = two_type_costs(p, c, df, k_plus_df, n_q, l_f)
                total = budget + excess
                # The costs are non-negative, so this fails on inf and nan alone.
                if not (total < _INF and no_audit < _INF):
                    raise InputError(
                        f"the float-mode cost row q_min={sig15(q)}, c={sig15(c)}, k={sig15(k)},"
                        f" l={l} has a value beyond the float range")
                rows.append({
                    "q_min": q, "c": c, "k": k, "l": l, "reference_line": reference_line,
                    "cost_no_audit": no_audit, "cost_audit": total,
                    "budget": budget, "excess": excess,
                    "dominates": "true" if total <= no_audit else "false",
                })
    return rows


def _axis_pairs(spec: SweepSpec) -> list:
    """(c, k, note) per (c, k), c-major.

    `note` annotates a pair where k - c + df <= 0, on which the closed
    forms degenerate (the test is exact in both modes), and is None
    elsewhere.
    """
    df = spec.base.delta_f_max
    return [(c, k, f"error: fine {k} too small against audit cost {c}" if k - c + df <= 0 else None)
            for c in spec.c_grid for k in spec.k_grid]


def _annotated_row(q, c, k, l, reference_line, note) -> dict:
    return {"q_min": q, "c": c, "k": k, "l": l, "reference_line": reference_line,
            "cost_no_audit": "", "cost_audit": "", "budget": "", "excess": "",
            "dominates": note}


def _exact_cost_rows(spec: SweepSpec) -> list:
    """Rational `sweep_costs`: each cell from integer numerators and denominators.

    Write q = a/b in lowest terms (0 < a < b) and u = b - a, so 1 - q = u/b;
    df = df_n/df_d; n = max(num_users, l).  On a pair (c, k) with
    k - c + df > 0 take, in lowest terms and once per pair,

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
    integer products and one normalising `Fraction` per new cell.
    """
    df = spec.base.delta_f_max
    df_n, df_d = df.numerator, df.denominator
    reference_line = spec.reference_line
    users = spec.base.num_users
    counts = {max(users, l) for l in spec.coalition_grid}
    pairs = []
    for c, k, note in _axis_pairs(spec):
        if note is not None:
            pairs.append((c, k, note, 0, 0, ()))
            continue
        e = c / (k - c + df)
        per_l = []
        for l in spec.coalition_grid:
            g = l * c * df / (k + df)
            per_l.append((l, max(users, l), g.numerator, g.denominator))
        pairs.append((c, k, None, e.numerator, e.denominator, per_l))
    rows = []
    for q in spec.q_min_grid:
        a, b = q.numerator, q.denominator
        u = b - a
        bd = df_d * b
        no_audits = {n: Fraction(n * df_n * a, bd) for n in counts}
        for c, k, note, e_n, e_d, per_l in pairs:
            if note is not None:
                rows.extend(_annotated_row(q, c, k, l, reference_line, note)
                            for l in spec.coalition_grid)
                continue
            P = e_n * u
            ea = e_d * a
            D = ea - P
            if D <= 0:
                for l, n, _, _ in per_l:
                    no_audit = no_audits[n]
                    rows.append({
                        "q_min": q, "c": c, "k": k, "l": l, "reference_line": reference_line,
                        "cost_no_audit": no_audit, "cost_audit": no_audit,
                        "budget": _ZERO, "excess": no_audit, "dominates": "true",
                    })
                continue
            bde = bd * e_d
            for l, n, g_n, g_d in per_l:
                gdf = g_n * df_d
                ndf = n * df_n
                ndfg = ndf * g_d
                rows.append({
                    "q_min": q, "c": c, "k": k, "l": l, "reference_line": reference_line,
                    "cost_no_audit": no_audits[n],
                    "cost_audit": Fraction(gdf * D * b + ndfg * P * a, g_d * ea * bd),
                    "budget": Fraction(g_n * D, g_d * ea),
                    "excess": Fraction(ndf * P, bde),
                    "dominates": "true" if gdf * b <= ndfg * a else "false",
                })
    return rows


def _require_two_type_base(spec: SweepSpec) -> None:
    # The q_min axis parametrizes the low type's prior, which only makes
    # sense against a two-type base game.
    if not spec.base.is_two_type:
        raise InputError("sweeps parametrize the two-type game; give a two-type base config")


def sweep_misreport_surface(spec: SweepSpec, mode: str = RATIONAL) -> list:
    """One row per (q_min, c, k): the largest equilibrium misreporting probability.

    The surface grids include points with c > k, which a validated game
    instance rejects; the cap's closed form covers them all the same.
    Float mode evaluates `core.raw_misreport_cap` as written.  Rational
    mode takes e = c/(k - c + df) = e_n/e_d once per (c, k), and with
    q = a/b the cap min(1, e*(b - a)/a) is 1 or Fraction(e_n*(b - a), e_d*a)
    by one integer comparison; on a pair with k - c + df <= 0 the cap is
    vacuous, and e = 1/0 makes it 1.
    """
    check_mode(mode)
    _require_two_type_base(spec)
    rows = []
    if mode == RATIONAL:
        df = spec.base.delta_f_max
        pairs = []
        for c, k, note in _axis_pairs(spec):
            if note is None:
                e = c / (k - c + df)
                pairs.append((c, k, e.numerator, e.denominator))
            else:
                pairs.append((c, k, 1, 0))
        for q in spec.q_min_grid:
            a, b = q.numerator, q.denominator
            u = b - a
            for c, k, e_n, e_d in pairs:
                P = e_n * u
                ea = e_d * a
                rows.append({"q_min": q, "c": c, "k": k,
                             "max_misreport_prob": _ONE if P >= ea else Fraction(P, ea)})
        return rows
    df = in_mode(spec.base.delta_f_max, FLOAT)
    pairs = [(in_mode(c, FLOAT), in_mode(k, FLOAT)) for c in spec.c_grid for k in spec.k_grid]
    for q in spec.q_min_grid:
        q = in_mode(q, FLOAT)
        q_high = 1 - q
        for c, k in pairs:
            rows.append({"q_min": q, "c": c, "k": k,
                         "max_misreport_prob": raw_misreport_cap(q_high, q, c, k, df)})
    return rows


_UNSET = object()


# A cell's formatter by its exact type; any other number goes to `sig15`.
_CELL_BY_TYPE = {str: str, int: str}


def write_csv(rows: list, header: tuple, out) -> None:
    """Write rows as UTF-8 CSV: strings as they are, integers in full and
    every other number through `numeric.sig15` (15 significant digits).

    A cell whose value is the very object of the cell above reuses that
    cell's text, so an axis value shared by consecutive rows, or a cost
    the sweep forms once per q_min, is formatted once per run of rows.
    """
    out.write(",".join(header) + "\n")
    above = [_UNSET] * len(header)
    cells = [""] * len(header)
    formatter = _CELL_BY_TYPE.get
    for row in rows:
        for i, col in enumerate(header):
            value = row[col]
            if value is not above[i]:
                above[i] = value
                cells[i] = formatter(type(value), sig15)(value)
        out.write(",".join(cells) + "\n")


def costs_csv(rows: list) -> str:
    buf = io.StringIO()
    write_csv(rows, COSTS_HEADER, buf)
    return buf.getvalue()


def surface_csv(rows: list) -> str:
    buf = io.StringIO()
    write_csv(rows, SURFACE_HEADER, buf)
    return buf.getvalue()
