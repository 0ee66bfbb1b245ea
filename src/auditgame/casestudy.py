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
from .numeric import RATIONAL, as_fraction, check_mode, in_mode, sig15
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
    are annotated rather than aborting the sweep.  Each piece is computed
    once for the axes it depends on: every axis value is converted to the
    mode's number type once, the cap once per (q_min, c, k), n * q_min
    once per (q_min, l) and k + df once per (c, k).  Rows with equal axis
    values share one object, so `write_csv` formats each value once.
    """
    check_mode(mode)
    _require_two_type_base(spec)
    df_exact = spec.base.delta_f_max
    df = in_mode(df_exact, mode)
    reference_line = in_mode(spec.reference_line, mode)
    ks = [(k_exact, in_mode(k_exact, mode)) for k_exact in spec.k_grid]
    pairs = []   # (c, k, k + df or None when degenerate, annotation)
    for c_exact in spec.c_grid:
        c = in_mode(c_exact, mode)
        for k_exact, k in ks:
            if k_exact - c_exact + df_exact <= 0:
                # Only here do the closed forms degenerate; annotate, never abort.
                note = f"error: fine {k_exact} too small against audit cost {c_exact}"
                pairs.append((c, k, None, note))
            else:
                pairs.append((c, k, k + df, None))
    users = spec.base.num_users
    coalitions = [(l, max(users, l)) for l in spec.coalition_grid]
    blank = dict.fromkeys(("cost_no_audit", "cost_audit", "budget", "excess"), "")
    rows = []
    for q in spec.q_min_grid:
        q = in_mode(q, mode)
        q_high = 1 - q
        n_qs = [(l, n * q) for l, n in coalitions]
        for c, k, k_plus_df, note in pairs:
            if k_plus_df is None:
                rows.extend({"q_min": q, "c": c, "k": k, "l": l, "reference_line": reference_line,
                             **blank, "dominates": note} for l, _ in n_qs)
                continue
            p = raw_misreport_cap(q_high, q, c, k, df)
            for l, n_q in n_qs:
                no_audit, budget, excess = two_type_costs(p, c, df, k_plus_df, n_q, l)
                total = budget + excess
                rows.append({
                    "q_min": q, "c": c, "k": k, "l": l, "reference_line": reference_line,
                    "cost_no_audit": no_audit, "cost_audit": total,
                    "budget": budget, "excess": excess,
                    "dominates": "true" if total <= no_audit else "false",
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
    """
    check_mode(mode)
    _require_two_type_base(spec)
    df = in_mode(spec.base.delta_f_max, mode)
    cs = [in_mode(c, mode) for c in spec.c_grid]
    ks = [in_mode(k, mode) for k in spec.k_grid]
    rows = []
    for q in spec.q_min_grid:
        q = in_mode(q, mode)
        q_high = 1 - q
        for c in cs:
            for k in ks:
                rows.append({
                    "q_min": q, "c": c, "k": k,
                    "max_misreport_prob": raw_misreport_cap(q_high, q, c, k, df),
                })
    return rows


_UNSET = object()


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return sig15(value)


def write_csv(rows: list, header: tuple, out) -> None:
    """Write rows as UTF-8 CSV with 15-significant-digit numbers.

    A cell whose value is the very object of the cell above reuses that
    cell's text, so an axis value shared by consecutive rows is formatted
    once per run of rows.
    """
    out.write(",".join(header) + "\n")
    above = [_UNSET] * len(header)
    cells = [""] * len(header)
    for row in rows:
        for i, col in enumerate(header):
            value = row[col]
            if value is not above[i]:
                above[i] = value
                cells[i] = _cell(value)
        out.write(",".join(cells) + "\n")


def costs_csv(rows: list) -> str:
    buf = io.StringIO()
    write_csv(rows, COSTS_HEADER, buf)
    return buf.getvalue()


def surface_csv(rows: list) -> str:
    buf = io.StringIO()
    write_csv(rows, SURFACE_HEADER, buf)
    return buf.getvalue()
