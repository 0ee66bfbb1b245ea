"""Row-by-row reference for the case-study sweeps and their CSV.

Each row is evaluated on its own from the closed forms written out in
full in `Fraction` arithmetic, with every input converted per row and every
number formatted per cell, as the sweeps did before they computed each
piece once per axis.  A float-mode row is the exact row with each
`Fraction` replaced by its float, and the CSV text of both modes is that of
the exact rows.  The tests hold the library's rows and CSV text to these,
value, type and byte for byte.
"""

from fractions import Fraction

from auditgame.numeric import FLOAT, sig15


def reference_cost_rows(spec, mode):
    df = spec.base.delta_f_max
    rows = []
    for q in spec.q_min_grid:
        for c in spec.c_grid:
            for k in spec.k_grid:
                for l in spec.coalition_grid:
                    rows.append(_cost_row(spec, q, c, k, l, df))
    return _in_mode(rows, mode)


def _cost_row(spec, q, c, k, l, df):
    n = max(spec.base.num_users, l)
    row = {"q_min": q, "c": c, "k": k, "l": l, "reference_line": spec.reference_line}
    if k - c + df <= 0:
        row.update(cost_no_audit="", cost_audit="", budget="", excess="",
                   dominates=f"error: fine {k} too small against audit cost {c}")
        return row
    if df <= 0:
        no_audit = budget = excess = df * 0
    else:
        denom = q * (k - c + df)
        p = 1 if denom <= 0 else min(1, (1 - q) * c / denom)
        budget = l * c * df * (1 - p) / (k + df)
        excess = n * q * p * df
        no_audit = n * q * df
    total = budget + excess
    row.update(cost_no_audit=no_audit, cost_audit=total, budget=budget, excess=excess,
               dominates=str(total <= no_audit).lower())
    return row


def reference_surface_rows(spec, mode):
    df = spec.base.delta_f_max
    rows = []
    for q in spec.q_min_grid:
        for c in spec.c_grid:
            for k in spec.k_grid:
                denom = q * (k - c + df)
                value = Fraction(1) if denom <= 0 else min(Fraction(1), (1 - q) * c / denom)
                rows.append({"q_min": q, "c": c, "k": k, "max_misreport_prob": value})
    return _in_mode(rows, mode)


def _in_mode(rows, mode):
    """The exact `rows`, or in float mode each with every `Fraction` as its float."""
    if mode != FLOAT:
        return rows
    return [{key: float(value) if isinstance(value, Fraction) else value
             for key, value in row.items()} for row in rows]


def reference_csv(rows, header):
    def fmt(value):
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value)
        return sig15(value)

    lines = [",".join(header)]
    lines += [",".join(fmt(row[col]) for col in header) for row in rows]
    return "\n".join(lines) + "\n"
