"""Row-by-row reference for the case-study sweeps and their CSV.

Each row is evaluated on its own from the closed forms written out in
full, with every input converted per row and every number formatted per
cell, as the sweeps did before they computed each piece once per axis.
The tests hold the library's rows and CSV text to these, value, type and
byte for byte, in both numeric modes.
"""

from fractions import Fraction

from auditgame.numeric import FLOAT, in_mode, sig15


def reference_cost_rows(spec, mode):
    df = spec.base.delta_f_max
    rows = []
    for q in spec.q_min_grid:
        for c in spec.c_grid:
            for k in spec.k_grid:
                for l in spec.coalition_grid:
                    rows.append(_cost_row(spec, q, c, k, l, df, mode))
    return rows


def _cost_row(spec, q, c, k, l, df, mode):
    n = max(spec.base.num_users, l)
    row = {
        "q_min": in_mode(q, mode),
        "c": in_mode(c, mode),
        "k": in_mode(k, mode),
        "l": l,
        "reference_line": in_mode(spec.reference_line, mode),
    }
    if k - c + df <= 0:
        row.update(cost_no_audit="", cost_audit="", budget="", excess="",
                   dominates=f"error: fine {k} too small against audit cost {c}")
        return row
    if mode == FLOAT:
        q, c, k, df = float(q), float(c), float(k), float(df)
    if df <= 0:
        no_audit = budget = excess = df * 0
    else:
        denom = q * (k - c + df)
        p = 1 if denom <= 0 else min(1, (1 - q) * c / denom)
        budget = l * c * df * (1 - p) / (k + df)
        excess = n * q * p * df
        no_audit = n * q * df
    total = budget + excess
    row.update(
        cost_no_audit=in_mode(no_audit, mode),
        cost_audit=in_mode(total, mode),
        budget=in_mode(budget, mode),
        excess=in_mode(excess, mode),
        dominates=str(total <= no_audit).lower(),
    )
    return row


def reference_surface_rows(spec, mode):
    df = spec.base.delta_f_max
    rows = []
    for q in spec.q_min_grid:
        for c in spec.c_grid:
            for k in spec.k_grid:
                if mode == FLOAT:
                    denom = float(q) * (float(k) - float(c) + float(df))
                    value = 1.0 if denom <= 0 else min(1.0, (1.0 - float(q)) * float(c) / denom)
                else:
                    denom = q * (k - c + df)
                    value = Fraction(1) if denom <= 0 else min(Fraction(1), (1 - q) * c / denom)
                rows.append({"q_min": in_mode(q, mode), "c": in_mode(c, mode),
                             "k": in_mode(k, mode), "max_misreport_prob": value})
    return rows


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
