"""Presets, sweeps, and CSV emission for the case study."""

import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import auditgame as ag
from auditgame import InputError, casestudy, numeric
from auditgame.casestudy import (
    COSTS_HEADER, SURFACE_HEADER, costs_csv, costs_csv_chunks, surface_csv, surface_csv_chunks,
)
from reference_sweep import (
    reference_cost_rows, reference_csv, reference_surface_rows,
)


def test_ftbp_preset_values():
    spec = ag.ftbp_preset()
    assert spec.base.num_users == 4000
    assert spec.base.delta_f_max == 55
    assert spec.c_grid == (25, 75, 125)
    assert spec.k_grid == (100, 300, 500)
    assert spec.coalition_grid == (1, 150)
    assert spec.reference_line == 83_333
    assert len(spec.q_min_grid) == 99
    assert spec.q_min_grid[0] == F(1, 100) and spec.q_min_grid[-1] == F(99, 100)


def test_surface_preset_values():
    spec = ag.surface_preset()
    assert spec.q_min_grid == (F(1, 4), F(1, 2), F(3, 4))
    assert spec.c_grid == (25, 50, 75, 100, 125, 150)
    assert spec.k_grid == tuple(range(100, 1001, 100))


def test_spec_validation():
    base = ag.ftbp_preset().base
    with pytest.raises(InputError):
        ag.SweepSpec(base=base, q_min_grid=(), c_grid=(1,), k_grid=(1,))
    with pytest.raises(InputError):
        ag.SweepSpec(base=base, q_min_grid=(0, F(1, 2)), c_grid=(1,), k_grid=(2,))
    for q in (0, 1, F(3, 2), F(-1, 2), "-1/2", 1.0):
        with pytest.raises(InputError, match="q_min grid values must lie strictly between 0 and 1"):
            ag.SweepSpec(base=base, q_min_grid=(F(1, 2), q), c_grid=(1,), k_grid=(2,))
    spec = ag.SweepSpec(base=base, q_min_grid=(F(1, 1000), "999/1000", 0.5), c_grid=(1,),
                        k_grid=(2,))
    assert spec.q_min_grid == (F(1, 1000), F(999, 1000), F(1, 2))
    with pytest.raises(InputError, match="audit cost must be non-negative"):
        ag.SweepSpec(base=base, q_min_grid=(F(1, 2),), c_grid=(1, -5), k_grid=(100,))
    for sizes in ((0,), (1, -3), (F(3, 2),), (2.9,), (True,)):
        with pytest.raises(InputError, match="coalition sizes"):
            ag.SweepSpec(base=base, q_min_grid=(F(1, 2),), c_grid=(1,), k_grid=(100,),
                         coalition_grid=sizes)


def test_cost_sweep_shape_and_order():
    spec = ag.ftbp_preset().replace(q_min_grid=(F(1, 4), F(1, 2)))
    rows = ag.sweep_costs(spec)
    assert len(rows) == 2 * 3 * 3 * 2
    keys = [(r["q_min"], r["c"], r["k"], r["l"]) for r in rows]
    assert keys == sorted(keys, key=lambda t: (t[0], spec.c_grid.index(t[1]),
                                               spec.k_grid.index(t[2]),
                                               spec.coalition_grid.index(t[3])))
    text = costs_csv(spec)
    assert text.splitlines()[0] == ",".join(COSTS_HEADER)
    assert len(text.splitlines()) == len(rows) + 1


def test_cost_sweep_rows_annotated_never_aborted():
    spec = ag.ftbp_preset().replace(
        q_min_grid=(F(1, 2),), c_grid=(60,), k_grid=(1,), coalition_grid=(1,))
    base_small = spec.base.replace(alloc=(50, 52))  # k - c + df <= 0
    spec = spec.replace(base=base_small)
    rows = ag.sweep_costs(spec)
    assert len(rows) == 1
    assert rows[0]["dominates"].startswith("error:")
    assert rows[0]["cost_audit"] == ""


def test_surface_values_and_modes():
    spec = ag.surface_preset()
    rational = ag.sweep_misreport_surface(spec, mode="rational")
    floats = ag.sweep_misreport_surface(spec, mode="float")
    assert len(rational) == len(floats) == 180
    for r, f in zip(rational, floats):
        assert abs(float(r["max_misreport_prob"]) - f["max_misreport_prob"]) < 1e-12
    assert surface_csv(spec).splitlines()[0] == ",".join(SURFACE_HEADER)


def test_surface_monotonicity():
    spec = ag.surface_preset()
    rows = ag.sweep_misreport_surface(spec)
    by_key = {(r["q_min"], r["c"], r["k"]): r["max_misreport_prob"] for r in rows}
    for q in spec.q_min_grid:
        for c in spec.c_grid:
            vals = [by_key[(q, c, k)] for k in spec.k_grid]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
        for k in spec.k_grid:
            vals = [by_key[(q, c, k)] for c in spec.c_grid]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
    for c in spec.c_grid:
        for k in spec.k_grid:
            vals = [by_key[(q, c, k)] for q in spec.q_min_grid]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_cost_sweep_spot_row():
    spec = ag.ftbp_preset()
    rows = ag.sweep_costs(spec)
    row = next(r for r in rows
               if r["q_min"] == F(1, 2) and r["c"] == 75 and r["k"] == 300 and r["l"] == 1)
    assert abs(float(row["cost_audit"]) - 29_472.8) < 5e-2
    assert row["cost_no_audit"] == 110_000
    assert row["reference_line"] == 83_333


def test_default_sweep_is_the_cost_report_and_holds_the_papers_headline():
    # every row whose fine reaches the audit cost, built as a game, is the
    # equilibrium path's cost report cell for cell; the headline: the audit
    # mechanism never costs more than the status quo, and up to about 2,050
    # times less
    spec = ag.ftbp_preset()
    rows = ag.sweep_costs(spec)
    checked = 0
    for row in rows:
        if row["k"] < row["c"]:
            continue
        q, l = row["q_min"], row["l"]
        cfg = spec.base.replace(prior=(q, 1 - q), audit_cost=row["c"], fine=row["k"],
                                num_users=max(spec.base.num_users, l), coalition_size=l)
        report = ag.cost_audit(cfg)
        assert (row["cost_no_audit"], row["cost_audit"], row["budget"], row["excess"],
                row["dominates"]) == (report.cost_no_audit, report.cost_audit,
                                      report.budget_component, report.excess_component,
                                      str(report.dominates).lower()), row
        checked += 1
    assert checked == 1584

    assert len(rows) == 1782 and all(r["dominates"] == "true" for r in rows)
    ratios = [r["cost_no_audit"] / r["cost_audit"] for r in rows]
    best = rows[ratios.index(max(ratios))]
    assert max(ratios) == 217_800 / F(11_251_225, 105_894)
    assert round(float(max(ratios)), 1) == 2049.9
    assert (best["q_min"], best["c"], best["k"], best["l"]) == (F(99, 100), 25, 500, 1)
    assert sum(x >= 100 for x in ratios) == 70
    assert sum(x >= 10 for x in ratios) == 534
    assert min(ratios) == 1
    assert all(x == 1 for r, x in zip(rows, ratios) if r["q_min"] == F(1, 100))


def test_cost_curves_monotone_in_audit_parameters():
    spec = ag.ftbp_preset()
    rows = ag.sweep_costs(spec)
    by_key = {(r["q_min"], r["c"], r["k"], r["l"]): r for r in rows}
    q = F(1, 2)
    totals_c = [by_key[(q, c, 300, 1)]["cost_audit"] for c in spec.c_grid]
    assert all(a <= b for a, b in zip(totals_c, totals_c[1:]))
    totals_k = [by_key[(q, 75, k, 1)]["cost_audit"] for k in spec.k_grid]
    assert all(a >= b for a, b in zip(totals_k, totals_k[1:]))


def test_sweeps_require_two_type_base(cfg_three):
    spec = ag.ftbp_preset().replace(base=cfg_three)
    with pytest.raises(InputError, match="two-type"):
        ag.sweep_costs(spec)
    with pytest.raises(InputError, match="two-type"):
        ag.sweep_misreport_surface(spec)


def test_cost_sweep_float_mode_tracks_rational():
    spec = ag.ftbp_preset().replace(q_min_grid=tuple(F(i, 20) for i in range(1, 20)))
    rational = ag.sweep_costs(spec, mode="rational")
    floats = ag.sweep_costs(spec, mode="float")
    for r, f in zip(rational, floats):
        assert f["dominates"] == r["dominates"] == "true"
        for col in ("cost_no_audit", "cost_audit", "budget", "excess"):
            scale = max(1.0, float(r[col]))
            assert abs(float(r[col]) - f[col]) < 1e-9 * scale


def test_csv_determinism():
    spec = ag.ftbp_preset().replace(q_min_grid=(F(3, 10), F(6, 10)))
    a = costs_csv(spec)
    b = costs_csv(spec)
    assert a == b
    sa = surface_csv(ag.surface_preset())
    sb = surface_csv(ag.surface_preset())
    assert sa == sb


def _odd_spec(base_changes=(), **grids):
    preset = ag.ftbp_preset()
    base = preset.base.replace(**dict(base_changes))
    return preset.replace(base=base, **grids)


# Grids that exercise every branch of the closed forms; the names say what
# each one adds.  The base game has credits 50 and 105 (df = 55) and 4000
# users unless a case changes them.
ODD_SPECS = {
    "fractional_c_k_and_k_below_c": _odd_spec(
        q_min_grid=(F(1, 7), F(1, 2), F(999, 1000)),
        c_grid=(F(1, 3), F(7, 10), 60, 200), k_grid=(1, F(7, 3), 50, 100, 250),
        coalition_grid=(1, 3, 5000)),
    "degenerate_pairs": _odd_spec(
        base_changes={"alloc": (50, 52)},
        q_min_grid=(F(1, 3), F(2, 3)), c_grid=(0, 1, F(5, 2), 60), k_grid=(F(1, 2), 1, F(7, 3)),
        coalition_grid=(1, 2)),
    "equal_credits": _odd_spec(
        base_changes={"alloc": (50, 50), "num_users": 3},
        q_min_grid=(F(1, 7), F(1, 2), F(9, 10)), c_grid=(0, F(1, 3), 25, 100),
        k_grid=(0, F(1, 3), 25, 100), coalition_grid=(1, 2, 7)),
    "coalition_above_users": _odd_spec(
        base_changes={"num_users": 2},
        q_min_grid=(F(1, 4), F(3, 4)), c_grid=(25, 75), k_grid=(100, 300),
        coalition_grid=(1, 2, 3, 150)),
    "single_value_axes": _odd_spec(
        q_min_grid=(F(3, 10),), c_grid=(75,), k_grid=(300,), coalition_grid=(150,)),
    "high_type_listed_first": _odd_spec(
        base_changes={"types": ("high", "low"), "alloc": (108, 47)},
        q_min_grid=(F(1, 4), F(1, 2)), c_grid=(25, 125), k_grid=(100, 500)),
    # k - c + df is 1, but in floats k rounds down and c up, so a cap
    # evaluated in floats would have a negative denominator and be 1; float
    # mode takes the exact cap instead, and agrees with rational mode here.
    "float_rounding_flips_the_denominator": _odd_spec(
        base_changes={"alloc": (47, 108)},
        q_min_grid=(F(1, 3),), c_grid=(100000000000000008220,),
        k_grid=(100000000000000008160,), coalition_grid=(1, 2)),
}


def _assert_same_rows(rows, reference):
    assert rows == reference
    for row, ref in zip(rows, reference):
        assert list(row) == list(ref)
        assert [type(v) for v in row.values()] == [type(v) for v in ref.values()]


# Float-mode rows are the floats of the exact rows, and the CSV text of
# both modes is that of the exact rows.
@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("name", sorted(ODD_SPECS))
def test_cost_sweep_matches_row_by_row_reference(name, mode):
    spec = ODD_SPECS[name]
    rows = ag.sweep_costs(spec, mode=mode)
    _assert_same_rows(rows, reference_cost_rows(spec, mode))
    assert costs_csv(spec) == reference_csv(reference_cost_rows(spec, "rational"), COSTS_HEADER)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("name", sorted(ODD_SPECS))
def test_surface_matches_row_by_row_reference(name, mode):
    spec = ODD_SPECS[name]
    rows = ag.sweep_misreport_surface(spec, mode=mode)
    _assert_same_rows(rows, reference_surface_rows(spec, mode))
    assert surface_csv(spec) == reference_csv(reference_surface_rows(spec, "rational"),
                                              SURFACE_HEADER)


def _assert_float_rows_are_the_floats_of_the_exact_rows(floats, exact):
    assert len(floats) == len(exact)
    for row, ref in zip(floats, exact):
        assert list(row) == list(ref)
        for value, exact_value in zip(row.values(), ref.values()):
            if isinstance(exact_value, F):
                assert type(value) is float and value == float(exact_value)
            else:
                assert type(value) is type(exact_value) and value == exact_value


@pytest.mark.parametrize("name", ["ftbp_preset", "surface_preset", *sorted(ODD_SPECS)])
def test_both_modes_print_the_same_csv_and_float_rows_round_the_exact_ones(name):
    spec = getattr(ag, name)() if name.endswith("_preset") else ODD_SPECS[name]
    _assert_float_rows_are_the_floats_of_the_exact_rows(
        ag.sweep_costs(spec, "float"), ag.sweep_costs(spec, "rational"))
    _assert_float_rows_are_the_floats_of_the_exact_rows(
        ag.sweep_misreport_surface(spec, "float"), ag.sweep_misreport_surface(spec, "rational"))


def test_float_rows_beyond_the_float_range_are_an_input_error():
    spec = ag.ftbp_preset().replace(q_min_grid=(F(1, 2),), c_grid=(10**400,), k_grid=(10**401,))
    for sweep in (ag.sweep_costs, ag.sweep_misreport_surface):
        assert sweep(spec, "rational")[0]["c"] == 10**400
        with pytest.raises(InputError, match="beyond the float range"):
            sweep(spec, "float")


def test_cells_below_the_smallest_normal_float_print_exactly_in_both_modes():
    # c = 1e-320 makes every cost but no_audit subnormal; each is rounded
    # from its exact value, where its float would keep fewer digits
    spec = ag.ftbp_preset().replace(q_min_grid=(F(1, 2),), c_grid=(F("1e-320"),),
                                    k_grid=(100,), coalition_grid=(1,))
    (row,) = ag.sweep_costs(spec)
    line = costs_csv(spec).splitlines()[1]
    cells = line.split(",")
    for col in ("cost_audit", "budget", "excess"):
        exact = row[col]
        assert 0 < exact < F(2.2250738585072014e-308)
        text = cells[COSTS_HEADER.index(col)]
        assert text == numeric.sig15(exact) != "%.15g" % float(exact)
        digits = F(text)
        assert abs(digits - exact) <= exact / 10**14
    assert cells[COSTS_HEADER.index("c")] == "1e-320"


def test_odd_specs_cover_every_branch():
    degenerate = {name for name, spec in ODD_SPECS.items()
                  if any(r["dominates"].startswith("error") for r in ag.sweep_costs(spec))}
    assert degenerate == {"fractional_c_k_and_k_below_c", "degenerate_pairs", "equal_credits"}
    flip = ODD_SPECS["float_rounding_flips_the_denominator"]
    q, c, k, df = (float(v) for v in (flip.q_min_grid[0], flip.c_grid[0], flip.k_grid[0],
                                      flip.base.delta_f_max))
    assert flip.k_grid[0] - flip.c_grid[0] + flip.base.delta_f_max > 0
    assert q * (k - c + df) < 0
    rows = ag.sweep_costs(ODD_SPECS["fractional_c_k_and_k_below_c"])
    assert any(r["k"] < r["c"] and r["cost_audit"] != "" for r in rows)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_preset_csvs_match_row_by_row_reference(mode):
    # the CSV text is that of the exact rows; the library rows are checked in `mode`
    spec = ag.ftbp_preset()
    assert costs_csv(spec) == reference_csv(reference_cost_rows(spec, "rational"), COSTS_HEADER)
    _assert_same_rows(ag.sweep_costs(spec, mode), reference_cost_rows(spec, mode))
    spec = ag.surface_preset()
    assert surface_csv(spec) == reference_csv(reference_surface_rows(spec, "rational"),
                                              SURFACE_HEADER)
    _assert_same_rows(ag.sweep_misreport_surface(spec, mode), reference_surface_rows(spec, mode))


# Grid values for the property test: integers, small fractions and one value
# below the smallest normal float.  Against credit gaps of 0 to 80 they give
# degenerate pairs (k - c + df <= 0), caps of exactly 1 and caps below 1.
_AMOUNTS = st.one_of(
    st.integers(0, 600),
    st.fractions(min_value=0, max_value=200, max_denominator=40),
    st.just(F("1e-320")),
)
_PRIORS = st.fractions(min_value=0, max_value=1, max_denominator=2000).filter(lambda q: 0 < q < 1)


@st.composite
def _sweep_specs(draw):
    low = draw(st.integers(0, 120))
    # a gap of 0 gives equal credits
    gap = draw(st.one_of(st.just(0), st.integers(0, 80), st.fractions(0, 80, max_denominator=7)))
    alloc = (low, low + gap)
    users = draw(st.one_of(st.integers(1, 6), st.just(4000)))
    base = ag.ftbp_preset().base.replace(alloc=alloc, num_users=users)
    return ag.SweepSpec(
        base=base,
        q_min_grid=tuple(draw(st.lists(_PRIORS, min_size=1, max_size=4))),
        c_grid=tuple(draw(st.lists(_AMOUNTS, min_size=1, max_size=3))),
        k_grid=tuple(draw(st.lists(_AMOUNTS, min_size=1, max_size=3))),
        # sizes above `users` make n = max(num_users, l) follow l
        coalition_grid=tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))),
        reference_line=draw(st.fractions(0, 10**5, max_denominator=9)),
    )


@settings(max_examples=150, deadline=None)
@given(spec=_sweep_specs())
def test_rational_sweeps_match_row_by_row_reference_on_random_specs(spec):
    # and the float sweeps too: each spec's rows are checked in both
    # numeric modes, and its CSV is the exact rows' text
    assert costs_csv(spec) == reference_csv(reference_cost_rows(spec, "rational"), COSTS_HEADER)
    assert surface_csv(spec) == reference_csv(reference_surface_rows(spec, "rational"),
                                              SURFACE_HEADER)
    for mode in ("rational", "float"):
        _assert_same_rows(ag.sweep_costs(spec, mode), reference_cost_rows(spec, mode))
        _assert_same_rows(ag.sweep_misreport_surface(spec, mode),
                          reference_surface_rows(spec, mode))
    _assert_float_rows_are_the_floats_of_the_exact_rows(
        ag.sweep_costs(spec, "float"), ag.sweep_costs(spec, "rational"))


_FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__pos__", "__neg__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__",
)


def _fraction_operator_calls(monkeypatch, run):
    """How many times `run()` calls a Fraction arithmetic or comparison operator."""
    calls = []
    with monkeypatch.context() as patch:
        for name in _FRACTION_OPERATORS:
            method = getattr(F, name)

            def counted(*args, _method=method):
                calls.append(None)
                return _method(*args)
            patch.setattr(F, name, counted)
        run()
    return len(calls)


@pytest.mark.parametrize("sweep", [ag.sweep_costs, ag.sweep_misreport_surface])
def test_rational_sweep_fraction_work_does_not_grow_with_the_q_min_grid(sweep, monkeypatch):
    # The degenerate-pairs game has annotated pairs, caps of 1 and caps below 1.
    spec = ODD_SPECS["degenerate_pairs"]
    counts = []
    for size in (10, 1000):
        grid = spec.replace(q_min_grid=tuple(F(i, size + 1) for i in range(1, size + 1)))
        counts.append(_fraction_operator_calls(monkeypatch, lambda: sweep(grid)))
    assert counts[0] == counts[1] > 0


def _fractions_built_and_sig15_calls(monkeypatch, run):
    """How many `Fraction` objects and `numeric.sig15` calls `run()` makes."""
    built, formatted = [], []
    with monkeypatch.context() as patch:
        def counted_new(*args, _new=F.__new__, **kwargs):
            built.append(None)
            return _new(*args, **kwargs)
        patch.setattr(F, "__new__", staticmethod(counted_new))

        def counted_sig15(value, _sig15=numeric.sig15):
            formatted.append(None)
            return _sig15(value)
        for module in (numeric, casestudy):
            if hasattr(module, "sig15"):   # each module that binds the name
                patch.setattr(module, "sig15", counted_sig15)
        run()
    return len(built), len(formatted)


@pytest.mark.parametrize("text", [costs_csv, surface_csv])
def test_rational_csv_work_does_not_grow_with_the_q_min_grid(text, monkeypatch):
    # The text turns each exact cell n/d into digits with no `Fraction` in
    # between and no `sig15` call per cell.
    spec = ODD_SPECS["degenerate_pairs"]
    counts = []
    for size in (10, 1000):
        grid = spec.replace(q_min_grid=tuple(F(i, size + 1) for i in range(1, size + 1)))
        counts.append(_fractions_built_and_sig15_calls(monkeypatch, lambda: text(grid)))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("spec", [ag.ftbp_preset().replace(q_min_grid=(F(1, 3), F(1, 2))),
                                  ODD_SPECS["coalition_above_users"]])
def test_float_cost_rows_share_one_no_audit_cost_per_q_min_and_user_count(spec):
    rows = ag.sweep_costs(spec, "float")
    reference = reference_cost_rows(spec, "float")
    shared = {}
    for row, ref in zip(rows, reference):
        cost = row["cost_no_audit"]
        assert cost.hex() == ref["cost_no_audit"].hex()
        group = (row["q_min"], max(spec.base.num_users, row["l"]))
        assert shared.setdefault(group, cost) is cost
    assert len(rows) > len(shared)


_FINE = ag.ftbp_preset().replace(q_min_grid=tuple(F(i, 1000) for i in range(1, 1000)))
_PERCENT_SURFACE = ag.surface_preset().replace(q_min_grid=tuple(F(i, 100) for i in range(1, 100)))


@pytest.mark.parametrize("chunks, text, header, spec", [
    (costs_csv_chunks, costs_csv, COSTS_HEADER, _FINE),
    (surface_csv_chunks, surface_csv, SURFACE_HEADER, _PERCENT_SURFACE),
], ids=["costs", "surface"])
def test_csv_chunks_are_batches_of_whole_q_min_values(chunks, text, header, spec):
    parts = list(chunks(spec))
    assert "".join(parts) == text(spec)
    assert len(parts) > 2 and parts[0].startswith(",".join(header) + "\n")
    seen = set()
    for part in parts:
        lines = part.splitlines()[1 if part is parts[0] else 0:]
        values = {line.split(",", 1)[0] for line in lines}
        assert not values & seen     # a q_min value's rows are in one chunk
        seen |= values
    assert len(seen) == len(spec.q_min_grid)


def test_every_error_comes_with_the_first_chunk():
    # 2*n*df reaches the float range: the whole table is one chunk, and the
    # no-audit cost, which overflows only from q_min = 1/2 on, fails it
    base = ag.ftbp_preset().base.replace(num_users=66 * 10**305)
    spec = ag.ftbp_preset().replace(base=base)
    with pytest.raises(InputError, match="beyond the float range"):
        next(costs_csv_chunks(spec))
    with pytest.raises(InputError, match="beyond the float range"):
        ag.sweep_costs(spec, "float")
    below = spec.replace(q_min_grid=spec.q_min_grid[:49])
    assert len(list(costs_csv_chunks(below))) == 1
    assert len(ag.sweep_costs(below, "float")) == 49 * 18
    # within the float range the table comes in several chunks
    assert len(list(costs_csv_chunks(ag.ftbp_preset()))) > 1
    # axis values and the reference line are converted before the first chunk
    for changes in ({"c_grid": (10**400,)}, {"reference_line": 10**400}):
        with pytest.raises(InputError, match="beyond the float range"):
            next(costs_csv_chunks(ag.ftbp_preset().replace(**changes)))
    with pytest.raises(InputError, match="beyond the float range"):
        next(surface_csv_chunks(ag.surface_preset().replace(k_grid=(10**400,))))
    with pytest.raises(InputError, match="unknown numeric mode"):
        ag.sweep_costs(ag.ftbp_preset(), "bogus")


@pytest.mark.parametrize("chunks", [costs_csv_chunks, surface_csv_chunks])
def test_streaming_a_long_q_min_grid_keeps_a_fixed_peak(chunks):
    # 9,999 q_min values and as many rows: the whole text and its lines
    # would take more than 1 MB, the stream stays well below it
    spec = ag.ftbp_preset().replace(q_min_grid=tuple(F(i, 10000) for i in range(1, 10000)),
                                    c_grid=(25,), k_grid=(100,), coalition_grid=(1,))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in chunks(spec):
            pass
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2**20
