"""The no-audit program: construction, exact solving, and its invariants."""

import itertools
import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import auditgame as ag
from auditgame import InputError, RegimeError
from auditgame.core import integer_game

import reference_lp
from reference_lp import EQUAL, LESS_EQUAL, OPTIMAL, LinearProgram, build_bp_lp
from conftest import misreport_prob_bound, with_budget, without_zero_prior_types
from reference_oracle import GridSpec, grid_best_strategy


def test_dimensions_two_type(cfg_a):
    lp = build_bp_lp(cfg_a)
    assert lp.n_vars == 4
    assert sum(1 for r in lp.rows if r[1] == EQUAL) == 2
    assert sum(1 for r in lp.rows if r[1] == LESS_EQUAL) == 2


def test_dimensions_three_type(cfg_three):
    lp = build_bp_lp(cfg_three)
    assert lp.n_vars == 9
    assert sum(1 for r in lp.rows if r[1] == EQUAL) == 3
    assert sum(1 for r in lp.rows if r[1] == LESS_EQUAL) == 3


def test_constraint_coefficients_high_signal(cfg_a):
    """Audit-test row for the high signal: fine-plus-gap mass against cost mass."""
    lp = build_bp_lp(cfg_a)
    row = [r for r in lp.rows if r[1] == LESS_EQUAL][1]
    coeffs, _, rhs = row
    col_hl = lp.variable_index[("high", "low")]
    col_hh = lp.variable_index[("high", "high")]
    assert coeffs[col_hl] == F(1, 2) * (100 + 55) - 25 * F(1, 2)
    assert coeffs[col_hh] == -25 * F(1, 2)
    assert rhs == 0
    # the low-signal columns stay out of the high-signal row
    assert coeffs[lp.variable_index[("low", "low")]] == 0


def test_objective_coefficients(cfg_a):
    lp = build_bp_lp(cfg_a)
    assert lp.objective[lp.variable_index[("high", "low")]] == F(1, 2) * 105
    assert lp.objective[lp.variable_index[("low", "low")]] == F(1, 2) * 50


def test_build_rejects_zero_prior(cfg_a):
    bad = cfg_a.replace(prior=(F(0), F(1)))
    with pytest.raises(InputError):
        build_bp_lp(bad)


def test_the_program_and_its_statuses_are_not_library_names():
    """`auditgame.lp` holds the integer solver alone: the `Fraction`
    program, its record and its relation and status constants live in
    `reference_lp`, and the library reaches the solver only through
    `bp_equilibrium`."""
    from auditgame import lp as lp_mod
    for name in ("build_bp_lp", "LinearProgram", "solve_bp", "LPSolution"):
        assert name not in ag.__all__ and name not in dir(ag), name
        with pytest.raises(AttributeError):
            getattr(ag, name)
    for name in ("build_bp_lp", "LinearProgram", "EQUAL", "LESS_EQUAL", "OPTIMAL", "solve_bp",
                 "LPSolution", "_require_bp_game"):
        assert not hasattr(lp_mod, name), name


def _optimum(cfg):
    """The program's optimum as `bp_equilibrium` returns it, after its
    invariant checks: the values pi(s|m) keyed by (signal, type) label, the
    objective sum q_m*f_s*pi(s|m), which is minus the administrator's
    utility at zero audit, and whether the optimum is not unique."""
    eq = ag.bp_equilibrium(cfg)
    assert eq.audit.is_zero()
    rows = eq.strategy.rows
    values = {(s, m): rows[i][j] for i, m in enumerate(cfg.types)
              for j, s in enumerate(cfg.types)}
    return values, -eq.admin_utility, eq.multiplicity


def test_debug_text_golden(cfg_a):
    expected = (
        "max 25*pi(low|low) + 105/2*pi(high|low) + 25*pi(low|high) + 105/2*pi(high|high)\n"
        "1*pi(low|low) + 1*pi(high|low) = 1\n"
        "1*pi(low|high) + 1*pi(high|high) = 1\n"
        "-25/2*pi(low|low) + 75/2*pi(low|high) <= 0\n"
        "65*pi(high|low) + -25/2*pi(high|high) <= 0\n"
        "all pi >= 0"
    )
    lp = build_bp_lp(cfg_a)
    names = [f"pi({s}|{m})" for (s, m) in lp.column_labels]

    def terms(coeffs):
        return " + ".join(f"{c}*{n}" for c, n in zip(coeffs, names) if c != 0)

    lines = [f"max {terms(lp.objective)}"]
    lines += [f"{terms(coeffs)} {rel} {rhs}" for coeffs, rel, rhs in lp.rows]
    assert "\n".join(lines + ["all pi >= 0"]) == expected


def test_solve_cfg_a_exact(cfg_a):
    values, objective, _ = _optimum(cfg_a)
    assert values[("high", "low")] == F(5, 26)
    assert values[("high", "high")] == F(1)
    assert objective == F(155, 2) + F(1, 2) * F(5, 26) * 55


def test_solve_truthful_forced_at_free_audits():
    cfg = ag.GameConfig(types=("low", "high"), prior=(F(1, 2), F(1, 2)),
                        alloc=(50, 105), audit_cost=0, fine=100)
    values, objective, _ = _optimum(cfg)
    assert values[("high", "low")] == 0
    assert objective == F(155, 2)


def test_solve_three_type_fixture(cfg_three):
    values, objective, _ = _optimum(cfg_three)
    assert values[("b", "a")] == F(1, 3)
    assert values[("c", "a")] == F(1, 5)
    assert values[("a", "a")] == F(7, 15)
    truthful_value = F(1, 3) * (0 + 2 + 4)
    assert objective - truthful_value == F(22, 45)


def test_solution_satisfies_every_constraint_exactly(cfg_a, cfg_three):
    for cfg in (cfg_a, cfg_three):
        lp = build_bp_lp(cfg)
        values, _, _ = _optimum(cfg)
        x = [values[key] for key in lp.column_labels]
        assert all(v >= 0 for v in x)
        for coeffs, rel, rhs in lp.rows:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if rel == EQUAL:
                assert lhs == rhs
            else:
                assert lhs <= rhs


def _infeasible_lp():
    # x = 1 and x <= 0 with x >= 0
    return LinearProgram(
        objective=(F(1),),
        rows=(((F(1),), EQUAL, F(1)), ((F(1),), LESS_EQUAL, F(0))),
        variable_index={("x", "x"): 0},
        column_labels=(("x", "x"),),
    )


def _unbounded_lp():
    # maximize x with no constraints binding it
    return LinearProgram(
        objective=(F(1),),
        rows=(((F(-1),), LESS_EQUAL, F(0)),),
        variable_index={("x", "x"): 0},
        column_labels=(("x", "x"),),
    )


def test_generic_solver_statuses():
    assert reference_lp.solve_lp(_infeasible_lp()).status == reference_lp.INFEASIBLE
    assert reference_lp.solve_lp(_unbounded_lp()).status == reference_lp.UNBOUNDED


def test_phase_2_keeps_artificials_out():
    # maximize -x subject to x = 1: an artificial priced at 0 in phase 2
    # would re-enter and drive x to 0
    program = LinearProgram(
        objective=(F(-1),),
        rows=(((F(1),), EQUAL, F(1)),),
        variable_index={("x", "x"): 0},
        column_labels=(("x", "x"),),
    )
    sol = reference_lp.solve_lp(program)
    assert sol.status == OPTIMAL
    assert sol.values == {("x", "x"): F(1)}
    assert sol.objective_value == -1


def test_multiplicity_flag_on_degenerate_objective():
    # two signals with identical credits: swapping them preserves the optimum
    cfg = ag.GameConfig(types=("a", "b"), prior=(F(1, 2), F(1, 2)),
                        alloc=(50, 50), audit_cost=5, fine=10)
    sol = reference_lp.solve_lp(build_bp_lp(cfg))
    assert sol.status == OPTIMAL
    assert sol.multiplicity_flag


def test_reference_phase_2_keeps_the_optimal_face_feasible():
    """Over the optimal face, maximize the sum of the columns that are 0 at
    the optimum.  A phase 2 that priced the artificials at minus
    1 + sum|objective| let the objective row's artificial re-enter here
    and returned an infeasible point with status optimal
    (objective . x about 39.5429 instead of 39.5610)."""
    cfg = ag.GameConfig(types=tuple(f"t{i}" for i in range(5)),
                        prior=(F(1, 15), F(2, 15), F(4, 15), F(1, 15), F(7, 15)),
                        alloc=(12, 56, 11, 142, 34), audit_cost=19, fine=126)
    lp = build_bp_lp(cfg)
    opt = reference_lp.solve_lp(lp)
    assert opt.objective_value == F(247863377, 6265350)
    face = LinearProgram(
        objective=tuple(F(opt.values[key] == 0) for key in lp.column_labels),
        rows=lp.rows + ((lp.objective, EQUAL, opt.objective_value),),
        variable_index=lp.variable_index,
        column_labels=lp.column_labels,
    )
    sol = reference_lp.solve_lp(face)
    assert sol.status == OPTIMAL
    x = [sol.values[key] for key in lp.column_labels]
    assert all(v >= 0 for v in x)
    for coeffs, rel, rhs in face.rows:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        assert lhs == rhs if rel == EQUAL else lhs <= rhs


def _random_two_type(rng):
    q = F(rng.randrange(1, 100), 100)
    c = F(rng.randrange(1, 60))
    k = c + F(rng.randrange(0, 200))
    lo = F(rng.randrange(0, 80))
    df = F(rng.randrange(1, 120))
    return ag.GameConfig(types=("low", "high"), prior=(q, 1 - q),
                         alloc=(lo, lo + df), audit_cost=c, fine=k)


def test_bp_equilibrium_invariants_random():
    rng = random.Random(5)
    for _ in range(60):
        cfg = _random_two_type(rng)
        eq = ag.bp_equilibrium(cfg)
        pi = eq.strategy
        # truthful is always feasible, so the optimum weakly beats it
        truthful_value = sum(q * f for q, f in zip(cfg.prior, cfg.alloc))
        assert eq.user_utility_avg(cfg) >= truthful_value
        # never under-reports
        for m in range(2):
            for s in range(2):
                if cfg.alloc[s] < cfg.alloc[m]:
                    assert pi.rows[m][s] == 0
        # audit best response vanishes
        assert ag.best_response(pi, cfg).is_zero()
        # caps hold entrywise and in aggregate
        for m, ml in enumerate(cfg.types):
            for s, sl in enumerate(cfg.types):
                if s != m:
                    assert pi.rows[m][s] <= misreport_prob_bound(cfg, sl, ml)
        assert eq.excess <= ag.excess_payments_bound(cfg)


def test_bp_equilibrium_large_fine_limits(cfg_a):
    cfg = cfg_a.replace(fine=10**9)
    eq = ag.bp_equilibrium(cfg)
    assert eq.excess < F(1, 100)
    assert eq.strategy.rows[0][1] == F(1, 2) * 25 / (F(1, 2) * (10**9 - 25 + 55))


def test_bp_equilibrium_gives_a_zero_prior_type_its_best_reply():
    cfg = ag.GameConfig(types=("a", "b", "z"), prior=(F(1, 2), F(1, 2), 0),
                        alloc=(50, 105, 70), audit_cost=25, fine=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the caller wrote the zero prior: no warning
        eq = ag.bp_equilibrium(cfg)
    assert eq.strategy.rows[0] == (F(21, 26), F(5, 26), F(0))
    assert eq.strategy.rows[2] == (F(0), F(1), F(0))   # z claims the top credit
    assert eq.excess == F(275, 52)
    assert ag.verify_equilibrium(eq.strategy, eq.audit, cfg).passed


def test_bp_equilibrium_budget_gate(cfg_a):
    with pytest.raises(RegimeError):
        ag.bp_equilibrium(with_budget(cfg_a, 5))
    eq = ag.bp_equilibrium(with_budget(cfg_a, 9))   # above 275/31
    assert eq.excess == F(275, 52)
    # Between the two-type threshold 5775/806 and the general one 275/31
    # a one-user budget does not bind: the closed form is the equilibrium.
    cfg = with_budget(cfg_a, 8)
    analysis = ag.budget_thresholds(cfg)
    assert (analysis.threshold_two_type, analysis.threshold_general) == (F(5775, 806), F(275, 31))
    eq = ag.bp_equilibrium(cfg)
    assert eq.excess == ag.signaling_equilibrium(cfg).excess == F(275, 52)
    assert ag.verify_equilibrium(eq.strategy, eq.audit, cfg, resolution=50).passed
    # Above the general threshold 5/2 but below the coalition threshold 5
    # a three-type budget binds, and no equilibrium is guaranteed.
    cfg = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 3),) * 3, alloc=(10, 20, 40),
                        audit_cost=5, fine=30, budget=3, num_users=2, coalition_size=2)
    analysis = ag.budget_thresholds(cfg)
    assert (analysis.threshold_general, analysis.threshold_coalition) == (F(5, 2), 5)
    with pytest.raises(RegimeError):
        ag.bp_equilibrium(cfg)
    with pytest.raises(ag.NonexistenceError):
        ag.signaling_equilibrium(cfg)


def test_bp_equilibrium_raises_exactly_where_the_budget_binds():
    """On games of two to four types, one to three users and every
    coalition size, `bp_equilibrium` raises `RegimeError` if and only if
    `budget_binds`; where it returns, `signaling_equilibrium` gives the
    same excess and `verify_equilibrium` passes the result."""
    rng = random.Random(2807)
    regimes = dict.fromkeys(ag.Regime, 0)
    for _ in range(80):
        game = _random_general(rng, rng.randrange(2, 5))
        users = rng.randrange(1, 4)
        for coalition in range(1, users + 1):
            cfg = game.replace(num_users=users, coalition_size=coalition)
            analysis = ag.budget_thresholds(cfg)
            thresholds = [t for t in (analysis.threshold_general, analysis.threshold_two_type,
                                      analysis.threshold_coalition) if t is not None]
            budgets = [None, 0] + thresholds + [t * F(rng.randrange(1, 200), 100)
                                                for t in thresholds]
            for budget in budgets:
                cfg = with_budget(cfg, budget)
                analysis = ag.budget_thresholds(cfg)
                regimes[analysis.regime] += 1
                try:
                    eq = ag.bp_equilibrium(cfg)
                except RegimeError:
                    assert analysis.budget_binds, cfg
                    continue
                assert not analysis.budget_binds, cfg
                assert ag.signaling_equilibrium(cfg).excess == eq.excess, cfg
                assert ag.verify_equilibrium(eq.strategy, eq.audit, cfg, resolution=50).passed, cfg
    assert min(regimes.values()) >= 20, regimes


def _random_general(rng, n):
    weights = [rng.randrange(1, 9) for _ in range(n)]
    prior = tuple(F(w, sum(weights)) for w in weights)
    alloc = tuple(F(rng.randrange(0, 200)) for _ in range(n))
    c = F(rng.randrange(1, 60))
    k = c + F(rng.randrange(0, 200))
    return ag.GameConfig(types=tuple(f"t{i}" for i in range(n)), prior=prior,
                         alloc=alloc, audit_cost=c, fine=k)


def test_solver_matches_independent_solver():
    """Objective values agree with an external floating-point solver on
    random games of two to five types."""
    import numpy as np
    import scipy.optimize as so

    rng = random.Random(21)
    for _ in range(40):
        cfg = _random_general(rng, rng.choice([2, 3, 4, 5]))
        lp = build_bp_lp(cfg)
        _, objective, _ = _optimum(cfg)
        c = np.array([-float(v) for v in lp.objective])
        A_eq, b_eq, A_ub, b_ub = [], [], [], []
        for coeffs, rel, rhs in lp.rows:
            row = [float(v) for v in coeffs]
            if rel == EQUAL:
                A_eq.append(row)
                b_eq.append(float(rhs))
            else:
                A_ub.append(row)
                b_ub.append(float(rhs))
        ref = so.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                         bounds=(0, None), method="highs")
        assert ref.status == 0
        scale = max(1.0, abs(float(objective)))
        assert abs(-ref.fun - float(objective)) < 1e-7 * scale


def test_bp_equilibrium_invariants_hold_on_wider_games():
    rng = random.Random(33)
    for _ in range(25):
        cfg = _random_general(rng, rng.choice([3, 4, 5]))
        eq = ag.bp_equilibrium(cfg)
        pi = eq.strategy
        assert ag.best_response(pi, cfg).is_zero()
        for m in range(cfg.n_types):
            for s in range(cfg.n_types):
                if cfg.alloc[s] < cfg.alloc[m]:
                    assert pi.rows[m][s] == 0
        assert eq.excess <= ag.excess_payments_bound(cfg)
        truthful_value = sum(q * f for q, f in zip(cfg.prior, cfg.alloc))
        assert eq.user_utility_avg(cfg) >= truthful_value


def test_oracle_never_beats_lp_two_type(cfg_a):
    eq = ag.bp_equilibrium(cfg_a)
    res = grid_best_strategy(cfg_a, GridSpec(resolution=200))
    slack = (cfg_a.delta_f_max + cfg_a.fine) / 200
    assert res.objective <= eq.user_utility_avg(cfg_a)
    assert res.objective >= eq.user_utility_avg(cfg_a) - slack


def test_oracle_never_beats_lp_three_type(cfg_three):
    eq = ag.bp_equilibrium(cfg_three)
    res = grid_best_strategy(cfg_three, GridSpec(resolution=200))
    slack = (cfg_three.delta_f_max + cfg_three.fine) * 3 / res.resolution_used
    assert res.objective <= eq.user_utility_avg(cfg_three)
    assert res.objective >= eq.user_utility_avg(cfg_three) - slack


# -- the specialised no-audit solver against the generic one --------------


def _spread_game(rng, n):
    """Near-uniform prior, distinct evenly spaced credits, fine 4-6x cost."""
    weights = [rng.randint(4, 6) for _ in range(n)]
    prior = tuple(F(w, sum(weights)) for w in weights)
    alloc = tuple(F(10 + 40 * i + rng.randint(0, 8)) for i in range(n))
    c = F(rng.randint(8, 12))
    return ag.GameConfig(types=tuple(f"t{i}" for i in range(n)), prior=prior,
                         alloc=alloc, audit_cost=c, fine=c * rng.randint(4, 6))


def _tie_heavy_game(rng, n):
    """Repeated credits, free audits and fine == audit cost, mixed at random."""
    weights = [rng.randrange(1, 5) for _ in range(n)]
    prior = tuple(F(w, sum(weights)) for w in weights)
    pool = [F(rng.randrange(0, 60)) for _ in range(max(1, n // 2))]
    alloc = tuple(rng.choice(pool) for _ in range(n))
    c = F(rng.choice([0, rng.randrange(1, 30)]))
    k = c if rng.random() < 0.5 else c + rng.randrange(0, 60)
    return ag.GameConfig(types=tuple(f"t{i}" for i in range(n)), prior=prior,
                         alloc=alloc, audit_cost=c, fine=k)


def _standard_form(program):
    """`program`'s rows as equalities, one explicit slack column per <= row:
    a list of (coefficients, rhs) pairs over the columns, then the slacks."""
    ub_rows = [i for i, row in enumerate(program.rows) if row[1] == LESS_EQUAL]
    return [(tuple(coeffs) + tuple(F(i == r) for r in ub_rows), rhs)
            for i, (coeffs, _, rhs) in enumerate(program.rows)]


def _optimum_is_unique(program, opt):
    """Whether `opt`, an optimal vertex of `program`, is its only optimum.

    Mangasarian's test (Linear Algebra Appl. 25, 1979), run on the
    reference solver: in standard form, the optimum is unique exactly when
    the sum of the columns that are 0 at `opt` has maximum 0 over the
    optimal face, the program plus the row objective . x = optimum.
    """
    rows = _standard_form(program)
    x = [opt.values[key] for key in program.column_labels]
    x += [rhs - sum(c * v for c, v in zip(coeffs, x))
          for coeffs, rel, rhs in program.rows if rel == LESS_EQUAL]
    face = LinearProgram(
        objective=tuple(F(v == 0) for v in x),
        rows=tuple((coeffs, EQUAL, rhs) for coeffs, rhs in rows)
        + ((program.objective + (F(0),) * (len(x) - program.n_vars), EQUAL, opt.objective_value),),
        variable_index={("column", j): j for j in range(len(x))},
        column_labels=tuple(("column", j) for j in range(len(x))),
    )
    sol = reference_lp.solve_lp(face)
    assert sol.status == OPTIMAL
    return sol.objective_value == 0


def _assert_same_solution(cfg):
    """`bp_equilibrium`'s optimum against the reference: the same objective,
    the same values when the optimum is unique, and the multiplicity flag
    set exactly when it is not; returns that flag."""
    values, objective, multiple = _optimum(cfg)
    program = build_bp_lp(cfg)
    ref = reference_lp.solve_lp(program)
    assert ref.status == OPTIMAL
    assert objective == ref.objective_value
    unique = _optimum_is_unique(program, ref)
    assert multiple == (not unique)
    if unique:
        assert values == ref.values
    return multiple


def test_solve_bp_matches_generic_solver():
    rng = random.Random(8)
    for n in range(2, 10):
        for _ in range(3 if n < 8 else 1):
            _assert_same_solution(_random_general(rng, n))
            _assert_same_solution(_spread_game(rng, n))


def test_solve_bp_matches_generic_solver_on_ties():
    rng = random.Random(13)
    flags = [_assert_same_solution(_tie_heavy_game(rng, n))
             for n in range(2, 7) for _ in range(6)]
    assert any(flags) and not all(flags)   # both kinds of optimum occur


@pytest.mark.parametrize("prior, alloc, c, k", [
    ((F(1, 4), F(1, 2), F(1, 4)), (3, 2, 2), 3, 3),
    ((F(1, 7), F(2, 7), F(2, 7), F(2, 7)), (19, 24, 19, 19), 25, 30),
])
def test_solve_bp_degenerate_optima_are_unique(prior, alloc, c, k):
    """Games whose optimum has a zero basic value and a nonbasic column
    priced at 0 at some optimal basis, yet only one optimal point: the
    flag stays clear."""
    cfg = ag.GameConfig(types=tuple(f"t{i}" for i in range(len(prior))), prior=prior,
                        alloc=alloc, audit_cost=c, fine=k)
    assert not _assert_same_solution(cfg)


def _solve_square(matrix, rhs):
    """Exact Gauss-Jordan solve of a square system; None if it is singular."""
    size = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for c in range(size):
        pivot = next((r for r in range(c, size) if aug[r][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        prow = [v / aug[c][c] for v in aug[c]]
        aug[c] = prow
        for r in range(size):
            if r != c and aug[r][c] != 0:
                factor = aug[r][c]
                aug[r] = [v - factor * p for v, p in zip(aug[r], prow)]
    return [row[-1] for row in aug]


def _optimal_vertices(program):
    """Every optimal vertex of `program` as (columns..., slacks...) tuples,
    by solving each basis of its standard form."""
    rows = _standard_form(program)
    width = len(rows[0][0])
    vertices = set()
    for cols in itertools.combinations(range(width), len(rows)):
        basic = _solve_square([[coeffs[j] for j in cols] for coeffs, _ in rows],
                              [rhs for _, rhs in rows])
        if basic is not None and all(v >= 0 for v in basic):
            x = [F(0)] * width
            for j, v in zip(cols, basic):
                x[j] = v
            vertices.add(tuple(x))
    best = max(sum(c * v for c, v in zip(program.objective, x)) for x in vertices)
    return [x for x in vertices if sum(c * v for c, v in zip(program.objective, x)) == best]


def test_tie_rule_matches_vertex_enumeration():
    """The flag is set exactly when the optimal face has more than one
    vertex, and the values are the lexicographically greatest optimal
    vertex in column order."""
    rng = random.Random(29)
    flags = []
    for _ in range(20):
        for n in (2, 3):
            cfg = _tie_heavy_game(rng, n)
            program = build_bp_lp(cfg)
            optima = _optimal_vertices(program)
            values, _, multiple = _optimum(cfg)
            assert multiple == (len(optima) > 1)
            assert tuple(values[key] for key in program.column_labels) == \
                max(optima)[:program.n_vars]
            flags.append(multiple)
    assert any(flags) and not all(flags)


# -- the specialised solver against the loop that recomputed every reduced cost


def _record_phases(monkeypatch):
    """Record each `_maximize` call of the solve as a phase: its
    (leaving row, entering column) pivots, its final reduced-cost row and
    its final divisor."""
    from auditgame import lp as lp_mod
    phases = []
    pivot, maximize = lp_mod._pivot, lp_mod._maximize

    def recording_pivot(tableau, basis, d, row, col):
        phases[-1]["pivots"].append((row, col))
        return pivot(tableau, basis, d, row, col)

    def recording_maximize(tableau, basis, d, rows, columns):
        phases.append({"pivots": []})
        d = maximize(tableau, basis, d, rows, columns)
        phases[-1].update(reduced=list(tableau[-1]), divisor=d)
        return d

    monkeypatch.setattr(lp_mod, "_pivot", recording_pivot)
    monkeypatch.setattr(lp_mod, "_maximize", recording_maximize)
    return phases


def test_solvers_match_the_recomputing_reference():
    """`bp_equilibrium`'s optimum agrees with the reference, which
    recomputes every reduced cost at each basis, on all three game
    generators."""
    rng = random.Random(17)
    for n in range(2, 10):
        for make in (_random_general, _spread_game, _tie_heavy_game):
            for _ in range(3 if n < 7 else 1):
                _assert_same_solution(make(rng, n))


def test_solve_bp_lets_an_audit_slack_reenter(monkeypatch):
    """On this game the solve's phase pivots an audit-row slack back into
    the basis after kept columns.  Its Bland phase picks a slack only when no
    kept column prices positive, so a phase without slack columns would stop
    at a basis that still prices a slack positive (9/19 here)."""
    cfg = ag.GameConfig(types=("t0", "t1", "t2"), prior=(F(2, 15), F(8, 15), F(1, 3)),
                        alloc=(131, 140, 128), audit_cost=24, fine=40)
    phases = _record_phases(monkeypatch)
    _assert_same_solution(cfg)
    phase = phases[0]   # the first call is the solve's own phase
    reduced, d = phase["reduced"], phase["divisor"]
    slacks = range(len(reduced) - 1 - cfg.n_types, len(reduced) - 1)
    assert any(col in slacks for _, col in phase["pivots"])
    assert all(v <= 0 for v in reduced[:-1])
    # The phase's costs are the objective times prior_den * money_den.
    game = integer_game(cfg)
    scale = game.prior_den * game.money_den
    assert F(-reduced[-1], d * scale) == reference_lp.solve_lp(build_bp_lp(cfg)).objective_value


def _game(prior, alloc, c, k):
    return ag.GameConfig(types=tuple(f"t{i}" for i in range(len(prior))), prior=prior,
                         alloc=alloc, audit_cost=c, fine=k)


# (leaving row, entering column) of every pivot, one tuple per `_maximize`
# call, recorded from the `Fraction` tableau that the solve used before it
# pivoted on integers.  The phases are the Bland phase, then on a tied
# optimum the uniqueness test and the tie rule's phases.
PINNED_PATHS = [
    # an audit slack (column 6) re-enters the basis
    (_game((F(2, 15), F(8, 15), F(1, 3)), (131, 140, 128), 24, 40),
     [((0, 1), (3, 3), (2, 4), (3, 6))]),
    # a `_tie_heavy_game` draw: tied optimum, uniqueness test, tie-rule phases
    (_game((F(3, 14), F(1, 7), F(2, 7), F(1, 7), F(3, 14)), (0, 0, 16, 0, 0), 19, 57),
     [((7, 2),),
      ((6, 1), (0, 3), (5, 5), (8, 7), (6, 0), (7, 4), (9, 1), (9, 8), (5, 11), (0, 13), (9, 9)),
      ((7, 16),), ((8, 5), (5, 15), (7, 18)), ((9, 12),), (), (), ((7, 25),), ((5, 19),), ()]),
    # a `_tie_heavy_game` draw: fine == audit cost, tied optimum
    (_game((F(1, 5), F(1, 10), F(3, 10), F(1, 10), F(3, 10)), (38, 38, 38, 38, 30), 29, 29),
     [((4, 16),),
      ((5, 1), (1, 4), (2, 8), (3, 12), (6, 17), (0, 5), (7, 18), (0, 10), (8, 19), (4, 21)),
      ((5, 0),), (), ((0, 15),), ((0, 16),), ((6, 22), (7, 23), (8, 24))]),
    # half credits, fine == audit cost: the uniqueness test's pivots depend
    # on weighing each scaled audit slack by 1/(prior_den * money_den)
    (_game((F(2, 13), F(2, 13), F(3, 13), F(4, 13), F(2, 13)),
           (57, F(115, 2), 57, F(115, 2), 41), 10, 10),
     [((0, 1), (2, 7), (5, 12), (0, 0), (4, 13), (6, 1), (6, 3), (2, 9), (7, 14), (0, 15),
       (5, 17), (7, 19)),
      ((6, 1), (4, 5), (2, 7), (8, 10), (4, 18)), (), (), (), ((4, 13),)]),
    # decimal credits, fractional audit cost and fine
    (ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 3), F(1, 6), F(1, 2)),
                   alloc=(F("12.5"), 20, F("33.25")), audit_cost=F(7, 3), fine=F("9.5")),
     [((4, 1), (5, 2))]),
    # six types, `_random_general(random.Random(4), 6)`
    (_game((F(4, 29), F(5, 29), F(2, 29), F(7, 29), F(8, 29), F(3, 29)),
           (23, 17, 5, 102, 140, 74), 52, 247),
     [((9, 1), (10, 2), (11, 3), (6, 4), (9, 6), (10, 7), (11, 8), (6, 9), (7, 10), (2, 12),
       (2, 14))]),
    # nine types, `_random_general(random.Random(2), 9)` with quarter credits
    # and c and k in thirds and halves
    (_game((F(1, 29), F(2, 29), F(2, 29), F(6, 29), F(3, 29), F(5, 29), F(5, 29), F(4, 29),
            F(1, 29)),
           (148, F(697, 4), F(81, 2), 110, F(653, 4), F(201, 2), 185, F(521, 4), F(191, 2)),
           F(106, 3), F(297, 2)),
     [((10, 1), (0, 2), (0, 3), (15, 5), (9, 6), (10, 7), (12, 9), (13, 10), (2, 11), (15, 12),
       (2, 0), (2, 13), (9, 15), (2, 0), (10, 16), (0, 18), (9, 6), (13, 11), (13, 13), (16, 3),
       (9, 15), (16, 19), (9, 6), (10, 7), (15, 10), (15, 11), (9, 15), (10, 16), (9, 24),
       (10, 25), (14, 26), (0, 27), (16, 29), (14, 30), (17, 14), (9, 37), (10, 38), (17, 39),
       (17, 40), (0, 25), (10, 43), (9, 24), (14, 27), (9, 37))]),
]


@pytest.mark.parametrize("cfg, path", PINNED_PATHS)
def test_solve_bp_keeps_blands_pivot_path(monkeypatch, cfg, path):
    phases = _record_phases(monkeypatch)
    ag.bp_equilibrium(cfg)
    assert [tuple(phase["pivots"]) for phase in phases] == path


@pytest.mark.parametrize("cfg", [cfg for cfg, _ in PINNED_PATHS])
def test_strategy_from_the_solver_integers_matches_the_validating_constructor(cfg):
    from auditgame import lp as lp_mod
    X, d, _ = lp_mod.solve_integer(integer_game(cfg))
    exact = ag.Strategy.from_integers(X, d)
    validated = ag.Strategy(tuple(tuple(F(x, d) for x in row) for row in X))
    assert exact == validated
    assert all(type(p) is F for row in exact.rows for p in row)
    assert ag.bp_equilibrium(cfg).strategy == validated


def test_strategy_from_integers_checks_its_rows():
    assert ag.Strategy.from_integers([[3, 0], [1, 2]], 3).rows == ((1, 0), (F(1, 3), F(2, 3)))
    for rows, total, message in (([], 1, "at least one row"),
                                 ([[1, 0]], 1, "square"),
                                 ([[2, -1], [0, 1]], 1, "row 0 is not a distribution"),
                                 ([[1, 0], [1, 1]], 1, "row 1 is not a distribution")):
        with pytest.raises(InputError, match=message):
            ag.Strategy.from_integers(rows, total)


@st.composite
def _scaling_games(draw):
    """Games whose numbers stress the integer scaling: priors over large
    coprime denominators with zero-prior types, decimal or fractional
    credits with repeats, fractional c and k, k == c and c == 0."""
    n = draw(st.integers(2, 4))
    primes = (9973, 10007, 65521, 65537, 999983)
    weights = [F(draw(st.integers(0, 40)), draw(st.sampled_from(primes))) for _ in range(n)]
    if sum(1 for w in weights if w > 0) < 2:
        weights[:2] = [F(1, 9973), F(1, 10007)]
    total = sum(weights)
    prior = tuple(w / total for w in weights)
    amount = st.one_of(
        st.integers(0, 20000).map(lambda v: F(v, 100)),          # decimals
        st.builds(F, st.integers(0, 400), st.integers(1, 12)),    # fractions
    )
    pool = [draw(amount) for _ in range(draw(st.integers(1, n)))]
    alloc = tuple(draw(st.sampled_from(pool)) for _ in range(n))   # equal credits
    c = draw(st.one_of(st.just(F(0)), amount))
    k = draw(st.one_of(st.just(c), amount.map(lambda extra: c + extra)))
    return ag.GameConfig(types=tuple(f"t{i}" for i in range(n)), prior=prior, alloc=alloc,
                         audit_cost=c, fine=k)


@settings(max_examples=60, deadline=None)
@given(cfg=_scaling_games())
def test_solve_bp_matches_the_reference_on_awkward_numbers(cfg):
    try:
        work = without_zero_prior_types(cfg)   # the reference needs a positive prior
    except InputError:   # fewer than two types left
        return
    multiple = _assert_same_solution(work)
    # The full game's positive types solve the same program: the same
    # objective and flag, and, when the optimum is unique, the same rows,
    # with nothing on a zero-prior signal.
    values, objective, full_multiple = _optimum(cfg)   # its invariant checks hold
    ref = reference_lp.solve_lp(build_bp_lp(work))
    assert (objective, full_multiple) == (ref.objective_value, multiple)
    if not multiple:
        assert {(s, m): v for (s, m), v in values.items() if m in work.types} == {
            (s, m): ref.values.get((s, m), F(0)) for m in work.types for s in cfg.types}


@pytest.mark.parametrize("prior, alloc, c, k, rows, message", [
    # type high claims the low credit
    ((F(1, 2), F(1, 2)), (50, 105), 25, 100, ((1, 0), (1, 0)),
     "optimum places mass on an under-report"),
    # type low always claims high: auditing signal high pays
    ((F(1, 2), F(1, 2)), (50, 105), 25, 100, ((0, 1), (0, 1)),
     "audit best response to the optimum is not identically zero"),
    # k == c on equal credits: the cap is vacuous, 1, and pi(b|a) = 2
    ((F(1, 2), F(1, 2)), (50, 50), 5, 5, ((0, 2), (0, 1)),
     "optimum exceeds a per-pair misreporting cap"),
    # both low types claim the high credit within their caps, and signal
    # high's own mass 2 keeps auditing it unprofitable: excess 20/3 > 5
    ((F(1, 3), F(1, 3), F(1, 3)), (0, 0, 10), 10, 10, ((0, 0, 1), (0, 0, 1), (0, 0, 2)),
     "optimum exceeds the aggregate excess-payments cap"),
])
def test_bp_equilibrium_checks_catch_a_corrupted_optimum(monkeypatch, prior, alloc, c, k, rows,
                                                          message):
    from auditgame import lp as lp_mod
    cfg = _game(prior, alloc, c, k)
    ag.bp_equilibrium(cfg)   # the true optimum passes
    # the solve returns `rows` over the divisor d = 1
    monkeypatch.setattr(lp_mod, "solve_integer", lambda game: ([list(r) for r in rows], 1, False))
    with pytest.raises(RuntimeError) as excinfo:
        ag.bp_equilibrium(cfg)
    assert str(excinfo.value) == message


def test_equal_credit_game_reports_alternate_optima():
    cfg = ag.GameConfig(types=("a", "b"), prior=(F(1, 2), F(1, 2)),
                        alloc=(50, 50), audit_cost=5, fine=10)
    eq = ag.bp_equilibrium(cfg)
    assert eq.multiplicity
    assert "alternate optima detected" in eq.notes


@pytest.mark.parametrize("n", [10, 12, 16])
def test_bp_equilibrium_matches_highs_on_large_games(n):
    import numpy as np
    import scipy.optimize as so

    cfg = _spread_game(random.Random(n), n)
    eq = ag.bp_equilibrium(cfg)
    lp = build_bp_lp(cfg)
    eq_rows = [r for r in lp.rows if r[1] == EQUAL]
    ub_rows = [r for r in lp.rows if r[1] == LESS_EQUAL]
    ref = so.linprog(
        np.array([-float(v) for v in lp.objective]),
        A_ub=[[float(v) for v in r[0]] for r in ub_rows], b_ub=[float(r[2]) for r in ub_rows],
        A_eq=[[float(v) for v in r[0]] for r in eq_rows], b_eq=[float(r[2]) for r in eq_rows],
        bounds=(0, None), method="highs",
    )
    assert ref.status == 0
    mine = float(eq.user_utility_avg(cfg))
    assert abs(-ref.fun - mine) < 1e-7 * max(1.0, abs(mine))
