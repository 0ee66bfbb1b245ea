"""The no-audit program: construction, exact solving, and its invariants."""

import random
from fractions import Fraction as F

import pytest

import auditgame as ag
from auditgame import InputError, RegimeError
from auditgame.lp import EQUAL, LESS_EQUAL, OPTIMAL, build_bp_lp, solve_bp, solve_lp

import reference_lp
from conftest import with_budget
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
    sol = solve_lp(build_bp_lp(cfg_a))
    assert sol.status == OPTIMAL
    assert sol.values[("high", "low")] == F(5, 26)
    assert sol.values[("high", "high")] == F(1)
    assert sol.objective_value == F(155, 2) + F(1, 2) * F(5, 26) * 55


def test_solve_truthful_forced_at_free_audits():
    cfg = ag.GameConfig(types=("low", "high"), prior=(F(1, 2), F(1, 2)),
                        alloc=(50, 105), audit_cost=0, fine=100)
    sol = solve_lp(build_bp_lp(cfg))
    assert sol.status == OPTIMAL
    assert sol.values[("high", "low")] == 0
    assert sol.objective_value == F(155, 2)


def test_solve_three_type_fixture(cfg_three):
    sol = solve_lp(build_bp_lp(cfg_three))
    assert sol.status == OPTIMAL
    assert sol.values[("b", "a")] == F(1, 3)
    assert sol.values[("c", "a")] == F(1, 5)
    assert sol.values[("a", "a")] == F(7, 15)
    truthful_value = F(1, 3) * (0 + 2 + 4)
    assert sol.objective_value - truthful_value == F(22, 45)


def test_solution_satisfies_every_constraint_exactly(cfg_a, cfg_three):
    for cfg in (cfg_a, cfg_three):
        lp = build_bp_lp(cfg)
        sol = solve_lp(lp)
        x = [sol.values[key] for key in lp.column_labels]
        assert all(v >= 0 for v in x)
        for coeffs, rel, rhs in lp.rows:
            lhs = sum(c * v for c, v in zip(coeffs, x))
            if rel == EQUAL:
                assert lhs == rhs
            else:
                assert lhs <= rhs


def _infeasible_lp():
    # x = 1 and x <= 0 with x >= 0
    return ag.LinearProgram(
        objective=(F(1),),
        rows=(((F(1),), EQUAL, F(1)), ((F(1),), LESS_EQUAL, F(0))),
        variable_index={("x", "x"): 0},
        column_labels=(("x", "x"),),
    )


def _unbounded_lp():
    # maximize x with no constraints binding it
    return ag.LinearProgram(
        objective=(F(1),),
        rows=(((F(-1),), LESS_EQUAL, F(0)),),
        variable_index={("x", "x"): 0},
        column_labels=(("x", "x"),),
    )


def test_generic_solver_statuses():
    assert solve_lp(_infeasible_lp()).status == "infeasible"
    assert solve_lp(_unbounded_lp()).status == "unbounded"


def test_phase_2_keeps_artificials_out():
    # maximize -x subject to x = 1: an artificial priced at 0 in phase 2
    # would re-enter and drive x to 0
    program = ag.LinearProgram(
        objective=(F(-1),),
        rows=(((F(1),), EQUAL, F(1)),),
        variable_index={("x", "x"): 0},
        column_labels=(("x", "x"),),
    )
    sol = solve_lp(program)
    assert sol.status == OPTIMAL
    assert sol.values == {("x", "x"): F(1)}
    assert sol.objective_value == -1


def test_multiplicity_flag_on_degenerate_objective():
    # two signals with identical credits: swapping them preserves the optimum
    cfg = ag.GameConfig(types=("a", "b"), prior=(F(1, 2), F(1, 2)),
                        alloc=(50, 50), audit_cost=5, fine=10)
    sol = solve_lp(build_bp_lp(cfg))
    assert sol.status == OPTIMAL
    assert sol.multiplicity_flag


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
        pi = eq.strategy()
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
                    assert pi.rows[m][s] <= ag.misreport_prob_bound(cfg, sl, ml)
        assert eq.excess <= ag.excess_payments_bound(cfg)


def test_bp_equilibrium_large_fine_limits(cfg_a):
    cfg = cfg_a.replace(fine=10**9)
    eq = ag.bp_equilibrium(cfg)
    assert eq.excess < F(1, 100)
    assert eq.strategy().rows[0][1] == F(1, 2) * 25 / (F(1, 2) * (10**9 - 25 + 55))


def test_bp_equilibrium_drops_and_reembeds_zero_prior_types():
    cfg = ag.GameConfig(types=("a", "b", "z"), prior=(F(1, 2), F(1, 2), 0),
                        alloc=(50, 105, 70), audit_cost=25, fine=100)
    with pytest.warns(UserWarning):
        eq = ag.bp_equilibrium(cfg)
    assert eq.strategy().rows[0] == (F(21, 26), F(5, 26), F(0))
    assert eq.strategy().rows[2] == (F(0), F(0), F(1))   # dropped type stays truthful
    assert eq.excess == F(275, 52)


def test_bp_equilibrium_budget_gate(cfg_a):
    with pytest.raises(RegimeError):
        ag.bp_equilibrium(with_budget(cfg_a, 5))
    eq = ag.bp_equilibrium(with_budget(cfg_a, 9))   # above 275/31
    assert eq.excess == F(275, 52)


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
        mine = solve_lp(lp)
        assert mine.status == OPTIMAL
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
        scale = max(1.0, abs(float(mine.objective_value)))
        assert abs(-ref.fun - float(mine.objective_value)) < 1e-7 * scale


def test_bp_equilibrium_invariants_hold_on_wider_games():
    rng = random.Random(33)
    for _ in range(25):
        cfg = _random_general(rng, rng.choice([3, 4, 5]))
        eq = ag.bp_equilibrium(cfg)
        pi = eq.strategy()
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


def _count_fallbacks(monkeypatch):
    from auditgame import lp as lp_mod
    calls = []

    def counting(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(lp_mod, "solve_lp", counting)
    return calls


def _assert_same_solution(cfg):
    mine = solve_bp(cfg)
    ref = solve_lp(build_bp_lp(cfg))
    assert mine.status == ref.status == OPTIMAL
    assert mine.values == ref.values
    assert mine.objective_value == ref.objective_value
    assert mine.multiplicity_flag == ref.multiplicity_flag


def test_solve_bp_matches_generic_solver(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(8)
    games = 0
    for n in range(2, 10):
        for _ in range(3 if n < 8 else 1):
            _assert_same_solution(_random_general(rng, n))
            _assert_same_solution(_spread_game(rng, n))
            games += 2
    assert len(fallbacks) < games


def test_solve_bp_matches_generic_solver_on_ties(monkeypatch):
    fallbacks = _count_fallbacks(monkeypatch)
    rng = random.Random(13)
    for n in range(2, 7):
        for _ in range(6):
            _assert_same_solution(_tie_heavy_game(rng, n))
    assert fallbacks   # ties hand the game to the generic solver


@pytest.mark.parametrize("prior, alloc, c, k", [
    ((F(1, 4), F(1, 2), F(1, 4)), (3, 2, 2), 3, 3),
    ((F(1, 7), F(2, 7), F(2, 7), F(2, 7)), (19, 24, 19, 19), 25, 30),
])
def test_solve_bp_hands_degenerate_optima_to_the_generic_solver(prior, alloc, c, k):
    """Games whose specialised optimum has a zero basic value but every
    nonbasic column priced strictly negative: `solve_lp` ends at a basis
    with a zero reduced cost and flags it, so the shortcut must not decide
    the flag on its own."""
    cfg = ag.GameConfig(types=tuple(f"t{i}" for i in range(len(prior))), prior=prior,
                        alloc=alloc, audit_cost=c, fine=k)
    _assert_same_solution(cfg)
    assert solve_bp(cfg).multiplicity_flag


# -- both solvers against the loop that recomputed every reduced cost -----


def _record_pivots(monkeypatch, module):
    pivots = []
    pivot = module._pivot

    def recording(tableau, basis, row, col):
        pivots.append((row, col))
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(module, "_pivot", recording)
    return pivots


def _assert_same_result(mine, ref):
    assert mine.status == ref.status
    assert mine.values == ref.values
    assert mine.objective_value == ref.objective_value
    assert mine.multiplicity_flag == ref.multiplicity_flag


def test_solvers_match_the_recomputing_reference(monkeypatch):
    """`solve_lp` takes the reference's pivots and both solvers its results.

    Bland's rule reads only the signs of exact reduced costs, so carrying
    them as a tableau row must pivot exactly where recomputing them did.
    """
    from auditgame import lp as lp_mod
    mine_pivots = _record_pivots(monkeypatch, lp_mod)
    ref_pivots = _record_pivots(monkeypatch, reference_lp)
    for program, status in ((_infeasible_lp(), "infeasible"), (_unbounded_lp(), "unbounded")):
        ref = reference_lp.solve_lp(program)
        assert ref.status == status
        _assert_same_result(solve_lp(program), ref)
        assert mine_pivots == ref_pivots
    rng = random.Random(17)
    for n in range(2, 10):
        for make in (_random_general, _spread_game, _tie_heavy_game):
            for _ in range(3 if n < 7 else 1):
                cfg = make(rng, n)
                program = build_bp_lp(cfg)
                mine_pivots.clear()
                ref_pivots.clear()
                ref = reference_lp.solve_lp(program)
                assert ref.status == OPTIMAL
                _assert_same_result(solve_lp(program), ref)
                assert mine_pivots == ref_pivots and ref_pivots
                _assert_same_result(solve_bp(cfg), ref)


def test_solve_bp_lets_an_audit_slack_reenter(monkeypatch):
    """On this game `solve_bp`'s phase pivots an audit-row slack back into
    the basis after kept columns.  Its Bland phase picks a slack only when no
    kept column prices positive, so a phase without slack columns would stop
    at a basis that still prices a slack positive (9/19 here)."""
    from auditgame import lp as lp_mod
    cfg = ag.GameConfig(types=("t0", "t1", "t2"), prior=(F(2, 15), F(8, 15), F(1, 3)),
                        alloc=(131, 140, 128), audit_cost=24, fine=40)
    pivots = _record_pivots(monkeypatch, lp_mod)
    phases = []   # (columns entered, final reduced-cost row) per `_maximize` call
    maximize = lp_mod._maximize

    def recording(tableau, basis, rows, width):
        start = len(pivots)
        status = maximize(tableau, basis, rows, width)
        phases.append(([col for _, col in pivots[start:]], list(tableau[-1])))
        return status

    monkeypatch.setattr(lp_mod, "_maximize", recording)
    _assert_same_solution(cfg)
    entered, reduced = phases[0]   # the first call is `solve_bp`'s own phase
    slacks = range(len(reduced) - 1 - cfg.n_types, len(reduced) - 1)
    assert any(col in slacks for col in entered)
    assert all(v <= 0 for v in reduced[:-1])
    assert -reduced[-1] == solve_lp(build_bp_lp(cfg)).objective_value


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
