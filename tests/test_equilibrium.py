"""Closed forms, budget regimes, budgeted branches, and verification."""

import random
from fractions import Fraction as F

import pytest

import auditgame as ag
from auditgame import InputError, NonexistenceError, Regime

from conftest import with_budget, without_zero_prior_types


def make_two_type(q_lo, c, k, df, lo=50, **kwargs):
    q_lo = F(q_lo)
    return ag.GameConfig(
        types=("low", "high"), prior=(q_lo, 1 - q_lo),
        alloc=(lo, F(lo) + df), audit_cost=c, fine=k, **kwargs,
    )


# -- closed form ----------------------------------------------------------

def test_closed_form_cfg_a(cfg_a):
    res = ag.two_type_closed_form(cfg_a)
    assert res.strategy.rows[0][1] == F(25, 130) == F(5, 26)
    assert res.audit.is_zero()
    assert res.unique
    expected_avg = F(1, 2) * 50 + F(1, 2) * 105 + F(1, 2) * F(5, 26) * 55
    assert res.user_utility_avg(cfg_a) == expected_avg


def test_closed_form_reference_rows():
    cases = [
        (F(1, 2), 25, 100, "0.192307692307692"),
        (F(1, 4), 25, 100, "0.576923076923077"),
    ]
    from auditgame.numeric import sig15
    for q, c, k, digits in cases:
        cfg = make_two_type(q, c, k, 55)
        res = ag.two_type_closed_form(cfg)
        assert sig15(res.strategy.rows[0][1]) == digits


def test_closed_form_clamps_at_one():
    cfg = make_two_type(F(1, 10), 25, 100, 55)
    res = ag.two_type_closed_form(cfg)
    assert res.strategy.rows[0][1] == 1


def test_closed_form_is_unique_only_with_distinct_credits():
    # Equal credits: every user signalling b and the truthful profile are
    # both equilibria, so the closed form claims no uniqueness and flags the
    # multiplicity that the program flags on the same game.
    tie = ag.GameConfig(types=("a", "b"), prior=(F(1, 2), F(1, 2)), alloc=(50, 50),
                        audit_cost=5, fine=10, budget=1)
    res = ag.two_type_closed_form(tie)
    assert res.strategy.rows == ((0, 1), (0, 1))
    assert not res.unique and res.multiplicity
    for state in (res.strategy, ag.Strategy.truthful(2)):
        report = ag.verify_equilibrium(state, ag.AuditPolicy.zero(2), tie, resolution=100)
        assert report.passed and report.max_gain == 0, report.to_text()

    rng = random.Random(32)
    for _ in range(200):
        q = F(rng.randrange(1, 20), 20)
        c = F(rng.choice((0, rng.randrange(1, 50))))
        k = c + rng.choice((0, rng.randrange(0, 100)))
        cfg = make_two_type(q, c, k, rng.choice((0, rng.randrange(1, 90))))
        res = ag.two_type_closed_form(cfg)
        distinct = cfg.delta_f_max > 0
        assert res.unique == distinct
        assert res.multiplicity == (not distinct and ag.bp_equilibrium(cfg).multiplicity)


def test_closed_form_rejects_other_sizes(cfg_three):
    with pytest.raises(InputError):
        ag.two_type_closed_form(cfg_three)


# -- thresholds and regimes -------------------------------------------------

def test_threshold_values():
    cfg = make_two_type(F(1, 2), 75, 300, 55)
    ana = ag.budget_thresholds(cfg)
    assert ana.threshold_general == F(75) * 55 / 355
    assert abs(float(ana.threshold_general) - 11.6197) < 5e-5

    ana_a = ag.budget_thresholds(make_two_type(F(1, 2), 25, 100, 55))
    assert ana_a.threshold_two_type == F(25) * 55 * (1 - F(5, 26)) / 155
    assert abs(float(ana_a.threshold_two_type) - 7.1650) < 5e-5

    big = make_two_type(F(1, 2), 75, 300, 55, num_users=200, coalition_size=150)
    ana_l = ag.budget_thresholds(big)
    assert ana_l.threshold_coalition == 150 * ana.threshold_general
    assert abs(float(ana_l.threshold_coalition) - 1742.96) < 5e-3


def test_threshold_matches_pairwise_maximum():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        alloc = tuple(F(rng.randrange(0, 100)) for _ in range(n))
        c = F(rng.randrange(1, 40))
        k = c + F(rng.randrange(1, 100))
        weights = [rng.randrange(1, 5) for _ in range(n)]
        cfg = ag.GameConfig(types=tuple(f"t{i}" for i in range(n)),
                            prior=tuple(F(w, sum(weights)) for w in weights),
                            alloc=alloc, audit_cost=c, fine=k)
        ana = ag.budget_thresholds(cfg)
        pairwise = max(
            (c * (alloc[a] - alloc[b]) / (k + alloc[a] - alloc[b])
             for a in range(n) for b in range(n) if alloc[a] > alloc[b]),
            default=F(0),
        )
        assert ana.threshold_general == pairwise
        # the general threshold coincides with the aggregate excess cap
        assert ana.threshold_general == ag.excess_payments_bound(cfg)


def test_two_type_threshold_is_nonexistence_boundary(cfg_a):
    """The sufficient-budget threshold and the non-existence cutoff are one
    expression; the probe's precondition enforces the same boundary."""
    ana = ag.budget_thresholds(cfg_a)
    thr = ana.threshold_two_type
    p = F(5, 26)
    assert thr == cfg_a.audit_cost * 55 * (1 - p) / (cfg_a.fine + 55)
    from auditgame import nonexistence_probe
    cfg2 = with_budget(cfg_a, thr, num_users=2)
    with pytest.raises(InputError):
        nonexistence_probe(cfg2, 10)


def test_regime_classification(cfg_a):
    assert ag.budget_thresholds(cfg_a).regime is Regime.UNCONSTRAINED
    assert ag.budget_thresholds(with_budget(cfg_a, 9)).regime is Regime.SUFFICIENT
    assert ag.budget_thresholds(with_budget(cfg_a, 5)).regime is Regime.TWO_TYPE_ANY_BUDGET_SINGLE_USER
    two_users = with_budget(cfg_a, F(72, 10), num_users=2)
    assert ag.budget_thresholds(two_users).regime is Regime.TWO_TYPE_SUFFICIENT
    broke = with_budget(cfg_a, 3, num_users=2)
    assert ag.budget_thresholds(broke).regime is Regime.NONEXISTENCE_POSSIBLE


def test_the_budget_binds_below_its_threshold(cfg_a, cfg_three):
    thr = ag.budget_thresholds(cfg_a).threshold_two_type
    eps = F(1, 10**6)
    binds = {budget: ag.budget_thresholds(with_budget(cfg_a, budget)).budget_binds
             for budget in (0, thr, thr + eps, 9)}
    assert binds == {0: True, thr: True, thr + eps: False, 9: False}   # one user: at or below
    binds = {budget: ag.budget_thresholds(with_budget(cfg_a, budget, num_users=2)).budget_binds
             for budget in (0, thr - eps, thr)}
    assert binds == {0: True, thr - eps: True, thr: False}   # several users: strictly below
    coalition = ag.budget_thresholds(cfg_three).threshold_coalition
    binds = {budget: ag.budget_thresholds(with_budget(cfg_three, budget)).budget_binds
             for budget in (None, 0, coalition - eps, coalition)}
    assert binds == {None: False, 0: True, coalition - eps: True, coalition: False}


def test_monotonicity_of_misreport_prob():
    from auditgame.bounds import two_type_misreport_prob
    base = [two_type_misreport_prob(make_two_type(F(1, 2), 25, k, 55))
            for k in (100, 200, 400, 800)]
    assert all(a >= b for a, b in zip(base, base[1:]))
    by_cost = [two_type_misreport_prob(make_two_type(F(1, 2), c, 400, 55))
               for c in (5, 25, 50, 100)]
    assert all(a <= b for a, b in zip(by_cost, by_cost[1:]))


# -- budgeted construction --------------------------------------------------

def test_budgeted_branches(cfg_a):
    thr = ag.budget_thresholds(cfg_a).threshold_two_type

    res = ag.signaling_equilibrium(with_budget(cfg_a, 2))
    assert res.provenance == "budgeted_two_type"
    assert res.strategy.rows[0][1] == 1
    assert res.audit.probs == (F(0), F(2, 25))
    assert res.user_utility_avg(with_budget(cfg_a, 2)) == F(155, 2) + F(1, 2) * (55 - F(2, 25) * 155)
    assert float(res.user_utility_avg(with_budget(cfg_a, 2))) == 98.8

    res0 = ag.signaling_equilibrium(with_budget(cfg_a, 0))
    assert res0.provenance == "budgeted_two_type"
    assert res0.strategy.rows[0][1] == 1
    assert res0.audit.is_zero()

    # 10 is at or above the coalition threshold 275/31: the program applies
    res10 = ag.signaling_equilibrium(with_budget(cfg_a, 10))
    assert ag.budget_thresholds(with_budget(cfg_a, 10)).threshold_coalition == F(275, 31)
    assert res10.provenance == "lp"
    assert res10.strategy.rows[0][1] == F(5, 26)

    # switch sits exactly at the threshold
    eps = F(1, 10**9)
    below = ag.signaling_equilibrium(with_budget(cfg_a, thr - eps))
    at = ag.signaling_equilibrium(with_budget(cfg_a, thr))
    above = ag.signaling_equilibrium(with_budget(cfg_a, thr + eps))
    assert below.provenance == at.provenance == "budgeted_two_type"
    assert above.provenance == "closed_form_two_type"


def test_budgeted_multiuser_nonexistence(cfg_a):
    cfg = with_budget(cfg_a, 3, num_users=2)
    with pytest.raises(NonexistenceError) as err:
        ag.signaling_equilibrium(cfg)
    assert err.value.budget == 3
    assert err.value.threshold_two_type == ag.budget_thresholds(cfg).threshold_two_type


# -- dispatch ----------------------------------------------------------------

def test_signaling_equilibrium_dispatch(cfg_a):
    unb = ag.signaling_equilibrium(cfg_a)
    closed = ag.two_type_closed_form(cfg_a)
    assert unb.strategy == closed.strategy
    assert unb.excess == closed.excess == F(275, 52)

    with pytest.raises(NonexistenceError):
        ag.signaling_equilibrium(with_budget(cfg_a, 3, num_users=2))

    multi = with_budget(cfg_a, 20, num_users=2, coalition_size=2)
    res = ag.signaling_equilibrium(multi)
    assert res.provenance == "lp"
    assert res.audit.is_zero()


def _counting(monkeypatch, *names):
    """Count the calls of each of `bounds`' functions `names`, wherever a
    game module looks it up; returns the live {name: calls} map."""
    from auditgame import bounds, equilibrium
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(bounds, name)):
            calls[_name] += 1
            return _fn(*args)
        for module in (bounds, equilibrium):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_signaling_equilibrium_reads_the_budget_once(cfg_a, monkeypatch):
    three = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 3),) * 3, alloc=(10, 20, 40),
                          audit_cost=5, fine=30, budget=3)
    games = [three, with_budget(three, None)] + [
        with_budget(cfg_a, budget) for budget in (None, 0, 2, F(15, 2), 10)]
    program = [cfg for cfg in games if ag.budget_thresholds(cfg).regime in
               (Regime.UNCONSTRAINED, Regime.SUFFICIENT)]
    assert len(program) == 4
    calls = _counting(monkeypatch, "budget_thresholds", "excess_payments_bound")
    for solve, cfgs in ((ag.signaling_equilibrium, games), (ag.bp_equilibrium, program)):
        for cfg in cfgs:
            calls.update(budget_thresholds=0, excess_payments_bound=0)
            solve(cfg)
            assert calls == {"budget_thresholds": 1, "excess_payments_bound": 1}, (
                solve.__name__, cfg)


@pytest.mark.parametrize("num_users", [2, 3, 4000])
def test_zero_budget_multiuser_is_the_budgeted_zero_audit_profile(cfg_a, num_users):
    # No budget, no audit: every low type claims the high credit, and no
    # deviation gains.
    cfg = with_budget(cfg_a, 0, num_users=num_users)
    assert ag.budget_thresholds(cfg).regime is Regime.NONEXISTENCE_POSSIBLE
    res = ag.signaling_equilibrium(cfg)
    assert res.provenance == "budgeted_two_type"
    assert res.strategy.rows[0][1] == 1 and res.audit.is_zero()
    assert res.notes == (f"budget-exhausting branch; threshold {F(5775, 806)}",
                         "excess is the tight upper bound over all signaling equilibria",
                         "regime NONEXISTENCE_POSSIBLE")
    report = ag.verify_equilibrium(res.strategy, res.audit, cfg, resolution=200)
    assert report.passed and report.max_gain == 0, report.to_text()


@pytest.mark.parametrize("num_users", [2, 3, 4000])
def test_positive_budget_below_two_type_threshold_has_no_equilibrium(cfg_a, num_users):
    cfg = with_budget(cfg_a, 3, num_users=num_users)
    analysis = ag.budget_thresholds(cfg)
    with pytest.raises(NonexistenceError) as err:
        ag.signaling_equilibrium(cfg)
    assert err.value.budget == 3
    assert err.value.threshold_two_type == analysis.threshold_two_type == F(5775, 806)
    assert err.value.threshold_general == analysis.threshold_general


def test_signaling_equilibrium_below_coalition_verifies_or_is_proved_absent():
    """Below the coalition threshold every two-type game, any population,
    gets a profile that verifies, or a `NonexistenceError` exactly where
    several users meet a positive budget that binds, which the probe
    certifies for two users."""
    rng = random.Random(31)
    checked = nonexistent = probed = 0
    while checked < 300:
        n = rng.randrange(1, 6)
        cfg = make_two_type(F(rng.randrange(1, 20), 20), F(rng.randrange(1, 50)),
                            F(rng.randrange(50, 150)), F(rng.randrange(1, 90)),
                            num_users=n, coalition_size=rng.randrange(1, n + 1))
        analysis = ag.budget_thresholds(cfg)
        budget = rng.choice((0, analysis.threshold_two_type,
                             analysis.threshold_coalition * F(rng.randrange(100), 100)))
        cfg = with_budget(cfg, budget)
        analysis = ag.budget_thresholds(cfg)
        if analysis.regime in (Regime.UNCONSTRAINED, Regime.SUFFICIENT):
            continue
        checked += 1
        if n > 1 and budget > 0 and analysis.budget_binds:
            with pytest.raises(NonexistenceError):
                ag.signaling_equilibrium(cfg)
            nonexistent += 1
            if n == 2:
                assert ag.nonexistence_probe(cfg, 100).complete, cfg
                probed += 1
            continue
        res = ag.signaling_equilibrium(cfg)
        report = ag.verify_equilibrium(res.strategy, res.audit, cfg, resolution=100)
        assert report.passed, (cfg, report.to_text())
    assert 0 < probed < nonexistent < checked


def test_n_type_nonexistence_carries_the_general_threshold():
    cfg = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 3),) * 3, alloc=(10, 20, 40),
                        audit_cost=5, fine=30, budget=1)
    with pytest.raises(NonexistenceError) as err:
        ag.signaling_equilibrium(cfg)
    assert "5/2" in str(err.value) and "None" not in str(err.value)
    assert err.value.budget == 1 and err.value.threshold_two_type is None
    assert err.value.threshold_general == F(5, 2)


def test_lp_agrees_with_closed_form_random():
    rng = random.Random(9)
    for _ in range(40):
        q = F(rng.randrange(1, 20), 20)
        c = F(rng.randrange(1, 50))
        k = c + F(rng.randrange(0, 100))
        df = F(rng.randrange(1, 90))
        cfg = make_two_type(q, c, k, df)
        assert ag.bp_equilibrium(cfg).strategy == ag.two_type_closed_form(cfg).strategy


# -- zero-prior types ----------------------------------------------------------

def _best_reply_row(cfg):
    """The row of a zero-prior type: all mass on the first top credit."""
    top = cfg.alloc.index(max(cfg.alloc))
    return tuple(F(int(s == top)) for s in range(cfg.n_types))


def _zero_prior_game(rng):
    """3 to 6 types, at least one of zero prior and two of positive prior,
    with repeated credits, c == 0 and k == c at times, up to three users,
    and no budget or a budget of 0, or of 1/2, 1 or 3 times the coalition
    threshold."""
    n = rng.randint(3, 6)
    zero = rng.sample(range(n), rng.randint(1, n - 2))
    weights = [0 if m in zero else rng.randint(1, 9) for m in range(n)]
    users = rng.randint(1, 3)
    c = rng.randint(0, 10)
    cfg = ag.GameConfig(types=tuple(f"t{m}" for m in range(n)),
                        prior=tuple(F(w, sum(weights)) for w in weights),
                        alloc=tuple(rng.choice((0, 5, 10, 10, 20, 33, 50)) for _ in range(n)),
                        audit_cost=c, fine=c + rng.randint(0, 20), num_users=users,
                        coalition_size=rng.randint(1, users))
    coalition = ag.budget_thresholds(cfg).threshold_coalition
    return with_budget(cfg, rng.choice((None, 0, coalition / 2, coalition, 3 * coalition)))


def test_zero_prior_games_give_verified_equilibria():
    """Each zero-prior type claims its best reply, and the positive types'
    rows, the excess, the audit and `multiplicity` are those of the game
    without the zero-prior types; every result verifies.  Below the
    coalition threshold a game of three or more types has none at a
    positive budget; at budget 0 every type claims the first top credit,
    nothing is audited, and that verifies."""
    rng = random.Random(33)
    solved = refused = zero_budget = 0
    for _ in range(500):
        cfg = _zero_prior_game(rng)
        if ag.budget_thresholds(cfg).budget_binds:
            if cfg.budget > 0:
                with pytest.raises(NonexistenceError):
                    ag.signaling_equilibrium(cfg)
                refused += 1
                continue
            res = ag.signaling_equilibrium(cfg)
            assert res.provenance == "zero_budget", cfg
            assert res.strategy.rows == (_best_reply_row(cfg),) * cfg.n_types, cfg
            assert res.audit.is_zero(), cfg
            top = max(cfg.alloc)
            assert res.excess == sum(q * (top - f) for q, f in zip(cfg.prior, cfg.alloc)), cfg
            report = ag.verify_equilibrium(res.strategy, res.audit, cfg)
            assert report.passed and report.max_gain == 0, (cfg, report.to_text())
            zero_budget += 1
            continue
        res = ag.signaling_equilibrium(cfg)
        report = ag.verify_equilibrium(res.strategy, res.audit, cfg)
        assert report.passed, (cfg, report.to_text())
        small = without_zero_prior_types(cfg)
        ref = ag.bp_equilibrium(small.replace(budget=None))
        positive = [m for m, q in enumerate(cfg.prior) if q > 0]
        rows, ref_rows = res.strategy.rows, iter(ref.strategy.rows)
        for m, row in enumerate(rows):
            if m in positive:
                ref_row = iter(next(ref_rows))
                assert row == tuple(next(ref_row) if s in positive else 0
                                    for s in range(cfg.n_types)), cfg
            else:
                assert row == _best_reply_row(cfg), cfg
        assert res.excess == ref.excess and res.multiplicity == ref.multiplicity, cfg
        assert res.audit.is_zero() and ref.audit.is_zero()
        solved += 1
    assert solved >= 300 and refused >= 100 and zero_budget >= 50, (solved, refused, zero_budget)


def test_a_zero_prior_type_claims_the_first_of_two_top_credits():
    cfg = ag.GameConfig(types=("a", "b", "c", "z"), prior=(F(1, 2), F(1, 4), F(1, 4), 0),
                        alloc=(50, 105, 105, 70), audit_cost=25, fine=100)
    res = ag.signaling_equilibrium(cfg)
    assert res.strategy.rows[3] == (0, 1, 0, 0)
    assert ag.verify_equilibrium(res.strategy, res.audit, cfg).passed


@pytest.mark.parametrize("prior", [(1, 0), (0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_a_game_with_one_positive_prior_type_is_answered_across_budgets(prior):
    """One user or two, and budgets from none to above every threshold: a
    result that verifies, with each zero-prior type on the top credit, or
    a `NonexistenceError` only where the budget rule of a game with two
    positive types gives one at a positive budget.  Where a budget of 0
    binds, every type claims the top credit and nothing is audited."""
    n = len(prior)
    answered = 0
    for users in (1, 2):
        for budget in (None, 0, 1, 5, 10, 13, 100):
            cfg = ag.GameConfig(types=("a", "b", "z")[:n], prior=prior, alloc=(50, 105, 3)[:n],
                                audit_cost=25, fine=100, budget=budget, num_users=users)
            binds = ag.budget_thresholds(cfg).budget_binds
            if binds and budget and (n > 2 or users > 1):
                with pytest.raises(NonexistenceError):
                    ag.signaling_equilibrium(cfg)
                continue
            res = ag.signaling_equilibrium(cfg)
            assert ag.verify_equilibrium(res.strategy, res.audit, cfg).passed, cfg
            if binds and budget == 0:
                assert res.strategy.rows == (_best_reply_row(cfg),) * n, cfg
                assert res.audit.is_zero(), cfg
            for m, q in enumerate(prior):
                if q == 0:
                    assert res.strategy.rows[m] == _best_reply_row(cfg), cfg
            answered += 1
    assert answered >= 6


# -- verification -------------------------------------------------------------

def test_verify_lp_result(cfg_a):
    res = ag.signaling_equilibrium(cfg_a)
    report = ag.verify_equilibrium(res.strategy, res.audit, cfg_a, resolution=200)
    assert report.passed
    assert report.max_gain <= report.grid_slack


def test_verify_budgeted_results(cfg_a):
    # free audits: budget 0 reaches the coalition threshold 0, so the budget
    # does not bind and the program gives the closed form's strategy
    free = with_budget(cfg_a, 0, audit_cost=0)
    for cfg in [with_budget(cfg_a, budget) for budget in (0, 2, 10)] + [free]:
        res = ag.signaling_equilibrium(cfg)
        report = ag.verify_equilibrium(res.strategy, res.audit, cfg, resolution=120)
        assert report.passed, (cfg.budget, report.to_text())
    res = ag.signaling_equilibrium(free)
    assert res.provenance == "lp"
    assert res.strategy == ag.two_type_closed_form(free).strategy


def test_verify_two_type_sufficient_multiuser(cfg_a):
    # two users, budget above the two-type threshold but below the general one
    cfg = with_budget(cfg_a, F(72, 10), num_users=2)
    assert ag.budget_thresholds(cfg).regime is Regime.TWO_TYPE_SUFFICIENT
    res = ag.signaling_equilibrium(cfg)
    assert res.audit.is_zero()
    report = ag.verify_equilibrium(res.strategy, res.audit, cfg, resolution=150)
    assert report.passed, report.to_text()


def test_verify_rejects_truthful_profile(cfg_a):
    report = ag.verify_equilibrium(ag.Strategy.truthful(2), ag.AuditPolicy.zero(2), cfg_a,
                                   resolution=200)
    assert not report.passed
    gain = report.per_type_gain["low"]
    assert abs(gain - F(5, 26) * 55) <= report.grid_slack


def test_verify_three_type_fixture_reports_audit_mismatch(cfg_three):
    """The hand-built three-type profile survives every user deviation scan,
    but its declared no-audit policy is not the administrator's best
    response (auditing the middle signal gains 1/9), and the report says so."""
    rows = (
        (F(2, 3), F(1, 3), F(0)),
        (F(0), F(2, 3), F(1, 3)),
        (F(0), F(0), F(1)),
    )
    report = ag.verify_equilibrium(ag.Strategy(rows), ag.AuditPolicy.zero(3), cfg_three,
                                   resolution=120)
    assert report.deviations_ok
    assert not report.br_matches
    assert report.expected_audit == (F(0), F(1), F(0))
    assert report.to_text().splitlines()[-1] == (
        "note: profile audit policy is not the best response to its strategy")
    from auditgame.core import audit_margins
    margins = audit_margins(cfg_three.prior, cfg_three.alloc, cfg_three.audit_cost,
                            cfg_three.fine, rows)
    assert margins[1] == F(1, 9)


def test_verify_resolution_floor(cfg_a):
    res = ag.signaling_equilibrium(cfg_a)
    with pytest.raises(InputError):
        ag.verify_equilibrium(res.strategy, res.audit, cfg_a, resolution=5)


def test_result_serialization_roundtrip_fields(cfg_a):
    res = ag.signaling_equilibrium(cfg_a)
    text = res.to_text(cfg_a)
    assert "provenance: lp" in text
    assert "strategy_exact[low]: 21/26,5/26" in text
    assert "excess_exact: 275/52" in text
    assert text == ag.signaling_equilibrium(cfg_a).to_text(cfg_a)


def test_verify_replicated_profile_matches_single_user(cfg_a):
    """A profile of a 10^6-user game verifies exactly as it does in the
    one-user game."""
    cfg = with_budget(cfg_a, F(72, 10), num_users=10**6)
    res = ag.signaling_equilibrium(cfg)
    report = ag.verify_equilibrium(res.strategy, res.audit, cfg, resolution=200)
    assert report.passed
    assert report == ag.verify_equilibrium(res.strategy, res.audit, cfg.replace(num_users=1),
                                           resolution=200)


# Each commented line of README's Python example: the expression, its
# comment, and the value the comment stands for.
README_VALUES = [
    ("eq.strategy.rows", "((21/26, 5/26), (0, 1))", ((F(21, 26), F(5, 26)), (0, 1))),
    ("eq.excess", "Fraction(275, 52)", F(275, 52)),
    ("ag.excess_payments_bound(cfg)", "Fraction(275, 31)", F(275, 31)),
    ("report.passed", "True", True),
]


def test_readme_python_example_gives_its_commented_values():
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    readme = open(path, encoding="utf-8").read()
    block = readme.split("```python\n", 1)[1].split("```\n", 1)[0]
    namespace = {}
    exec(block, namespace)
    commented = [tuple(part.strip() for part in line.split("#", 1))
                 for line in block.splitlines() if "#" in line]
    assert commented == [(expr, comment) for expr, comment, _ in README_VALUES]
    for expr, _, value in README_VALUES:
        assert eval(expr, namespace) == value, expr


def test_result_audit_must_cover_every_signal(cfg_a):
    res = ag.signaling_equilibrium(cfg_a)
    assert res.replace(audit=ag.AuditPolicy((0, F(1, 3)))).audit.probs == (0, F(1, 3))
    with pytest.raises(InputError, match="^the audit policy must cover every signal$"):
        res.replace(audit=ag.AuditPolicy.zero(3))
    with pytest.raises(InputError, match="audit policy covers 3 signals but the game has 2"):
        ag.verify_equilibrium(res.strategy, ag.AuditPolicy.zero(3), cfg_a)


# -- exact grid maximum against the enumerating oracle -----------------------
#
# `best_grid_deviation` must return the very maximum `deviation_search`
# finds by enumerating every row on the grid (Fraction equality, no slack).
# The games mix the cases the greedy's case split turns on: repeated
# credits, free audits, fine == audit cost, zero-probability types, and
# budgets that cap the audit probability below 1.

# (types, resolution) -> cases.  The oracle's cost grows as
# C(res + n - 1, n - 1) per type, so the finer grids go to the smaller games.
RANDOM_PLAN = {(2, 13): 50, (2, 37): 50, (2, 60): 50,
               (3, 13): 40, (3, 37): 16, (3, 60): 5, (4, 13): 20}
EQUILIBRIUM_PLAN = {(2, 37): 10, (3, 13): 8, (3, 60): 3, (4, 13): 6}


def _agreement_game(rng, n):
    weights = [rng.randrange(0 if rng.random() < 0.1 else 1, 6) for _ in range(n)]
    weights[rng.randrange(n)] += 1
    prior = tuple(F(w, sum(weights)) for w in weights)
    pool = [F(rng.randrange(0, 80)) for _ in range(n)]
    alloc = tuple(rng.choice(pool) for _ in range(n))
    c = F(rng.choice([0, 1, rng.randrange(1, 40)]))
    k = c if rng.random() < 0.3 else c + rng.randrange(0, 120)
    budget = None
    if rng.random() < 0.5:
        budget = c * F(rng.randrange(0, 13), 10) if c else F(rng.randrange(0, 3))
    return ag.GameConfig(types=tuple(f"t{i}" for i in range(n)), prior=prior,
                         alloc=alloc, audit_cost=c, fine=k, budget=budget)


def _random_row(rng, n):
    weights = [rng.randrange(0, 5) if rng.random() < 0.7 else 0 for _ in range(n)]
    weights[rng.randrange(n)] += 1
    return tuple(F(w, sum(weights)) for w in weights)


def _non_best_responses(rng, pi, cfg):
    """The best response's complement (never the best response when a
    signal is sent) and a random policy."""
    br = ag.best_response(pi, cfg)
    flipped = ag.AuditPolicy(tuple(F(0) if p else F(1) for p in br.probs))
    rand = ag.AuditPolicy(tuple(F(rng.randrange(0, 5), 4) for _ in range(cfg.n_types)))
    return flipped, rand


def _assert_grid_maximum_agrees(pi, sigma, cfg, resolution):
    from auditgame.equilibrium import best_grid_deviation
    from reference_oracle import GridSpec, deviation_search
    want = deviation_search(pi, sigma, cfg, GridSpec(resolution=resolution))
    got = best_grid_deviation(pi, sigma, cfg, resolution)
    assert got == want, (cfg, pi.rows, sigma.probs, resolution)


def test_best_grid_deviation_matches_oracle_on_random_strategies():
    from auditgame.core import audited_probability
    rng = random.Random(41)
    seen = {"audit_prob_below_1": 0, "free_audits": 0, "fine_equals_cost": 0,
            "equal_credits": 0, "best_response": 0, "not_best_response": 0}
    for (n, resolution), cases in RANDOM_PLAN.items():
        for _ in range(cases):
            cfg = _agreement_game(rng, n)
            pi = ag.Strategy(tuple(_random_row(rng, n) for _ in range(n)))
            br = ag.best_response(pi, cfg)
            sigma = rng.choice((br, br) + _non_best_responses(rng, pi, cfg))
            seen["audit_prob_below_1"] += audited_probability(cfg) < 1
            seen["free_audits"] += cfg.audit_cost == 0
            seen["fine_equals_cost"] += cfg.fine == cfg.audit_cost
            seen["equal_credits"] += len(set(cfg.alloc)) < n
            seen["best_response" if sigma == br else "not_best_response"] += 1
            _assert_grid_maximum_agrees(pi, sigma, cfg, resolution)
    assert min(seen.values()) >= 20, seen


def test_best_grid_deviation_matches_oracle_on_equilibria():
    rng = random.Random(43)
    cases = 0
    for (n, resolution), games in EQUILIBRIUM_PLAN.items():
        for _ in range(games):
            cfg = _agreement_game(rng, n)
            while sum(q > 0 for q in cfg.prior) < 2:
                cfg = _agreement_game(rng, n)
            pi = ag.bp_equilibrium(cfg.replace(budget=None)).strategy
            br = ag.best_response(pi, cfg)
            for sigma in (br, rng.choice(_non_best_responses(rng, pi, cfg))):
                _assert_grid_maximum_agrees(pi, sigma, cfg, resolution)
                cases += 1
    for _ in range(15):
        cfg = _agreement_game(rng, 2)
        results = [ag.two_type_closed_form(cfg)]
        if cfg.budget is not None:
            results.append(ag.signaling_equilibrium(cfg))
        for res in results:
            pi = res.strategy
            br = ag.best_response(pi, cfg)
            for sigma in (res.audit, br) + _non_best_responses(rng, pi, cfg):
                _assert_grid_maximum_agrees(pi, sigma, cfg, rng.choice((13, 37, 60)))
                cases += 1
    assert cases >= 100
