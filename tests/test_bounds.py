"""Misreporting and excess caps, and the fine-for-tolerance inversion."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

import auditgame as ag
from auditgame import InputError, NonexistenceError, Regime
from auditgame.bounds import bound_report
from auditgame.numeric import sig15

from conftest import closed_form, fine_for_tolerance, misreport_prob_bound


def make(q_lo, c, k, df=55):
    return ag.GameConfig(types=("low", "high"), prior=(q_lo, 1 - q_lo),
                         alloc=(50, 50 + df), audit_cost=c, fine=k)


def test_misreport_bound_reference_values():
    cases = [
        (F(1, 4), 25, 100, "0.576923076923077"),
        (F(1, 2), 50, 200, "0.24390243902439"),
        (F(3, 4), 150, 1000, "0.0552486187845304"),
    ]
    for q, c, k, digits in cases:
        cfg = make(q, c, k)
        assert sig15(misreport_prob_bound(cfg, "high", "low")) == digits


def test_misreport_bound_requires_distinct_labels(cfg_a):
    with pytest.raises(InputError):
        misreport_prob_bound(cfg_a, "low", "low")


def test_vacuous_underreport_pair():
    # under-report with k = c: denominator f(s) - f(m) + k - c < 0
    cfg = make(F(1, 2), 10, 10)
    assert misreport_prob_bound(cfg, "low", "high") == 1
    assert bound_report(cfg).vacuous_pairs == (("low", "high"),)


def test_excess_bound_values(cfg_a):
    assert ag.excess_payments_bound(cfg_a) == F(1375, 155)
    assert abs(float(ag.excess_payments_bound(cfg_a)) - 8.8710) < 5e-5
    assert ag.excess_payments_bound(make(F(1, 2), 0, 100)) == 0
    assert ag.excess_payments_bound(make(F(1, 2), 25, 10**12)) < F(1, 10**8)


def test_fine_for_tolerance(cfg_a):
    assert fine_for_tolerance(cfg_a, 5) == 220
    assert fine_for_tolerance(cfg_a, 25) == 25     # tolerance at the cost: clamp
    assert fine_for_tolerance(cfg_a, 1000) == 25
    with pytest.raises(InputError):
        fine_for_tolerance(cfg_a, 0)


def test_fine_for_tolerance_roundtrip():
    for k0 in (F(30), F(100), F(345, 2)):
        cfg = make(F(1, 2), 25, k0)
        tol = ag.excess_payments_bound(cfg)
        assert fine_for_tolerance(cfg, tol) == k0
        # relaxing the tolerance never raises the required fine
        assert fine_for_tolerance(cfg, tol * 2) <= k0


def test_bounds_monotone_in_parameters():
    by_k = [ag.excess_payments_bound(make(F(1, 2), 25, k)) for k in (50, 100, 400, 1600)]
    assert all(a >= b for a, b in zip(by_k, by_k[1:]))
    by_c = [ag.excess_payments_bound(make(F(1, 2), c, 400)) for c in (5, 25, 100)]
    assert all(a <= b for a, b in zip(by_c, by_c[1:]))
    cap_by_k = [misreport_prob_bound(make(F(1, 2), 25, k), "high", "low")
                for k in (50, 100, 400, 1600)]
    assert all(a >= b for a, b in zip(cap_by_k, cap_by_k[1:]))


def test_bound_report_binding_pairs(cfg_a):
    eq = closed_form(cfg_a)
    report = bound_report(cfg_a, strategy=eq.strategy)
    assert report.caps[("high", "low")] == F(5, 26)
    assert ("high", "low") in report.binding_pairs
    assert report.excess_cap == F(1375, 155)
    # caps in type order: the CSV rows of `bounds`
    assert list(report.caps.items())[0] == (("high", "low"), F(5, 26))


def test_equilibria_respect_bounds(cfg_a, cfg_three):
    for cfg in (cfg_a, cfg_three):
        eq = ag.bp_equilibrium(cfg)
        for m, ml in enumerate(cfg.types):
            for s, sl in enumerate(cfg.types):
                if s != m:
                    assert eq.strategy.rows[m][s] <= misreport_prob_bound(cfg, sl, ml)
        assert eq.excess <= ag.excess_payments_bound(cfg)


def _budgeted_game(rng):
    """A random game of two or three types, one or several users, and a
    budget of None, zero, a threshold or a multiple of one."""
    n = rng.choice((2, 2, 3))
    weights = [rng.randrange(1, 6), rng.randrange(1, 6)] + [rng.randrange(0, 6)] * (n - 2)
    rng.shuffle(weights)   # at least two types of positive prior
    users = rng.choice((1, 1, 2, 5))
    c = F(rng.choice((0, rng.randrange(1, 40))))
    cfg = ag.GameConfig(types=tuple(f"t{i}" for i in range(n)),
                        prior=tuple(F(w, sum(weights)) for w in weights),
                        alloc=tuple(F(rng.randrange(0, 80)) for _ in range(n)),
                        audit_cost=c, fine=c + rng.randrange(0, 120), num_users=users,
                        coalition_size=rng.randrange(1, users + 1))
    analysis = ag.budget_thresholds(cfg)
    thresholds = [analysis.threshold_general, analysis.threshold_coalition]
    if n == 2:   # and the budgets between the two-type and the general threshold
        thresholds += [analysis.threshold_two_type,
                       (analysis.threshold_two_type + analysis.threshold_general) / 2]
    threshold = rng.choice(thresholds)
    budget = rng.choice((None, 0, threshold, threshold * F(rng.randrange(0, 30), 20)))
    return cfg.replace(budget=budget)


def test_every_equilibrium_satisfies_the_caps_its_report_claims():
    # where the budget binds the report claims no caps; everywhere else the
    # equilibrium keeps every per-pair cap and the excess cap
    rng = random.Random(27)
    seen = Counter()
    for _ in range(400):
        cfg = _budgeted_game(rng)
        analysis = ag.budget_thresholds(cfg)
        report = bound_report(cfg)
        assert report.budget_binds == analysis.budget_binds
        if report.budget_binds:
            assert (report.caps, report.excess_cap) == ({}, None)
        else:
            assert len(report.caps) == cfg.n_types * (cfg.n_types - 1)
        try:
            eq = ag.signaling_equilibrium(cfg)
        except NonexistenceError:
            seen["no equilibrium"] += 1
            continue
        for (s, m), cap in report.caps.items():
            assert eq.strategy.rows[cfg.index(m)][cfg.index(s)] <= cap, (cfg, s, m)
        if report.excess_cap is not None:
            assert eq.excess <= report.excess_cap, cfg
        seen[analysis.regime, analysis.budget_binds] += 1
    assert seen["no equilibrium"] > 0
    for regime in Regime:
        assert any(seen[regime, binds] for binds in (False, True)), (regime, seen)
    # one user: both sides of the two-type threshold
    assert min(seen[Regime.TWO_TYPE_ANY_BUDGET_SINGLE_USER, binds] for binds in (False, True)) >= 5


def test_the_budget_one_example_has_no_caps(cfg_a):
    # the budget-exhausting equilibrium misreports with probability 1 and
    # pays excess 26.4, above the unbudgeted caps 5/26 and 1375/155
    cfg = cfg_a.replace(budget=1)
    eq = ag.signaling_equilibrium(cfg)
    assert eq.strategy.rows[0][1] == 1 and eq.excess == F(132, 5)
    assert bound_report(cfg) == bound_report(cfg, strategy=eq.strategy) == ag.BoundReport(
        caps={}, excess_cap=None, binding_pairs=(), vacuous_pairs=(), budget_binds=True)
