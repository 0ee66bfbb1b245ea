"""Audit vs no-audit total-cost comparison."""

from fractions import Fraction as F

import pytest

import auditgame as ag
from auditgame.core import raw_misreport_cap


def make(q_lo, c, k, df=55, n=1, l=1):
    return ag.GameConfig(types=("low", "high"), prior=(q_lo, 1 - q_lo),
                         alloc=(50, F(50) + df), audit_cost=c, fine=k,
                         num_users=n, coalition_size=l)


def test_cost_no_audit_values():
    assert ag.cost_no_audit(make(F(2, 5), 25, 100, n=4000)) == 88_000
    tiny = make(F(1, 100), 25, 100)
    nearly_zero = tiny.replace(prior=(F(0), F(1)))
    assert ag.cost_no_audit(nearly_zero) == 0


def test_dominates_compares_the_two_totals():
    report = ag.CostReport(cost_no_audit=10, cost_audit=5, budget_component=5,
                           excess_component=0)
    assert report.dominates is True
    assert report.replace(cost_audit=10).dominates is True
    assert report.replace(cost_audit=F(21, 2)).dominates is False
    with pytest.raises(TypeError):
        report.replace(dominates=False)


def test_cost_no_audit_three_type(cfg_three):
    assert ag.cost_no_audit(cfg_three) == 4 - 2


@pytest.mark.parametrize("prior, alloc", [
    ((F(1, 2), F(1, 2)), (50, 105)),
    ((F(3, 10), F(7, 10)), (105, 50)),
    # sums to 1 only within the prior tolerance
    ((F(1, 4), F("0.7500000000001")), (50, 105)),
], ids=["even", "high-first", "prior-within-tolerance"])
def test_cost_no_audit_is_the_two_type_report_cost(prior, alloc):
    cfg = ag.GameConfig(("low", "high"), prior, alloc, 25, 100, num_users=3)
    assert ag.cost_no_audit(cfg) == ag.cost_audit(cfg).cost_no_audit


def test_two_type_cost_example():
    cfg = make(F(1, 2), 75, 300, n=4000, l=1)
    report = ag.cost_audit(cfg)
    assert abs(float(report.budget_component) - 8.5073) < 5e-4
    assert abs(float(report.excess_component) - 29_464.2857) < 5e-4
    assert abs(float(report.cost_audit) - 29_472.8) < 5e-2
    assert report.cost_audit <= report.cost_no_audit == 110_000
    assert report.cost_audit == report.budget_component + report.excess_component
    assert report.budget_component >= 0 and report.excess_component >= 0
    assert report.dominates


def test_two_type_cost_equality_branch():
    # prior below c/(k + df): the mechanism collapses to no-audit exactly
    cfg = make(F(15, 100), 75, 300, n=4000)
    report = ag.cost_audit(cfg)
    assert F(15, 100) < F(75, 355)
    assert report.budget_component == 0
    assert report.cost_audit == report.cost_no_audit
    assert "reduces to no-audit" in report.regime_note


def test_two_type_cost_coalition_scaling():
    r1 = ag.cost_audit(make(F(1, 2), 75, 300, n=4000, l=1))
    r150 = ag.cost_audit(make(F(1, 2), 75, 300, n=4000, l=150))
    assert r150.cost_audit - r1.cost_audit == 149 * r1.budget_component
    assert r150.excess_component == r1.excess_component


def test_multitype_cost_fixture(cfg_three):
    report = ag.cost_audit(cfg_three)
    assert report.excess_component == F(22, 45)
    # general-threshold budget with the full credit spread (4 here)
    assert report.budget_component == F(1) * 4 / (2 + 4)
    assert report.cost_audit == F(22, 45) + F(2, 3)
    assert report.cost_audit == report.budget_component + report.excess_component
    assert report.cost_no_audit == 2
    assert report.cost_audit <= report.cost_no_audit
    # threshold is negative here, so any legal fine qualifies
    assert report.fine_threshold == 4 * (F(1) / (2 - F(22, 45)) - 1)
    assert report.fine_threshold < 0
    assert report.dominates


def test_multitype_cost_large_fine(cfg_three):
    cfg = cfg_three.replace(fine=10**6)
    report = ag.cost_audit(cfg)
    assert report.excess_component < F(1, 10**4)
    assert report.cost_audit < F(1, 100)
    assert report.dominates


def test_multitype_fine_below_threshold_does_not_dominate():
    # enough mass on the top type that the fine threshold exceeds the fine
    cfg = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 5), F(1, 5), F(3, 5)),
                        alloc=(0, 2, 4), audit_cost=1, fine=2)
    report = ag.cost_audit(cfg)
    assert report.fine_threshold == F(31, 11)
    assert cfg.fine < report.fine_threshold
    assert report.cost_audit > report.cost_no_audit
    assert report.dominates is False
    assert report.regime_note == ""


def test_multitype_degenerate_headroom():
    # everyone's claims reach the top credit: no fine threshold exists
    cfg = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 10), F(1, 10), F(4, 5)),
                        alloc=(0, 2, 4), audit_cost=1, fine=2)
    report = ag.cost_audit(cfg)
    assert report.fine_threshold is None
    assert report.cost_audit > report.cost_no_audit
    assert report.dominates is False
    assert report.regime_note == "every claim already reaches the top credit"


def test_multitype_verdict_is_the_exact_comparison():
    # the verdict is the comparison of the totals, and wherever a fine
    # threshold is reported the fine reaching it decides the same verdict,
    # for coalitions smaller than the population too
    import random
    rng = random.Random(26)
    verdicts = set()
    for _ in range(120):
        n = rng.choice((3, 4))
        weights = [rng.randint(1, 6) for _ in range(n)]
        c = rng.randint(1, 30)
        users = rng.choice((1, 1, 2, 9))
        cfg = ag.GameConfig(types=tuple("abcd"[:n]),
                            prior=tuple(F(w, sum(weights)) for w in weights),
                            alloc=tuple(rng.sample(range(1, 60), n)),
                            audit_cost=c, fine=rng.randint(c, c + 10), num_users=users,
                            coalition_size=rng.randint(1, users))
        report = ag.cost_audit(cfg)
        assert report.dominates is (report.cost_audit <= report.cost_no_audit), cfg
        if report.fine_threshold is not None:
            assert report.dominates is (cfg.fine >= report.fine_threshold), cfg
        verdicts.add(report.dominates)
    assert verdicts == {True, False}


def test_multitype_cost_ignores_the_configured_budget():
    # the cost pins its own budget, so a configured budget below the general
    # existence threshold 5/2 changes nothing and raises no regime error
    cfg = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 3),) * 3, alloc=(10, 20, 40),
                        audit_cost=5, fine=30)
    report = ag.cost_audit(cfg)
    assert report.budget_component == F(5, 2)
    for budget in (0, 1, F(5, 2), 100):
        assert ag.cost_audit(cfg.replace(budget=budget)) == report


@pytest.mark.parametrize("coalition", [1, 7, 4000])
def test_multitype_budget_is_the_coalition_threshold(coalition):
    # the dispatcher's rule: l times the general threshold 5/2, whatever the
    # user count, and `signaling_equilibrium` answers at that budget
    cfg = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 3),) * 3, alloc=(10, 20, 40),
                        audit_cost=5, fine=30, num_users=4000, coalition_size=coalition)
    report = ag.cost_audit(cfg)
    assert report.budget_component == coalition * F(5, 2)
    eq = ag.signaling_equilibrium(cfg.replace(budget=report.budget_component))
    assert eq.provenance == "lp"


def test_cost_audit_for_two_and_three_types(cfg_a, cfg_three):
    assert ag.cost_audit(cfg_a).cost_no_audit == F(55, 2)
    assert ag.cost_audit(cfg_three).excess_component == F(22, 45)


def test_dominance_and_gap_monotonicity_grid():
    qs = [F(i, 20) for i in range(1, 20)]
    for c, k in ((25, 100), (75, 300), (125, 500)):
        gaps = []
        for q in qs:
            r = ag.cost_audit(make(q, c, k, n=4000))
            assert r.cost_audit <= r.cost_no_audit
            if q <= F(c, k + 55):
                assert r.cost_audit == r.cost_no_audit
            gaps.append(r.cost_no_audit - r.cost_audit)
        assert all(a <= b for a, b in zip(gaps, gaps[1:])), (c, k)


def test_dominance_any_population_and_coalition():
    import random
    rng = random.Random(23)
    for _ in range(60):
        q = F(rng.randrange(1, 20), 20)
        c = F(rng.randrange(1, 60))
        k = c + F(rng.randrange(0, 150))
        n = rng.randrange(1, 5000)
        l = rng.randrange(1, n + 1)
        r = ag.cost_audit(make(q, c, k, n=n, l=l))
        assert r.cost_audit <= r.cost_no_audit


def _raw_components(q_min, c, k, df, n_users, coalition):
    """(no_audit, budget, excess, p) from the closed forms: the budget is the
    coalition times the two-type threshold c*df*(1 - p)/(k + df)."""
    p = raw_misreport_cap(1 - q_min, q_min, c, k, df)
    no_audit = n_users * q_min * df
    return no_audit, coalition * c * df * (1 - p) / (k + df), no_audit * p, p


def test_raw_components_match_config_route():
    for q, c, k in ((F(3, 10), 25, 100), (F(8, 10), 75, 300)):
        cfg = make(q, c, k, n=17, l=3)
        report = ag.cost_audit(cfg)
        no_audit, budget, excess, _ = _raw_components(q, F(c), F(k), F(55), 17, 3)
        assert (no_audit, budget, excess) == (
            report.cost_no_audit, report.budget_component, report.excess_component)


def test_raw_components_beyond_validator_range():
    # fine below audit cost: instance validation refuses, formulas still fine
    no_audit, budget, excess, p = _raw_components(F(9, 10), F(125), F(100), F(55), 1, 1)
    assert no_audit >= budget + excess
    assert 0 < p < 1
