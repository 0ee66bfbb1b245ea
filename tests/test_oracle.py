"""The enumerating grid oracles in `reference_oracle.py`, and the probe."""

import random
from fractions import Fraction as F

import pytest

import auditgame as ag
from auditgame import InputError, nonexistence_probe
from auditgame.equilibrium import grid_slack

from conftest import with_budget
from reference_oracle import (
    GridSpec, coalition_deviation_search, deviation_search, grid_best_strategy, _feasible,
    walk_nonexistence_probe,
)


def test_gridspec_validation():
    with pytest.raises(InputError):
        GridSpec(resolution=5)
    with pytest.raises(InputError):
        GridSpec(resolution=100, max_enumeration=10)


def test_grid_slack(cfg_a):
    assert grid_slack(cfg_a, 200) == F(155, 200)


# -- grid search -----------------------------------------------------------

def test_grid_best_contains_closed_form_on_grid(cfg_a):
    res = grid_best_strategy(cfg_a, GridSpec(resolution=260))
    assert res.strategy.rows[0][1] == F(50, 260) == F(5, 26)
    assert not res.coarse
    assert _feasible(cfg_a, res.strategy.rows)


def test_grid_best_truthful_when_audits_free():
    cfg = ag.GameConfig(types=("low", "high"), prior=(F(1, 2), F(1, 2)),
                        alloc=(50, 105), audit_cost=0, fine=100)
    res = grid_best_strategy(cfg, GridSpec(resolution=50))
    assert res.strategy == ag.Strategy.truthful(2)


def test_grid_best_three_type_near_lp(cfg_three):
    res = grid_best_strategy(cfg_three, GridSpec(resolution=120))
    eq = ag.bp_equilibrium(cfg_three)
    slack = 3 * grid_slack(cfg_three, res.resolution_used)
    assert res.objective <= eq.user_utility_avg(cfg_three)
    assert res.objective >= eq.user_utility_avg(cfg_three) - slack
    assert _feasible(cfg_three, res.strategy.rows)


def test_grid_best_coarse_mode_flags():
    # a wide-open instance: tiny fine margin pushes every cap to 1
    cfg = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 3), F(1, 3), F(1, 3)),
                        alloc=(0, 50, 100), audit_cost=40, fine=40)
    res = grid_best_strategy(cfg, GridSpec(resolution=200, max_enumeration=50_000))
    assert res.coarse
    assert res.resolution_used < 200
    assert res.points_evaluated <= 50_000


def test_grid_search_never_beats_program_random():
    rng = random.Random(41)
    for _ in range(8):
        n = rng.choice([2, 3])
        weights = [rng.randrange(1, 6) for _ in range(n)]
        prior = tuple(F(w, sum(weights)) for w in weights)
        alloc = tuple(sorted(F(rng.randrange(0, 90)) for _ in range(n)))
        if len(set(alloc)) != n:
            continue
        c = F(rng.randrange(1, 30))
        k = c + F(rng.randrange(1, 80))
        cfg = ag.GameConfig(types=tuple(f"t{i}" for i in range(n)), prior=prior,
                            alloc=alloc, audit_cost=c, fine=k)
        eq = ag.bp_equilibrium(cfg)
        res = grid_best_strategy(cfg, GridSpec(resolution=60))
        assert res.objective <= eq.user_utility_avg(cfg)
        assert res.objective >= eq.user_utility_avg(cfg) - n * grid_slack(cfg, res.resolution_used)


# -- deviation search --------------------------------------------------------

def test_deviation_search_lp_equilibrium(cfg_a):
    eq = ag.bp_equilibrium(cfg_a)
    gains = deviation_search(eq.strategy, eq.audit, cfg_a, GridSpec(resolution=200))
    assert all(g <= grid_slack(cfg_a, 200) for g in gains.values())


def test_deviation_search_truthful_gain(cfg_a):
    gains = deviation_search(ag.Strategy.truthful(2), ag.AuditPolicy.zero(2), cfg_a,
                             GridSpec(resolution=200))
    assert abs(gains["low"] - F(5, 26) * 55) <= grid_slack(cfg_a, 200)
    assert gains["high"] == 0


def test_deviation_search_three_type_fixture(cfg_three):
    """The constructed non-program equilibrium profile: each type's
    misreporting mass sits one third on the next credit level up."""
    rows = (
        (F(2, 3), F(1, 3), F(0)),
        (F(0), F(2, 3), F(1, 3)),
        (F(0), F(0), F(1)),
    )
    gains = deviation_search(ag.Strategy(rows), ag.AuditPolicy.zero(3), cfg_three,
                             GridSpec(resolution=200))
    assert all(g <= grid_slack(cfg_three, 200) for g in gains.values())
    # its excess stays strictly below the program optimum's 22/45
    ex = ag.excess_payments(ag.Strategy(rows), ag.AuditPolicy.zero(3), cfg_three)
    assert ex == F(4, 9) < F(22, 45)


# -- audit-gain sign oracle ----------------------------------------------------

def test_best_response_matches_posterior_gain_sign():
    """The audit rule agrees with the sign of the posterior expected gain,
    computed through an explicit normalization rather than the mass form."""
    rng = random.Random(17)
    ties = 0
    for _ in range(800):
        n = rng.choice([2, 3])
        weights = [rng.randrange(1, 9) for _ in range(n)]
        prior = tuple(F(w, sum(weights)) for w in weights)
        alloc = tuple(F(rng.randrange(0, 120)) for _ in range(n))
        c = F(rng.randrange(1, 40))
        k = c + F(rng.randrange(0, 80))
        cfg = ag.GameConfig(types=tuple(f"t{i}" for i in range(n)), prior=prior,
                            alloc=alloc, audit_cost=c, fine=k)
        rows = []
        for m in range(n):
            cuts = sorted(rng.randrange(0, 13) for _ in range(n - 1))
            parts = [a - b for a, b in zip(cuts + [12], [0] + cuts)]
            rows.append(tuple(F(p, 12) for p in parts))
        pi = ag.Strategy(tuple(rows))
        br = ag.best_response(pi, cfg)
        for s in range(n):
            mass = sum(pi.rows[m][s] * cfg.prior[m] for m in range(n))
            if mass == 0:
                assert br.probs[s] == 0
                continue
            posterior_gain = -c + sum(
                (pi.rows[m][s] * cfg.prior[m] / mass)
                * (max(alloc[s] - alloc[m], 0) + k)
                for m in range(n) if m != s
            )
            if posterior_gain > 0:
                assert br.probs[s] == 1
            else:
                assert br.probs[s] == 0
            ties += posterior_gain == 0 and any(pi.rows[m][s] > 0 for m in range(n) if m != s)
    assert ties >= 0


# -- non-existence probe ---------------------------------------------------------

def test_probe_guards(cfg_a):
    with pytest.raises(InputError, match="grid resolution must be at least 10"):
        nonexistence_probe(with_budget(cfg_a, 3, num_users=2), 9)
    with pytest.raises(InputError):
        nonexistence_probe(with_budget(cfg_a, 3), 20)  # one user
    two = with_budget(cfg_a, 0, num_users=2)
    with pytest.raises(InputError):
        nonexistence_probe(two, 20)  # zero budget
    rich = with_budget(cfg_a, 8, num_users=2)
    with pytest.raises(InputError):
        nonexistence_probe(rich, 20)  # above threshold


def test_probe_certifies_all_profiles(cfg_a):
    cfg = with_budget(cfg_a, 3, num_users=2)
    report = nonexistence_probe(cfg, 40)
    assert report.total_profiles == 41 * 41
    assert report.complete
    assert report.fraction_certified == 1
    assert report.case_counts["undercut-raise"] > 0
    assert report.case_counts["tie-undercut"] > 0
    text = report.to_text()
    assert "fraction_certified: 1" in text


def test_probe_tie_at_threshold_case():
    # a grid that lands exactly on the indifference point (1/4 at res 40)
    cfg = ag.GameConfig(types=("low", "high"), prior=(F(1, 2), F(1, 2)),
                        alloc=(50, 105), audit_cost=31, fine=100,
                        num_users=2, budget=F(1, 2))
    from auditgame.bounds import two_type_misreport_prob
    assert two_type_misreport_prob(cfg) == F(1, 4)
    report = nonexistence_probe(cfg, 40)
    assert report.complete
    assert report.case_counts["tie-at-threshold-jump"] == 1


def _random_probe_game(rng):
    """A two-user game with a budget strictly inside (0, two-type threshold);
    the low type is listed first or second at random."""
    while True:
        w_lo, w_hi = rng.randrange(1, 6), rng.randrange(1, 6)
        f_lo = rng.randrange(0, 40)
        f_hi = f_lo + rng.randrange(1, 40)
        c = rng.randrange(1, 30)
        types, alloc = ("low", "high"), (f_lo, f_hi)
        prior = (F(w_lo, w_lo + w_hi), F(w_hi, w_lo + w_hi))
        if rng.random() < 0.5:
            types, prior, alloc = types[::-1], prior[::-1], alloc[::-1]
        cfg = ag.GameConfig(types=types, prior=prior, alloc=alloc, audit_cost=c,
                            fine=c + rng.randrange(0, 60), num_users=2)
        threshold = ag.budget_thresholds(cfg).threshold_two_type
        if threshold > 0:   # else the low type always misreports: no region
            return with_budget(cfg, threshold * F(rng.randrange(1, 100), 100))


def test_probe_matches_the_walk_on_random_games():
    """Certifying each region once reports what walking every profile does."""
    from auditgame.bounds import two_type_misreport_prob
    rng = random.Random(7)
    seen = dict.fromkeys(("below-threshold-raise", "undercut-raise",
                          "tie-at-threshold-jump", "tie-undercut"), 0)
    orders = set()
    for _ in range(40):
        cfg = _random_probe_game(rng)
        den = two_type_misreport_prob(cfg).denominator
        if den <= 100 and rng.random() < 0.5:   # a grid through p*
            res = den * rng.randrange(-(-10 // den), 100 // den + 1)
        else:
            res = rng.randrange(10, 101)
        report = nonexistence_probe(cfg, res)
        walked = walk_nonexistence_probe(cfg, res)
        assert report.to_text() == walked.to_text()
        for name in report._fields:
            assert getattr(report, name) == getattr(walked, name), name
        for name, count in report.case_counts.items():
            seen[name] += count > 0
        orders.add(cfg.low_high_indices())
    assert all(n >= 3 for n in seen.values()), seen
    assert orders == {(0, 1), (1, 0)}


# -- coalition deviations -----------------------------------------------------

def test_no_coalition_deviation_at_scaled_budget(cfg_a):
    for l in (2, 3):
        thr = ag.budget_thresholds(cfg_a).threshold_general
        cfg = with_budget(cfg_a, l * thr, num_users=5, coalition_size=l)
        best = coalition_deviation_search(cfg, l, GridSpec(resolution=25))
        assert best is None


def test_coalition_search_guards(cfg_a, cfg_three):
    with pytest.raises(InputError):
        coalition_deviation_search(cfg_three, 2, GridSpec(resolution=10))
    with pytest.raises(InputError):
        coalition_deviation_search(cfg_a, 4, GridSpec(resolution=10))
    with pytest.raises(InputError):
        coalition_deviation_search(cfg_a, 2, GridSpec(resolution=10))  # exceeds num_users
