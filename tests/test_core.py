"""Payoffs, utilities, excess payments, and the audit best response."""

import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import auditgame as ag
from auditgame import InputError
from auditgame.core import audit_margins



# -- stage payoffs -------------------------------------------------------

def test_admin_payoff_cases(cfg_a):
    assert ag.admin_payoff(0, "high", "low", cfg_a) == -105
    assert ag.admin_payoff(1, "low", "low", cfg_a) == -75
    assert ag.admin_payoff(1, "high", "low", cfg_a) == 100 - 25 - 50
    # under-report while audited: pay only the smaller amount
    assert ag.admin_payoff(1, "low", "high", cfg_a) == 100 - 25 - 50


def test_user_payoff_cases(cfg_a):
    assert ag.user_payoff(0, "high", "low", cfg_a) == 105
    assert ag.user_payoff(1, "high", "high", cfg_a) == 105
    assert ag.user_payoff(1, "high", "low", cfg_a) == 50 - 100
    assert ag.user_payoff(1, "low", "high", cfg_a) == 50 - 100


def test_payoff_rejects_unknown_labels_and_flags(cfg_a):
    with pytest.raises(InputError):
        ag.admin_payoff(0, "mid", "low", cfg_a)
    with pytest.raises(InputError):
        ag.user_payoff(2, "high", "low", cfg_a)


# -- expected utilities --------------------------------------------------

def test_admin_utility_truthful_no_audit(cfg_a):
    pi = ag.Strategy.truthful(2)
    sigma = ag.AuditPolicy.zero(2)
    assert ag.admin_utility(pi, sigma, cfg_a) == F(-155, 2)


def test_admin_utility_no_audit_is_negative_expected_payout(cfg_a):
    pi = ag.two_type_strategy(cfg_a, F(3, 10))
    sigma = ag.AuditPolicy.zero(2)
    expected = -(F(1, 2) * (F(7, 10) * 50 + F(3, 10) * 105) + F(1, 2) * 105)
    assert ag.admin_utility(pi, sigma, cfg_a) == expected


def test_user_utility_type_cases(cfg_a):
    truthful = ag.Strategy.truthful(2)
    sigma = ag.AuditPolicy((F(1, 3), F(2, 3)))
    assert ag.user_utility_type(truthful, sigma, "low", cfg_a) == 50
    assert ag.user_utility_type(truthful, sigma, "high", cfg_a) == 105

    always = ag.two_type_strategy(cfg_a, 1)
    audit_high = ag.AuditPolicy((0, 1))
    assert ag.user_utility_type(always, audit_high, "low", cfg_a) == 105 - (55 + 100)

    partial = ag.two_type_strategy(cfg_a, F(3, 10))
    assert ag.user_utility_type(partial, ag.AuditPolicy.zero(2), "low", cfg_a) == F(133, 2)


def test_user_utility_avg(cfg_a):
    truthful = ag.Strategy.truthful(2)
    zero = ag.AuditPolicy.zero(2)
    assert ag.user_utility_avg(truthful, zero, cfg_a) == F(155, 2)
    opt = ag.two_type_strategy(cfg_a, F(5, 26))
    assert ag.user_utility_avg(opt, zero, cfg_a) == F(155, 2) + F(1, 2) * F(5, 26) * 55


def test_dimension_mismatch_is_input_error(cfg_a):
    pi3 = ag.Strategy.truthful(3)
    with pytest.raises(InputError):
        ag.admin_utility(pi3, ag.AuditPolicy.zero(3), cfg_a)
    with pytest.raises(InputError):
        ag.user_utility_type(ag.Strategy.truthful(2), ag.AuditPolicy.zero(3), "low", cfg_a)


# -- excess payments -----------------------------------------------------

def test_excess_payments_cases(cfg_a):
    zero = ag.AuditPolicy.zero(2)
    assert ag.excess_payments(ag.Strategy.truthful(2), ag.AuditPolicy((1, 1)), cfg_a) == 0
    pi = ag.two_type_strategy(cfg_a, F(5, 26))
    assert ag.excess_payments(pi, zero, cfg_a) == F(1, 2) * F(5, 26) * 55
    # an audited misreporter is fined, never overpaid
    assert ag.excess_payments(ag.two_type_strategy(cfg_a, 1), ag.AuditPolicy((0, 1)), cfg_a) == 0


def test_excess_matches_avg_utility_shift_without_audits(cfg_a):
    # no-audit identity for strategies that never under-report
    for p in (F(0), F(1, 7), F(5, 26), F(1)):
        pi = ag.two_type_strategy(cfg_a, p)
        zero = ag.AuditPolicy.zero(2)
        truthful_avg = F(1, 2) * 50 + F(1, 2) * 105
        assert ag.excess_payments(pi, zero, cfg_a) == ag.user_utility_avg(pi, zero, cfg_a) - truthful_avg


def test_zero_sum_identity_no_audit(cfg_a):
    rng = random.Random(0)
    zero = ag.AuditPolicy.zero(2)
    for _ in range(50):
        rows = []
        for _ in range(2):
            a = F(rng.randrange(0, 101), 100)
            rows.append((1 - a, a))
        pi = ag.Strategy(tuple(rows))
        assert ag.user_utility_avg(pi, zero, cfg_a) + ag.admin_utility(pi, zero, cfg_a) == 0


# -- expectation identities ----------------------------------------------

def _random_instance(rng, n_types=None):
    n = n_types or rng.choice([2, 3, 4])
    labels = tuple(f"t{i}" for i in range(n))
    weights = [rng.randrange(1, 10) for _ in range(n)]
    total = sum(weights)
    prior = tuple(F(w, total) for w in weights)
    alloc = tuple(F(rng.randrange(0, 200)) for _ in range(n))
    c = F(rng.randrange(0, 50))
    k = c + F(rng.randrange(0, 150))
    cfg = ag.GameConfig(types=labels, prior=prior, alloc=alloc, audit_cost=c, fine=k)
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randrange(0, 11) for _ in range(n - 1))
        parts = [a - b for a, b in zip(cuts + [10], [0] + cuts)]
        rows.append(tuple(F(p, 10) for p in parts))
    pi = ag.Strategy(tuple(rows))
    sigma = ag.AuditPolicy(tuple(F(rng.randrange(0, 11), 10) for _ in range(n)))
    return cfg, pi, sigma


def test_utilities_equal_exact_expectation_of_payoffs():
    """Closed-form utilities equal the payoff expectations on 10^4 random
    instances, with the expectation enumerated exactly (no sampling error)."""
    rng = random.Random(7)
    for _ in range(10_000):
        cfg, pi, sigma = _random_instance(rng)
        admin = F(0)
        users = [F(0)] * cfg.n_types
        for m, m_label in enumerate(cfg.types):
            for s, s_label in enumerate(cfg.types):
                p_sig = pi.rows[m][s]
                if p_sig == 0:
                    continue
                for a in (0, 1):
                    p_a = sigma.probs[s] if a == 1 else 1 - sigma.probs[s]
                    if p_a == 0:
                        continue
                    admin += cfg.prior[m] * p_sig * p_a * ag.admin_payoff(a, s_label, m_label, cfg)
                    users[m] += p_sig * p_a * ag.user_payoff(a, s_label, m_label, cfg)
        assert ag.admin_utility(pi, sigma, cfg) == admin
        for m, m_label in enumerate(cfg.types):
            assert ag.user_utility_type(pi, sigma, m_label, cfg) == users[m]


def test_excess_payments_equal_exact_expectation():
    rng = random.Random(11)
    for _ in range(200):
        cfg, pi, sigma = _random_instance(rng)
        expected = F(0)
        for m, m_label in enumerate(cfg.types):
            for s, s_label in enumerate(cfg.types):
                p_sig = pi.rows[m][s]
                if p_sig == 0:
                    continue
                for a in (0, 1):
                    p_a = sigma.probs[s] if a == 1 else 1 - sigma.probs[s]
                    gain = ag.user_payoff(a, s_label, m_label, cfg) - cfg.alloc[m]
                    if gain > 0:
                        expected += cfg.prior[m] * p_sig * p_a * gain
        value = ag.excess_payments(pi, sigma, cfg)
        assert value == expected
        assert value >= 0


def test_monte_carlo_admin_utility_matches(cfg_a):
    """Sampled stage payoffs agree with the closed form within 3 sigma."""
    rng = np.random.default_rng(2024)
    pi = ag.two_type_strategy(cfg_a, F(2, 5))
    sigma = ag.AuditPolicy((F(1, 10), F(3, 5)))
    n = 1_000_000
    q = np.array([float(x) for x in cfg_a.prior])
    m = rng.choice(2, size=n, p=q)
    pi_f = np.array([[float(v) for v in row] for row in pi.rows])
    u = rng.random(n)
    s = np.where(u < pi_f[m, 0], 0, 1)
    sig_f = np.array([float(v) for v in sigma.probs])
    a = rng.random(n) < sig_f[s]
    f = np.array([50.0, 105.0])
    c, k = 25.0, 100.0
    payoff = np.where(
        ~a, -f[s], np.where(s == m, -c - f[m], k - c - np.minimum(f[m], f[s]))
    )
    sample_mean = payoff.mean()
    sample_err = payoff.std(ddof=1) / np.sqrt(n)
    closed = float(ag.admin_utility(pi, sigma, cfg_a))
    assert abs(sample_mean - closed) < 3 * sample_err

    user_payoff = np.where(a & (s != m), np.minimum(f[m], f[s]) - k, np.where(a, f[m], f[s]))
    closed_user = float(ag.user_utility_avg(pi, sigma, cfg_a))
    err_user = user_payoff.std(ddof=1) / np.sqrt(n)
    assert abs(user_payoff.mean() - closed_user) < 3 * err_user


# -- under-reporting is dominated -----------------------------------------

def test_underreport_transform_improves_utility():
    """Moving under-report mass to the diagonal strictly beats the original
    strategy against the respective best responses."""
    rng = random.Random(3)
    transformed = 0
    for _ in range(300):
        cfg, pi, _ = _random_instance(rng)
        under = [
            (s, m)
            for m in range(cfg.n_types)
            for s in range(cfg.n_types)
            if s != m and cfg.alloc[s] < cfg.alloc[m] and pi.rows[m][s] > 0
        ]
        if not under:
            continue
        s0, m0 = under[0]
        row = list(pi.rows[m0])
        row[m0] += row[s0]
        row[s0] = F(0)
        pi2 = ag.Strategy(pi.rows[:m0] + (tuple(row),) + pi.rows[m0 + 1:])
        u1 = ag.user_utility_avg(pi, ag.best_response(pi, cfg), cfg)
        u2 = ag.user_utility_avg(pi2, ag.best_response(pi2, cfg), cfg)
        assert u2 > u1
        transformed += 1
    assert transformed > 100


# -- best response --------------------------------------------------------

def test_best_response_examples(cfg_a):
    br = ag.best_response(ag.two_type_strategy(cfg_a, F(3, 10)), cfg_a)
    assert br.probs == (F(0), F(1))
    # exact indifference resolves to no audit
    br = ag.best_response(ag.two_type_strategy(cfg_a, F(5, 26)), cfg_a)
    assert br.probs == (F(0), F(0))
    br = ag.best_response(ag.two_type_strategy(cfg_a, 1), cfg_a.replace(budget=10))
    assert br.probs == (F(0), F(2, 5))


def test_best_response_reads_the_game_budget(cfg_a):
    pi = ag.two_type_strategy(cfg_a, 1)
    assert ag.best_response(pi, cfg_a).probs == (F(0), F(1))
    assert ag.best_response(pi, cfg_a.replace(budget=10)).probs == (F(0), F(2, 5))
    assert ag.best_response(pi, cfg_a.replace(budget=30)).probs == (F(0), F(1))


def test_audit_margins_example(cfg_a):
    pi = ag.two_type_strategy(cfg_a, F(3, 10))
    margins = audit_margins(cfg_a.prior, cfg_a.alloc, cfg_a.audit_cost, cfg_a.fine, pi.rows)
    # recovery 93/4 (23.25) against the audit cost 65/4 (16.25)
    assert margins[1] == F(93, 4) - F(65, 4) == 7
    assert margins[0] == -F(1, 2) * F(7, 10) * 25


def test_best_response_never_sent_signal(cfg_a):
    pi = ag.two_type_strategy(cfg_a, 1)   # nobody ever sends "low"
    br = ag.best_response(pi, cfg_a)
    assert br.probs[0] == 0


def test_best_response_free_audits():
    cfg = ag.GameConfig(types=("low", "high"), prior=(F(1, 2), F(1, 2)),
                        alloc=(50, 105), audit_cost=0, fine=100)
    br = ag.best_response(ag.two_type_strategy(cfg, F(1, 100)), cfg)
    assert br.probs == (F(0), F(1))
    br = ag.best_response(ag.two_type_strategy(cfg, F(1, 100)), cfg.replace(budget=0))
    assert br.probs == (F(0), F(1))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_best_response_box_and_silent_signals(data):
    n = data.draw(st.integers(min_value=2, max_value=4))
    weights = data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    alloc = data.draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    c = data.draw(st.integers(0, 40))
    k = c + data.draw(st.integers(0, 100))
    total = sum(weights)
    cfg = ag.GameConfig(
        types=tuple(f"t{i}" for i in range(n)),
        prior=tuple(F(w, total) for w in weights),
        alloc=tuple(alloc),
        audit_cost=c,
        fine=k,
    )
    rows = []
    for _ in range(n):
        cuts = sorted(data.draw(st.integers(0, 8)) for _ in range(n - 1))
        parts = [a - b for a, b in zip(cuts + [8], [0] + cuts)]
        rows.append(tuple(F(p, 8) for p in parts))
    pi = ag.Strategy(tuple(rows))
    br = ag.best_response(pi, cfg)
    for s in range(n):
        assert 0 <= br.probs[s] <= 1
        if all(pi.rows[m][s] == 0 for m in range(n)):
            assert br.probs[s] == 0


# -- config and profile validation ----------------------------------------

def test_gameconfig_invariants():
    with pytest.raises(InputError):
        ag.GameConfig(types=("a",), prior=(1,), alloc=(1,), audit_cost=0, fine=0)
    with pytest.raises(InputError):
        ag.GameConfig(types=("a", "b"), prior=(F(1, 2), F(1, 3)), alloc=(1, 2),
                      audit_cost=0, fine=0)
    with pytest.raises(InputError):
        ag.GameConfig(types=("a", "b"), prior=(F(1, 2), F(1, 2)), alloc=(1, 2),
                      audit_cost=5, fine=4)
    with pytest.raises(InputError):
        ag.GameConfig(types=("a", "b"), prior=(F(1, 2), F(1, 2)), alloc=(1, 2),
                      audit_cost=0, fine=0, num_users=1, coalition_size=2)
    with pytest.raises(InputError):
        ag.GameConfig(types=("a", "b"), prior=(F(1, 2), F(1, 2)), alloc=(-1, 2),
                      audit_cost=0, fine=0)
    for key in ("num_users", "coalition_size"):
        with pytest.raises(InputError, match=f"{key} must be a positive integer"):
            ag.GameConfig(types=("a", "b"), prior=(F(1, 2), F(1, 2)), alloc=(1, 2),
                          audit_cost=0, fine=0, **{key: True})


def test_strategy_and_policy_invariants():
    with pytest.raises(InputError):
        ag.Strategy(((F(1, 2), F(1, 3)), (0, 1)))
    with pytest.raises(InputError):
        ag.AuditPolicy((F(3, 2),))
    sp = ag.StrategyProfile(ag.Strategy.truthful(2), ag.AuditPolicy.zero(2))
    assert sp.n_users == 1
    with pytest.raises(InputError, match="n_users must be a positive integer"):
        ag.StrategyProfile(ag.Strategy.truthful(2), ag.AuditPolicy.zero(2), True)


def test_replicated_profile_stores_one_copy():
    pi, sigma = ag.Strategy.truthful(2), ag.AuditPolicy((0, F(1, 3)))
    profile = ag.StrategyProfile(pi, sigma, 10**6)
    assert profile.n_users == 10**6
    assert profile.strategy == pi and profile.audit == sigma
    assert ag.StrategyProfile(pi, sigma) == ag.StrategyProfile(pi, sigma, 1)
    with pytest.raises(InputError):
        ag.StrategyProfile(pi, sigma, 0)
    with pytest.raises(InputError):
        ag.StrategyProfile(pi, ag.AuditPolicy.zero(3))


def test_audit_margins_match_margin_coefficients(cfg_three):
    """Each signal's margin is the coefficient-weighted signal mass, in
    Fractions and on the game's integers alike."""
    from auditgame.core import audit_margin_coef, integer_game
    rows = ((F(2, 3), F(1, 3), F(0)), (F(0), F(2, 3), F(1, 3)), (F(0), F(0), F(1)))
    c, k = cfg_three.audit_cost, cfg_three.fine
    margins = audit_margins(cfg_three.prior, cfg_three.alloc, c, k, rows)
    for s in range(3):
        assert margins[s] == sum(rows[m][s] * audit_margin_coef(cfg_three, s, m) for m in range(3))
    game = integer_game(cfg_three)
    scaled = audit_margins(game.prior, game.alloc, game.cost, game.fine,
                           [[int(p * 3) for p in row] for row in rows])
    assert scaled == [g * game.prior_den * game.money_den * 3 for g in margins]
    # off the diagonal q_m((f_s - f_m)+ + k - c); on it -q_m c
    assert audit_margin_coef(cfg_three, 2, 0) == F(1, 3) * (4 + 2 - 1)
    assert audit_margin_coef(cfg_three, 0, 2) == F(1, 3) * (2 - 1)
    assert audit_margin_coef(cfg_three, 1, 1) == -F(1, 3)


def test_zero_prior_types_are_dropped_without_warning():
    cfg = ag.GameConfig(types=("a", "b", "z"), prior=(F(1, 2), F(1, 2), 0),
                        alloc=(1, 2, 3), audit_cost=1, fine=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the caller wrote the zero prior: no warning
        small = cfg.drop_zero_prior_types()
    assert small.types == ("a", "b")
