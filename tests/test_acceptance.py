"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured runtime (run with `pytest -v -s`).

Expected values are frozen from independent evaluation: reference surface
digits in reference_surface.py, closed forms recomputed inline, and exact
rationals asserted where the criterion demands exactness.
"""

import random
import threading
import time
from fractions import Fraction as F

import pytest

import auditgame as ag
from auditgame import ledger as lg
from auditgame.casestudy import surface_csv
from auditgame.core import audit_margins
from auditgame.numeric import sig15
from auditgame.equilibrium import grid_slack

from conftest import misreport_prob_bound, with_budget
from reference_oracle import GridSpec, deviation_search
from reference_surface import REFERENCE_SURFACE
from toy_scheme import DeterministicScheme


def _report(number, description, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number} PASS: {description}{timing}")


def test_criterion_1_surface_reproduction():
    """Surface sweep matches the 180 frozen panel values; < 1 s."""
    spec = ag.surface_preset()
    t0 = time.perf_counter()
    rational = ag.sweep_misreport_surface(spec, mode="rational")
    floats = ag.sweep_misreport_surface(spec, mode="float")
    elapsed = time.perf_counter() - t0

    assert len(rational) == len(REFERENCE_SURFACE) == 180
    ref = {(F(str(q)), F(c), F(k)): digits for q, c, k, digits in REFERENCE_SURFACE}
    for row_r, row_f in zip(rational, floats):
        key = (row_r["q_min"], row_r["c"], row_r["k"])
        digits = ref[key]
        # float mode within 1e-12 of the published value
        assert abs(row_f["max_misreport_prob"] - float(digits)) <= 1e-12
        # rational mode is exact against an independent evaluation
        q, c, k = key
        denom = q * (k - c + 55)
        exact = F(1) if denom <= 0 else min(F(1), (1 - q) * c / denom)
        assert row_r["max_misreport_prob"] == exact
        # and the 15-digit rendering reproduces the reference digits
        assert sig15(row_r["max_misreport_prob"]) == digits
    csv_lines = surface_csv(spec).splitlines()[1:]
    assert len(csv_lines) == 180
    for row_r, line in zip(rational, csv_lines):
        assert line.rsplit(",", 1)[1] == ref[(row_r["q_min"], row_r["c"], row_r["k"])]

    assert elapsed < 1.0, f"surface took {elapsed:.3f}s"
    _report(1, "surface matches all 180 reference points exactly", elapsed)


def _grid_500():
    """500 = 5 priors x 5 costs x 5 fine multipliers x 4 credit gaps."""
    points = []
    for q in (F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(9, 10)):
        for c in (F(1), F(5), F(10), F(25), F(75)):
            for mult in (1, 2, 4, 8, 16):
                for df in (F(5), F(55), F(100), F(1000)):
                    points.append((q, c, c * mult, df))
    return points


@pytest.fixture(scope="module")
def grid_equilibria():
    """Program solutions over the 500-point grid, with the solve time."""
    points = _grid_500()
    assert len(points) == 500
    t0 = time.perf_counter()
    solved = []
    for q, c, k, df in points:
        cfg = ag.GameConfig(types=("low", "high"), prior=(q, 1 - q),
                            alloc=(50, 50 + df), audit_cost=c, fine=k)
        solved.append((cfg, ag.bp_equilibrium(cfg)))
    return solved, time.perf_counter() - t0


def test_criterion_2_lp_equals_closed_form(grid_equilibria):
    """Exact agreement between the program and the closed form; < 5 s."""
    solved, elapsed = grid_equilibria
    for cfg, via_lp in solved:
        closed = ag.two_type_closed_form(cfg)
        assert via_lp.strategy == closed.strategy
        assert via_lp.excess == closed.excess
        assert via_lp.user_utilities == closed.user_utilities
        assert via_lp.admin_utility == closed.admin_utility
    assert elapsed < 5.0, f"grid took {elapsed:.3f}s"
    _report(2, "program equals closed form exactly on the 500-point grid", elapsed)


def test_criterion_3_bound_invariants(grid_equilibria, cfg_a):
    """Caps hold on every equilibrium from criteria 1-2; benchmark values pinned."""
    solved, _ = grid_equilibria
    for cfg, eq in solved:
        pi = eq.strategy
        for m, ml in enumerate(cfg.types):
            for s, sl in enumerate(cfg.types):
                if s != m:
                    assert pi.rows[m][s] <= misreport_prob_bound(cfg, sl, ml)
        assert eq.excess <= ag.excess_payments_bound(cfg)
    # criterion-1 equilibria: every valid surface point's closed form
    spec = ag.surface_preset()
    for q in spec.q_min_grid:
        for c in spec.c_grid:
            for k in spec.k_grid:
                if k < c:
                    continue   # instance validation requires fine >= cost
                cfg = ag.GameConfig(types=("low", "high"), prior=(q, 1 - q),
                                    alloc=(50, 105), audit_cost=c, fine=k)
                eq = ag.two_type_closed_form(cfg)
                assert eq.strategy.rows[0][1] <= misreport_prob_bound(cfg, "high", "low")
                assert eq.excess <= ag.excess_payments_bound(cfg)

    # pinned benchmark values: excess 275/52 = 5.2885..., cap 1375/155 = 8.8710...
    eq = ag.signaling_equilibrium(cfg_a)
    bound = ag.excess_payments_bound(cfg_a)
    assert abs(eq.excess - F(275, 52)) <= F(1, 10**9)
    assert abs(bound - F(1375, 155)) <= F(1, 10**9)
    assert eq.excess <= bound
    _report(3, "misreporting and excess caps hold on all checked equilibria; "
               "benchmark excess 5.2885 <= cap 8.8710")


def test_criterion_4_cost_dominance():
    """Full case-study grid: audit never costs more; crossing near 0.379; < 10 s."""
    spec = ag.ftbp_preset()
    t0 = time.perf_counter()
    rows = ag.sweep_costs(spec)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 99 * 3 * 3 * 2

    df = spec.base.delta_f_max
    for row in rows:
        assert not isinstance(row["cost_audit"], str), row
        assert row["cost_audit"] <= row["cost_no_audit"]
        assert row["dominates"] == "true"
        if row["q_min"] <= row["c"] / (row["k"] + df):
            assert row["cost_audit"] == row["cost_no_audit"]
        else:
            assert row["cost_audit"] < row["cost_no_audit"]

    # the no-audit curve reaches the reference line near q_min = 0.379
    no_audit = sorted({(r["q_min"], r["cost_no_audit"]) for r in rows})
    below = [q for q, cost in no_audit if cost < 83_333][-1]
    above = [q for q, cost in no_audit if cost >= 83_333][0]
    q_lo, cost_lo = below, 4000 * below * df
    q_hi, cost_hi = above, 4000 * above * df
    crossing = q_lo + (83_333 - cost_lo) * (q_hi - q_lo) / (cost_hi - cost_lo)
    assert abs(float(crossing) - 0.379) <= 0.03
    assert elapsed < 10.0, f"sweep took {elapsed:.3f}s"
    _report(4, f"audit cost dominates at all {len(rows)} grid rows; "
               f"no-audit curve crosses 83,333 at q_min={float(crossing):.4f}", elapsed)


def test_criterion_5_three_type_fixture(cfg_three):
    """Program excess exactly 22/45; the hand-built profile with excess 4/9
    survives per-type deviation search at resolution 200."""
    t0 = time.perf_counter()
    eq = ag.bp_equilibrium(cfg_three)
    assert eq.excess == F(22, 45)

    rows = (
        (F(2, 3), F(1, 3), F(0)),
        (F(0), F(2, 3), F(1, 3)),
        (F(0), F(0), F(1)),
    )
    pi, sigma = ag.Strategy(rows), ag.AuditPolicy.zero(3)
    ex = ag.excess_payments(pi, sigma, cfg_three)
    assert ex == F(4, 9)
    assert ex < eq.excess    # strictly below the program optimum

    gains = deviation_search(pi, sigma, cfg_three, GridSpec(resolution=200))
    slack = grid_slack(cfg_three, 200)
    assert all(g <= slack for g in gains.values()), gains
    elapsed = time.perf_counter() - t0
    _report(5, "program excess 22/45 exact; alternative profile (excess 4/9) "
               "passes deviation search", elapsed)


def test_criterion_6_nonexistence_probe(cfg_a):
    """100% deviation coverage at budgets 1, 3, 5 and resolution 100; < 30 s."""
    t0 = time.perf_counter()
    for budget in (1, 3, 5):
        cfg = with_budget(cfg_a, budget, num_users=2)
        report = ag.nonexistence_probe(cfg, 100)
        assert report.total_profiles == 101 * 101
        assert report.complete, f"budget {budget}: {report.fraction_certified}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"probe took {elapsed:.3f}s"
    _report(6, "profitable deviation certified at 100% of grid profiles "
               "for budgets 1, 3, 5", elapsed)


def test_criterion_7_budgeted_two_type(cfg_a):
    """Budgeted equilibria verify; the branch switch sits at the threshold."""
    t0 = time.perf_counter()
    threshold = ag.budget_thresholds(cfg_a).threshold_two_type
    for budget in (F(0), F(2), F(7165, 1000), F(10)):
        cfg = with_budget(cfg_a, budget)
        res = ag.signaling_equilibrium(cfg)
        report = ag.verify_equilibrium(res.strategy, res.audit, cfg, resolution=200)
        assert report.passed, (budget, report.to_text())

    eps = F(1, 10**9)
    below = ag.signaling_equilibrium(with_budget(cfg_a, threshold - eps))
    above = ag.signaling_equilibrium(with_budget(cfg_a, threshold + eps))
    assert below.provenance == "budgeted_two_type"
    assert below.strategy.rows[0][1] == 1
    assert above.provenance == "closed_form_two_type"
    assert above.strategy.rows[0][1] == F(5, 26)
    elapsed = time.perf_counter() - t0
    _report(7, "budgeted equilibria verify for budgets 0, 2, 7.165, 10; "
               "branch switch at the threshold within 1e-9", elapsed)


def _random_audit_instance(rng):
    n = rng.choice([2, 2, 3])
    weights = [rng.randrange(1, 9) for _ in range(n)]
    prior = tuple(F(w, sum(weights)) for w in weights)
    alloc = tuple(F(rng.randrange(0, 150)) for _ in range(n))
    c = F(rng.randrange(1, 50))
    k = c + F(rng.randrange(0, 120))
    cfg = ag.GameConfig(types=tuple(f"t{i}" for i in range(n)), prior=prior,
                        alloc=alloc, audit_cost=c, fine=k)
    rows = []
    for _ in range(n):
        cuts = sorted(rng.randrange(0, 9) for _ in range(n - 1))
        parts = [a - b for a, b in zip(cuts + [8], [0] + cuts)]
        rows.append(tuple(F(p, 8) for p in parts))
    return cfg, ag.Strategy(tuple(rows))


def _tie_instance(rng):
    """Two-type instance whose low row sits exactly at audit indifference."""
    q = F(rng.randrange(1, 20), 20)
    c = F(rng.randrange(1, 50))
    k = c + F(rng.randrange(0, 120))
    df = F(rng.randrange(1, 90))
    cfg = ag.GameConfig(types=("low", "high"), prior=(q, 1 - q),
                        alloc=(10, 10 + df), audit_cost=c, fine=k)
    cap = (1 - q) * c / (q * (k - c + df))
    if cap > 1:
        return None
    return cfg, ag.two_type_strategy(cfg, cap)


def test_criterion_8_audit_rule_sign_oracle():
    """Audit rule agrees with the brute-force gain sign on 10^4 instances;
    exact indifference always resolves to no audit."""
    rng = random.Random(811)
    t0 = time.perf_counter()
    ties_checked = 0
    for i in range(10_000):
        made = _tie_instance(rng) if i % 5 == 0 else None
        if made is None:
            cfg, pi = _random_audit_instance(rng)
        else:
            cfg, pi = made
        br = ag.best_response(pi, cfg)
        margins = audit_margins(cfg.prior, cfg.alloc, cfg.audit_cost, cfg.fine, pi.rows)
        for s in range(cfg.n_types):
            # independent sign computation straight from the definition
            gain = sum(
                pi.rows[m][s] * cfg.prior[m]
                * (max(cfg.alloc[s] - cfg.alloc[m], F(0)) + cfg.fine)
                for m in range(cfg.n_types) if m != s
            ) - cfg.audit_cost * sum(pi.rows[m][s] * cfg.prior[m] for m in range(cfg.n_types))
            assert (gain > 0) == (margins[s] > 0)
            if gain > 0:
                assert br.probs[s] == 1
            else:
                assert br.probs[s] == 0
            if gain == 0 and any(pi.rows[m][s] > 0 for m in range(cfg.n_types) if m != s):
                ties_checked += 1
    elapsed = time.perf_counter() - t0
    assert ties_checked >= 1000, "tie construction failed to exercise indifference"
    _report(8, f"audit rule matches the gain sign on 10,000 instances "
               f"({ties_checked} exact ties, all resolved to no audit)", elapsed)


def _ledger_roundtrips(scheme, tmp_path, tag):
    log = str(tmp_path / f"log-{tag}.jsonl")
    state = lg.LedgerState.create(scheme, log_path=log)
    users = [lg.keygen(scheme) for _ in range(10)]
    receipts = []
    for i in range(1000):
        sk, pk = users[i % 10]
        coin = state.mint(pk, lg.CoinMetadata(coin_id=i))
        raw = lg.RawReceipt(goods=f"good-{i}", price=1, coins=(coin,))
        z = state.begin_spend(raw)
        receipt = lg.sign_receipt(scheme, sk, raw, z)
        out = state.finalize_spend(receipt)
        assert out.approved, (i, out.reason)
        receipts.append(receipt)

    # the 1001st spend reuses an already-spent coin
    sk0, _ = users[0]
    reused = receipts[0].raw.coins[0]
    raw = lg.RawReceipt(goods="reuse", price=1, coins=(reused,))
    z = state.begin_spend(raw)
    out = state.finalize_spend(lg.sign_receipt(scheme, sk0, raw, z))
    assert not out.approved and out.reason == "double-spend"

    # tampered coin and wrong-key receipt are rejected
    sk1, pk1 = users[1]
    coin = state.mint(pk1, lg.CoinMetadata(coin_id=5000))
    tampered = lg.Coin(coin.owner_pk, lg.CoinMetadata(coin_id=5000, issuer_note="x"),
                       coin.issuer_sig)
    assert not state.verify_coin(tampered)
    raw = lg.RawReceipt(goods="t", price=1, coins=(tampered,))
    z = state.begin_spend(raw)
    assert state.finalize_spend(lg.sign_receipt(scheme, sk1, raw, z)).reason == "invalid-coin"
    raw = lg.RawReceipt(goods="w", price=1, coins=(coin,))
    z = state.begin_spend(raw)
    intruder_sk, _ = users[2]
    assert state.finalize_spend(lg.sign_receipt(scheme, intruder_sk, raw, z)).reason == "bad-signature"

    # 100 concurrent spends of one coin: exactly one approval
    race_coin = state.mint(pk1, lg.CoinMetadata(coin_id=6000))
    contenders = []
    for i in range(100):
        raw = lg.RawReceipt(goods=f"race-{i}", price=1, coins=(race_coin,))
        z = state.begin_spend(raw)
        contenders.append(lg.sign_receipt(scheme, sk1, raw, z))
    results = [None] * 100
    barrier = threading.Barrier(100)

    def attempt(i):
        barrier.wait()
        results[i] = state.finalize_spend(contenders[i])

    threads = [threading.Thread(target=attempt, args=(i,)) for i in range(100)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(1 for r in results if r.approved) == 1

    # replay re-verifies every persisted signature
    reloaded = lg.LedgerState.load(scheme, state._admin_sk, state.admin_pk, log)
    assert reloaded._spent == state._spent
    return state


def test_criterion_9_ledger_adversarial(tmp_path):
    """1000 roundtrips, double-spend, tamper, wrong key, race, replay;
    < 10 s with the test double, < 60 s with the production scheme."""
    t0 = time.perf_counter()
    _ledger_roundtrips(DeterministicScheme(seed=3), tmp_path, "toy")
    toy_elapsed = time.perf_counter() - t0
    assert toy_elapsed < 10.0, f"test double took {toy_elapsed:.2f}s"

    t0 = time.perf_counter()
    _ledger_roundtrips(lg.Ed25519Scheme(), tmp_path, "ed25519")
    real_elapsed = time.perf_counter() - t0
    assert real_elapsed < 60.0, f"production scheme took {real_elapsed:.2f}s"
    _report(9, f"ledger adversarial suite (double {toy_elapsed:.2f}s, "
               f"ed25519 {real_elapsed:.2f}s)")
