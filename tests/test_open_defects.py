"""Defects that are reproduced and not yet mended, one strict expected
failure each.

Each test asserts the right behaviour and is marked `xfail(strict=True)`
with the ROADMAP item that plans its mending, so it fails today, and a
change that mends the defect turns it into an unexpected pass: the test
then loses its mark, and the item its defect.
"""

from fractions import Fraction as F

import pytest

import auditgame as ag
from auditgame import NonexistenceError, cli, core
from auditgame import ledger as lg

THREE_TYPE = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 3),) * 3, alloc=(10, 20, 40),
                           audit_cost=5, fine=30)
TWO_TYPE = ag.GameConfig(types=("low", "high"), prior=(F(7, 10), F(3, 10)), alloc=(58, 111),
                         audit_cost=27, fine=104)


@pytest.mark.xfail(strict=True, raises=NonexistenceError, reason="ROADMAP item 7(b)")
def test_a_three_type_game_at_budget_1_has_an_equilibrium():
    # every type claiming the top credit, with the budget spent auditing it,
    # passes the verifier with gain 0; the dispatcher denies any equilibrium
    cfg = THREE_TYPE.replace(budget=1)
    eq = ag.signaling_equilibrium(cfg)
    assert ag.verify_equilibrium(eq.strategy, eq.audit, cfg, resolution=1000).passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_a_grid_verdict_fails_a_profile_that_gains_on_the_continuum():
    # on the 1/1000 grid type a gains 939/96250, under the grid slack 3/50;
    # on the 1/10^6 grid it gains 2999813/192500000 and the profile fails
    cfg = THREE_TYPE.replace(budget=F(67, 30))
    pi = ag.bp_equilibrium(THREE_TYPE).strategy
    assert not ag.verify_equilibrium(pi, core.best_response(pi, cfg), cfg, resolution=1000).passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
def test_cost_prices_the_excess_of_the_equilibrium_at_its_own_budget():
    # today the cost's excess is 3.302 and the equilibrium's at that budget 25.69
    report = ag.cost_audit(TWO_TYPE)
    at_budget = ag.signaling_equilibrium(TWO_TYPE.replace(budget=report.budget_component))
    assert report.excess_component == at_budget.excess


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
def test_a_fine_threshold_is_a_legal_fine():
    # a fine below the audit cost is no instance; today the threshold is -20.18
    threshold = ag.cost_audit(THREE_TYPE).fine_threshold
    assert threshold is None or threshold >= THREE_TYPE.audit_cost


def _spend(state, sk, coin):
    raw = lg.RawReceipt(goods="g", price=1, coins=(coin,))
    return state.finalize_spend(lg.sign_receipt(state.scheme, sk, raw, state.begin_spend(raw)))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6(a)")
def test_two_states_on_one_log_approve_one_spend_of_a_coin(tmp_path):
    # each state knows only the records it read or appended itself
    scheme = lg.Ed25519Scheme()
    admin_sk, admin_pk = lg.keygen(scheme)
    sk, pk = lg.keygen(scheme)
    log = str(tmp_path / "log.jsonl")
    first, second = (lg.LedgerState.load(scheme, admin_sk, admin_pk, log) for _ in range(2))
    coin = first.mint(pk, lg.CoinMetadata(coin_id=1))
    assert _spend(first, sk, coin).approved
    outcome = _spend(second, sk, coin)
    assert (outcome.approved, outcome.reason) == (False, "double-spend")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6(b)")
def test_a_coin_id_is_minted_once_per_recipient(tmp_path, capsys):
    # nothing records a mint, so a second one writes the same coin again
    led, alice = str(tmp_path / "led"), str(tmp_path / "alice.key")
    assert cli.main(["ledger", "keygen", "--out", alice]) == 0
    mint = ["ledger", "mint", "--dir", led, "--recipient-key", alice, "--coin-id", "8", "--out"]
    assert cli.main(mint + [str(tmp_path / "first.json")]) == 0
    assert cli.main(mint + [str(tmp_path / "second.json")]) == 1
