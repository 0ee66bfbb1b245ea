"""Every command agrees on every game: one property test over drawn games.

Games have 2 to 4 types with integer-weighted priors, some of them zero,
credits drawn from a small pool so that some repeat, 1 to 3 users and a
coalition of one user or of all of them.  The budget is none, 0, one of
the thresholds of `budget_thresholds` exactly, or a point between them or
above them all, since the thresholds are where the commands have
disagreed.  For each game:

- every answer of `signaling_equilibrium` passes `verify_equilibrium`,
  and a `NonexistenceError` comes only at a positive budget;
- where `bound_report` claims caps, the answer's strategy and excess lie
  within them;
- `bounds` prints caps in CSV exactly when it prints them in text;
- a `NonexistenceError` on a game in the probe's domain (two types, two
  users) comes with a probe that certifies every profile;
- `cost` budgets the threshold that the dispatcher obeys, the coalition
  size times the two-type threshold with two types and the coalition
  threshold with more, and `signaling_equilibrium` answers at it.

Tier-1 runs the default number of examples; `--hypothesis-profile=ci`
(see `conftest.py`) runs more.
"""

import os
import tempfile
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import auditgame as ag
from auditgame import NonexistenceError, cli

NO_CAPS = "caps: do not apply at this budget, which holds audits back\n"


def _budgets(cfg):
    """None, 0, each threshold of `cfg`, the midpoints between them and a
    point above them all."""
    analysis = ag.budget_thresholds(cfg)
    points = sorted({F(0), analysis.threshold_general, analysis.threshold_coalition}
                    | ({analysis.threshold_two_type} if cfg.is_two_type else set()))
    between = [(a + b) / 2 for a, b in zip(points, points[1:])]
    return [None] + points + between + [2 * points[-1] + 1]


@st.composite
def games(draw):
    n = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    weights[draw(st.integers(0, n - 1))] += 1   # some type of positive prior
    users = draw(st.integers(1, 3))
    c = draw(st.integers(0, 20))
    cfg = ag.GameConfig(types=tuple(f"t{m}" for m in range(n)),
                        prior=tuple(F(w, sum(weights)) for w in weights),
                        alloc=tuple(draw(st.sampled_from((0, 5, 10, 20, 33, 50)))
                                    for _ in range(n)),
                        audit_cost=c, fine=c + draw(st.integers(0, 40)), num_users=users,
                        coalition_size=draw(st.sampled_from((1, users))))
    return cfg.replace(budget=draw(st.sampled_from(_budgets(cfg))))


def _config_text(cfg) -> str:
    lines = [f"types = {', '.join(cfg.types)}",
             f"prior = {', '.join(str(q) for q in cfg.prior)}",
             "alloc = " + ", ".join(f"{t}: {f}" for t, f in zip(cfg.types, cfg.alloc)),
             f"audit_cost = {cfg.audit_cost}", f"fine = {cfg.fine}",
             f"num_users = {cfg.num_users}", f"coalition_size = {cfg.coalition_size}"]
    if cfg.budget is not None:
        lines.append(f"budget = {cfg.budget}")
    return "\n".join(lines) + "\n"


def _bounds_output(directory, fmt) -> str:
    out = os.path.join(directory, f"bounds.{fmt}")
    assert cli.main(["bounds", "--config", os.path.join(directory, "game.cfg"),
                     "--format", fmt, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        return fh.read()


THREE_TYPE_ZERO_BUDGET = ag.GameConfig(types=("a", "b", "c"), prior=(F(1, 3),) * 3,
                                       alloc=(10, 20, 40), audit_cost=5, fine=30, budget=0)
# two users and a budget below the two-type threshold 5775/806: the probe's domain
TWO_USERS_BUDGET_THREE = ag.GameConfig(types=("low", "high"), prior=(F(1, 2), F(1, 2)),
                                       alloc=(50, 105), audit_cost=25, fine=100, budget=3,
                                       num_users=2)


@settings(derandomize=True, database=None, deadline=None)
@given(cfg=games())
@example(cfg=THREE_TYPE_ZERO_BUDGET)
@example(cfg=TWO_USERS_BUDGET_THREE)
def test_every_command_agrees_on_every_game(cfg):
    report = ag.bound_report(cfg)
    try:
        eq = ag.signaling_equilibrium(cfg)
    except NonexistenceError:
        assert cfg.budget > 0 and report.budget_binds, cfg
        if cfg.is_two_type and cfg.num_users == 2:
            assert ag.nonexistence_probe(cfg, 20).complete, cfg
    else:
        verdict = ag.verify_equilibrium(eq.strategy, eq.audit, cfg, resolution=30)
        assert verdict.passed, (cfg, verdict.to_text())
        rows = eq.strategy.rows
        for (s, m), cap in report.caps.items():
            assert rows[cfg.index(m)][cfg.index(s)] <= cap, (cfg, s, m)
        if report.excess_cap is not None:
            assert eq.excess <= report.excess_cap, cfg

    analysis = ag.budget_thresholds(cfg)
    threshold = (cfg.coalition_size * analysis.threshold_two_type if cfg.is_two_type
                 else analysis.threshold_coalition)
    assert ag.cost_audit(cfg).budget_component == threshold, cfg
    ag.signaling_equilibrium(cfg.replace(budget=threshold))

    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, "game.cfg"), "w", encoding="utf-8") as fh:
            fh.write(_config_text(cfg))
        csv, text = _bounds_output(directory, "csv"), _bounds_output(directory, "text")
    pairs = cfg.n_types * (cfg.n_types - 1)
    if report.budget_binds:
        assert csv == text == NO_CAPS, cfg
    else:
        assert csv.count("\n") == pairs + 1 and text.count("\ncap[") == pairs, cfg
