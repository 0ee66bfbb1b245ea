from fractions import Fraction as F

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from auditgame import AuditPolicy, GameConfig, InputError, excess_payments_bound
from auditgame.bounds import two_type_misreport_prob
from auditgame.core import excess_payments, raw_misreport_cap, two_type_strategy
from auditgame.equilibrium import equilibrium_result
from auditgame.numeric import as_fraction

# `pytest --hypothesis-profile=ci`: more examples, the same ones on every run.
settings.register_profile("ci", max_examples=2000, derandomize=True)


def pytest_sessionstart(session):
    """Hypothesis keeps its caches and example database in this session's
    temporary directory, not in a `.hypothesis/` of the working directory.
    It resolves that directory on first use, when its plugin collects the
    tests, after this hook."""
    set_hypothesis_home_dir(session.config._tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture
def cfg_a() -> GameConfig:
    """Two-type benchmark: q=(1/2,1/2), credits (50,105), c=25, k=100."""
    return GameConfig(
        types=("low", "high"),
        prior=(F(1, 2), F(1, 2)),
        alloc=(50, 105),
        audit_cost=25,
        fine=100,
    )


@pytest.fixture
def cfg_three() -> GameConfig:
    """Three-type fixture: uniform prior, credits (0,2,4), c=1, k=2."""
    return GameConfig(
        types=("a", "b", "c"),
        prior=(F(1, 3), F(1, 3), F(1, 3)),
        alloc=(0, 2, 4),
        audit_cost=1,
        fine=2,
    )


def with_budget(cfg, budget, **kwargs):
    return cfg.replace(budget=budget, **kwargs)


def without_zero_prior_types(cfg):
    """`cfg` less its types of zero prior; an `InputError` if fewer than
    two types are left."""
    keep = [m for m, q in enumerate(cfg.prior) if q > 0]
    return cfg.replace(types=tuple(cfg.types[m] for m in keep),
                       prior=tuple(cfg.prior[m] for m in keep),
                       alloc=tuple(cfg.alloc[m] for m in keep))


def closed_form(cfg):
    """The no-audit equilibrium of the two-type game `cfg` from its formula,
    independent of the solver: the low type claims the high credit with
    `bounds.two_type_misreport_prob`, and nobody is audited."""
    pi, sigma = two_type_strategy(cfg, two_type_misreport_prob(cfg)), AuditPolicy.zero(2)
    return equilibrium_result(cfg, pi, sigma, excess_payments(pi, sigma, cfg), "closed_form")


def misreport_prob_bound(cfg, signal, truth):
    """Equilibrium cap on the probability that type `truth` signals
    `signal`: `core.raw_misreport_cap` of the two labels' types."""
    s, m = cfg.index(signal), cfg.index(truth)
    if s == m:
        raise InputError("the misreporting cap is defined for signal != truth")
    return raw_misreport_cap(cfg.prior[s], cfg.prior[m], cfg.audit_cost, cfg.fine,
                             cfg.alloc[s] - cfg.alloc[m])


def fine_for_tolerance(cfg, max_excess):
    """Smallest fine keeping `excess_payments_bound` at or below the positive
    `max_excess`: the bound c * df / (k + df) solved for k, or the least
    legal fine, the audit cost, when that already suffices.  The bound is
    checked at the fine returned, and met with equality above the cost."""
    max_excess = as_fraction(max_excess)
    if max_excess <= 0:
        raise InputError("excess tolerance must be positive")
    c, df = cfg.audit_cost, cfg.delta_f_max
    fine = c if max_excess >= c or df == 0 else max(c, df * (c / max_excess - 1))
    bound = excess_payments_bound(cfg.replace(fine=fine))
    assert bound == max_excess if fine > c else bound <= max_excess
    return fine
