from fractions import Fraction as F

import pytest
from hypothesis import settings

from auditgame import GameConfig

# `pytest --hypothesis-profile=ci`: more examples, the same ones on every run.
settings.register_profile("ci", max_examples=2000, derandomize=True)


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
