"""Config file parsing: key-value document with rational-friendly numbers."""

from fractions import Fraction as F

import pytest

from auditgame import GameConfig, InputError

CFG_A_TEXT = """\
# benchmark game
types = low, high
prior = 1/2, 1/2
alloc = low: 50, high: 105
audit_cost = 25
fine = 100
"""


def test_parse_minimal():
    cfg = GameConfig.from_text(CFG_A_TEXT)
    assert cfg.types == ("low", "high")
    assert cfg.prior == (F(1, 2), F(1, 2))
    assert cfg.alloc == (F(50), F(105))
    assert cfg.budget is None
    assert cfg.num_users == 1 and cfg.coalition_size == 1


def test_parse_full_and_number_forms():
    text = """\
types = a, b
prior = 0.25, 0.75   # decimals fine
alloc = a: 7/2, b: 12.5
audit_cost = 1/3
fine = 2
budget = 0.5
num_users = 40
coalition_size = 3
"""
    cfg = GameConfig.from_text(text)
    assert cfg.prior == (F(1, 4), F(3, 4))
    assert cfg.alloc == (F(7, 2), F(25, 2))
    assert cfg.audit_cost == F(1, 3)
    assert cfg.budget == F(1, 2)
    assert cfg.num_users == 40 and cfg.coalition_size == 3


@pytest.mark.parametrize("mutation,fragment", [
    ("types = low, high, low", "distinct"),
    ("fine = 10", "at least the audit cost"),
    ("prior = 1/2, 1/3", "sum to 1"),
    ("alloc = low: 50", "missing entries"),
    ("bogus_key = 1", "unknown config keys"),
    ("audit_cost = ten", "cannot parse"),
    ("alloc = low 50, high: 105", "^alloc entries must look like 'label: amount', got 'low 50'$"),
    ("num_users = many", "^num_users must be an integer, got 'many'$"),
])
def test_parse_rejects_bad_documents(mutation, fragment):
    key = mutation.split("=")[0].strip()
    lines = [ln for ln in CFG_A_TEXT.splitlines() if not ln.startswith(key)]
    lines.append(mutation)
    with pytest.raises(InputError, match=fragment):
        GameConfig.from_text("\n".join(lines))


def test_parse_rejects_missing_required():
    with pytest.raises(InputError, match="missing required"):
        GameConfig.from_text("types = a, b\nprior = 1/2, 1/2\n")


def test_parse_rejects_duplicates_and_junk():
    with pytest.raises(InputError, match="duplicate"):
        GameConfig.from_text(CFG_A_TEXT + "fine = 100\n")
    # a repeated alloc label is refused too, not overwritten by its last amount
    repeated = CFG_A_TEXT.replace("alloc = low: 50, high: 105", "alloc = low: 50, low: 80, high: 105")
    with pytest.raises(InputError, match="^alloc has a repeated label 'low'$"):
        GameConfig.from_text(repeated)
    with pytest.raises(InputError, match="expected"):
        GameConfig.from_text("types low high\n")
