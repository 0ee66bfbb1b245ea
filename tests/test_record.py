"""The `Record` base of the package's immutable value types."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from auditgame import InputError
from auditgame.bounds import bound_report
from auditgame.casestudy import ftbp_preset
from auditgame.core import AuditPolicy, GameConfig, Strategy
from auditgame.equilibrium import signaling_equilibrium
from auditgame.ledger import Coin, CoinMetadata


def _config(**changes):
    fields = dict(types=("low", "high"), prior=(F(1, 2), F(1, 2)),
                  alloc={"low": 50, "high": 105}, audit_cost=25, fine=100,
                  budget=F(7, 2), num_users=3, coalition_size=2)
    fields.update(changes)
    return GameConfig(**fields)


def _coin():
    return Coin(owner_pk=b"\x01\x02", metadata=CoinMetadata(7, valid_to="2026-12"),
                issuer_sig=b"\xff")


def test_equal_records_are_equal_and_hash_alike():
    a, b = _config(), _config(alloc=(50, 105), audit_cost=F(25))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, name) for name in a._fields))
    assert a != _config(fine=101)
    assert len({a, b, _config(fine=101)}) == 2
    assert _coin() == _coin() and hash(_coin()) == hash(_coin())
    assert _coin() != _coin().replace(issuer_sig=b"\xfe")


def test_records_of_different_classes_differ():
    policy = AuditPolicy((F(1, 2), 0))
    assert policy != Strategy(((1, 0), (0, 1)))
    assert policy != (F(1, 2), 0)
    assert policy == AuditPolicy((F(1, 2), 0))


def test_a_record_with_a_dict_field_is_unhashable():
    hash(ftbp_preset())   # tuples, a Fraction and a GameConfig
    with pytest.raises(TypeError):
        hash(bound_report(_config()))


def test_repr_is_the_field_by_field_form():
    assert repr(_config()) == (
        "GameConfig(types=('low', 'high'), prior=(Fraction(1, 2), Fraction(1, 2)), "
        "alloc=(Fraction(50, 1), Fraction(105, 1)), audit_cost=Fraction(25, 1), "
        "fine=Fraction(100, 1), budget=Fraction(7, 2), num_users=3, coalition_size=2)")
    assert repr(_coin()) == (
        "Coin(owner_pk=b'\\x01\\x02', metadata=CoinMetadata(coin_id=7, valid_from='', "
        "valid_to='2026-12', issuer_note=''), issuer_sig=b'\\xff')")


def test_fields_cannot_be_assigned_or_deleted():
    cfg = _config()
    with pytest.raises(AttributeError):
        cfg.fine = F(200)
    with pytest.raises(AttributeError):
        cfg.anything_new = 1
    with pytest.raises(AttributeError):
        del cfg.budget
    with pytest.raises(AttributeError):
        _coin().metadata = None
    assert cfg == _config()


def test_replace_validates_again():
    cfg = _config()
    assert cfg.replace(fine=200).fine == F(200)
    assert cfg.replace(budget=None).budget is None
    assert cfg == _config()   # the original is unchanged
    assert cfg.replace(alloc={"high": 7, "low": 3}).alloc == (F(3), F(7))   # normalised again
    with pytest.raises(InputError, match="fine 10 must be at least the audit cost 25"):
        cfg.replace(fine=10)
    with pytest.raises(InputError, match="coalition_size cannot exceed num_users"):
        cfg.replace(num_users=1)
    with pytest.raises(InputError, match="q_min grid values"):
        ftbp_preset().replace(q_min_grid=(F(1),))
    with pytest.raises(TypeError):
        cfg.replace(no_such_field=1)


@pytest.mark.parametrize("make", [
    _config, _coin, ftbp_preset,
    lambda: signaling_equilibrium(_config(budget=None)),
], ids=["GameConfig", "Coin", "SweepSpec", "EquilibriumResult"])
def test_copy_and_pickle_round_trip(make):
    record = make()
    for clone in (copy.copy(record), copy.deepcopy(record),
                  *(pickle.loads(pickle.dumps(record, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)
        with pytest.raises(AttributeError):
            clone.extra = 1
