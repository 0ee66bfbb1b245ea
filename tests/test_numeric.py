"""Number coercion and 15-digit formatting."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditgame import InputError
from auditgame.numeric import as_fraction, check_mode, sig15, sig15_ratio


def test_as_fraction_forms():
    assert as_fraction(3) == F(3)
    assert as_fraction("7/3") == F(7, 3)
    assert as_fraction(" 0.25 ") == F(1, 4)
    assert as_fraction("1e-3") == F(1, 1000)
    assert as_fraction(F(2, 5)) == F(2, 5)
    # floats read through their shortest decimal repr
    assert as_fraction(0.1) == F(1, 10)
    assert as_fraction(7.165) == F(7165, 1000)


def test_as_fraction_rejects_junk():
    for bad in ("ten", float("inf"), float("nan"), True, None, [1]):
        with pytest.raises(InputError):
            as_fraction(bad)


def test_decimal_priors_sum_exactly():
    from auditgame import GameConfig
    cfg = GameConfig(types=("a", "b"), prior=(0.1, 0.9), alloc=(1, 2),
                     audit_cost=1, fine=2)
    assert sum(cfg.prior) == 1


def test_sig15_formatting():
    assert sig15(F(15, 26)) == "0.576923076923077"
    assert sig15(F(1)) == "1"
    assert sig15(F(10, 181)) == "0.0552486187845304"
    assert sig15(0.25) == "0.25"


def test_sig15_is_exact_below_the_float_range():
    # 1e-320 is a subnormal float and 1e-400 rounds to 0.0: both lose digits
    assert sig15(F(1, 10**320)) == "1e-320"
    assert sig15(F(-2, 3 * 10**320)) == "-6.66666666666667e-321"
    assert sig15(F(1, 10**400)) == "1e-400"
    # half-even at the 15th digit; trailing zeros dropped, as %.15g does
    assert sig15(F(1234567890123425, 10**335)) == "1.23456789012342e-320"
    assert sig15(F(1234567890123435, 10**335)) == "1.23456789012344e-320"
    assert sig15(F(10**15 + 4, 10**335)) == "1e-320"
    # floats, zeros and normal values keep the %.15g path
    assert sig15(5e-324) == "4.94065645841247e-324"
    assert sig15(F(0)) == sig15(0) == sig15(0.0) == "0"
    smallest_normal = F(2.2250738585072014e-308)
    assert sig15(smallest_normal) == "%.15g" % 2.2250738585072014e-308
    assert sig15(F(3, 10**308)) == "3e-308"
    # the ratio entry point takes a ratio in any terms
    assert sig15_ratio(7, 7 * 10**320) == "1e-320"
    assert sig15_ratio(0, 10**400) == "0"


@settings(max_examples=300, deadline=None)
@given(value=st.fractions(max_denominator=10**30) | st.fractions().map(lambda f: f * F(10) ** 300))
def test_sig15_of_a_fraction_has_the_digits_of_its_float(value):
    try:
        as_float = float(value)
    except OverflowError:
        with pytest.raises(InputError, match="beyond the float range"):
            sig15(value)
        with pytest.raises(InputError, match="beyond the float range"):
            sig15_ratio(3 * value.numerator, 3 * value.denominator)
        return
    assert sig15(value) == "%.15g" % as_float
    assert sig15_ratio(3 * value.numerator, 3 * value.denominator) == sig15(value)


def test_sig15_beyond_the_float_range_is_an_input_error():
    for value in (F(10**400), F(10**400, 3), 10**400):
        with pytest.raises(InputError, match="beyond the float range"):
            sig15(value)
    assert sig15(float("inf")) == "inf"
    assert sig15(F(-(10**308), 1)) == "-1e+308"


def test_modes():
    assert check_mode("rational") == "rational"
    assert check_mode("float") == "float"
    with pytest.raises(InputError):
        check_mode("decimal")
