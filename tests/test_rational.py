"""Canonical rational construction, text form, and exact field behaviour."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchykit.rational import format_rational, parse_rational


@pytest.mark.parametrize("text,expected", [
    ("-19/30", Fraction(-19, 30)),
    ("3", Fraction(3)),
    ("0", Fraction(0)),
    ("  7/2 ", Fraction(7, 2)),
])
def test_parse_accepts_canonical_forms(text, expected):
    assert parse_rational(text) == expected


# the last two are Arabic-Indic 3/4 and fullwidth 12: digits, but not ASCII ones
@pytest.mark.parametrize("text", ["1.5", "", "3e2", "2/-3", "+4", "1/2/3", "a",
                                  "\u0663/\u0664", "\uff11\uff12"])
def test_parse_rejects_non_canonical_forms(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


@pytest.mark.parametrize("value,text", [
    (Fraction(-19, 30), "-19/30"),
    (Fraction(3), "3"),
    (Fraction(0), "0"),
    (Fraction(4, 2), "2"),
    (-7, "-7"),
])
def test_format_canonical(value, text):
    assert format_rational(value) == text


@pytest.mark.parametrize("value", [0.1, 2.0, Decimal("0.5"), "1/2"])
def test_format_rejects_anything_but_int_or_fraction(value):
    with pytest.raises(TypeError):
        format_rational(value)


def test_parse_format_round_trip():
    for value in (Fraction(-863, 84), Fraction(1375, 24), Fraction(0), Fraction(-5)):
        assert parse_rational(format_rational(value)) == value


BIG = 2 ** 256
big_ints = st.integers(min_value=-BIG, max_value=BIG)
big_rationals = st.builds(
    Fraction, big_ints, st.integers(min_value=1, max_value=BIG))


@settings(max_examples=120, derandomize=True)
@given(big_rationals, big_rationals, big_rationals)
def test_field_axioms_exactly(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1
