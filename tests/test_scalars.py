"""Exact scalar arithmetic, parsing, and square roots."""

import copy
import pickle
from fractions import Fraction

import pytest

from pmfiber import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    ParseError,
    gaussian,
    scalar_format,
    scalar_parse,
)
from pmfiber.scalars import (
    conj,
    div_exact,
    gaussian_sqrt,
    is_perfect_square,
    is_rational,
    normalize_scalar,
    scalar_im,
    scalar_re,
    sqrt_in_field,
)


def test_parse_rationals():
    assert scalar_parse("3") == 3
    assert scalar_parse("-7") == -7
    assert scalar_parse("-1/2") == Fraction(-1, 2)
    assert scalar_parse("+4/6") == Fraction(2, 3)


def test_parse_gaussian_forms():
    assert scalar_parse("2+3i") == gaussian(2, 3)
    assert scalar_parse("1/2+3i") == gaussian(Fraction(1, 2), 3)
    assert scalar_parse("1-2/3i") == gaussian(1, Fraction(-2, 3))
    assert scalar_parse("i") == gaussian(0, 1)
    assert scalar_parse("-i") == gaussian(0, -1)
    assert scalar_parse("5i") == gaussian(0, 5)
    # a trailing denominator may be attached to i itself
    assert scalar_parse("-i/2") == gaussian(0, Fraction(-1, 2))
    assert scalar_parse("i/3") == gaussian(0, Fraction(1, 3))
    assert scalar_parse("1+i/2") == gaussian(1, Fraction(1, 2))
    assert scalar_parse(" 2 + 3 i ") == gaussian(2, 3)


@pytest.mark.parametrize(
    "bad", ["", "oops", "1/0", "i/0", "2i+1", "1/2/3", "1/2i/3", "++1", "3x"]
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        scalar_parse(bad)


@pytest.mark.parametrize(
    "bad", ["1 2", "1 2/3", "1/2 3", "1\t2", "12 3+i", "2+3 4i", "-i/1 2", "1 /2 2"]
)
def test_parse_rejects_whitespace_between_digits(bad):
    # stripping it first would read "1 2" as 12, "1 2/3" as 4 and "1/2 3" as 1/23
    with pytest.raises(ParseError, match="whitespace between digits"):
        scalar_parse(bad)


@pytest.mark.parametrize("bad", ["\u0661", "\u0661+\u0662i", "3/\u0664", "\uff15", "\u0967i"])
def test_parse_reads_ascii_digits_only(bad):
    with pytest.raises(ParseError):
        scalar_parse(bad)


def test_parse_keeps_whitespace_around_signs_slash_and_i():
    assert scalar_parse("1 / 2") == Fraction(1, 2)
    assert scalar_parse(" - 3 / 4 ", FIELD_Q) == Fraction(-3, 4)
    assert scalar_parse("1 - 2 i / 3") == gaussian(1, Fraction(-2, 3))
    assert scalar_parse("\t12\n") == 12


def test_parse_field_restriction():
    with pytest.raises(ParseError):
        scalar_parse("i", FIELD_Q)
    with pytest.raises(ParseError):
        scalar_parse("1+2i", FIELD_Q)
    assert scalar_parse("-3/4", FIELD_Q) == Fraction(-3, 4)


@pytest.mark.parametrize(
    "text",
    ["0", "5", "-12", "7/3", "-1/9", "i", "-i", "2i", "-5/7i", "3+4i", "1/2-3/5i"],
)
def test_format_round_trips(text):
    value = scalar_parse(text)
    assert scalar_parse(scalar_format(value)) == value


def test_format_canonical_forms():
    assert scalar_format(gaussian(0, -1)) == "-i"
    assert scalar_format(gaussian(0, Fraction(1, 2))) == "1/2i"
    assert scalar_format(gaussian(Fraction(1, 2), 3)) == "1/2+3i"
    assert scalar_format(gaussian(2, -1)) == "2-i"
    assert scalar_format(Fraction(4, 2)) == "2"


def test_gaussian_arithmetic():
    a = gaussian(1, 2)
    b = gaussian(3, -1)
    assert a + b == gaussian(4, 1)
    assert a * b == gaussian(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert a - b == gaussian(-2, 3)
    assert conj(a) == gaussian(1, -2)
    assert conj(Fraction(1, 3)) == Fraction(1, 3)
    assert 2 + gaussian(0, 1) == gaussian(2, 1)
    assert 2 * gaussian(1, 1) == gaussian(2, 2)
    assert 1 - gaussian(0, 1) == gaussian(1, -1)


def test_division_exact():
    assert div_exact(gaussian(5, 5), gaussian(3, -1)) == gaussian(1, 2)
    assert div_exact(Fraction(3), 6) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        div_exact(1, 0)
    with pytest.raises(ZeroDivisionError):
        div_exact(gaussian(1, 1), gaussian(0, 0))


def test_normalize_collapses_real_gaussians():
    x = normalize_scalar(GaussianRational(3, 0))
    assert is_rational(x) and x == 3
    y = normalize_scalar(gaussian(Fraction(1, 2), 1))
    assert not is_rational(y)
    assert scalar_re(y) == Fraction(1, 2) and scalar_im(y) == 1


def test_is_perfect_square():
    assert is_perfect_square(4) == 2
    assert is_perfect_square(Fraction(9, 4)) == Fraction(3, 2)
    assert is_perfect_square(0) == 0
    assert is_perfect_square(2) is None
    assert is_perfect_square(-4) is None
    assert is_perfect_square(Fraction(8, 2)) == 2


def test_gaussian_sqrt():
    assert gaussian_sqrt(gaussian(0, 2)) in (gaussian(1, 1), gaussian(-1, -1))
    r = gaussian_sqrt(gaussian(3, 4))
    assert r is not None and r * r == gaussian(3, 4)
    assert gaussian_sqrt(gaussian(-1, 0)) in (gaussian(0, 1), gaussian(0, -1))
    assert gaussian_sqrt(gaussian(1, 1)) is None  # norm 2 is not a square
    r2 = gaussian_sqrt(Fraction(-9, 4))
    assert r2 is not None and r2 * r2 == Fraction(-9, 4)


def test_sqrt_in_field():
    assert sqrt_in_field(4, FIELD_Q) == 2
    assert sqrt_in_field(-4, FIELD_Q) is None
    assert sqrt_in_field(2, FIELD_QI) is None
    s = sqrt_in_field(-4, FIELD_QI)
    assert s is not None and s * s == -4
    s2 = sqrt_in_field(gaussian(0, 2), FIELD_QI)
    assert s2 is not None and s2 * s2 == gaussian(0, 2)


def test_gaussian_equality_and_hash():
    assert gaussian(1, 0) == 1 and isinstance(gaussian(1, 0), int)
    assert GaussianRational(Fraction(1, 2), 0) == Fraction(1, 2)
    assert hash(GaussianRational(2, 0)) == hash(2)


def test_gaussian_pickle_and_copy_round_trip():
    for x in (gaussian(1, 2), gaussian(Fraction(1, 2), Fraction(-3, 4))):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is GaussianRational
            assert (y.re, y.im) == (x.re, x.im)
            assert y == x and hash(y) == hash(x)


def test_gaussian_is_immutable():
    x = gaussian(1, 2)
    with pytest.raises(AttributeError):
        x.re = 5
    with pytest.raises(AttributeError):
        x.im = 0
    with pytest.raises(AttributeError):
        del x.re
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == gaussian(1, 2)


def test_constructor_demotes_integral_fraction_parts():
    x = GaussianRational(Fraction(4, 2), Fraction(3, 1))
    assert type(x.re) is int and type(x.im) is int
    assert (x.re, x.im) == (2, 3)


def test_arithmetic_results_are_canonical():
    half = gaussian(Fraction(1, 2), Fraction(3, 2))
    y = half * 2
    assert type(y) is GaussianRational
    assert type(y.re) is int and type(y.im) is int
    assert (y.re, y.im) == (1, 3)
    z = gaussian(1, 1) * gaussian(1, -1)
    assert type(z) is int and z == 2
    w = half + gaussian(Fraction(1, 2), Fraction(-3, 2))
    assert type(w) is int and w == 1
