import math
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from pmod import (DimensionMismatch, Grade, check_epsilon, format_grade,
                  grade_leq, grade_shift, parse, parse_grade)
from pmod.grading import parse_rational

coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)
grades2 = st.builds(lambda a, b: Grade([a, b]), coord, coord)


def test_grade_basics():
    g = Grade([Fraction(1), Fraction(1, 2)])
    assert len(g) == 2
    assert g.coords == (Fraction(1), Fraction(1, 2))
    assert g == Grade([1, Fraction(1, 2)])
    assert hash(g) == hash(Grade([1, Fraction(1, 2)]))
    assert Grade([0]) != Grade([0, 0])


def test_grade_leq_componentwise():
    assert grade_leq(Grade([0, 0]), Grade([1, 2]))
    assert grade_leq(Grade([1, 2]), Grade([1, 2]))
    assert not grade_leq(Grade([1, 2]), Grade([2, 1]))
    assert not grade_leq(Grade([2, 1]), Grade([1, 2]))  # incomparable pair
    with pytest.raises(DimensionMismatch):
        grade_leq(Grade([0]), Grade([0, 0]))


@given(grades2, grades2, grades2)
def test_grade_leq_is_a_partial_order(a, b, c):
    assert grade_leq(a, a)
    if grade_leq(a, b) and grade_leq(b, a):
        assert a == b
    if grade_leq(a, b) and grade_leq(b, c):
        assert grade_leq(a, c)


@given(grades2, st.fractions(min_value=0, max_value=3, max_denominator=4),
       st.fractions(min_value=0, max_value=3, max_denominator=4))
def test_grade_shift_acts_diagonally(g, e, f):
    ge = grade_shift(g, e)
    assert ge.coords == tuple(c + e for c in g.coords)
    assert grade_shift(ge, f) == grade_shift(g, e + f)
    assert grade_leq(g, ge)


def test_check_epsilon():
    assert check_epsilon(Fraction(0)) == Fraction(0)
    assert check_epsilon(Fraction(3, 2)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        check_epsilon(Fraction(-1, 2))
    for bad in (math.inf, float("nan")):
        with pytest.raises(ValueError):
            check_epsilon(bad)


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-1") == Fraction(-1)
    assert parse_rational(" 2 ") == Fraction(2)
    for bad in ("", "x", "1.5", "1/0", "1//2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_grade_forms():
    assert parse_grade("(1, 1/2)") == Grade([1, Fraction(1, 2)])
    assert parse_grade("3/4", n=1) == Grade([Fraction(3, 4)])
    assert parse_grade("(2)") == Grade([2])
    with pytest.raises(DimensionMismatch):
        parse_grade("(1, 2)", n=3)
    with pytest.raises(ValueError):
        parse_grade("(1, )")
    with pytest.raises(ValueError):
        parse_grade("1 2")


def test_format_grade_round_trip():
    for g in (Grade([Fraction(1, 2)]), Grade([0, 2]),
              Grade([Fraction(3, 4), Fraction(-1, 2), 5])):
        assert parse_grade(format_grade(g), n=len(g)) == g
    # one parameter serializes bare
    assert format_grade(Grade([Fraction(3, 2)])) == "3/2"
    assert format_grade(Grade([1, 2])) == "(1, 2)"


# mixed denominators and signs, so that two grades rarely share one den
rational = st.fractions(min_value=-6, max_value=6, max_denominator=12)
pair = st.tuples(rational, rational)


@given(pair, pair, st.fractions(min_value=-3, max_value=3,
                                max_denominator=10))
def test_int_grade_matches_fraction_reference(a, b, e):
    """Grades hold ints; a plain tuple of Fractions is the reference."""
    ga, gb = Grade(a), Grade(b)
    for g, ref in ((ga, a), (gb, b)):
        assert g.den == math.lcm(*(x.denominator for x in ref))
        assert math.gcd(g.den, *g.nums) == 1
        assert g.coords == ref
        assert all(type(x) is Fraction for x in g.coords)
        assert format_grade(g) == "(" + ", ".join(map(str, ref)) + ")"
        assert parse_grade(format_grade(g), n=2) == g
    assert (ga == gb) == (a == b)
    if a == b:
        assert hash(ga) == hash(gb)
    assert grade_leq(ga, gb) == all(x <= y for x, y in zip(a, b))
    shifted = grade_shift(ga, e)
    ref = tuple(x + e for x in a)
    assert shifted.coords == ref
    assert shifted.den == math.lcm(*(x.denominator for x in ref))
    assert shifted == Grade(ref) and hash(shifted) == hash(Grade(ref))
    back = grade_shift(shifted, -e)
    assert back == ga and hash(back) == hash(ga)
    assert grade_leq(ga, shifted) == (e >= 0)


def test_parse_grade_normalizes():
    g = parse_grade("(2/4, 3/-2, -0/5, +1/2)")
    assert (g.den, g.nums) == (2, (1, -3, 0, 1))
    assert g == Grade([Fraction(1, 2), Fraction(-3, 2), 0, Fraction(1, 2)])
    assert format_grade(g) == "(1/2, -3/2, 0, 1/2)"
    assert parse_grade(format_grade(g)) == g
    for text, den, num in (("6/4", 2, 3), ("-0/5", 1, 0), ("+1/2", 2, 1),
                           ("3/-2", 2, -3), ("-4/-8", 2, 1)):
        g = parse_grade(text, n=1)
        assert (g.den, g.nums) == (den, (num,))
        assert parse_grade(format_grade(g), n=1) == g


@given(pair, st.integers(min_value=1, max_value=4), st.booleans())
def test_parse_reads_equal_grades_written_differently(a, k, flip):
    # texts of one grade parse to equal Grades, one hash and one spot
    # on the presentation's lattice, however the text writes it
    def spelled(x):
        num, den = x.numerator * k, x.denominator * k
        return f"{-num}/{-den}" if flip else f"{num}/{den}"

    P = parse("module M\nfield F2\nparams 2\n"
              f"gen a @ ({a[0]}, {a[1]})\n"
              f"gen b @ ({spelled(a[0])}, {spelled(a[1])})\n")
    ga, gb = P.generators.grades
    assert ga == gb == Grade(a) and hash(ga) == hash(gb)
    assert (ga.den, ga.nums) == (gb.den, gb.nums)
    assert P.gen_ints[0] == P.gen_ints[1]


def test_non_finite_coordinates_raise_value_error():
    for bad in (math.inf, -math.inf, float("nan")):
        with pytest.raises(ValueError):
            Grade([bad])
        with pytest.raises(ValueError):
            Grade([0, bad])
        with pytest.raises(ValueError):
            grade_shift(Grade([0, 0]), bad)
    for bad in (None, "x", 1j):
        with pytest.raises(ValueError):
            Grade([bad])
