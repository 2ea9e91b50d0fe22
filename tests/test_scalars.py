import math

import pytest
from fractions import Fraction

from pmod import (FieldMismatch, FieldSpec, Grade, GradedSet, MorphismMatrix,
                  ParseError, Presentation, apply, compose, make_element,
                  parse, span_membership)
from pmod.scalars import MAX_PRIME, RATIONALS, _is_prime

F2 = FieldSpec(2)
F5 = FieldSpec(5)
B = GradedSet([("a", Grade([0]))])
AT0 = Grade([0])


def test_field_spec_validation():
    assert FieldSpec(2).p == 2
    assert FieldSpec(7).p == 7
    assert FieldSpec().is_rationals
    assert FieldSpec(None) == RATIONALS
    for bad in (0, 1, 4, 6, 9, 15, 21, -3):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    with pytest.raises(ValueError):
        FieldSpec(2.0)
    # MAX_PRIME itself is prime (Mersenne), one above must be rejected
    assert FieldSpec(MAX_PRIME).p == MAX_PRIME
    with pytest.raises(ValueError):
        FieldSpec(2305843009213693967)  # next prime above the bound
    # composites with no factor up to 37 go through the Miller-Rabin
    # rounds to their refusal (2501 - 1 = 4 * 625, so 2501 squares once);
    # 3215031751 is a strong pseudoprime to 2, 3, 5 and 7
    for bad in (1763, 2501, 3215031751):
        with pytest.raises(ValueError, match="not a prime"):
            FieldSpec(bad)
    # primes with 2^4 or more in p - 1 square their way to p - 1
    for good in (1009, 65537, 998244353):
        assert FieldSpec(good).p == good
    for n in range(5000):
        want = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert _is_prime(n) is want, n


def test_field_spec_parse_and_str():
    assert FieldSpec.parse("Q") == RATIONALS
    assert FieldSpec.parse("F5") == F5
    assert FieldSpec.parse(" F2 ") == F2
    assert str(F5) == "F5"
    assert str(RATIONALS) == "Q"
    for bad in ("F", "F0", "F4", "GF5", "Q5", "f5", ""):
        with pytest.raises(ValueError):
            FieldSpec.parse(bad)


def test_residues_normalized():
    assert F5.coerce(7) == 2
    assert F5.coerce(-1) == 4
    assert F5.coerce(Fraction(10, 1)) == 0
    assert type(F5.coerce(Fraction(10, 1))) is int
    with pytest.raises(ValueError):
        F5.coerce(Fraction(1, 2))
    assert RATIONALS.coerce(3) == Fraction(3)
    assert type(RATIONALS.coerce(3)) is Fraction
    assert RATIONALS.coerce(Fraction(-1, 2)) == Fraction(-1, 2)


def test_field_mixing_rejected():
    # values, elements and matrices of two fields never combine
    v5, v2 = (make_element(B, AT0, [1], field) for field in (F5, F2))
    f5, f2 = (MorphismMatrix(B, B, [[1]], 0, field) for field in (F5, F2))
    with pytest.raises(FieldMismatch):
        compose(f5, f2)
    with pytest.raises(FieldMismatch):
        compose(f2, f5)
    with pytest.raises(FieldMismatch):
        apply(f5, v2)
    with pytest.raises(FieldMismatch):
        span_membership(v5, [v2])
    with pytest.raises(FieldMismatch):
        Presentation(F5, 1, B, [("r", v2)])
    # a value of Q is no residue, and an int is no value of Q
    with pytest.raises(FieldMismatch):
        make_element(B, AT0, [Fraction(1)], F5)
    with pytest.raises(FieldMismatch):
        make_element(B, AT0, [1], RATIONALS)


def _coefficient(text, field):
    P = parse(f"module M\nfield {field}\nparams 1\ngen a @ 0\n"
              f"rel r @ 0 = {text}*a\n")
    return P.relations[0].coeffs[0]


def test_parse_scalar_literal():
    assert _coefficient("4", F5) == 4
    assert _coefficient("-1", F5) == 4
    assert _coefficient("7", F5) == 2
    assert _coefficient("4/2", F5) == 2
    assert type(_coefficient("4/2", F5)) is int
    assert _coefficient("2/3", RATIONALS) == Fraction(2, 3)
    assert _coefficient("-4", RATIONALS) == Fraction(-4)
    assert type(_coefficient("-4", RATIONALS)) is Fraction
    for bad in ("x", "1.5", "", "1/0", "2/3/4"):
        with pytest.raises(ParseError) as err:
            _coefficient(bad, RATIONALS)
        assert "bad scalar" in str(err.value)
    # residue literals must be integers
    with pytest.raises(ParseError):
        _coefficient("1/2", F5)


def test_scalar_identity_and_repr():
    # an element holds its field next to raw values, and compares by both
    three = make_element(B, AT0, [F5.coerce(3)], F5)
    assert three == make_element(B, AT0, [F5.coerce(8)], F5)
    assert hash(three) == hash(make_element(B, AT0, [3], F5))
    one5, one2 = (make_element(B, AT0, [1], field) for field in (F5, F2))
    assert one5 != one2
    assert len({one5, one2}) == 2
    f5, f2 = (MorphismMatrix(B, B, [[1]], 0, field) for field in (F5, F2))
    assert f5 != f2
    assert f5 == MorphismMatrix(B, B, [[1]], 0, F5)
    assert repr(three) == "<3*a @ 0>"
    assert make_element(B, AT0, [0], F5).is_zero()
    assert make_element(B, AT0, [Fraction(0)], RATIONALS).is_zero()
    assert not three.is_zero()
