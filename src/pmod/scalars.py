"""Exact field arithmetic: the rationals Q and prime fields F_p.

Every coefficient in this package is a Scalar: a value tagged with the
field it lives in. Rationals are stdlib Fractions (always normalized),
prime-field values are residues in [0, p). Scalars from different fields
never mix; mixing raises FieldMismatch.
"""

from fractions import Fraction

from .grading import parse_rational


class FieldMismatch(Exception):
    pass


class DivisionByZero(Exception):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p):
    # deterministic Miller-Rabin; this witness set is exact below 3.3e24
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# residues must fit a machine word; enumeration is the only consumer and
# anything near this bound is unusable anyway
MAX_PRIME = 2**61 - 1


class FieldSpec:
    """The rationals (p is None) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            if not isinstance(p, int) or not _is_prime(p):
                raise ValueError(f"not a prime: {p!r}")
            if p > MAX_PRIME:
                raise ValueError(f"prime too large: {p}")
        self.p = p

    @property
    def is_rationals(self):
        return self.p is None

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __str__(self):
        return "Q" if self.p is None else f"F{self.p}"

    def __repr__(self):
        return f"FieldSpec({self.p!r})"

    @staticmethod
    def parse(text):
        """Parse 'Q' or 'F<p>'."""
        text = text.strip()
        if text == "Q":
            return FieldSpec()
        if text.startswith("F") and text[1:].isdigit():
            return FieldSpec(int(text[1:]))
        raise ValueError(f"unknown field: {text!r}")

    def scalar(self, value):
        """Coerce an int, Fraction, or literal string into this field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"{value.field} scalar used in {self}")
            return value
        if isinstance(value, str):
            value = parse_scalar_literal(value, self)
            return value
        if self.p is None:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer residue")
            value = value.numerator
        return Scalar(self, value % self.p)

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)


RATIONALS = FieldSpec()


class Scalar:
    """A field element: Fraction over Q, reduced residue over F_p."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def is_zero(self):
        return self.value == 0

    def __eq__(self, other):
        return (isinstance(other, Scalar)
                and self.field == other.field
                and self.value == other.value)

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"<{self.value} in {self.field}>"

    # arithmetic dunders delegate to the module functions so that the
    # field check lives in one place
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(other))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return mul(self, inv(other))


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatch(f"cannot combine {a.field} and {b.field} scalars")


def add(a, b):
    _check_same_field(a, b)
    if a.field.p is None:
        return Scalar(a.field, a.value + b.value)
    return Scalar(a.field, (a.value + b.value) % a.field.p)


def neg(a):
    if a.field.p is None:
        return Scalar(a.field, -a.value)
    return Scalar(a.field, (-a.value) % a.field.p)


def mul(a, b):
    _check_same_field(a, b)
    if a.field.p is None:
        return Scalar(a.field, a.value * b.value)
    return Scalar(a.field, (a.value * b.value) % a.field.p)


def inv(a):
    if a.value == 0:
        raise DivisionByZero(f"inverse of zero in {a.field}")
    if a.field.p is None:
        return Scalar(a.field, 1 / a.value)
    return Scalar(a.field, pow(a.value, -1, a.field.p))


def parse_scalar_literal(text, field):
    """Parse a scalar literal: 'num/den' or a (signed) decimal integer."""
    text = text.strip()
    try:
        value = parse_rational(text)
    except ValueError:
        raise ValueError(f"bad scalar literal: {text!r}")
    if field.p is None:
        return Scalar(field, value)
    if value.denominator != 1:
        # n/d is a residue too as long as d is invertible; keep it simple
        # and admit only what the serializer emits: plain integers
        raise ValueError(f"bad residue literal for {field}: {text!r}")
    return Scalar(field, value.numerator % field.p)
