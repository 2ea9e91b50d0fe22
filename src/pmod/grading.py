"""The parameter poset: points of R^n with exact rational coordinates.

Grades are compared componentwise (a partial order for n >= 2) and
shifted diagonally: a + eps means eps added to every coordinate. An
epsilon is a plain nonnegative Fraction; check_epsilon validates one at
the entry points that accept user values.

Grade, grade_leq and grade_shift are the public, exact view, and the
certificate re-checks (check_closure, MorphismMatrix's zero pattern)
use them. The interleaving search, its candidate set and its diagonal
lower bound do not: they compare and shift grades on an integer
lattice built once per query (interleave._Lattice). Every grade
coordinate of both presentations, and the shift, is multiplied by
L = 2 * lcm(all their denominators), so grades become int tuples and
every candidate, shift and half-difference is an int in units of 1/L.
Values are lifted back as Fraction(v, L) only where they leave the
search: the distance, each probe's public e, the bound and the
candidate set.
"""

import re
from fractions import Fraction


class DimensionMismatch(Exception):
    pass


class Grade:
    """A point of the parameter space: an n-tuple of exact rationals."""

    __slots__ = ("coords", "_hash", "__weakref__")

    def __init__(self, coords):
        # Fractions are immutable, so one given as a coordinate is kept
        self.coords = tuple(c if type(c) is Fraction else Fraction(c)
                            for c in coords)
        self._hash = None

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, Grade) and self.coords == other.coords

    def __hash__(self):
        # computed once: hashing Fractions is slow, and interned grades
        # are hashed again as parts of graded-set keys
        if self._hash is None:
            self._hash = hash(self.coords)
        return self._hash

    def __repr__(self):
        return f"Grade({list(self.coords)})"

    def __str__(self):
        return format_grade(self)


def _check_same_n(a, b):
    if len(a) != len(b):
        raise DimensionMismatch(
            f"grades of different dimension: {len(a)} vs {len(b)}")


def grade_leq(a, b):
    """Componentwise a <= b (the product partial order)."""
    _check_same_n(a, b)
    return all(x <= y for x, y in zip(a.coords, b.coords))


def grade_shift(a, e):
    """a + eps on every coordinate."""
    e = Fraction(e)
    return Grade(tuple(x + e for x in a.coords))


def check_epsilon(e):
    """Validate and normalize a diagonal shift value (rational, >= 0)."""
    try:
        e = Fraction(e)
    except OverflowError:  # Fraction(inf) overflows; NaN raises ValueError
        raise ValueError(f"epsilon must be finite, got {e}")
    if e < 0:
        raise ValueError(f"epsilon must be nonnegative, got {e}")
    return e


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(text):
    """Parse an optionally signed decimal integer of ASCII digits.

    int() alone would also take digit-group underscores ('1_0') and
    non-ASCII digits; the text formats promise plain decimals.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"bad integer literal: {text!r}")
    return int(text)


def parse_rational(text):
    """Parse 'num/den' or a signed decimal integer. Floats are rejected."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(parse_int(num.strip()), parse_int(den.strip()))
        return Fraction(parse_int(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational literal: {text!r}")


def parse_grade(text, n=None):
    """Parse '(q1, q2, ..., qn)'; a bare rational is allowed when n=1."""
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"unbalanced parentheses in grade: {text!r}")
        inner = text[1:-1].strip()
        parts = [p for p in inner.split(",")] if inner else []
        coords = [parse_rational(p) for p in parts]
    else:
        coords = [parse_rational(text)]
    if n is not None and len(coords) != n:
        raise DimensionMismatch(
            f"grade {text!r} has {len(coords)} coordinates, expected {n}")
    return Grade(coords)


def format_grade(a):
    if len(a) == 1:
        return str(a.coords[0])
    return "(" + ", ".join(str(c) for c in a.coords) + ")"
