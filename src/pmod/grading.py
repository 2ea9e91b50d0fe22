"""The parameter poset: points of R^n with exact rational coordinates.

Grades are compared componentwise (a partial order for n >= 2) and
shifted diagonally: a + eps means eps added to every coordinate. An
epsilon is a plain nonnegative Fraction; check_epsilon validates one at
the entry points that accept user values.

A Grade holds its coordinates as int numerators over one positive
common denominator, reduced so that the denominator is the least one.
Equality, hashing, grade_leq and grade_shift run on those ints, and
coords is the Fraction view, built on first use. The zero-pattern
re-checks (MorphismMatrix's and freemod._check_terms's) compare grades
this way. A Presentation goes one step further when it is built: it
puts its generator and relation grades on one integer lattice, with
scaled (here) giving each grade as an int tuple in units of 1/L for L
the lcm of their denominators, and tests its relations' patterns and
orders them there. Every span check of a witness compares grades on
the lattice of the presentation whose relations span: check_closure
at gr + 2e and characterize.compatible_presentations at gr(w) + e,
each handed with its shift to interleave._spanned_at, the one place
that rounds it down onto that lattice. minimize's redundancy step
compares relation grades there too.
onedim.barcode reads its grades off that lattice, and the interleaving
search, its candidate set and its diagonal lower bound put both
presentations, and the shift, on one common multiple of their lattices
per query (interleave._Lattice), so every candidate, shift and
half-difference is an int. Values are lifted back as Fraction(v, L)
only where they leave the search: the distance, each probe's public e,
the bound and the candidate set.
"""

import math
import re
from fractions import Fraction
from operator import le


class DimensionMismatch(Exception):
    pass


def _ratio_of(x):
    """(numerator, denominator > 0) of the rational x, in lowest terms.

    Ints and Fractions are read as they are; anything else goes through
    Fraction, and ValueError is raised when x is no finite rational
    (an infinite float overflows in Fraction, NaN and other types do
    not convert).
    """
    if type(x) is not int and type(x) is not Fraction:
        try:
            x = Fraction(x)
        except (OverflowError, TypeError, ValueError):
            raise ValueError(f"{x!r} is not a finite rational") from None
    return x.numerator, x.denominator


class Grade:
    """A point of the parameter space: an n-tuple of exact rationals.

    Stored as nums / den: a tuple of int numerators over one positive
    int denominator, with gcd(den, *nums) = 1, so den is the least
    common denominator of the coordinates and equal grades store equal
    ints. coords is the tuple of Fractions.
    """

    __slots__ = ("den", "nums", "_coords", "_hash")

    def __init__(self, coords):
        ratios = [_ratio_of(c) for c in coords]
        # the lcm of lowest-terms denominators leaves gcd(den, *nums) 1
        self.den = den = math.lcm(*(d for _, d in ratios))
        self.nums = tuple(x * (den // d) for x, d in ratios)
        self._coords = None
        self._hash = None

    @property
    def coords(self):
        c = self._coords
        if c is None:
            den = self.den
            c = self._coords = tuple(Fraction(x, den) for x in self.nums)
        return c

    def __len__(self):
        return len(self.nums)

    def __eq__(self, other):
        return other is self or (isinstance(other, Grade)
                                 and self.den == other.den
                                 and self.nums == other.nums)

    def __hash__(self):
        # computed once: a grade is hashed again as part of each key of
        # a graded set that holds it
        if self._hash is None:
            self._hash = hash((self.den, self.nums))
        return self._hash

    def __repr__(self):
        return f"Grade({list(self.coords)})"

    def __str__(self):
        return format_grade(self)


def _from_ints(den, nums):
    """The Grade nums / den, for an int den > 0 and an int tuple nums,
    reduced by gcd(den, *nums)."""
    g = math.gcd(den, *nums)
    if g != 1:
        den //= g
        nums = tuple(x // g for x in nums)
    grade = Grade.__new__(Grade)
    grade.den = den
    grade.nums = nums
    grade._coords = grade._hash = None
    return grade


def scaled(g, L):
    """The grade g as an int tuple in units of 1/L; L must be a
    multiple of g.den."""
    k = L // g.den
    return g.nums if k == 1 else tuple([x * k for x in g.nums])


def sorted_by_grade(items, grade_of):
    """The items sorted stably by grade_of(item), lexicographically on
    the coordinates, compared as ints on the items' common lattice."""
    items = list(items)
    L = math.lcm(*(grade_of(x).den for x in items))
    return sorted(items, key=lambda x: scaled(grade_of(x), L))


def grade_leq(a, b):
    """Componentwise a <= b (the product partial order)."""
    an, bn = a.nums, b.nums
    if len(an) != len(bn):
        raise DimensionMismatch(
            f"grades of different dimension: {len(an)} vs {len(bn)}")
    ad, bd = a.den, b.den
    if ad == bd:
        return all(map(le, an, bn))
    return all(x * bd <= y * ad for x, y in zip(an, bn))


def grade_shift(a, e):
    """a + eps on every coordinate."""
    n, d = _ratio_of(e)
    den = math.lcm(a.den, d)
    k = den // a.den
    s = n * (den // d)
    return _from_ints(den, tuple(x * k + s for x in a.nums))


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


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)\s*(?:/\s*([+-]?[0-9]+)\s*)?")


def _parse_ratio(text):
    """(numerator, denominator > 0) of 'num/den' or a signed decimal
    integer of ASCII digits, not reduced. Floats are rejected."""
    m = _RATIONAL.fullmatch(text)
    d = int(m[2] or 1) if m else 0
    if not d:
        raise ValueError(f"bad rational literal: {text.strip()!r}")
    x = int(m[1])
    return (-x, -d) if d < 0 else (x, d)


def parse_rational(text):
    """Parse 'num/den' or a signed decimal integer. Floats are rejected."""
    return Fraction(*_parse_ratio(text))


def parse_grade(text, n=None):
    """Parse '(q1, q2, ..., qn)'; a bare rational is allowed when n=1."""
    text = text.strip()
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"unbalanced parentheses in grade: {text!r}")
        inner = text[1:-1].strip()
        ratios = [_parse_ratio(p) for p in inner.split(",")] if inner else []
    else:
        ratios = [_parse_ratio(text)]
    if n is not None and len(ratios) != n:
        raise DimensionMismatch(
            f"grade {text!r} has {len(ratios)} coordinates, expected {n}")
    den = math.lcm(*(d for _, d in ratios))
    return _from_ints(den, tuple(x * (den // d) for x, d in ratios))


def format_grade(a):
    den = a.den
    parts = []
    for x in a.nums:
        g = math.gcd(x, den)
        parts.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    if len(parts) == 1:
        return parts[0]
    return "(" + ", ".join(parts) + ")"
