"""The coefficient fields: the rationals Q and prime fields F_p.

Coefficients are raw values: stdlib Fractions over Q, int residues in
[0, p) over F_p. An element or matrix holds its FieldSpec once, next to
its raw values; combining values of different fields raises
FieldMismatch.
"""

from fractions import Fraction

from .grading import parse_int


class FieldMismatch(Exception):
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
        if text.startswith("F") and text[1:2].isdigit():
            return FieldSpec(parse_int(text[1:]))
        raise ValueError(f"unknown field: {text!r}")

    def coerce(self, x):
        """x as a raw value of this field: a Fraction over Q, a residue
        in [0, p) over F_p. A non-integral Fraction is no residue and
        raises ValueError."""
        if self.p is None:
            return x if type(x) is Fraction else Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer residue")
            x = x.numerator
        return x % self.p


RATIONALS = FieldSpec()
