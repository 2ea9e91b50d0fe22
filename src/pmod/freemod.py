"""Free n-graded modules on graded sets.

A free module <B> on a graded set B has, at each grade u, the span of
the generators b with gr(b) <= u. Because the transition maps of a free
module act as identity embeddings on coefficient vectors, everything
here is plain linear algebra over the coefficient field plus a grade
pattern that says which coordinates are allowed to be nonzero:

  * a homogeneous element at grade u may touch generator b only if
    gr(b) <= u;
  * a morphism matrix <B> -> <B'(e)> holds in column j the image of
    b_j, a homogeneous element of <B'> at grade gr(b_j) + e, so it obeys
    the first rule column by column: entry (i, j) may be nonzero only
    if gr(b'_i) <= gr(b_j) + e. make_element and MorphismMatrix check
    an element and each column with one function, _terms_of, whose
    _check_terms holds both rules.

The matrix rule is what makes patterned matrices correspond exactly to
degree-preserving morphisms ("not >= forces zero"; a strict-< rule
would wrongly allow incomparable grades).

Coefficients and matrix entries are raw values of the field the
element or matrix holds: int residues in [0, p) over F_p, Fractions over
Q. An element holds its nonzero coefficients as its terms, which is all
that parse and onedim.barcode read; its dense coefficient tuple is
built from them on first read, unless its builder already has it.
The bottom of the file is the one exact Gaussian elimination kernel
(first-nonzero pivoting, no numerical concerns), on the same raw values.
"""

import weakref
from fractions import Fraction
from operator import mul

from .grading import grade_leq, grade_shift, DimensionMismatch
from .scalars import FieldMismatch


class PatternViolation(Exception):
    pass


class BasisMismatch(Exception):
    pass


class GradedSet:
    """An ordered list of (name, grade). Order fixes matrix indexing.

    Graded sets are small and live as long as every matrix over them,
    so they hold the two tuples and one table only; position() scans
    the names. The table interns the residue rows of the F_p matrices
    with this domain, so that many matrices over one graded set share
    their equal rows for as long as the graded set lives, and no longer.
    """

    __slots__ = ("names", "grades", "_rows", "__weakref__")

    def __init__(self, items):
        names, grades = tuple(zip(*items)) or ((), ())
        self.names = names
        self.grades = grades
        self._rows = {}
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate names in graded set: {names}")
        if len({len(g.nums) for g in grades}) > 1:
            raise DimensionMismatch("mixed grade dimensions in graded set")

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(zip(self.names, self.grades))

    def position(self, name):
        if name not in self.names:
            raise KeyError(name)
        return self.names.index(name)

    def __eq__(self, other):
        return other is self or (isinstance(other, GradedSet)
                                 and self.names == other.names
                                 and self.grades == other.grades)

    def __hash__(self):
        return hash((self.names, self.grades))

    def __repr__(self):
        inside = ", ".join(f"{n}@{g}" for n, g in self)
        return f"GradedSet[{inside}]"


_ZERO_Q = Fraction(0)  # immutable, so every Q element shares it


class HomogeneousElement:
    """An element of <B> at a single grade, as its terms: the (position,
    value) pairs of its nonzero coefficients, raw values of field, in
    position order. coeffs is the dense coefficient vector, a tuple of
    len(B) raw values; an element built without it (coeffs None) makes
    it from the terms on first read and keeps it, as Grade.coords does.

    Do not construct directly; use make_element, which checks the values
    and enforces the grade pattern, and passes the tuple it has built.
    Three builders whose values are already checked build from terms,
    and Presentation(...) checks the pattern of what they build: parse,
    whose values are made by FieldSpec.coerce, from the terms alone;
    presentation.minimize, from the values its eliminations leave; and
    characterize.induced_presentations, from the values and terms of the
    pair's elements, at their own grade or one raised by e (built only
    on request: `pmod characterize` prints the pair without them).
    """

    __slots__ = ("basis", "grade", "_coeffs", "field", "terms")

    def __init__(self, basis, grade, coeffs, field, terms):
        self.basis = basis
        self.grade = grade
        self._coeffs = None if coeffs is None else tuple(coeffs)
        self.field = field
        self.terms = terms

    @property
    def coeffs(self):
        c = self._coeffs
        if c is None:
            c = [0 if self.field.p else _ZERO_Q] * len(self.basis)
            for j, x in self.terms:
                c[j] = x
            c = self._coeffs = tuple(c)
        return c

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, HomogeneousElement)
                and self.field == other.field
                and self.basis == other.basis
                and self.grade == other.grade
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.basis, self.grade, self.coeffs))

    def __repr__(self):
        names = self.basis.names
        body = " + ".join(f"{c}*{names[j]}" for j, c in self.terms) or "0"
        return f"<{body} @ {self.grade}>"


def make_element(B, u, coeffs, field):
    """Build a homogeneous element of <B> at grade u over field.

    Raises BasisMismatch if there is not one coefficient per generator,
    then the errors of _terms_of: DimensionMismatch if u and B's grades
    differ in dimension, FieldMismatch if some coefficient is not a raw
    value of field (FieldSpec.coerce makes one), and PatternViolation
    if some coefficient is nonzero at a generator whose grade is not
    <= u, in that order. The element holds the coefficient tuple and
    the terms that _terms_of finds.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) != len(B):
        raise BasisMismatch(
            f"{len(coeffs)} coefficients for a basis of size {len(B)}")
    return HomogeneousElement(B, u, coeffs, field,
                              _terms_of(B, u, coeffs, field))


def _terms_of(B, u, coeffs, field):
    """The terms of the element of <B> at grade u with the coefficient
    vector coeffs, one per generator, over field: the (position, value)
    pairs of its nonzero coefficients, checked as make_element and
    MorphismMatrix check them.

    Raises DimensionMismatch if u and B's grades differ in dimension,
    FieldMismatch at the first coefficient that is not a raw value of
    field, and PatternViolation (from _check_terms) if some coefficient
    is nonzero at a generator whose grade is not <= u, in that order.
    """
    if B.grades and len(B.grades[0].nums) != len(u.nums):
        raise DimensionMismatch(
            f"grades of different dimension: {len(B.grades[0])} vs {len(u)}")
    p = field.p
    kind = int if p else Fraction
    terms = []
    for j, c in enumerate(coeffs):
        if type(c) is not kind or p and not 0 <= c < p:
            raise FieldMismatch(f"coefficient {c!r} is not a value of {field}")
        if c:
            terms.append((j, c))
    _check_terms(B, u, terms)
    return tuple(terms)


def _check_terms(B, u, terms):
    """The grade pattern of an element of <B> at grade u, given by its
    terms, the (position, nonzero raw value) pairs in position order.

    Raises PatternViolation at the first term whose generator's grade
    is not <= u, and DimensionMismatch (from grade_leq) at a term whose
    grade differs from u in dimension.
    """
    for j, _ in terms:
        g = B.grades[j]
        if not grade_leq(g, u):
            raise PatternViolation(
                f"coefficient on {B.names[j]}@{g} in an element at grade {u}")


# A caller may keep many witnesses alive (a distance matrix keeps one
# per pair), and each holds its matrices' graded sets, which nothing
# else keeps for long. So MorphismMatrix hands out one GradedSet per
# distinct (names, grades) while any is alive, and with it one _rows
# table for the equal rows of every matrix over that domain.
_SHARED_SETS = weakref.WeakValueDictionary()


class MorphismMatrix:
    """A |B'| x |B| matrix representing a morphism <B> -> <B'(e)>.

    Column j is the image of b_j, an element of <B'> at gr(b_j) + e, and
    is checked as make_element checks one at that grade (_terms_of),
    columns in domain order, with no element built:
    its entries are raw values of field, entry (i, j) may be nonzero
    only when gr(b'_i) <= gr(b_j) + e, and the grades of B and B' must
    have one dimension when both are nonempty. The domain and codomain
    held are the shared graded sets equal to the given ones.
    """

    __slots__ = ("domain", "codomain", "shift", "entries", "field")

    def __init__(self, domain, codomain, entries, shift, field):
        self.shift = shift if type(shift) is Fraction else Fraction(shift)
        rows = [tuple(row) for row in entries]
        if len(rows) != len(codomain):
            raise BasisMismatch(
                f"{len(rows)} rows for a codomain of size {len(codomain)}")
        for row in rows:
            if len(row) != len(domain):
                raise BasisMismatch(
                    f"row of length {len(row)} for a domain of size {len(domain)}")
        self.field = field
        for g, column in zip(domain.grades, zip(*rows)):
            _terms_of(codomain, grade_shift(g, self.shift), column, field)
        self.domain = domain = _SHARED_SETS.setdefault(
            (domain.names, domain.grades), domain)
        self.codomain = _SHARED_SETS.setdefault(
            (codomain.names, codomain.grades), codomain)
        if field.p:
            # residue rows hold ints alone, so equal rows are the same
            # value under every prime; Q rows stay unshared
            table = domain._rows
            rows = [table.setdefault(row, row) for row in rows]
        self.entries = tuple(rows)

    def __eq__(self, other):
        return (isinstance(other, MorphismMatrix)
                and self.field == other.field
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.shift == other.shift
                and self.entries == other.entries)

    def __repr__(self):
        rows = ["[" + ", ".join(str(x) for x in row) + "]"
                for row in self.entries]
        return (f"MorphismMatrix({len(self.codomain)}x{len(self.domain)}, "
                f"shift={self.shift}, [{'; '.join(rows)}])")


def _dot(u, v, field):
    """Raw dot product of two value sequences of field."""
    if field.p:
        return sum(map(mul, u, v)) % field.p
    return sum(map(mul, u, v), Fraction(0))


def apply(f, v):
    """Apply a morphism matrix to a homogeneous element."""
    if v.basis != f.domain:
        raise BasisMismatch("element is not over the morphism's domain")
    if f.field != v.field:
        raise FieldMismatch(f"{f.field} matrix applied to a {v.field} element")
    coeffs = [_dot(row, v.coeffs, f.field) for row in f.entries]
    return make_element(f.codomain, grade_shift(v.grade, f.shift), coeffs,
                        f.field)


def compose(g, f):
    """g after f; shifts add. f: <B> -> <B'(e1)>, g: <B'> -> <B''(e2)>."""
    if f.codomain != g.domain:
        raise BasisMismatch("codomain of f is not the domain of g")
    if f.field != g.field:
        raise FieldMismatch("composing matrices over different fields")
    columns = [[row[j] for row in f.entries] for j in range(len(f.domain))]
    entries = [[_dot(row, col, f.field) for col in columns]
               for row in g.entries]
    return MorphismMatrix(f.domain, g.codomain, entries,
                          f.shift + g.shift, f.field)


def span_membership(v, W):
    """Is v in the graded span of W at grade gr(v)?

    Only the w in W with gr(w) <= gr(v) participate (the others do not
    exist at that grade). Returns (True, coefficients) with the
    certificate aligned to W (zero at non-participating positions), or
    (False, None).
    """
    for w in W:
        if w.basis != v.basis:
            raise BasisMismatch("span members over a different basis")
        if w.field != v.field:
            raise FieldMismatch("span members over a different field")
    field = v.field
    admissible = [k for k, w in enumerate(W) if grade_leq(w.grade, v.grade)]
    rows = zip(*(W[k].coeffs for k in admissible), v.coeffs)
    x = _solve(rows, len(admissible), field.p)
    if x is None:
        return False, None
    cert = [field.coerce(0)] * len(W)
    for k, val in zip(admissible, x):
        cert[k] = val
    return True, cert


# ----------------------------------------------------------------------
# Exact linear algebra over a field, on raw values: residues mod p over
# F_p, Fractions over Q (p is None). _echelon is the one elimination,
# pivoting on the first nonzero entry and clearing below each pivot
# only; rref adds a back pass and _solve back-substitution. rref and
# nullspace are the public (traced) face; nullspace is rref then _kernel,
# which a caller that keeps the reduction runs alone. The search's
# per-candidate solves call _solve, or over F_2 _xor_solve on int rows.
# _spanned asks whether many vectors lie in one span with one
# elimination, for the certificate checks and minimize.
# An F_p entry may be an unreduced int, but not a nonzero multiple of
# p, which has no inverse. All routines take 0 rows and 0 columns.
# ----------------------------------------------------------------------

def _echelon(rows, width, p):
    """Row echelon form of the first width columns of raw rows; longer
    rows carry their extra columns along. Returns (rows, pivots, invs):
    row k < len(pivots) is zero left of column pivots[k] and invs[k] is
    the inverse of its entry there, and the other rows are zero in the
    first width columns. The pivots are those of the reduced row
    echelon form. Row lists are replaced, never mutated.
    """
    rows = list(rows)
    n = len(rows)
    pivots = []
    invs = []
    r = 0
    for c in range(width):
        for pr in range(r, n):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r]
        inv = pivot[c]
        if p is None:
            inv = 1 / Fraction(inv)
        elif inv != 1:  # 1 is its own inverse, and F_2 has no other
            inv = pow(inv, -1, p)
        # rows r + 1 to pr were passed by the search: zero in column c
        for i in range(pr + 1, n):
            row = rows[i]
            f = row[c]
            if f:
                f *= inv
                if p is None:
                    rows[i] = [a - f * b for a, b in zip(row, pivot)]
                else:
                    rows[i] = [(a - f * b) % p for a, b in zip(row, pivot)]
        pivots.append(c)
        invs.append(inv)
        r += 1
        if r == n:
            break
    return rows, pivots, invs


def _solve(rows, width, p):
    """One raw solution x (free variables zero) of a linear system, or
    None. Each row holds its coefficients in the first width columns and
    its right-hand side in column width, as _xor_solve's rows do in bit
    width. The system is consistent iff every row _echelon leaves
    without a pivot has a zero right-hand side; back-substitution then
    gives the reduced row echelon form's solution, as the pivots agree.
    """
    rows, pivots, invs = _echelon(rows, width, p)
    r = len(pivots)
    for row in rows[r:]:
        if row[width]:
            return None
    x = [0 if p else Fraction(0)] * width
    for k in range(r - 1, -1, -1):
        c = pivots[k]
        row = rows[k]
        v = row[width] - sum(map(mul, row[c + 1:width], x[c + 1:]))
        x[c] = v * invs[k] if p is None else v * invs[k] % p
    return x


def _spanned(rows, vectors, p):
    """Does every vector lie in the span of rows? Rows and vectors are
    raw value sequences of one length; F_p values must be residues.

    One _echelon of the transposed system: coordinate t gives the row
    (rows[0][t], ..., vectors[0][t], ...), so the coefficients of rows
    fill the first len(rows) columns and each vector is one right-hand
    side. Every vector is spanned iff every row left without a pivot is
    zero on all the right-hand sides, as in _solve. No vectors, or no
    rows and only zero vectors, are spanned.
    """
    width = len(rows)
    red, pivots, _ = _echelon(zip(*rows, *vectors), width, p)
    return not any(any(row[width:]) for row in red[len(pivots):])


def _xor_solve(rows, width):
    """One solution x (free variables zero) of a system over F_2, or
    None.

    Each row is an int: bit t < width is its coefficient on x_t, and
    bit width its right-hand side; x comes back as a list of 0s and 1s.
    Rows are reduced by XOR against the rows kept so far, each kept row
    named by its lowest bit, which is its pivot column; a row that comes
    down to its right-hand side alone makes the system inconsistent.
    The kept rows form an echelon basis, so their pivots are the
    reduced row echelon form's, and back-substitution from the highest
    pivot down gives that form's solution.
    """
    top = 1 << width
    kept = {}
    for r in rows:
        while r:
            low = r & -r
            b = kept.get(low)
            if b is None:
                if low == top:
                    return None
                kept[low] = r
                break
            r ^= b
    x = 0
    for low in sorted(kept, reverse=True):
        r = kept[low]
        # r's other columns lie above low, and are already settled
        if (r >> width ^ (r & x).bit_count()) & 1:
            x |= low
    return [x >> t & 1 for t in range(width)]


def rref(rows, width, p):
    """Reduced row echelon form of raw rows: _echelon, then from the
    last pivot up each pivot row is scaled to a pivot of 1 and clears
    its column in the rows above it. Returns (reduced_rows,
    pivot_columns); zero rows are dropped."""
    rows, pivots, invs = _echelon(rows, width, p)
    r = len(pivots)
    del rows[r:]
    while r:
        r -= 1
        c = pivots[r]
        inv = invs[r]
        if p is None:
            pivot = rows[r] = [x * inv for x in rows[r]]
        else:
            pivot = rows[r] = [x * inv % p for x in rows[r]]
        for i in range(r):
            row = rows[i]
            f = row[c]
            if f:
                if p is None:
                    rows[i] = [a - f * b for a, b in zip(row, pivot)]
                else:
                    rows[i] = [(a - f * b) % p for a, b in zip(row, pivot)]
    return rows, pivots


def nullspace(rows, width, p):
    """Basis of the solution space of rows . x = 0, in raw values: the
    _kernel of rref(rows). Deterministic for a given row list."""
    return _kernel(*rref(rows, width, p), width, p)


def _kernel(red, pivots, width, p):
    """Nullspace basis of rows reduced by rref: per free column, in
    ascending order, 1 there and minus its reduced entries on pivots.
    The search writes each partner map in this basis (interleave._Side),
    so its coordinates, and with them its witnesses, follow this order."""
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [zero] * width
        v[free] = one
        for row, c in zip(red, pivots):
            v[c] = -row[free] % p if p else -row[free]
        basis.append(v)
    return basis
