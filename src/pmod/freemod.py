"""Free n-graded modules on graded sets.

A free module <B> on a graded set B has, at each grade u, the span of
the generators b with gr(b) <= u. Because the transition maps of a free
module act as identity embeddings on coefficient vectors, everything
here is plain linear algebra over the coefficient field plus a grade
pattern that says which coordinates are allowed to be nonzero:

  * a homogeneous element at grade u may touch generator b only if
    gr(b) <= u;
  * a morphism matrix <B> -> <B'(e)> may have entry (i, j) nonzero only
    if gr(b'_i) <= gr(b_j) + e.

The second rule is what makes patterned matrices correspond exactly to
degree-preserving morphisms ("not >= forces zero"; a strict-< rule
would wrongly allow incomparable grades).

The bottom of the file is the one exact Gaussian elimination kernel
(first-nonzero pivoting, no numerical concerns). It works on raw values:
residues mod p, or Fractions over Q. span_membership is its one Scalar
boundary; the interleaving search calls rref and nullspace on raw
values and lifts to Scalars only what it returns.
"""

from fractions import Fraction

from .grading import grade_leq, grade_shift, DimensionMismatch
from .scalars import FieldMismatch, Scalar


class PatternViolation(Exception):
    pass


class BasisMismatch(Exception):
    pass


class GradedSet:
    """An ordered list of (name, grade). Order fixes matrix indexing.

    Graded sets are small and live as long as every matrix over them,
    so they hold the two tuples only; position() scans the names.
    """

    __slots__ = ("names", "grades")

    def __init__(self, items):
        items = list(items)
        self.names = tuple(name for name, _ in items)
        self.grades = tuple(grade for _, grade in items)
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate names in graded set: {self.names}")
        for g in self.grades[1:]:
            if len(g) != len(self.grades[0]):
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
        return (isinstance(other, GradedSet)
                and self.names == other.names
                and self.grades == other.grades)

    def __hash__(self):
        return hash((self.names, self.grades))

    def __repr__(self):
        inside = ", ".join(f"{n}@{g}" for n, g in self)
        return f"GradedSet[{inside}]"


class HomogeneousElement:
    """An element of <B> at a single grade, as a coefficient vector.

    Do not construct directly; use make_element, which enforces the
    grade pattern.
    """

    __slots__ = ("basis", "grade", "coeffs", "field")

    def __init__(self, basis, grade, coeffs, field):
        self.basis = basis
        self.grade = grade
        self.coeffs = tuple(coeffs)
        self.field = field

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, HomogeneousElement)
                and self.basis == other.basis
                and self.grade == other.grade
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.basis, self.grade, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*{n}" for c, n in zip(self.coeffs, self.basis.names)
                 if not c.is_zero()]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} @ {self.grade}>"


def make_element(B, u, coeffs, field=None):
    """Build a homogeneous element of <B> at grade u.

    Raises PatternViolation if some coefficient is nonzero at a
    generator whose grade is not <= u.
    """
    coeffs = list(coeffs)
    if len(coeffs) != len(B):
        raise BasisMismatch(
            f"{len(coeffs)} coefficients for a basis of size {len(B)}")
    if field is None and coeffs:
        field = coeffs[0].field
    for c in coeffs:
        if field is not None and c.field != field:
            raise FieldMismatch("mixed fields in one element")
    for c, (name, g) in zip(coeffs, B):
        if not c.is_zero() and not grade_leq(g, u):
            raise PatternViolation(
                f"coefficient on {name}@{g} in an element at grade {u}")
    return HomogeneousElement(B, u, coeffs, field)


def zero_element(B, u, field):
    return HomogeneousElement(B, u, [field.zero()] * len(B), field)


class MorphismMatrix:
    """A |B'| x |B| matrix representing a morphism <B> -> <B'(e)>.

    Entry (i, j) may be nonzero only when gr(b'_i) <= gr(b_j) + e.
    """

    __slots__ = ("domain", "codomain", "shift", "entries", "field")

    def __init__(self, domain, codomain, entries, shift=0, field=None):
        self.domain = domain
        self.codomain = codomain
        self.shift = shift if type(shift) is Fraction else Fraction(shift)
        entries = [list(row) for row in entries]
        if len(entries) != len(codomain):
            raise BasisMismatch(
                f"{len(entries)} rows for a codomain of size {len(codomain)}")
        for row in entries:
            if len(row) != len(domain):
                raise BasisMismatch(
                    f"row of length {len(row)} for a domain of size {len(domain)}")
        if field is None:
            for row in entries:
                for x in row:
                    field = x.field
                    break
                if field is not None:
                    break
        self.field = field
        for i, row in enumerate(entries):
            for j, x in enumerate(row):
                if not x.is_zero() and not self._allowed(i, j):
                    raise PatternViolation(
                        f"entry ({i},{j}): {self.codomain.names[i]}@"
                        f"{self.codomain.grades[i]} <= {self.domain.names[j]}@"
                        f"{self.domain.grades[j]} + {self.shift} fails")
        self.entries = tuple(tuple(row) for row in entries)

    def _allowed(self, i, j):
        return grade_leq(self.codomain.grades[i],
                         grade_shift(self.domain.grades[j], self.shift))

    def __eq__(self, other):
        return (isinstance(other, MorphismMatrix)
                and self.domain == other.domain
                and self.codomain == other.codomain
                and self.shift == other.shift
                and self.entries == other.entries)

    def __repr__(self):
        rows = ["[" + ", ".join(str(x) for x in row) + "]"
                for row in self.entries]
        return (f"MorphismMatrix({len(self.codomain)}x{len(self.domain)}, "
                f"shift={self.shift}, [{'; '.join(rows)}])")


def identity_matrix(B, field, shift=0):
    entries = [[field.one() if i == j else field.zero()
                for j in range(len(B))] for i in range(len(B))]
    return MorphismMatrix(B, B, entries, shift, field)


def zero_matrix(domain, codomain, field, shift=0):
    entries = [[field.zero()] * len(domain) for _ in range(len(codomain))]
    return MorphismMatrix(domain, codomain, entries, shift, field)


def apply(f, v):
    """Apply a morphism matrix to a homogeneous element."""
    if v.basis != f.domain:
        raise BasisMismatch("element is not over the morphism's domain")
    field = f.field if f.field is not None else v.field
    coeffs = []
    for row in f.entries:
        acc = field.zero()
        for a, b in zip(row, v.coeffs):
            acc = acc + (a * b)
        coeffs.append(acc)
    return make_element(f.codomain, grade_shift(v.grade, f.shift), coeffs,
                        field)


def compose(g, f):
    """g after f; shifts add. f: <B> -> <B'(e1)>, g: <B'> -> <B''(e2)>."""
    if f.codomain != g.domain:
        raise BasisMismatch("codomain of f is not the domain of g")
    if f.field is not None and g.field is not None and f.field != g.field:
        raise FieldMismatch("composing matrices over different fields")
    field = g.field if g.field is not None else f.field
    entries = []
    for i in range(len(g.codomain)):
        row = []
        for j in range(len(f.domain)):
            acc = field.zero()
            for k in range(len(g.domain)):
                acc = acc + (g.entries[i][k] * f.entries[k][j])
            row.append(acc)
        entries.append(row)
    return MorphismMatrix(f.domain, g.codomain, entries,
                          f.shift + g.shift, field)


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
    field = v.field
    if field is None:
        # element over the empty basis: the zero vector is in every span
        return True, [w_field_zero(w) for w in W] if W else []
    admissible = [k for k, w in enumerate(W) if grade_leq(w.grade, v.grade)]
    rows = [[W[k].coeffs[i].value for k in admissible]
            for i in range(len(v.coeffs))]
    x = _solve(rows, len(admissible), [c.value for c in v.coeffs], field.p)
    if x is None:
        return False, None
    cert = [field.zero()] * len(W)
    for k, val in zip(admissible, x):
        cert[k] = Scalar(field, val)
    return True, cert


def w_field_zero(w):
    return w.field.zero() if w.field is not None else None


# ----------------------------------------------------------------------
# Exact Gaussian elimination over a field.
#
# One kernel works on raw values: residues mod p over F_p, Fractions
# over Q (p is None). rref and nullspace are its public face, used by
# the interleaving search set-up; span_membership above is the only
# Scalar boundary. The enumeration hot loop calls _solve directly, so a
# solve per candidate stays out of the public (traced) surface.
# Pivoting is "first nonzero"; with exact arithmetic there is nothing
# else to optimize for. All routines tolerate empty shapes (0 rows
# and/or 0 columns).
# ----------------------------------------------------------------------

def _row_reduce(rows, width, p):
    """Reduce the first width columns of a list of raw rows, in place.

    Rows may be longer than width; the extra columns ride along. Input
    residues need not be reduced mod p: every row that survives as a
    pivot row is. Returns (rows, pivot_columns): the first
    len(pivot_columns) rows are the reduced pivot rows, and the rest are
    zero in the first width columns. Row lists are replaced, never
    mutated, so the caller's rows may be shared.
    """
    pivots = []
    r = 0
    for c in range(width):
        for pr in range(r, len(rows)):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if p is None:
            scale = 1 / Fraction(rows[r][c])
            pivot = rows[r] = [x * scale for x in rows[r]]
        else:
            scale = pow(rows[r][c], -1, p)
            pivot = rows[r] = [(x * scale) % p for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p is None:
                    rows[i] = [a - f * b for a, b in zip(row, pivot)]
                else:
                    rows[i] = [(a - f * b) % p for a, b in zip(row, pivot)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _solve(rows, width, rhs, p):
    """One raw solution x (free variables zero) of rows . x = rhs, or None.

    Values as in _row_reduce. The system is consistent iff every row
    left without a pivot has a zero right-hand side.
    """
    red, pivots = _row_reduce([[*row, b] for row, b in zip(rows, rhs)],
                              width, p)
    if any(row[width] for row in red[len(pivots):]):
        return None
    x = [0 if p else Fraction(0)] * width
    for row, c in zip(red, pivots):
        x[c] = row[width]
    return x


def rref(rows, width, p):
    """Reduced row echelon form of raw rows (values as in _row_reduce).

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    red, pivots = _row_reduce(list(rows), width, p)
    return red[:len(pivots)], pivots


def nullspace(rows, width, p):
    """Basis of the solution space of rows . x = 0, in raw values.

    One basis vector per free column, in ascending column order; the
    result is deterministic for a given row list.
    """
    red, pivots = rref(rows, width, p)
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
