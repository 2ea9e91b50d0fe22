"""Finitely presented n-graded modules as <generators | relations> data.

A presentation is a graded set of generators plus a list of named
homogeneous relations over them. The module it presents is the cokernel
of the map <R> -> <G>; we never materialize that quotient, everything
downstream works with the presentation matrix directly.

The text format is line oriented:

    module M
    field F5
    params 2
    gen a @ (0, 0)
    gen b @ (1, 0)
    rel r1 @ (2, 1) = 1*a + 4*b

Comments run from '#' to end of line. With params 1 grades may be bare
rationals. Relations are stored sorted by grade (lexicographic on
coordinates, stable within ties), so parse and serialize are mutually
inverse on the nose.
"""

import sys
import weakref

from .scalars import FieldSpec, FieldMismatch, parse_scalar_literal, inv
from .grading import (Grade, grade_leq, grade_shift, check_epsilon,
                      parse_grade, parse_int, format_grade,
                      DimensionMismatch)
from .freemod import (GradedSet, make_element, span_membership,
                      BasisMismatch)


# Grades and names are immutable, and a caller may keep many parsed
# modules alive (a distance matrix keeps a witness per pair, and each
# witness holds its modules' generators). So parse hands out one Grade
# object per distinct grade while any is alive, and interns generator
# names.
_PARSED_GRADES = weakref.WeakValueDictionary()


class ParseError(Exception):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class GradeOrderViolation(Exception):
    pass


class Presentation:
    """<G | R> over a fixed field, with named relations.

    relations is passed as (name, HomogeneousElement) pairs and stored
    sorted by relation grade (lexicographic), stable within equal
    grades. That makes the stored order canonical for serialization.
    """

    __slots__ = ("name", "field", "n", "generators", "rel_names",
                 "relations")

    def __init__(self, field, n, generators, relations, name="M"):
        self.name = name
        self.field = field
        self.n = n
        self.generators = generators
        for g in generators.grades:
            if len(g) != n:
                raise DimensionMismatch(
                    f"generator grade {g} in a {n}-parameter presentation")
        pairs = list(relations)
        names = [nm for nm, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names: {names}")
        for nm, el in pairs:
            if el.basis != generators:
                raise BasisMismatch(f"relation {nm} is not over the generators")
            if len(el.grade) != n:
                raise DimensionMismatch(
                    f"relation grade {el.grade} in a {n}-parameter presentation")
            if el.field is not None and el.field != field:
                raise FieldMismatch(f"relation {nm} over the wrong field")
        pairs.sort(key=lambda p: p[1].grade.coords)
        self.rel_names = tuple(nm for nm, _ in pairs)
        self.relations = tuple(el for _, el in pairs)

    def rel_pairs(self):
        return list(zip(self.rel_names, self.relations))

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.name == other.name
                and self.field == other.field
                and self.n == other.n
                and self.generators == other.generators
                and self.rel_names == other.rel_names
                and self.relations == other.relations)

    def __repr__(self):
        return (f"Presentation({self.name}: {len(self.generators)} gens, "
                f"{len(self.relations)} rels, {self.field}, n={self.n})")


class CriticalGrades:
    """Per-axis sorted coordinate sets of a minimal presentation."""

    __slots__ = ("axes",)

    def __init__(self, axes):
        self.axes = tuple(tuple(a) for a in axes)
        for a in self.axes:
            if list(a) != sorted(set(a)):
                raise ValueError("critical grades must be sorted and "
                                 f"distinct, got {list(a)}")

    @classmethod
    def of(cls, P):
        """Per-axis coordinates of P's grades, P taken as given.

        critical_grades minimizes first; call this directly only on a
        presentation that is already minimal.
        """
        axes = []
        for i in range(P.n):
            coords = {g.coords[i] for g in P.generators.grades}
            coords.update(el.grade.coords[i] for el in P.relations)
            axes.append(sorted(coords))
        return cls(axes)

    def __eq__(self, other):
        return isinstance(other, CriticalGrades) and self.axes == other.axes

    def __repr__(self):
        inside = "; ".join("{" + ", ".join(str(x) for x in a) + "}"
                           for a in self.axes)
        return f"CriticalGrades[{inside}]"


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------

def parse(text):
    """Parse the canonical text format into a Presentation."""
    header = {}
    gen_items = []
    gen_lines = {}
    rel_lines = []

    lines = text.splitlines()
    significant = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            significant.append((lineno, body))

    def fail(msg, lineno, column=1):
        raise ParseError(msg, lineno, column)

    expected = ["module", "field", "params"]
    for want, (lineno, body) in zip(expected, significant):
        parts = body.split(None, 1)
        if parts[0] != want or len(parts) != 2:
            fail(f"expected '{want} <value>'", lineno)
        header[want] = (parts[1].strip(), lineno)
    if len(significant) < 3:
        missing = expected[len(significant)]
        fail(f"missing '{missing}' header", len(lines) + 1)

    name = header["module"][0]
    try:
        field = FieldSpec.parse(header["field"][0])
    except ValueError as exc:
        fail(str(exc), header["field"][1])
    try:
        n = parse_int(header["params"][0])
        if n < 1:
            raise ValueError
    except ValueError:
        fail(f"params must be a positive integer, got "
             f"{header['params'][0]!r}", header["params"][1])

    def parse_grade_here(textpart, lineno):
        try:
            g = parse_grade(textpart, n)
        except (ValueError, DimensionMismatch) as exc:
            fail(str(exc), lineno)
        return _PARSED_GRADES.setdefault(g.coords, g)

    for lineno, body in significant[3:]:
        kind = body.split(None, 1)[0]
        if kind == "gen":
            rest = body[len("gen"):].strip()
            if "@" not in rest:
                fail("expected 'gen <name> @ <grade>'", lineno)
            gname, gradepart = (s.strip() for s in rest.split("@", 1))
            if not gname or " " in gname:
                fail(f"bad generator name {gname!r}", lineno)
            if gname in gen_lines:
                fail(f"duplicate generator {gname!r}", lineno)
            gen_lines[gname] = lineno
            gen_items.append((sys.intern(gname),
                              parse_grade_here(gradepart, lineno)))
        elif kind == "rel":
            rest = body[len("rel"):].strip()
            if "@" not in rest or "=" not in rest.split("@", 1)[1]:
                fail("expected 'rel <name> @ <grade> = <terms>'", lineno)
            rname, rest2 = (s.strip() for s in rest.split("@", 1))
            gradepart, terms = (s.strip() for s in rest2.split("=", 1))
            if not rname or " " in rname:
                fail(f"bad relation name {rname!r}", lineno)
            rel_lines.append(
                (rname, parse_grade_here(gradepart, lineno), terms, lineno))
        else:
            fail(f"unrecognized directive {kind!r}", lineno)

    gens = GradedSet(gen_items)
    position = {gname: j for j, gname in enumerate(gens.names)}
    pairs = []
    seen = set()
    for rname, rgrade, terms, lineno in rel_lines:
        if rname in seen:
            fail(f"duplicate relation {rname!r}", lineno)
        seen.add(rname)
        coeffs = [field.zero()] * len(gens)
        if terms != "0":
            for piece in terms.split("+"):
                piece = piece.strip()
                if "*" not in piece:
                    fail(f"expected '<coeff>*<gen>' in term {piece!r}", lineno)
                ctext, gname = (s.strip() for s in piece.rsplit("*", 1))
                if gname not in position:
                    fail(f"unknown generator {gname!r} in relation {rname!r}",
                         lineno)
                try:
                    c = parse_scalar_literal(ctext, field)
                except ValueError as exc:
                    fail(str(exc), lineno)
                j = position[gname]
                coeffs[j] = coeffs[j] + c
        # make_element raises PatternViolation on a bad relation grade;
        # let that escape as-is, it is a semantic error not a syntax one
        pairs.append((rname, make_element(gens, rgrade, coeffs, field)))

    return Presentation(field, n, gens, pairs, name)


def serialize(P):
    out = [f"module {P.name}", f"field {P.field}", f"params {P.n}"]
    for gname, g in P.generators:
        out.append(f"gen {gname} @ {format_grade(g)}")
    for rname, el in P.rel_pairs():
        terms = [f"{c}*{gname}" for c, gname
                 in zip(el.coeffs, P.generators.names) if not c.is_zero()]
        rhs = " + ".join(terms) if terms else "0"
        out.append(f"rel {rname} @ {format_grade(el.grade)} = {rhs}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# presentation operations
# ----------------------------------------------------------------------

def relation_matrix(P):
    """|G| x |R| matrix whose j-th column is the j-th relation."""
    return [[el.coeffs[i] for el in P.relations]
            for i in range(len(P.generators))]


def minimize(P):
    """Minimal presentation of the same module.

    Two reductions, run to exhaustion in order:

      1. unit-pivot elimination: a relation r with a nonzero coefficient
         on a generator g of equal grade lets us solve for g and delete
         both (substituting into every other relation);
      2. redundancy removal: a relation lying in the graded span of the
         others (at its own grade) is dropped.

    Each step strictly shrinks |G| + |R|, so this terminates. Step 2
    only deletes relations, so it cannot create a new unit pivot after
    step 1 is exhausted. Picks are made in stored order, making the
    output deterministic.
    """
    gen_items = [(nm, g) for nm, g in P.generators]
    rels = [[nm, el.grade, list(el.coeffs)] for nm, el in P.rel_pairs()]
    field = P.field

    while True:
        found = None
        for ri, (rname, rgrade, coeffs) in enumerate(rels):
            for gi in range(len(gen_items)):
                if not coeffs[gi].is_zero() and gen_items[gi][1] == rgrade:
                    found = (ri, gi)
                    break
            if found:
                break
        if not found:
            break
        ri, gi = found
        pivot_inv = inv(rels[ri][2][gi])
        prow = rels[ri][2]
        for k, (_, _, coeffs) in enumerate(rels):
            if k == ri or coeffs[gi].is_zero():
                continue
            f = coeffs[gi] * pivot_inv
            rels[k][2] = [a - (f * b) for a, b in zip(coeffs, prow)]
        del rels[ri]
        del gen_items[gi]
        for entry in rels:
            del entry[2][gi]

    gens = GradedSet(gen_items)
    elems = [(nm, make_element(gens, grade, coeffs, field))
             for nm, grade, coeffs in rels]

    kept = list(range(len(elems)))
    i = 0
    while i < len(kept):
        idx = kept[i]
        others = [elems[j][1] for j in kept if j != idx]
        inside, _ = span_membership(elems[idx][1], others)
        if inside:
            kept.pop(i)
        else:
            i += 1

    return Presentation(field, P.n, gens, [elems[j] for j in kept], P.name)


def critical_grades(P):
    """Per-axis coordinate sets of the minimized presentation's grades."""
    return CriticalGrades.of(minimize(P))


def shift_presentation(P, e, direction):
    """Presentation of the shifted module.

    direction +1 gives P(e), whose graded set lowers every grade by e
    (an element born at grade u in M appears at u - e in M(e));
    direction -1 raises every grade by e.
    """
    e = check_epsilon(e)
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction!r}")
    delta = -e if direction == 1 else e
    gens = GradedSet([(nm, grade_shift(g, delta)) for nm, g in P.generators])
    pairs = []
    for nm, el in P.rel_pairs():
        pairs.append((nm, make_element(gens, grade_shift(el.grade, delta),
                                       el.coeffs, P.field)))
    return Presentation(P.field, P.n, gens, pairs, P.name)


def restrict_diagonal(P, x):
    """Presentation of the restriction of P's module to a diagonal line.

    The line is {x + t(1, ..., 1) : t real}, and the restriction is the
    one-parameter module t -> M(x + t(1, ..., 1)). The free module
    generated at u restricts to the free module generated at the least
    t with u <= x + t(1, ..., 1), which is max_i(u_i - x_i).
    Restriction is exact, so P's matrix with every generator and
    relation grade mapped that way presents the restriction.
    """
    if not isinstance(x, Grade):
        x = Grade(x)
    if len(x) != P.n:
        raise DimensionMismatch(
            f"line through a {len(x)}-parameter point for a {P.n}-parameter "
            f"presentation")

    def on_line(u):
        return Grade((max(a - b for a, b in zip(u.coords, x.coords)),))

    gens = GradedSet([(nm, on_line(g)) for nm, g in P.generators])
    pairs = [(nm, make_element(gens, on_line(el.grade), el.coeffs, P.field))
             for nm, el in P.rel_pairs()]
    return Presentation(P.field, 1, gens, pairs, P.name)


def box_interval(field, lower, uppers, name="M"):
    """Presentation of the interval module on the box [lower, uppers).

    One generator at `lower`; one relation per upper grade u killing the
    generator at u. Empty uppers gives the free cyclic module. Each
    upper must satisfy lower <= u (GradeOrderViolation otherwise).
    """
    if not isinstance(lower, Grade):
        lower = Grade(lower)
    uppers = [u if isinstance(u, Grade) else Grade(u) for u in uppers]
    for u in uppers:
        if not grade_leq(lower, u):
            raise GradeOrderViolation(f"upper {u} is not above lower {lower}")
    gens = GradedSet([("a", lower)])
    pairs = []
    for k, u in enumerate(uppers):
        pairs.append((f"r{k + 1}",
                      make_element(gens, u, [field.one()], field)))
    return Presentation(field, len(lower), gens, pairs, name)
