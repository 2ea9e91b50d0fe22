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

parse reads each gen and rel line with one partition per separator and
sums a relation's terms per generator, keeping those that do not cancel
as the element's terms. It builds each relation from its terms alone:
the dense coefficient tuple is made only if something reads it, which
minimize and the interleaving search do and onedim.barcode does not.
It then builds the Presentation like every other builder, through
Presentation(...), which puts the presentation's grades on their one
int lattice, tests each relation's grade pattern there (one int
comparison per term on one parameter) and orders the relations by
their lattice grades. onedim.barcode and interleave._Lattice read the
grades off that lattice.
"""

import functools
import math
import sys
from operator import itemgetter, le

from .scalars import FieldSpec, FieldMismatch
from .grading import (Grade, grade_leq, parse_grade, parse_int,
                      parse_rational, format_grade, scaled,
                      DimensionMismatch)
from .freemod import (GradedSet, HomogeneousElement, make_element,
                      BasisMismatch, _check_terms, _echelon, _spanned)


# Grades lie on a grid, so their texts repeat across modules: parse
# keeps the Grade of the 4096 grade texts used last, for the life of
# the process, so one text gives one Grade object while it is kept. A
# text that fails raises each time, since lru_cache keeps no exceptions.
_grade_of_text = functools.lru_cache(maxsize=4096)(parse_grade)


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

    relations is passed as (name, HomogeneousElement) pairs, each over
    the generators (the same or an equal GradedSet) and the field (the
    same or an equal FieldSpec). Every grade goes on one int lattice,
    in units of 1/L for L the lcm of the denominators of the generator
    and relation grades: gen_ints and rel_ints hold the grades there as
    int tuples. Each relation's grade pattern is tested on the lattice,
    on its terms, relations in the given order, and _check_terms runs
    only when the test fails, to raise make_element's PatternViolation.
    The relations are stored sorted by their lattice grade
    (lexicographic), stable within equal grades, which makes the stored
    order canonical for serialization.
    """

    __slots__ = ("name", "field", "n", "generators", "rel_names",
                 "relations", "L", "gen_ints", "rel_ints")

    def __init__(self, field, n, generators, relations, name="M"):
        for g in generators.grades:
            if len(g.nums) != n:
                raise DimensionMismatch(
                    f"generator grade {g} in a {n}-parameter presentation")
        pairs = list(relations)
        names = [nm for nm, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names: {names}")
        L = math.lcm(*(g.den for g in generators.grades),
                     *(el.grade.den for _, el in pairs))
        gen_ints = tuple([g.nums if g.den == L else scaled(g, L)
                          for g in generators.grades])
        # on one parameter a grade is one int, and a term's pattern one
        # comparison of it
        flat = [x for x, in gen_ints] if n == 1 else None
        rels = []  # (lattice grade, name, element)
        for nm, el in pairs:
            if el.basis is not generators and el.basis != generators:
                raise BasisMismatch(f"relation {nm} is not over the generators")
            grade = el.grade
            if len(grade.nums) != n:
                raise DimensionMismatch(
                    f"relation grade {grade} in a {n}-parameter presentation")
            if el.field is not field and el.field != field:
                raise FieldMismatch(f"relation {nm} over the wrong field")
            u = grade.nums if grade.den == L else scaled(grade, L)
            if flat is None:
                for j, _ in el.terms:
                    if not all(map(le, gen_ints[j], u)):
                        _check_terms(generators, grade, el.terms)
            else:
                u0, = u
                for j, _ in el.terms:
                    if flat[j] > u0:
                        _check_terms(generators, grade, el.terms)
            rels.append((u, nm, el))
        rels.sort(key=itemgetter(0))
        self.name = name
        self.field = field
        self.n = n
        self.generators = generators
        self.L = L
        self.gen_ints = gen_ints
        self.rel_ints = tuple(u for u, _, _ in rels)
        self.rel_names = tuple(nm for _, nm, _ in rels)
        self.relations = tuple(el for _, _, el in rels)

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


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------

def parse(text):
    """Parse the canonical text format into a Presentation.

    Every line's syntax is read first, relations in text order, each
    element keeping the terms that do not cancel to 0, in position
    order. Presentation(...) then tests the grade patterns, so a
    PatternViolation is raised only for a text with no ParseError.
    """
    header = {}
    gen_items = []
    gen_lines = {}
    rel_lines = []

    lines = text.splitlines()
    significant = []
    for lineno, raw in enumerate(lines, start=1):
        body = raw.partition("#")[0].strip()
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
            return _grade_of_text(textpart.strip(), n)
        except (ValueError, DimensionMismatch) as exc:
            fail(str(exc), lineno)

    for lineno, body in significant[3:]:
        kind = body.split(None, 1)[0]
        if kind == "gen":
            gname, at, gradepart = body[3:].partition("@")
            if not at:
                fail("expected 'gen <name> @ <grade>'", lineno)
            gname = gname.strip()
            if not gname or " " in gname:
                fail(f"bad generator name {gname!r}", lineno)
            if gname in gen_lines:
                fail(f"duplicate generator {gname!r}", lineno)
            gen_lines[gname] = lineno
            gen_items.append((sys.intern(gname),
                              parse_grade_here(gradepart, lineno)))
        elif kind == "rel":
            rname, _, rest = body[3:].partition("@")
            gradepart, eq, terms = rest.partition("=")
            if not eq:
                fail("expected 'rel <name> @ <grade> = <terms>'", lineno)
            rname = rname.strip()
            if not rname or " " in rname:
                fail(f"bad relation name {rname!r}", lineno)
            rel_lines.append((rname, parse_grade_here(gradepart, lineno),
                              terms.strip(), lineno))
        else:
            fail(f"unrecognized directive {kind!r}", lineno)

    gens = GradedSet(gen_items)
    position = {gname: j for j, gname in enumerate(gens.names)}
    p = field.p
    value_of_text = {}  # each distinct coefficient text is read once
    rels = []
    seen = set()
    for rname, rgrade, terms, lineno in rel_lines:
        if rname in seen:
            fail(f"duplicate relation {rname!r}", lineno)
        seen.add(rname)
        terms_at = {}  # generator position -> sum of its terms
        if terms != "0":
            for piece in terms.split("+"):
                ctext, star, gname = piece.rpartition("*")
                if not star:
                    fail(f"expected '<coeff>*<gen>' in term {piece.strip()!r}",
                         lineno)
                gname = gname.strip()
                j = position.get(gname)
                if j is None:
                    fail(f"unknown generator {gname!r} in relation {rname!r}",
                         lineno)
                c = value_of_text.get(ctext)
                if c is None:
                    # parse_rational skips the whitespace around ctext
                    try:
                        c = field.coerce(parse_rational(ctext))
                    except ValueError:
                        fail(f"bad scalar literal for {field}: "
                             f"{ctext.strip()!r}", lineno)
                    value_of_text[ctext] = c
                if j in terms_at:
                    c += terms_at[j]
                    if p:
                        c %= p
                terms_at[j] = c
        # coerce made every value; a PatternViolation from Presentation
        # escapes as-is, it is a semantic error not a syntax one
        held = tuple([(j, c) for j, c in sorted(terms_at.items()) if c])
        rels.append((rname,
                     HomogeneousElement(gens, rgrade, None, field, held)))
    return Presentation(field, n, gens, rels, name)


def serialize(P):
    out = [f"module {P.name}", f"field {P.field}", f"params {P.n}"]
    for gname, g in P.generators:
        out.append(f"gen {gname} @ {format_grade(g)}")
    names = P.generators.names
    for rname, el in P.rel_pairs():
        rhs = " + ".join(f"{c}*{names[j]}" for j, c in el.terms) or "0"
        out.append(f"rel {rname} @ {format_grade(el.grade)} = {rhs}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# presentation operations
# ----------------------------------------------------------------------

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

    Step 1 is one forward pass over the relations in stored order. An
    elimination on the pivot of r at g changes only rows with a nonzero
    coefficient on g, and a row before r has none: its grade is
    lexicographically at most gr(r) = gr(g), so gr(g) <= its grade
    would make the two equal and g a unit pivot of that row, which the
    pass has already ruled out.

    Step 2 tests each relation, in stored order, against the others
    still kept whose grades are <= its own, compared on P's lattice
    (P.rel_ints, which step 1 leaves as they are), with one
    elimination (freemod._spanned). Only the kept relations are built
    as elements, from their values and nonzero terms, and
    Presentation(...) checks their pattern.
    """
    gen_items = [(nm, g) for nm, g in P.generators]
    rels = [[nm, el.grade, list(el.coeffs), u]
            for (nm, el), u in zip(P.rel_pairs(), P.rel_ints)]
    field = P.field
    p = field.p

    ri = 0
    while ri < len(rels):
        _, rgrade, coeffs, _ = rels[ri]
        gi = next((gi for gi, (_, g) in enumerate(gen_items)
                   if coeffs[gi] and g == rgrade), None)
        if gi is None:
            ri += 1
            continue
        del rels[ri], gen_items[gi]
        # a row with no entry on g loses column gi in place; the others
        # take one forward step under the pivot row, with column gi
        # moved first, and lose it from the rows the step returns
        hit = []
        for entry in rels:
            if entry[2][gi]:
                hit.append(entry)
            else:
                del entry[2][gi]
        moved = [[row[gi], *row[:gi], *row[gi + 1:]]
                 for row in (coeffs, *(entry[2] for entry in hit))]
        for entry, row in zip(hit, _echelon(moved, 1, p)[0][1:]):
            del row[0]
            entry[2] = row

    kept = list(range(len(rels)))
    i = 0
    while i < len(kept):
        idx = kept[i]
        u = rels[idx][3]
        others = [rels[j][2] for j in kept
                  if j != idx and all(map(le, rels[j][3], u))]
        if _spanned(others, [rels[idx][2]], p):
            kept.pop(i)
        else:
            i += 1

    gens = GradedSet(gen_items)
    elems = [(nm, HomogeneousElement(gens, grade, coeffs, field, tuple(
                 [(j, c) for j, c in enumerate(coeffs) if c])))
             for nm, grade, coeffs, _ in (rels[j] for j in kept)]
    return Presentation(field, P.n, gens, elems, P.name)


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
                      make_element(gens, u, [field.coerce(1)], field)))
    return Presentation(field, len(lower), gens, pairs, name)
