"""Compatible presentation pairs from an interleaving witness.

Two modules are e-interleaved iff they admit presentations built from
shared graded sets W1, W2 and shared relation lists Y1, Y2:

    M = < W1, W2(-e) | Y1, Y2(-e) >      N = < W1(-e), W2 | Y1(-e), Y2 >

Given presentations of M and N and a witness pair (A, B), the
construction takes W1 = G_M, W2 = G_N, keeps the original relations,
and adds one mixed relation per opposite generator: for y in G_N the
element y - (B's column at y), placed at grade gr(y) + e, and
symmetrically for y in G_M against A.

Mixed relations are stored over the plain combined basis W1 ++ W2; the
shift lives in the element's grade (a W2 coefficient in Y1 is only
legitimate when gr(w) + e <= gr(element), since w exists in W2(-e)
only from grade gr(w) + e onward).

The witness is checked with the one span test that check_closure runs
(interleave._spanned_at), on the lattice of the presentation whose
relations span. Each Y element is made once, by make_element, and the
induced presentations build their relations on those elements' values
and terms, so Presentation(...) is their one pattern check.
"""

from operator import itemgetter

from .grading import grade_shift, check_epsilon, sorted_by_grade
from .scalars import FieldMismatch
from .freemod import (GradedSet, HomogeneousElement, BasisMismatch,
                      PatternViolation, make_element, _dot)
from .presentation import Presentation
from .interleave import (InterleavingProblem, check_closure, DEFAULT_BUDGET,
                         _spanned_at)
from .distance import is_isomorphic


class InvalidWitness(Exception):
    pass


def combined_basis(W1, W2):
    """W1 ++ W2 as one graded set, suffixing W2 names that clash.

    Returns (basis, w2_names) with w2_names the possibly renamed W2
    entries, in W2 order.
    """
    used = set(W1.names)
    w2_names = tuple(_unique(name, used) for name in W2.names)
    return GradedSet([*W1, *zip(w2_names, W2.grades)]), w2_names


def _unique(name, used):
    while name in used:
        name = name + "_2"
    used.add(name)
    return name


class CompatiblePair:
    """(W1, W2, Y1, Y2, e) with Y-lists as (name, element) pairs, over
    the field of an n-parameter pair of modules.

    Elements live over combined_basis(W1, W2) and over the field (else
    ValueError and FieldMismatch); each Y-list is stored sorted by grade
    (stable). The field and n are held, not read off the elements and
    grades, as a pair of zero modules has none. The shifted-grade
    invariants are not enforced here; verify_compatible checks them.
    """

    __slots__ = ("field", "n", "W1", "W2", "Y1", "Y2", "e", "basis",
                 "w2_names")

    def __init__(self, field, n, W1, W2, Y1, Y2, e):
        self.field = field
        self.n = n
        self.W1 = W1
        self.W2 = W2
        self.e = check_epsilon(e)
        self.basis, self.w2_names = combined_basis(W1, W2)
        for nm, el in list(Y1) + list(Y2):
            if el.basis != self.basis:
                raise ValueError(f"element {nm} is not over W1 ++ W2")
            if el.field != field:
                raise FieldMismatch(f"element {nm} over {el.field}, "
                                    f"not {field}")
        self.Y1 = tuple(sorted_by_grade(Y1, lambda p: p[1].grade))
        self.Y2 = tuple(sorted_by_grade(Y2, lambda p: p[1].grade))

    def __repr__(self):
        return (f"CompatiblePair(|W1|={len(self.W1)}, |W2|={len(self.W2)}, "
                f"|Y1|={len(self.Y1)}, |Y2|={len(self.Y2)}, e={self.e})")


def compatible_presentations(P_M, P_N, witness, e):
    """Build the pair and the two induced presentations.

    InterleavingProblem checks the pair (n, then the field) and then e.
    The witness is revalidated from scratch; InvalidWitness names the
    first failure among its type (check_closure's refusal), conditions
    1 and 2, and the round trips. For condition 1, the image under A of
    each relation w of M goes to interleave._spanned_at on N, at gr(w) +
    e rounded down onto N's lattice, which is exact: N's relation grades
    are multiples of 1/N.L. Condition 2 likewise, with B. Returns (pair,
    induced_M, induced_N); the pair's elements are made here, one
    make_element each, and the induced presentations reuse them.
    """
    prob = InterleavingProblem(P_M, P_N, e)
    e = prob.e
    A, B = witness.A, witness.B
    try:
        closed = check_closure(A, B, prob)
    except (BasisMismatch, FieldMismatch, ValueError) as exc:
        raise InvalidWitness(str(exc)) from exc
    field = prob.field
    for name, X, P, Q in (("A", A, P_M, P_N), ("B", B, P_N, P_M)):
        # X.w lies at gr(w) + e, taken down onto Q's lattice: Q's grades
        # are multiples of 1/Q.L, so r <= x iff r * Q.L <= floor(x * Q.L)
        num, den = e.numerator * P.L * Q.L, e.denominator * P.L
        at = [(tuple([(x * Q.L * e.denominator + num) // den for x in u]),
               [_dot(row, w.coeffs, field) for row in X.entries])
              for u, w in zip(P.rel_ints, P.relations)]
        if not _spanned_at(Q, at):
            raise InvalidWitness(
                f"{name} carries a relation of {P.name} outside the "
                f"relations of {Q.name}")
    if not closed:
        raise InvalidWitness("round trips are not identity up to relations")

    W1, W2 = P_M.generators, P_N.generators
    basis, _ = combined_basis(W1, W2)
    zero, one = field.coerce(0), field.coerce(1)

    # each Y: P's relations, then y - (X's column at y) at gr(y) + e
    Y1, Y2 = [], []
    for Y, P, X, W in ((Y1, P_M, B, W2), (Y2, P_N, A, W1)):
        vecs = [(nm, el.grade, list(el.coeffs), [zero] * len(W))
                for nm, el in P.rel_pairs()]
        vecs += [(f"m_{yname}", grade_shift(ygrade, e),
                  [field.coerce(-row[j]) for row in X.entries],
                  [one if t == j else zero for t in range(len(W))])
                 for j, (yname, ygrade) in enumerate(W)]
        used = set()
        for nm, g, own, other in vecs:
            vec = own + other if Y is Y1 else other + own
            Y.append((_unique(nm, used), make_element(basis, g, vec, field)))

    pair = CompatiblePair(field, P_M.n, W1, W2, Y1, Y2, e)
    ind_M, ind_N = induced_presentations(pair, (P_M.name, P_N.name))
    return pair, ind_M, ind_N


def induced_presentations(pair, names=("M", "N")):
    """The two quotients presented by a compatible pair.

    For M: generators W1 at their own grades and W2 raised by e;
    relations Y1 at their own grades and Y2 raised by e. For N the
    roles swap. Relations are renamed r1..rk in grade order. Both are
    over the pair's field and number of parameters. Each relation holds
    the values and terms of its Y element, which were checked when it
    was made, and Presentation(...) tests the grade pattern at its new
    grade, raising make_element's PatternViolation.
    """
    e, field, n = pair.e, pair.field, pair.n
    w1_items = list(pair.W1)
    w2_items = [(nm, g) for nm, (_, g) in zip(pair.w2_names, pair.W2)]

    def build(gens_items, rel_data, name):
        gens = GradedSet(gens_items)
        rel_data = sorted_by_grade(rel_data, itemgetter(0))
        pairs = [(f"r{k + 1}", HomogeneousElement(gens, grade, el.coeffs,
                                                  field, el.terms))
                 for k, (grade, el) in enumerate(rel_data)]
        return Presentation(field, n, gens, pairs, name)

    gens_M = w1_items + [(nm, grade_shift(g, e)) for nm, g in w2_items]
    rels_M = [(el.grade, el) for _, el in pair.Y1] \
        + [(grade_shift(el.grade, e), el) for _, el in pair.Y2]
    gens_N = [(nm, grade_shift(g, e)) for nm, g in w1_items] + w2_items
    rels_N = [(el.grade, el) for _, el in pair.Y2] \
        + [(grade_shift(el.grade, e), el) for _, el in pair.Y1]
    return (build(gens_M, rels_M, names[0]),
            build(gens_N, rels_N, names[1]))


def verify_compatible(pair, P_M, P_N, budget=DEFAULT_BUDGET):
    """Self-check of a pair against the two original presentations.

    (a) grade bookkeeping: the pair's field and n are the modules', and
    W1/W2 reproduce the generator data; (b) the induced presentations
    build without a PatternViolation, which is the shifted reading of
    every mixed coefficient (a W2 coefficient in Y1 needs
    gr(w) + e <= gr(element), symmetrically for Y2); (c) they are
    isomorphic to the originals (decided by the 0-interleaving search).
    """
    if ((pair.field, pair.n) != (P_M.field, P_M.n)
            or pair.W1 != P_M.generators or pair.W2 != P_N.generators):
        return False
    try:
        ind_M, ind_N = induced_presentations(pair, (P_M.name, P_N.name))
    except PatternViolation:
        return False
    return (is_isomorphic(ind_M, P_M, budget)
            and is_isomorphic(ind_N, P_N, budget))


def serialize_pair(pair):
    """Text form: presentation-format lines tagged W1/W2 and Y1/Y2."""
    from .grading import format_grade
    out = [f"field {pair.field}", f"params {pair.n}", f"eps {pair.e}"]
    for nm, g in pair.W1:
        out.append(f"gen W1 {nm} @ {format_grade(g)}")
    for nm, (_, g) in zip(pair.w2_names, pair.W2):
        out.append(f"gen W2 {nm} @ {format_grade(g)}")
    for tag, y_list in (("Y1", pair.Y1), ("Y2", pair.Y2)):
        for nm, el in y_list:
            names = el.basis.names
            rhs = " + ".join(f"{c}*{names[j]}" for j, c in el.terms) or "0"
            out.append(f"rel {tag} {nm} @ {format_grade(el.grade)} = {rhs}")
    return "\n".join(out) + "\n"
