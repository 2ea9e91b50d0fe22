"""The integer grade lattice against Fraction references.

The search, its candidates and the diagonal bound run on int grades in
units of 1/L. The references here are computed on the Fraction grades:
the bound from conftest's restriction to a line and the public
barcode and diagram_bottleneck, the candidates from per-axis
coordinate sets, the masks and the search's free entries with
grade_leq and grade_shift, and ranks with a local elimination; none
goes through the lattice.
"""

import gc
import weakref
from fractions import Fraction

import pytest

from pmod import (INF, FieldSpec, Grade, GradedSet, InterleavingProblem,
                  MorphismMatrix, barcode, candidate_set,
                  diagonal_lower_bound, diagram_bottleneck, grade_leq,
                  grade_shift, interleaving_distance, minimize, parse)
from pmod.interleave import _Lattice, _Side, _annihilator, _patterns

from conftest import (F2, F3, local_rank, random_presentation,
                      restrict_diagonal, rng_for)

Q = FieldSpec()


def _reference_bound(Pm, Pn):
    grades = [*Pm.generators.grades, *(el.grade for el in Pm.relations),
              *Pn.generators.grades, *(el.grade for el in Pn.relations)]
    bound = Fraction(0)
    for u in grades:
        x = [c - u.coords[0] for c in u.coords]
        d = diagram_bottleneck(barcode(restrict_diagonal(Pm, x)),
                               barcode(restrict_diagonal(Pn, x)))
        bound = max(bound, d)
    return bound


def _axes(P):
    """Per axis, the set of P's generator and relation coordinates."""
    grades = [*P.generators.grades, *(el.grade for el in P.relations)]
    return [{g.coords[i] for g in grades} for i in range(P.n)]


def _reference_candidates(Pm, Pn):
    vals = {Fraction(0), INF}
    for UM, UN in zip(_axes(Pm), _axes(Pn)):
        vals.update(abs(x - y) for x in UM for y in UN)
        for side in (UM, UN):
            vals.update(abs(a - b) / 2 for a in side for b in side)
    return sorted(vals)


def _random_pair(rng, field, n):
    return (minimize(random_presentation(rng, field, n, max_gens=4,
                                         max_rels=4, name="M")),
            minimize(random_presentation(rng, field, n, max_gens=4,
                                         max_rels=4, name="N")))


def test_bound_and_candidates_match_fraction_reference():
    rng = rng_for(901)
    for field in (F2, F3, Q):
        for n, count in ((2, 25), (3, 12)):
            for _ in range(count):
                Pm, Pn = _random_pair(rng, field, n)
                lb = diagonal_lower_bound(Pm, Pn)
                assert lb == _reference_bound(Pm, Pn), (field, n)
                assert type(lb) is Fraction or lb == INF
                cands = list(candidate_set(Pm, Pn))
                assert cands == _reference_candidates(Pm, Pn)
                assert all(type(v) is Fraction for v in cands[:-1])


# distmatrix-n2-f2 queries (bench seed 0 #26 and #459, seed 7 #51 and
# #269) with d_I equal to the bound. Reducing the restricted relations
# in their 2-D storage order instead of their order on the line raises
# the bound above d_I on each of them.
STORAGE_ORDER_PAIRS = [
    ("module f26c2m2\nfield F2\nparams 2\ngen g1 @ (4, -1/2)\n"
     "gen g2 @ (3, 9/2)\ngen g3 @ (1, 1)\ngen g4 @ (3/2, 3/2)\n"
     "gen x1 @ (3/2, 1)\nrel rx1 @ (3/2, 1) = 1*x1\n"
     "rel r1 @ (4, 9/2) = 1*g2 + 1*g1 + 1*g4 + 1*g3\n"
     "rel r2 @ (9/2, 9/2) = 1*g2 + 1*g4 + 1*g1\n"
     "rel r3 @ (4, 11/2) = 1*g4 + 1*g1 + 1*g2\n",
     "module f26c3m2\nfield F2\nparams 2\ngen g1 @ (7/2, 2)\n"
     "gen g2 @ (-1/2, 5/2)\ngen g3 @ (4, 4)\ngen g4 @ (2, -1/2)\n"
     "gen x1 @ (5, 5/2)\nrel rx1 @ (5, 5/2) = 1*x1\n"
     "rel r1 @ (5, 4) = 1*g3 + 1*g1 + 1*x1\nrel r2 @ (3/2, 3) = 1*g2\n",
     Fraction(2)),
    ("module f9c0m0\nfield F2\nparams 2\ngen g1 @ (3, 1/2)\n"
     "gen g2 @ (3, -1)\ngen g3 @ (5/2, 0)\ngen g4 @ (1/2, 1/2)\n"
     "gen x1 @ (5/2, 1/2)\nrel rx1 @ (5/2, 1/2) = 1*x1\n"
     "rel r1 @ (4, 5/2) = 1*g2 + 1*g3\n"
     "rel r2 @ (7/2, 1) = 1*g3 + 1*g4 + 1*g1 + 1*x1\n"
     "rel r3 @ (3, 3) = 1*g1 + 1*g3 + 1*g4 + 1*x1\n",
     "module f9c0m2\nfield F2\nparams 2\ngen g1 @ (3, 1/2)\n"
     "gen g2 @ (7/2, 0)\ngen g3 @ (4, 0)\ngen g4 @ (1, -1/2)\n"
     "gen x1 @ (1, 0)\nrel rx1 @ (1, 0) = 1*x1\n"
     "rel r1 @ (4, 1/2) = 1*g2 + 1*g3\n"
     "rel r2 @ (9/2, 2) = 1*g3 + 1*g4 + 1*g1 + 1*x1\n"
     "rel r3 @ (4, 5/2) = 1*g1 + 1*g3 + 1*g4 + 1*x1\n",
     Fraction(1)),
    ("module f6c2m2\nfield F2\nparams 2\ngen g1 @ (0, 1)\n"
     "gen g2 @ (3/2, -1)\ngen g3 @ (3/2, 1/2)\ngen g4 @ (3, 1)\n"
     "gen x1 @ (2, 3)\nrel rx1 @ (2, 3) = 1*x1\n"
     "rel r1 @ (4, 2) = 1*g2 + 1*g4 + 1*g1 + 1*g3\n"
     "rel r2 @ (3, 2) = 1*g3 + 1*g1 + 1*g4\n"
     "rel r3 @ (3, 3) = 1*g4 + 1*g3 + 1*g2 + 1*g1\n",
     "module f6c3m0\nfield F2\nparams 2\ngen g1 @ (3/2, 4)\n"
     "gen g2 @ (2, -1)\ngen g3 @ (3/2, -1/2)\ngen g4 @ (3, 5/2)\n"
     "gen x1 @ (1/2, 0)\nrel rx1 @ (1/2, 0) = 1*x1\n"
     "rel r1 @ (2, 5) = 1*g1\nrel r2 @ (3, 4) = 1*g1 + 1*g4\n",
     Fraction(3, 2)),
    ("module f44c0m0\nfield F2\nparams 2\ngen g1 @ (1, 5/2)\n"
     "gen g2 @ (1/2, 2)\ngen g3 @ (3/2, 4)\ngen g4 @ (2, 3/2)\n"
     "gen x1 @ (3/2, 5/2)\nrel rx1 @ (3/2, 5/2) = 1*x1\n"
     "rel r1 @ (2, 4) = 1*g2 + 1*g3 + 1*g4 + 1*g1\n"
     "rel r2 @ (2, 5) = 1*g3 + 1*x1\nrel r3 @ (3, 9/2) = 1*g4 + 1*g3\n",
     "module f44c2m0\nfield F2\nparams 2\ngen g1 @ (2, 2)\n"
     "gen g2 @ (1/2, 4)\ngen g3 @ (1/2, 2)\ngen g4 @ (1/2, 2)\n"
     "gen x1 @ (-1/2, 5/2)\nrel rx1 @ (-1/2, 5/2) = 1*x1\n"
     "rel r1 @ (2, 5) = 1*g2 + 1*x1\n"
     "rel r2 @ (2, 4) = 1*g2 + 1*g1 + 1*g3 + 1*x1\n"
     "rel r3 @ (1/2, 2) = 1*g4\n",
     Fraction(1)),
]


@pytest.mark.parametrize("text_m, text_n, d", STORAGE_ORDER_PAIRS,
                         ids=["seed0-26", "seed0-459", "seed7-51",
                              "seed7-269"])
def test_bound_on_relations_out_of_line_order(text_m, text_n, d):
    P, Q_ = parse(text_m), parse(text_n)
    Pm, Pn = minimize(P), minimize(Q_)
    assert diagonal_lower_bound(Pm, Pn) == _reference_bound(Pm, Pn) == d
    assert list(candidate_set(P, Q_)) == _reference_candidates(Pm, Pn)
    assert interleaving_distance(P, Q_)[0] == d


def _reference_masks(P_M, P_N, e):
    def mask(rows, cols, shift):
        return [[grade_leq(r, grade_shift(c, shift)) for c in cols]
                for r in rows]
    gm, gn = P_M.generators.grades, P_N.generators.grades
    rm = [el.grade for el in P_M.relations]
    rn = [el.grade for el in P_N.relations]
    return [mask(gn, gm, e), mask(gm, gn, e), mask(rn, rm, e),
            mask(rm, rn, e), mask(rm, gm, 2 * e), mask(rn, gn, 2 * e)]


def _masks(prob):
    return list(_patterns(prob))


def _free_entries(prob):
    """The free entries of A and B as the search's two sides read them
    off the lattice."""
    lat = prob._lat
    return [_Side(prob, lat.M, lat.N).free, _Side(prob, lat.N, lat.M).free]


def _positions(mask):
    return [(i, j) for i, row in enumerate(mask)
            for j, ok in enumerate(row) if ok]


def test_int_masks_equal_fraction_masks():
    rng = rng_for(902)
    for n in (1, 2, 3):
        for _ in range(25):
            Pm, Pn = _random_pair(rng, F2, n)
            # user shifts, some with denominators no grade has
            for _ in range(3):
                e = Fraction(rng.randint(0, 20), rng.randint(1, 7))
                prob = InterleavingProblem(Pm, Pn, e)
                assert prob.e == e
                ref = _reference_masks(Pm, Pn, e)
                assert _masks(prob) == ref
                assert _free_entries(prob) == [_positions(m) for m in ref[:2]]
            # the probes of a distance search, on one lattice
            lat = _Lattice(Pm, Pn)
            for e in candidate_set(Pm, Pn).finite():
                prob = InterleavingProblem._at(lat, lat.scale(e))
                assert prob.e == e and type(prob.e) is Fraction
                ref = _reference_masks(Pm, Pn, e)
                assert _masks(prob) == ref
                assert _free_entries(prob) == [_positions(m) for m in ref[:2]]


def test_annihilators_kill_exactly_the_admissible_relations():
    """Each memoized annihilator kills every relation present at its
    grade and has ngens - rank(those relations) functionals."""
    rng = rng_for(903)
    for field in (F2, F3, Q):
        for _ in range(20):
            Pm, Pn = _random_pair(rng, field, 2)
            lat = _Lattice(Pm, Pn)
            for S in (lat.M, lat.N):
                P = S.P
                grades = [*P.generators.grades,
                          *(el.grade for el in P.relations)]
                for u in grades:
                    for e in (Fraction(0), Fraction(1, 2), Fraction(3, 2)):
                        v = grade_shift(u, e)
                        ann = _annihilator(S, tuple(lat.scale(c)
                                                    for c in v.coords))
                        rows = [el.coeffs for el in P.relations
                                if grade_leq(el.grade, v)]
                        ngens = len(P.generators)
                        assert len(ann) == ngens - local_rank(rows, ngens,
                                                              field.p)
                        for kappa in ann:
                            for r in rows:
                                s = sum(a * b for a, b in zip(kappa, r))
                                assert (s % field.p if field.p else s) == 0
                        again = _annihilator(S, tuple(lat.scale(c)
                                                      for c in v.coords))
                        assert again is ann


def test_off_lattice_eps_raises():
    P = parse("module M\nfield F2\nparams 2\ngen a @ (0, 1/2)\n"
              "rel r @ (1, 3/2) = 1*a\n")
    lat = _Lattice(P, P)
    assert lat.L == 4
    assert lat.scale(Fraction(3, 4)) == 3
    assert lat.lift(3) == Fraction(3, 4) and lat.lift(INF) == INF
    for off in (Fraction(1, 8), Fraction(1, 3), Fraction(5, 12)):
        with pytest.raises(ValueError):
            lat.scale(off)
    # a user shift is put on a lattice of its own, so it never is off
    prob = InterleavingProblem(P, P, Fraction(1, 3))
    assert prob.e == Fraction(1, 3)
    assert prob._lat.L == 12
    # (0, 1/2) <= (1/3, 5/6), but (1, 3/2) is not <= (2/3, 7/6)
    assert _patterns(prob)[0] == [[True]] and _patterns(prob)[4] == [[False]]


def test_witnesses_over_the_same_modules_share_sets_and_rows():
    # parse builds a graded set per call, and the witness matrices over
    # equal sets share one, with its table of rows
    text_m, text_n, d = STORAGE_ORDER_PAIRS[0]
    P = parse(text_m)
    assert parse(text_m).generators is not P.generators
    d1, w1 = interleaving_distance(parse(text_m), parse(text_n))
    d2, w2 = interleaving_distance(parse(text_m), parse(text_n))
    assert d1 == d2 == d
    # the distance is the witness's shift, one object
    assert d1 is w1.A.shift and d1 is w1.B.shift
    for X1, X2 in ((w1.A, w2.A), (w1.B, w2.B)):
        assert X1.domain is X2.domain and X1.codomain is X2.codomain
        assert X1.entries == X2.entries
        assert all(r1 is r2 for r1, r2 in zip(X1.entries, X2.entries))
    # equal rows over one domain are one tuple
    for X in (w1.A, w1.B):
        for r in X.entries:
            assert all(s is r for s in X.entries if s == r)
    # a set is shared while a matrix holds it, and no longer
    B = GradedSet([("a", Grade([Fraction(5, 17)]))])
    X = MorphismMatrix(B, B, [[1]], 0, F2)
    assert MorphismMatrix(GradedSet(B), B, [[1]], 0, F2).domain is X.domain
    kept = weakref.ref(X.domain)
    del B, X
    gc.collect()
    assert kept() is None


def test_rows_are_not_shared_across_q_and_prime_fields():
    B = GradedSet([("a", parse("module M\nfield Q\nparams 1\ngen a @ 0\n")
                    .generators.grades[0])])
    over_f2 = MorphismMatrix(B, B, [[1]], 0, F2)
    over_q = MorphismMatrix(B, B, [[Fraction(1)]], 0, Q)
    again = MorphismMatrix(B, B, [[1]], 0, FieldSpec(5))
    assert type(over_q.entries[0][0]) is Fraction
    assert type(over_f2.entries[0][0]) is int
    assert again.entries[0] is over_f2.entries[0]
