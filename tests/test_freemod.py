import itertools
import pytest
from fractions import Fraction

from pmod import (BasisMismatch, FieldSpec, Grade, GradedSet, RATIONALS,
                  PatternViolation, apply, compose, grade_shift,
                  identity_matrix, make_element, zero_element, zero_matrix,
                  span_membership, MorphismMatrix, Scalar)
from pmod.freemod import _solve, nullspace, rref

from conftest import F2, F5, local_rank_mod_p, rand_grade, random_presentation, rng_for


def _basis(field, items):
    return GradedSet([(name, Grade(list(coords) if isinstance(coords, tuple)
                                   else [coords]))
                      for name, coords in items])


B1 = _basis(F5, [("a", 0), ("b", 1), ("c", 2)])


def test_graded_set_invariants():
    assert len(B1) == 3
    assert B1.position("b") == 1
    with pytest.raises(KeyError):
        B1.position("d")
    assert B1.names == ("a", "b", "c")
    with pytest.raises(ValueError):
        GradedSet([("a", Grade([0])), ("a", Grade([1]))])
    from pmod import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        GradedSet([("a", Grade([0])), ("b", Grade([0, 0]))])


def test_make_element_pattern():
    v = make_element(B1, Grade([1]), [F5.scalar(2), F5.one(), F5.zero()])
    assert v.coeffs == (F5.scalar(2), F5.one(), F5.zero())
    assert not v.is_zero()
    assert zero_element(B1, Grade([0]), F5).is_zero()
    # c sits at grade 2 > 1, so a nonzero coefficient there is illegal
    with pytest.raises(PatternViolation):
        make_element(B1, Grade([1]), [F5.zero(), F5.zero(), F5.one()])
    with pytest.raises(BasisMismatch):
        make_element(B1, Grade([3]), [F5.one()])


def test_matrix_pattern_enforced():
    Bsrc = _basis(F5, [("x", 2)])
    Btgt = _basis(F5, [("y", 3)])
    # gr(y)=3 <= gr(x)+e needs e >= 1
    MorphismMatrix(Bsrc, Btgt, [[F5.one()]], Fraction(1), F5)
    with pytest.raises(PatternViolation):
        MorphismMatrix(Bsrc, Btgt, [[F5.one()]], Fraction(1, 2), F5)
    # zero entries are always fine
    zero_matrix(Bsrc, Btgt, F5, Fraction(0))


def test_apply_and_compose():
    f = MorphismMatrix(B1, B1, [[F5.zero(), F5.zero(), F5.zero()],
                                [F5.scalar(3), F5.zero(), F5.zero()],
                                [F5.zero(), F5.one(), F5.zero()]],
                       Fraction(1), F5)
    v = make_element(B1, Grade([0]), [F5.one(), F5.zero(), F5.zero()])
    fv = apply(f, v)
    assert fv.grade == Grade([1])
    assert fv.coeffs == (F5.zero(), F5.scalar(3), F5.zero())
    ff = compose(f, f)
    assert ff.shift == Fraction(2)
    ffv = apply(ff, v)
    assert ffv.coeffs == (F5.zero(), F5.zero(), F5.scalar(3))
    ident = identity_matrix(B1, F5)
    assert compose(ident, f).entries == f.entries
    assert apply(ident, v).coeffs == v.coeffs


def test_apply_is_linear_random():
    rng = rng_for(401)
    for _ in range(30):
        P = random_presentation(rng, F5, 2, min_gens=1)
        B = P.generators
        e = Fraction(rng.randint(0, 2))
        mask_entries = [[F5.scalar(rng.randrange(5))
                         if all(x <= y + e for x, y in
                                zip(B.grades[i].coords, B.grades[j].coords))
                         else F5.zero()
                         for j in range(len(B))] for i in range(len(B))]
        f = MorphismMatrix(B, B, mask_entries, e, F5)
        u = Grade([max(g.coords[t] for g in B.grades) for t in range(2)])
        v = make_element(B, u, [F5.scalar(rng.randrange(5)) for _ in B], F5)
        w = make_element(B, u, [F5.scalar(rng.randrange(5)) for _ in B], F5)
        lhs = apply(f, make_element(B, u, [a + b for a, b in
                                           zip(v.coeffs, w.coeffs)], F5))
        assert lhs.coeffs == tuple(a + b for a, b in
                                   zip(apply(f, v).coeffs, apply(f, w).coeffs))


def test_span_membership_brute_force_f2():
    """Against exhaustive enumeration of F_2 combinations."""
    rng = rng_for(402)
    for trial in range(60):
        nb = rng.randint(1, 4)
        B = GradedSet([(f"e{i}", rand_grade(rng, 2, span=2, denom=2))
                       for i in range(nb)])
        nw = rng.randint(0, 4)
        W = []
        for _ in range(nw):
            u = rand_grade(rng, 2, span=3, denom=2)
            coeffs = [F2.scalar(rng.randrange(2))
                      if all(x <= y for x, y in zip(g.coords, u.coords))
                      else F2.zero() for g in B.grades]
            W.append(make_element(B, u, coeffs, F2))
        u = rand_grade(rng, 2, span=3, denom=2)
        coeffs = [F2.scalar(rng.randrange(2))
                  if all(x <= y for x, y in zip(g.coords, u.coords))
                  else F2.zero() for g in B.grades]
        v = make_element(B, u, coeffs, F2)

        admissible = [w for w in W
                      if all(x <= y for x, y in
                             zip(w.grade.coords, v.grade.coords))]
        expected = False
        for picks in itertools.product([0, 1], repeat=len(admissible)):
            acc = [0] * nb
            for c, w in zip(picks, admissible):
                if c:
                    acc = [(a + x.value) % 2
                           for a, x in zip(acc, w.coeffs)]
            if acc == [c.value for c in v.coeffs]:
                expected = True
                break

        ok, cert = span_membership(v, W)
        assert ok == expected, (trial, [str(w) for w in W], str(v))
        if ok:
            # certificate only uses admissible entries and reproduces v
            acc = [F2.zero()] * nb
            for c, w in zip(cert, W):
                if not c.is_zero():
                    assert all(x <= y for x, y in
                               zip(w.grade.coords, v.grade.coords))
                    acc = [a + (c * x) for a, x in zip(acc, w.coeffs)]
            assert tuple(acc) == v.coeffs


# small values with many zeros, so random rows over Q are often dependent
Q_VALUES = [Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
            Fraction(1, 2), Fraction(-3, 2)]


def _rand_scalar(rng, field):
    if field.is_rationals:
        return field.scalar(rng.choice(Q_VALUES))
    return field.scalar(rng.randrange(field.p))


def _dot(row, x, field):
    acc = field.zero()
    for c, v in zip(row, x):
        acc = acc + (c * v)
    return acc


def _raw(rows):
    return [[c.value for c in row] for row in rows]


def _lift(field, values):
    """Scalars for raw kernel output, after checking each raw value: a
    Fraction over Q, a reduced int residue over F_p."""
    for x in values:
        if field.is_rationals:
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < field.p
    return [Scalar(field, x) for x in values]


def test_rref_and_rank_against_local_gauss():
    for field in (F5, RATIONALS):
        rng = rng_for(403)
        for _ in range(40):
            m, w = rng.randint(0, 4), rng.randint(1, 4)
            rows = [[_rand_scalar(rng, field) for _ in range(w)]
                    for _ in range(m)]
            raw = _raw(rows)
            red, pivots = rref(raw, w, field.p)
            assert raw == _raw(rows)  # the input is left as it was
            red = [_lift(field, row) for row in red]
            assert len(red) == len(pivots) == len(rref(raw, w, field.p)[1])
            if not field.is_rationals:
                assert len(pivots) == local_rank_mod_p(raw, w, field.p)
            # pivot columns strictly increase, each row is zero before its
            # pivot, and each pivot column holds a lone 1
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            for i, c in enumerate(pivots):
                assert all(x.is_zero() for x in red[i][:c])
                assert red[i][c] == field.one()
                for i2 in range(len(red)):
                    if i2 != i:
                        assert red[i2][c].is_zero()
            # every input row is the combination of reduced rows that its
            # pivot-column entries spell out, so it lies in their span
            for row in rows:
                acc = [field.zero()] * w
                for k, c in enumerate(pivots):
                    acc = [a + (row[c] * b) for a, b in zip(acc, red[k])]
                assert acc == row


def test_solve_rows_round_trip():
    for field in (F5, RATIONALS):
        rng = rng_for(404)
        hits = 0
        for _ in range(60):
            m, w = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[_rand_scalar(rng, field) for _ in range(w)]
                    for _ in range(m)]
            rhs = [_rand_scalar(rng, field) for _ in range(m)]
            x = _solve(_raw(rows), w, [b.value for b in rhs], field.p)
            if x is None:
                if not field.is_rationals:
                    # verify infeasibility by brute force over F_5^w (w <= 4)
                    for vals in itertools.product(range(5), repeat=w):
                        for row, b in zip(rows, rhs):
                            s = sum(c.value * v for c, v in zip(row, vals)) % 5
                            if s != b.value:
                                break
                        else:
                            assert False, "solver missed a solution"
                continue
            hits += 1
            # over Q the free variables are Fractions too, not ints
            x = _lift(field, x)
            assert all(v.field == field
                       and type(v.value) is type(field.zero().value)
                       for v in x)
            for row, b in zip(rows, rhs):
                assert _dot(row, x, field) == b
        assert hits > 10


def test_nullspace_properties():
    for field in (F5, RATIONALS):
        rng = rng_for(405)
        for _ in range(40):
            m, w = rng.randint(0, 4), rng.randint(1, 5)
            rows = [[_rand_scalar(rng, field) for _ in range(w)]
                    for _ in range(m)]
            basis = nullspace(_raw(rows), w, field.p)
            assert len(basis) == w - len(rref(_raw(rows), w, field.p)[1])
            for v in basis:
                for row in rows:
                    assert _dot(row, _lift(field, v), field).is_zero()
            # basis vectors are independent: stack them and check rank
            assert len(rref(basis, w, field.p)[1]) == len(basis)
        # deterministic: repeated calls agree
        rows = _raw([[field.one(), field.scalar(2), field.zero()]])
        assert nullspace(rows, 3, field.p) == nullspace(rows, 3, field.p)


def test_empty_shapes():
    for field in (F5, RATIONALS):
        zero, one = field.zero(), field.one()
        assert rref([], 3, field.p) == ([], [])
        assert len(rref([], 0, field.p)[1]) == 0
        assert [_lift(field, v) for v in nullspace([], 2, field.p)] == [
            [one, zero], [zero, one]]
        assert _lift(field, _solve([], 2, [], field.p)) == [zero, zero]
    empty = GradedSet([])
    z = zero_matrix(empty, empty, F5)
    assert compose(z, z).entries == ()
