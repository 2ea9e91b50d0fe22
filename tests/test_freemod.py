import itertools
import pytest
from fractions import Fraction

from pmod import (BasisMismatch, CompatiblePair, DimensionMismatch,
                  FieldMismatch, FieldSpec, Grade, GradedSet, RATIONALS,
                  PatternViolation, Presentation, apply, compose,
                  grade_shift, make_element, span_membership, MorphismMatrix)
from pmod.freemod import _solve, _spanned, nullspace, rref

from conftest import (F2, F3, F5, local_rank, local_solve, rand_grade,
                      random_presentation, rng_for)


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
    v = make_element(B1, Grade([1]), [2, 1, 0], F5)
    assert v.coeffs == (2, 1, 0)
    assert v.field == F5
    assert not v.is_zero()
    assert make_element(B1, Grade([0]), [0, 0, 0], F5).is_zero()
    # c sits at grade 2 > 1, so a nonzero coefficient there is illegal
    with pytest.raises(PatternViolation):
        make_element(B1, Grade([1]), [0, 0, 1], F5)
    with pytest.raises(BasisMismatch):
        make_element(B1, Grade([3]), [1], F5)
    # coefficients must be raw values of the field: reduced int residues
    # over F_p, Fractions over Q
    q0 = Fraction(0)
    for field, coeffs in ((F5, [5, 0, 0]), (F5, [-1, 0, 0]),
                          (F5, [Fraction(1), 0, 0]), (F5, [True, 0, 0]),
                          (RATIONALS, [1, q0, q0]), (RATIONALS, [q0, q0, 0.0])):
        with pytest.raises(FieldMismatch):
            make_element(B1, Grade([3]), coeffs, field)


def test_make_element_checks_the_grade_dimension():
    # once per element, zero coefficients or not, before any pattern or
    # field check
    for coeffs in ([0, 0, 0], [1, 0, 0], [5, 0, 0]):
        with pytest.raises(DimensionMismatch):
            make_element(B1, Grade([1, 1]), coeffs, F5)
    B2 = _basis(F5, [("a", (0, 0)), ("b", (1, 2))])
    with pytest.raises(DimensionMismatch):
        make_element(B2, Grade([3]), [1, 1], F5)
    assert make_element(B2, Grade([1, 2]), [1, 1], F5).coeffs == (1, 1)
    with pytest.raises(PatternViolation):
        make_element(B2, Grade([2, 1]), [1, 1], F5)
    # an empty basis has no grades to compare with
    assert make_element(GradedSet([]), Grade([1, 1]), [], F5).is_zero()


def test_matrix_pattern_enforced():
    Bsrc = _basis(F5, [("x", 2)])
    Btgt = _basis(F5, [("y", 3)])
    # gr(y)=3 <= gr(x)+e needs e >= 1
    MorphismMatrix(Bsrc, Btgt, [[1]], Fraction(1), F5)
    with pytest.raises(PatternViolation):
        MorphismMatrix(Bsrc, Btgt, [[1]], Fraction(1, 2), F5)
    # zero entries are always fine
    MorphismMatrix(Bsrc, Btgt, [[0]], Fraction(0), F5)
    # entries are checked like element coefficients
    with pytest.raises(FieldMismatch):
        MorphismMatrix(Bsrc, Btgt, [[6]], Fraction(1), F5)
    with pytest.raises(FieldMismatch):
        MorphismMatrix(Bsrc, Btgt, [[1]], Fraction(1), RATIONALS)


# entries that are not raw values of their field: an unreduced or a
# negative residue, a Fraction or a bool over F_p; an int or a float
# over Q
NON_VALUES = {F2: [2, -1, Fraction(1), True], F5: [5, -1, Fraction(1), True],
              RATIONALS: [1, 0, 0.5]}


def _is_value(field, x):
    if field.is_rationals:
        return type(x) is Fraction
    return type(x) is int and 0 <= x < field.p


def _matrix_refusal(dom, cod, rows, shift, field):
    """The error MorphismMatrix owes, read entry by entry on Fraction
    coordinates: at the first column, in domain order, that holds a
    non-value (FieldMismatch) or, failing that, a nonzero entry (i, j)
    without gr(b'_i) <= gr(b_j) + e (PatternViolation); else None."""
    for j, g in enumerate(dom.grades):
        top = [c + shift for c in g.coords]
        column = [row[j] for row in rows]
        if not all(_is_value(field, x) for x in column):
            return FieldMismatch
        for x, h in zip(column, cod.grades):
            if x and not all(a <= b for a, b in zip(h.coords, top)):
                return PatternViolation
    return None


def test_matrix_refusals_follow_the_entry_rules():
    # MorphismMatrix raises exactly when some entry is not a value of
    # the field or breaks gr(b'_i) <= gr(b_j) + e
    rng = rng_for(411)
    seen = {None: 0, FieldMismatch: 0, PatternViolation: 0}
    for _ in range(600):
        field = rng.choice([F2, F5, RATIONALS])
        n = rng.choice([1, 2])
        dom = GradedSet([(f"x{j}", rand_grade(rng, n))
                         for j in range(rng.randint(0, 3))])
        cod = GradedSet([(f"y{i}", rand_grade(rng, n))
                         for i in range(rng.randint(0, 3))])
        shift = Fraction(rng.randint(0, 4), 2)
        rows = [[rng.choice(NON_VALUES[field]) if rng.random() < 0.05
                 else _rand_value(rng, field) for _ in dom] for _ in cod]
        want = _matrix_refusal(dom, cod, rows, shift, field)
        seen[want] += 1
        if want is None:
            f = MorphismMatrix(dom, cod, rows, shift, field)
            assert f.entries == tuple(tuple(row) for row in rows)
        else:
            with pytest.raises(want):
                MorphismMatrix(dom, cod, rows, shift, field)
    assert min(seen.values()) >= 50, seen


def test_matrix_errors_come_column_by_column():
    # a matrix that breaks two rules reports the first column in domain
    # order, whatever the row order says
    dom = _basis(F5, [("x", 0), ("z", 0)])
    cod = _basis(F5, [("y", 0), ("w", 2)])
    # column x breaks the pattern at w, column z holds the non-value 7
    with pytest.raises(PatternViolation,
                       match="coefficient on w@2 in an element at grade 1"):
        MorphismMatrix(dom, cod, [[0, 7], [1, 0]], 1, F5)
    # within a column, the values are checked before the pattern
    cod = _basis(F5, [("y", 2), ("w", 0)])
    with pytest.raises(FieldMismatch, match="coefficient 7 is not a value"):
        MorphismMatrix(_basis(F5, [("x", 0)]), cod, [[1], [7]], 1, F5)


def test_matrix_grades_of_two_dimensions():
    # each column is an element at a domain grade plus e, so a matrix
    # between graded sets of different grade dimension is refused even
    # when it is zero; with no column, or no row, there is no grade to
    # compare
    dom = GradedSet([("x", Grade([0]))])
    cod = GradedSet([("y", Grade([0, 0]))])
    with pytest.raises(DimensionMismatch):
        MorphismMatrix(dom, cod, [[0]], 0, F5)
    MorphismMatrix(GradedSet([]), cod, [[]], 0, F5)
    MorphismMatrix(dom, GradedSet([]), [], 0, F5)


def test_apply_and_compose():
    f = MorphismMatrix(B1, B1, [[0, 0, 0], [3, 0, 0], [0, 1, 0]],
                       Fraction(1), F5)
    v = make_element(B1, Grade([0]), [1, 0, 0], F5)
    fv = apply(f, v)
    assert fv.grade == Grade([1])
    assert fv.coeffs == (0, 3, 0)
    ff = compose(f, f)
    assert ff.shift == Fraction(2)
    ffv = apply(ff, v)
    assert ffv.coeffs == (0, 0, 3)
    ident = MorphismMatrix(B1, B1, [[int(i == j) for j in range(3)]
                                    for i in range(3)], 0, F5)
    assert compose(ident, f).entries == f.entries
    assert apply(ident, v).coeffs == v.coeffs
    # products are reduced mod p: 3 * 3 = 4 in F5
    g = MorphismMatrix(B1, B1, [[3, 0, 0], [0, 0, 0], [0, 0, 0]], 0, F5)
    assert compose(g, g).entries[0][0] == 4
    assert apply(g, make_element(B1, Grade([0]), [3, 0, 0], F5)).coeffs \
        == (4, 0, 0)
    # over Q every entry, a zero too, stays a Fraction
    q = MorphismMatrix(B1, B1, [[Fraction(-1, 2), Fraction(0), Fraction(0)],
                                [Fraction(0)] * 3, [Fraction(0)] * 3],
                       0, RATIONALS)
    qq = compose(q, q)
    assert qq.entries[0] == (Fraction(1, 4), Fraction(0), Fraction(0))
    assert all(type(x) is Fraction for row in qq.entries for x in row)


# Shape and basis checks that no other test or workload reaches: each
# builds one mismatched input, with the names of B1 or a one-generator
# basis that is not B1.
B_OTHER = _basis(F5, [("x", 0)])
E0 = GradedSet([])


def _on(B, *coeffs):
    return make_element(B, Grade([2]), list(coeffs), F5)


MISMATCHES = {
    "matrix rows": (
        BasisMismatch, "2 rows for a codomain of size 3",
        lambda: MorphismMatrix(B1, B1, [[0, 0, 0]] * 2, 0, F5)),
    "matrix row length": (
        BasisMismatch, "row of length 2 for a domain of size 3",
        lambda: MorphismMatrix(B1, B1, [[0, 0]] * 3, 0, F5)),
    "apply": (
        BasisMismatch, "not over the morphism's domain",
        lambda: apply(MorphismMatrix(B1, B1, [[0] * 3] * 3, 0, F5),
                      _on(B_OTHER, 1))),
    "compose": (
        BasisMismatch, "codomain of f is not the domain of g",
        lambda: compose(MorphismMatrix(B1, B1, [[0] * 3] * 3, 0, F5),
                        MorphismMatrix(B1, B_OTHER, [[0] * 3], 0, F5))),
    "span_membership": (
        BasisMismatch, "span members over a different basis",
        lambda: span_membership(_on(B1, 1, 0, 0), [_on(B_OTHER, 1)])),
    "presentation generator grades": (
        DimensionMismatch, "generator grade 0 in a 2-parameter",
        lambda: Presentation(F5, 2, B_OTHER, [])),
    "presentation relation basis": (
        BasisMismatch, "relation r is not over the generators",
        lambda: Presentation(F5, 1, B1, [("r", _on(B_OTHER, 1))])),
    "presentation relation grade": (
        DimensionMismatch, r"relation grade \(0, 0\) in a 1-parameter",
        lambda: Presentation(F5, 1, E0, [
            ("r", make_element(E0, Grade([0, 0]), [], F5))])),
    "compatible pair basis": (
        ValueError, r"element y is not over W1 \+\+ W2",
        lambda: CompatiblePair(F5, 1, B1, B_OTHER,
                               [("y", _on(B1, 1, 0, 0))], [], 0)),
}


@pytest.mark.parametrize("case", sorted(MISMATCHES))
def test_shape_and_basis_checks_raise(case):
    exc, message, build = MISMATCHES[case]
    with pytest.raises(exc, match=message):
        build()


def test_apply_is_linear_random():
    rng = rng_for(401)
    for _ in range(30):
        P = random_presentation(rng, F5, 2, min_gens=1)
        B = P.generators
        e = Fraction(rng.randint(0, 2))
        mask_entries = [[rng.randrange(5)
                         if all(x <= y + e for x, y in
                                zip(B.grades[i].coords, B.grades[j].coords))
                         else 0
                         for j in range(len(B))] for i in range(len(B))]
        f = MorphismMatrix(B, B, mask_entries, e, F5)
        u = Grade([max(g.coords[t] for g in B.grades) for t in range(2)])
        v = make_element(B, u, [rng.randrange(5) for _ in B], F5)
        w = make_element(B, u, [rng.randrange(5) for _ in B], F5)
        lhs = apply(f, make_element(B, u, [(a + b) % 5 for a, b in
                                           zip(v.coeffs, w.coeffs)], F5))
        assert lhs.coeffs == tuple((a + b) % 5 for a, b in
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
            coeffs = [rng.randrange(2)
                      if all(x <= y for x, y in zip(g.coords, u.coords))
                      else 0 for g in B.grades]
            W.append(make_element(B, u, coeffs, F2))
        u = rand_grade(rng, 2, span=3, denom=2)
        coeffs = [rng.randrange(2)
                  if all(x <= y for x, y in zip(g.coords, u.coords))
                  else 0 for g in B.grades]
        v = make_element(B, u, coeffs, F2)

        admissible = [w for w in W
                      if all(x <= y for x, y in
                             zip(w.grade.coords, v.grade.coords))]
        expected = False
        for picks in itertools.product([0, 1], repeat=len(admissible)):
            acc = [0] * nb
            for c, w in zip(picks, admissible):
                if c:
                    acc = [(a + x) % 2 for a, x in zip(acc, w.coeffs)]
            if acc == list(v.coeffs):
                expected = True
                break

        ok, cert = span_membership(v, W)
        assert ok == expected, (trial, [str(w) for w in W], str(v))
        if ok:
            # certificate only uses admissible entries and reproduces v
            assert len(cert) == len(W)
            assert all(type(c) is int and 0 <= c < 2 for c in cert)
            acc = [0] * nb
            for c, w in zip(cert, W):
                if c:
                    assert all(x <= y for x, y in
                               zip(w.grade.coords, v.grade.coords))
                    acc = [(a + c * x) % 2 for a, x in zip(acc, w.coeffs)]
            assert tuple(acc) == v.coeffs


# small values with many zeros, so random rows over Q are often dependent
Q_VALUES = [Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
            Fraction(1, 2), Fraction(-3, 2)]


# the kernels' fields; over F_p also with unreduced entries, products
# of two residues as _condition_rows builds them (never a nonzero
# multiple of p, which the kernels do not accept)
KERNEL_CASES = [(F2, False), (F3, False), (F5, False), (RATIONALS, False),
                (F2, True), (F3, True), (F5, True)]


def _rand_value(rng, field, products=False):
    if field.is_rationals:
        return rng.choice(Q_VALUES)
    if products:
        return rng.randrange(field.p) * rng.randrange(field.p)
    return rng.randrange(field.p)


def _value(field, x):
    """x as a raw value of field: reduced mod p over F_p."""
    return x if field.is_rationals else x % field.p


def _dot(row, x, field):
    acc = sum(c * v for c, v in zip(row, x))
    return acc if field.is_rationals else acc % field.p


def _checked(field, values):
    """values, after checking that each is a raw value of field: a
    Fraction over Q, a reduced int residue over F_p."""
    for x in values:
        if field.is_rationals:
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < field.p
    return list(values)


def test_rref_and_rank_against_local_gauss():
    for field, products in KERNEL_CASES:
        rng = rng_for(403)
        for _ in range(40):
            m, w = rng.randint(0, 4), rng.randint(1, 4)
            rows = [[_rand_value(rng, field, products) for _ in range(w)]
                    for _ in range(m)]
            copy = [list(row) for row in rows]
            red, pivots = rref(rows, w, field.p)
            assert rows == copy  # the input is left as it was
            red = [_checked(field, row) for row in red]
            assert len(red) == len(pivots) == len(rref(rows, w, field.p)[1])
            assert len(pivots) == local_rank(rows, w, field.p)
            # pivot columns strictly increase, each row is zero before its
            # pivot, and each pivot column holds a lone 1
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            for i, c in enumerate(pivots):
                assert not any(red[i][:c])
                assert red[i][c] == 1
                for i2 in range(len(red)):
                    if i2 != i:
                        assert red[i2][c] == 0
            # every input row is the combination of reduced rows that its
            # pivot-column entries spell out, so it lies in their span
            for row in rows:
                acc = [_dot([row[c] for c in pivots], [r[t] for r in red],
                            field) for t in range(w)]
                assert acc == [_value(field, x) for x in row]


def test_solve_rows_round_trip():
    for field, products in KERNEL_CASES:
        rng = rng_for(404)
        hits = 0
        for _ in range(60):
            m, w = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[_rand_value(rng, field, products) for _ in range(w)]
                    for _ in range(m)]
            rhs = [_rand_value(rng, field, products) for _ in range(m)]
            # the right-hand side rides in column w of each row
            system = [[*row, b] for row, b in zip(rows, rhs)]
            copy = [list(row) for row in system]
            x = _solve(system, w, field.p)
            assert system == copy  # the input is left as it was
            # the reduced row echelon form's solution, free variables zero
            assert x == local_solve(rows, w, rhs, field.p)
            if x is None:
                if not field.is_rationals:
                    # verify infeasibility by brute force over F_p^w (w <= 4)
                    p = field.p
                    for vals in itertools.product(range(p), repeat=w):
                        for row, b in zip(rows, rhs):
                            s = sum(c * v for c, v in zip(row, vals)) % p
                            if s != b % p:
                                break
                        else:
                            assert False, "solver missed a solution"
                continue
            hits += 1
            # over Q the free variables are Fractions too, not ints
            x = _checked(field, x)
            assert len(x) == w
            for row, b in zip(rows, rhs):
                assert _dot(row, x, field) == _value(field, b)
        assert hits > 10


def test_nullspace_properties():
    for field in (F5, RATIONALS):
        rng = rng_for(405)
        for _ in range(40):
            m, w = rng.randint(0, 4), rng.randint(1, 5)
            rows = [[_rand_value(rng, field) for _ in range(w)]
                    for _ in range(m)]
            basis = nullspace(rows, w, field.p)
            assert len(basis) == w - len(rref(rows, w, field.p)[1])
            for v in basis:
                for row in rows:
                    assert _dot(row, _checked(field, v), field) == 0
            # basis vectors are independent: stack them and check rank
            assert len(rref(basis, w, field.p)[1]) == len(basis)
        # deterministic: repeated calls agree
        rows = [[field.coerce(1), field.coerce(2), field.coerce(0)]]
        assert nullspace(rows, 3, field.p) == nullspace(rows, 3, field.p)


def test_empty_shapes():
    for field in (F5, RATIONALS):
        assert rref([], 3, field.p) == ([], [])
        assert len(rref([], 0, field.p)[1]) == 0
        assert [_checked(field, v) for v in nullspace([], 2, field.p)] == [
            [1, 0], [0, 1]]
        assert _checked(field, _solve([], 2, field.p)) == [0, 0]
    empty = GradedSet([])
    z = MorphismMatrix(empty, empty, [], 0, F5)
    assert compose(z, z).entries == ()
    # an element over the empty basis is in every span, certificate zero
    W = [make_element(empty, Grade([0]), [], RATIONALS)]
    assert span_membership(make_element(empty, Grade([1]), [], RATIONALS),
                           W) == (True, [Fraction(0)])


def _combination(rng, field, rows, dim):
    """A random linear combination of rows, as raw values of field."""
    acc = [field.coerce(0)] * dim
    for row in rows:
        c = _rand_value(rng, field)
        acc = [_value(field, a + c * x) for a, x in zip(acc, row)]
    return acc


def test_spanned_matches_span_membership():
    # one elimination for many vectors answers as span_membership does
    # for each of them, every generator and element at one grade so that
    # every row takes part; zero, repeated and absent rows, no vectors,
    # and many spanned vectors around one that is not
    rng = rng_for(2424)
    at = Grade([0])
    seen = set()
    for trial in range(400):
        field = rng.choice([F2, F3, F5, RATIONALS])
        dim = rng.randint(0, 4)
        B = GradedSet([(f"e{i}", at) for i in range(dim)])
        rows = [[_rand_value(rng, field) for _ in range(dim)]
                for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)),
                        rng.choice(rows) if rows and rng.random() < 0.6
                        else [field.coerce(0)] * dim)
        vectors = [_combination(rng, field, rows, dim)
                   for _ in range(rng.choice([0, 1, 2, 6]))]
        outsider = [_rand_value(rng, field) for _ in range(dim)]
        if rng.random() < 0.5:
            vectors.insert(rng.randint(0, len(vectors)), outsider)
        W = [make_element(B, at, row, field) for row in rows]
        inside = [span_membership(make_element(B, at, v, field), W)[0]
                  for v in vectors]
        assert _spanned(rows, vectors, field.p) == all(inside), (
            field, rows, vectors)
        kind = ("no rows" if not rows else "no vectors" if not vectors
                else "one outside" if inside.count(False) == 1 < len(inside)
                else "all inside" if all(inside) else "several outside")
        seen.add((field.p, kind))
        if len({tuple(r) for r in rows}) < len(rows):
            seen.add((field.p, "repeated or zero rows"))
    assert seen == {(p, kind) for p in (2, 3, 5, None)
                    for kind in ("no rows", "no vectors", "one outside",
                                 "all inside", "several outside",
                                 "repeated or zero rows")}, seen
    for field in (F5, RATIONALS):
        zero, one = field.coerce(0), field.coerce(1)
        assert _spanned([], [], field.p)
        assert _spanned([], [[zero, zero]], field.p)
        assert not _spanned([], [[zero, one]], field.p)
        assert _spanned([[one, zero]], [], field.p)
        assert _spanned([[zero, zero], [one, one], [one, one]],
                        [[zero, zero], [one, one]], field.p)
        assert not _spanned([[one, one], [zero, zero]],
                            [[one, one]] * 5 + [[one, zero]], field.p)
