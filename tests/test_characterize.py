import pytest
from fractions import Fraction

from pmod import (BudgetExceeded, CompatiblePair, FieldMismatch, Grade,
                  GradedSet, HomogeneousElement, InterleavingProblem,
                  InterleavingWitness, InvalidWitness, MorphismMatrix,
                  PatternViolation, apply, candidate_set, check_closure,
                  combined_basis, compatible_presentations, grade_leq,
                  grade_shift, induced_presentations, is_interleaved,
                  make_element, parse, serialize, serialize_pair,
                  span_membership, verify_compatible)

from pmod import characterize
from conftest import F2, F3, F5, random_presentation, rng_for

M_TEXT = "module M\nfield F5\nparams 1\ngen a @ 0\nrel r1 @ 3 = 1*a\n"
N_TEXT = "module N\nfield F5\nparams 1\ngen b @ 1\nrel s1 @ 3 = 1*b\n"


def _offset_pair(e=1):
    M, N = parse(M_TEXT), parse(N_TEXT)
    w = is_interleaved(InterleavingProblem(M, N, Fraction(e)))
    assert w is not None
    return M, N, w


def test_combined_basis_suffixes_clashes():
    W1 = GradedSet([("a", Grade([0])), ("b", Grade([1]))])
    W2 = GradedSet([("b", Grade([0])), ("c", Grade([2]))])
    basis, w2_names = combined_basis(W1, W2)
    assert basis.names == ("a", "b", "b_2", "c")
    assert w2_names == ("b_2", "c")
    assert basis.grades == (Grade([0]), Grade([1]), Grade([0]), Grade([2]))


def test_pair_construction_offset_intervals():
    M, N, w = _offset_pair()
    pair, ind_M, ind_N = compatible_presentations(M, N, w, Fraction(1))
    assert serialize_pair(pair) == (
        "field F5\n"
        "params 1\n"
        "eps 1\n"
        "gen W1 a @ 0\n"
        "gen W2 b @ 1\n"
        "rel Y1 m_b @ 2 = 4*a + 1*b\n"
        "rel Y1 r1 @ 3 = 1*a\n"
        "rel Y2 m_a @ 1 = 1*a + 4*b\n"
        "rel Y2 s1 @ 3 = 1*b\n")
    assert serialize(ind_M) == (
        "module M\nfield F5\nparams 1\n"
        "gen a @ 0\ngen b @ 2\n"
        "rel r1 @ 2 = 4*a + 1*b\n"
        "rel r2 @ 2 = 1*a + 4*b\n"
        "rel r3 @ 3 = 1*a\n"
        "rel r4 @ 4 = 1*b\n")
    assert serialize(ind_N) == (
        "module N\nfield F5\nparams 1\n"
        "gen a @ 1\ngen b @ 1\n"
        "rel r1 @ 1 = 1*a + 4*b\n"
        "rel r2 @ 3 = 1*b\n"
        "rel r3 @ 3 = 4*a + 1*b\n"
        "rel r4 @ 4 = 1*a\n")
    assert verify_compatible(pair, M, N)


def test_pair_over_f2():
    M = parse(M_TEXT.replace("F5", "F2"))
    N = parse(N_TEXT.replace("F5", "F2"))
    w = is_interleaved(InterleavingProblem(M, N, Fraction(1)))
    pair, ind_M, ind_N = compatible_presentations(M, N, w, Fraction(1))
    assert "rel Y1 m_b @ 2 = 1*a + 1*b" in serialize_pair(pair)
    assert verify_compatible(pair, M, N)


def test_pair_name_clash_gets_suffixed():
    M = parse("module M\nfield F5\nparams 1\ngen a @ 0\nrel r1 @ 3 = 1*a\n")
    w = is_interleaved(InterleavingProblem(M, M, Fraction(0)))
    pair, ind_M, ind_N = compatible_presentations(M, M, w, Fraction(0))
    text = serialize_pair(pair)
    assert "gen W2 a_2 @ 0" in text
    assert verify_compatible(pair, M, M)
    # the induced presentations present the same module again
    assert len(ind_M.generators) == 2


def test_pair_zero_modules_two_params():
    Z = parse("module Z\nfield F2\nparams 2\n")
    w_empty = is_interleaved(InterleavingProblem(Z, Z, Fraction(1)))
    assert w_empty is not None
    pair, ind_M, ind_N = compatible_presentations(Z, Z, w_empty, Fraction(1))
    assert ind_M.n == 2 and ind_N.n == 2
    assert len(ind_M.generators) == 0
    assert verify_compatible(pair, Z, Z)
    # the header comes from the modules, not from generators or elements
    assert serialize_pair(pair) == "field F2\nparams 2\neps 1\n"
    for field, n in ((F2, 1), (F5, 2)):
        other = CompatiblePair(field, n, pair.W1, pair.W2, pair.Y1, pair.Y2,
                               pair.e)
        assert not verify_compatible(other, Z, Z)


def test_invalid_witness_shift():
    M, N, w = _offset_pair()
    with pytest.raises(InvalidWitness, match=r"^witness shift \(1, 1\) != 2$"):
        compatible_presentations(M, N, w, Fraction(2))


def test_pair_checked_before_the_shift():
    # InterleavingProblem checks n, then the field, then e
    M, N, w = _offset_pair()
    N3 = parse(N_TEXT.replace("F5", "F3"))
    with pytest.raises(FieldMismatch, match="^F5 vs F3$"):
        compatible_presentations(M, N3, w, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        compatible_presentations(M, N, w, -1)


def test_pair_refuses_elements_over_another_field():
    # the offset pair over F3 has the F5 pair's graded sets; its F3
    # elements declared over F5 are refused, so verify_compatible never
    # sees them re-read as F5 values
    M3, N3 = (parse(t.replace("F5", "F3")) for t in (M_TEXT, N_TEXT))
    w3 = is_interleaved(InterleavingProblem(M3, N3, Fraction(1)))
    pair3, _, _ = compatible_presentations(M3, N3, w3, Fraction(1))
    M, N, _ = _offset_pair()
    assert (pair3.W1, pair3.W2) == (M.generators, N.generators)
    assert verify_compatible(pair3, M3, N3)
    with pytest.raises(FieldMismatch, match="^element m_b over F3, not F5$"):
        CompatiblePair(F5, 1, pair3.W1, pair3.W2, pair3.Y1, pair3.Y2,
                       pair3.e)


def test_invalid_witness_shapes():
    M, N, w = _offset_pair()
    swapped = type(w)(w.B, w.A)
    with pytest.raises(InvalidWitness,
                       match="^A does not map M's generators to N's$"):
        compatible_presentations(M, N, swapped, Fraction(1))
    # the same residues over F2 are no witness for F5 modules
    over_f2 = type(w)(*(MorphismMatrix(m.domain, m.codomain, m.entries,
                                       m.shift, F2) for m in (w.A, w.B)))
    with pytest.raises(InvalidWitness) as err:
        compatible_presentations(M, N, over_f2, Fraction(1))
    assert "wrong field" in str(err.value)


def test_invalid_witness_closure():
    M, N, _ = _offset_pair()
    A = MorphismMatrix(M.generators, N.generators, [[0]], Fraction(1), F5)
    B = MorphismMatrix(N.generators, M.generators, [[0]], Fraction(1), F5)
    from pmod import InterleavingWitness
    with pytest.raises(InvalidWitness) as err:
        compatible_presentations(M, N, InterleavingWitness(A, B),
                                 Fraction(1))
    assert "round trips" in str(err.value)


def test_invalid_witness_condition_one():
    M = parse("module M\nfield F5\nparams 1\ngen a @ 0\nrel r1 @ 1 = 1*a\n")
    N = parse("module N\nfield F5\nparams 1\ngen b @ 0\n")
    A = MorphismMatrix(M.generators, N.generators, [[1]], Fraction(0), F5)
    B = MorphismMatrix(N.generators, M.generators, [[1]], Fraction(0), F5)
    from pmod import InterleavingWitness
    with pytest.raises(InvalidWitness) as err:
        compatible_presentations(M, N, InterleavingWitness(A, B),
                                 Fraction(0))
    assert "carries a relation" in str(err.value)



def test_condition_one_failure_in_a_later_group():
    # M's relations fall into two groups by the relations of N that are
    # admissible at their grades: r2 @ (0, 2), stored first, meets s2,
    # and r1 @ (2, 0) meets none, so only the second group fails
    M = parse("module M\nfield F2\nparams 2\ngen a @ (0, 0)\n"
              "rel r1 @ (2, 0) = 1*a\nrel r2 @ (0, 2) = 1*a\n")
    N = parse("module N\nfield F2\nparams 2\ngen x @ (0, 0)\n"
              "rel s1 @ (3, 0) = 1*x\nrel s2 @ (0, 2) = 1*x\n")
    assert M.rel_names == ("r2", "r1")
    A = MorphismMatrix(M.generators, N.generators, [[1]], 0, F2)
    B = MorphismMatrix(N.generators, M.generators, [[1]], 0, F2)
    assert check_closure(A, B, InterleavingProblem(M, N, 0))
    with pytest.raises(InvalidWitness, match="^A carries a relation of M "
                       "outside the relations of N$"):
        compatible_presentations(M, N, InterleavingWitness(A, B), 0)
    with pytest.raises(InvalidWitness, match="^B carries a relation of M "
                       "outside the relations of N$"):
        compatible_presentations(N, M, InterleavingWitness(B, A), 0)


def _refusal_by_relations(P_M, P_N, witness, e):
    """compatible_presentations' refusal of a witness of the right type,
    or None: conditions 1 and 2 one relation at a time (apply, then
    span_membership), then the round trips."""
    for name, X, P, Q in (("A", witness.A, P_M, P_N),
                          ("B", witness.B, P_N, P_M)):
        for w in P.relations:
            if not span_membership(apply(X, w), Q.relations)[0]:
                return (f"{name} carries a relation of {P.name} outside "
                        f"the relations of {Q.name}")
    if not check_closure(witness.A, witness.B,
                         InterleavingProblem(P_M, P_N, e)):
        return "round trips are not identity up to relations"
    return None


def test_conditions_one_and_two_match_the_per_relation_check():
    # search witnesses and copies with one entry changed inside the
    # pattern, over F2, F3 and F5 on two parameters: the grouped check
    # refuses exactly the witnesses the per-relation check refuses, with
    # the same message
    rng = rng_for(2626)
    seen = set()
    off = 0  # relations w of P with gr(w) + e off Q's lattice
    for trial in range(100):
        # from trial 60 on, P's grades lie on thirds and Q's on halves
        dp, dq = (4, 4) if trial < 60 else (3, 2)
        field = rng.choice([F2, F3, F5])
        P = random_presentation(rng, field, 2, 3, 4, 1, 1, denom=dp)
        Q = random_presentation(rng, field, 2, 3, 4, 1, 1, name="N",
                                denom=dq)
        e = rng.choice(candidate_set(P, Q).finite())
        try:
            w = is_interleaved(InterleavingProblem(P, Q, e), 2000)
        except BudgetExceeded:
            continue
        if w is None:
            continue
        off += sum(any((x * Q.L).denominator != 1
                       for x in grade_shift(r.grade, e).coords)
                   for r in P.relations)
        witnesses = [w]
        for side in ("A", "B"):
            X = getattr(w, side)
            free = [(i, j) for i, row in enumerate(X.entries)
                    for j, _ in enumerate(row)
                    if grade_leq(X.codomain.grades[i],
                                 grade_shift(X.domain.grades[j], e))]
            for i, j in rng.sample(free, min(3, len(free))):
                rows = [list(row) for row in X.entries]
                rows[i][j] = (rows[i][j] + rng.randrange(1, field.p)) % field.p
                Y = MorphismMatrix(X.domain, X.codomain, rows, e, field)
                witnesses.append(InterleavingWitness(Y, w.B) if side == "A"
                                 else InterleavingWitness(w.A, Y))
        for x in witnesses:
            want = _refusal_by_relations(P, Q, x, e)
            try:
                compatible_presentations(P, Q, x, e)
                got = None
            except InvalidWitness as exc:
                got = str(exc)
            assert got == want, (trial, got, want)
            seen.add(want and want[:2])
    assert seen == {None, "A ", "B ", "ro"}, seen
    assert off >= 20, off


def test_induced_relations_reuse_the_pairs_elements(monkeypatch):
    # over F2 and F3 on one and two parameters: compatible_presentations
    # makes each Y element once, with make_element, and every relation
    # of the induced presentations holds the terms of its Y element
    calls = []
    real = characterize.make_element

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(characterize, "make_element", counted)
    rng = rng_for(2727)
    done = {}
    while min(done.values(), default=0) < 6 or len(done) < 4:
        field, n = rng.choice([F2, F3]), rng.choice([1, 2])
        P = random_presentation(rng, field, n, 3, 3, 1, 1)
        Q = random_presentation(rng, field, n, 3, 3, 1, 1, name="N")
        e = rng.choice(candidate_set(P, Q).finite())
        try:
            w = is_interleaved(InterleavingProblem(P, Q, e), 2000)
        except BudgetExceeded:
            continue
        if w is None:
            continue
        calls.clear()
        pair, ind_M, ind_N = compatible_presentations(P, Q, w, e)
        assert len(calls) == (len(P.relations) + len(Q.generators)
                              + len(Q.relations) + len(P.generators))
        for ind, own, raised in ((ind_M, pair.Y1, pair.Y2),
                                 (ind_N, pair.Y2, pair.Y1)):
            # the induced relations in grade order, stable within ties
            want = sorted([(el.grade, el) for _, el in own]
                          + [(grade_shift(el.grade, e), el)
                             for _, el in raised],
                          key=lambda t: t[0].coords)
            assert [r.grade for r in ind.relations] == [g for g, _ in want]
            for r, (_, el) in zip(ind.relations, want):
                assert r.terms is el.terms
        done[field, n] = done.get((field, n), 0) + 1


def test_verify_rejects_foreign_generators():
    M, N, w = _offset_pair()
    pair, _, _ = compatible_presentations(M, N, w, Fraction(1))
    other = parse("module M\nfield F5\nparams 1\ngen c @ 0\nrel r1 @ 3 = 1*c\n")
    assert not verify_compatible(pair, other, N)


def test_verify_rejects_understated_mixed_grade():
    """A W2 coefficient whose element grade ignores the +e shift must be
    caught by the bookkeeping check."""
    M, N, w = _offset_pair()
    basis, _ = combined_basis(M.generators, N.generators)
    zero, one = 0, 1
    # plain reading allows a b-coefficient at grade 1; the shifted
    # reading requires gr(b) + 1 = 2 <= grade, so this is illegal
    bad = make_element(basis, Grade([1]), [zero, one], F5)
    r1w = make_element(basis, Grade([3]), [one, zero], F5)
    s1w = make_element(basis, Grade([3]), [zero, one], F5)
    pair = CompatiblePair(F5, 1, M.generators, N.generators,
                          [("r1", r1w), ("bad", bad)],
                          [("s1", s1w)], Fraction(1))
    assert not verify_compatible(pair, M, N)
    # the Y2 half: an a-coefficient at grade 1/2 is plain-legal, but a
    # lies in W1(-e) from gr(a) + 1 = 1 onward
    bad = make_element(basis, Grade([Fraction(1, 2)]), [one, zero], F5)
    pair = CompatiblePair(F5, 1, M.generators, N.generators,
                          [("r1", r1w)], [("s1", s1w), ("bad", bad)],
                          Fraction(1))
    assert not verify_compatible(pair, M, N)


def _shifted_reading_holds(pair):
    """Term by term, on Fraction coordinates: a W2 coefficient in Y1
    and a W1 coefficient in Y2 need gr(w) + e <= gr(element), every
    other coefficient gr(w) <= gr(element)."""
    gm = len(pair.W1)
    for y_list, w2_shifted in ((pair.Y1, True), (pair.Y2, False)):
        for _, el in y_list:
            for t, c in enumerate(el.coeffs):
                bump = pair.e if (t >= gm) == w2_shifted else 0
                g = el.basis.grades[t].coords
                if c and not all(a + bump <= b
                                 for a, b in zip(g, el.grade.coords)):
                    return False
    return True


def _mutated(pair, rng):
    """pair with one Y element changed, unchecked: a coefficient set to
    1 where it was 0, or one coordinate of its grade lowered."""
    ys = [list(pair.Y1), list(pair.Y2)]
    side = rng.choice([k for k in (0, 1) if ys[k]])
    k = rng.randrange(len(ys[side]))
    nm, el = ys[side][k]
    coeffs, coords = list(el.coeffs), list(el.grade.coords)
    zeros = [t for t, c in enumerate(coeffs) if not c]
    if zeros and rng.random() < 0.5:
        coeffs[rng.choice(zeros)] = pair.field.coerce(1)
    else:
        coords[rng.randrange(len(coords))] -= Fraction(rng.randint(1, 4), 2)
    terms = tuple((t, c) for t, c in enumerate(coeffs) if c)
    ys[side][k] = (nm, HomogeneousElement(el.basis, Grade(coords), coeffs,
                                          pair.field, terms))
    return CompatiblePair(pair.field, pair.n, pair.W1, pair.W2, *ys, pair.e)


def test_induced_presentations_check_the_shifted_reading():
    # the grade pattern of the two induced presentations is the shifted
    # reading of the pair, term by term
    rng = rng_for(905)
    verdicts = {True: 0, False: 0}
    for _ in range(40):
        field, n = rng.choice([F2, F5]), rng.choice([1, 2])
        P = random_presentation(rng, field, n, min_gens=1, min_rels=1)
        Q = random_presentation(rng, field, n, min_gens=1, min_rels=1,
                                name="N")
        e = Fraction(rng.randint(1, 6), 2)
        w = is_interleaved(InterleavingProblem(P, Q, e))
        if w is None:
            continue
        pair, _, _ = compatible_presentations(P, Q, w, e)
        assert _shifted_reading_holds(pair)
        for _ in range(8):
            bent = _mutated(pair, rng)
            holds = _shifted_reading_holds(bent)
            verdicts[holds] += 1
            if holds:
                induced_presentations(bent)
            else:
                with pytest.raises(PatternViolation):
                    induced_presentations(bent)
    assert min(verdicts.values()) >= 20, verdicts


def test_verify_rejects_dropped_relation():
    M, N, w = _offset_pair()
    pair, _, _ = compatible_presentations(M, N, w, Fraction(1))
    pruned = CompatiblePair(pair.field, pair.n, pair.W1, pair.W2,
                            [p for p in pair.Y1 if p[0] != "r1"],
                            list(pair.Y2), pair.e)
    assert not verify_compatible(pruned, M, N)


def test_round_trip_on_random_witnesses():
    rng = rng_for(901)
    done = 0
    for _ in range(30):
        P = random_presentation(rng, F2, 1, min_gens=1, min_rels=1)
        Q = random_presentation(rng, F2, 1, min_gens=1, min_rels=1,
                                name="N")
        e = Fraction(rng.randint(1, 4))
        w = is_interleaved(InterleavingProblem(P, Q, e))
        if w is None:
            continue
        done += 1
        pair, ind_M, ind_N = compatible_presentations(P, Q, w, e)
        # grade bookkeeping
        assert pair.W1 == P.generators and pair.W2 == Q.generators
        y1_grades = sorted(el.grade.coords for _, el in pair.Y1)
        want = sorted([el.grade.coords for el in P.relations]
                      + [(g.coords[0] + e,) for g in Q.generators.grades])
        assert y1_grades == want
        assert verify_compatible(pair, P, Q)
        if done >= 6:
            break
    assert done >= 4


def test_pair_sorted_by_grade():
    M, N, w = _offset_pair()
    pair, _, _ = compatible_presentations(M, N, w, Fraction(1))
    g1 = [el.grade.coords for _, el in pair.Y1]
    assert g1 == sorted(g1)
    g2 = [el.grade.coords for _, el in pair.Y2]
    assert g2 == sorted(g2)
