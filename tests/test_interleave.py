import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from fractions import Fraction

import pmod

from pmod import (RATIONALS, BasisMismatch, BudgetExceeded,
                  DimensionMismatch, FieldMismatch, FieldSpec, Grade,
                  InterleavingProblem, MorphismMatrix, UnsupportedField,
                  apply, box_interval, check_closure,
                  export_quadratic_system, grade_leq, grade_shift,
                  is_interleaved, make_element, minimize, parse, serialize,
                  span_membership)
from pmod.freemod import nullspace
from pmod.interleave import (_Side, _annihilator, _complement,
                             _condition_rows, _patterns, _spanned_at)

from conftest import (F2, F3, F5, brute_system_solvable, local_solve,
                      rand_coeff, rand_grade, random_presentation, rng_for)

M_TEXT = "module M\nfield F5\nparams 1\ngen a @ 0\nrel r1 @ 3 = 1*a\n"
N_TEXT = "module N\nfield F5\nparams 1\ngen b @ 1\nrel s1 @ 3 = 1*b\n"


def _pair(e):
    return InterleavingProblem(parse(M_TEXT), parse(N_TEXT), Fraction(e))


def _entries(mat):
    assert mat.field == F5
    return [list(row) for row in mat.entries]


def constraint_space(prob):
    """Basis of V, the candidate matrices A: <G_M> -> <G_N(e)>: the A
    pattern with condition 1, as the nullspace of the condition-1 rows
    over the free entries of the pattern."""
    lat, field = prob._lat, prob.field
    free = [(i, j) for i, row in enumerate(_patterns(prob)[0])
            for j, ok in enumerate(row) if ok]
    rows = _condition_rows(lat.M, lat.N, prob._k, free)
    basis = []
    for coords in nullspace(rows, len(free), field.p):
        entries = [[field.coerce(0)] * len(prob.P_M.generators)
                   for _ in prob.P_N.generators]
        for (i, j), c in zip(free, coords):
            entries[i][j] = c
        basis.append(MorphismMatrix(prob.P_M.generators,
                                    prob.P_N.generators, entries, prob.e,
                                    field))
    return basis


def _zero(domain, codomain, field, e):
    return MorphismMatrix(domain, codomain,
                          [[field.coerce(0)] * len(domain) for _ in codomain],
                          e, field)


def test_problem_validation():
    M, N = parse(M_TEXT), parse(N_TEXT)
    with pytest.raises(ValueError):
        InterleavingProblem(M, N, Fraction(-1))
    with pytest.raises(ValueError):
        InterleavingProblem(M, N, math.inf)
    N2 = parse(N_TEXT.replace("field F5", "field F2").replace("1*b", "1*b"))
    with pytest.raises(FieldMismatch):
        InterleavingProblem(M, N2, Fraction(1))
    with pytest.raises(DimensionMismatch):
        InterleavingProblem(M, box_interval(F5, [0, 0], []), Fraction(1))


def test_patterns_shift_with_epsilon():
    # at e=1/2 the A pattern is empty (b@1 > a@0 + 1/2), at e=1 it opens
    assert _patterns(_pair(Fraction(1, 2)))[0] == [[False]]
    assert _patterns(_pair(1))[0] == [[True]]
    assert _patterns(_pair(1))[1] == [[True]]  # a@0 <= b@1 + 1
    # E carries the doubled shift: r1@3 <= a@0 + 2e needs e >= 3/2
    assert _patterns(_pair(1))[4] == [[False]]
    assert _patterns(_pair(Fraction(3, 2)))[4] == [[True]]


def test_constraint_space_known_dimensions():
    basis = constraint_space(_pair(1))
    assert len(basis) == 1
    assert _entries(basis[0]) == [[1]]
    assert constraint_space(_pair(Fraction(1, 2))) == []
    # against the zero module the space is zero-dimensional
    Z = parse("module Z\nfield F5\nparams 1\n")
    assert constraint_space(InterleavingProblem(parse(M_TEXT), Z,
                                                Fraction(0))) == []


def test_constraint_space_satisfies_condition_one():
    # over F5, and over Q on the same texts read with "field Q"
    rng = rng_for(701)
    checked = {"F5": 0, "Q": 0}
    for _ in range(20):
        P = random_presentation(rng, F5, 1, min_gens=1)
        Q = random_presentation(rng, F5, 1, min_gens=1, name="N")
        e = Fraction(rng.randint(0, 2))
        over_q = [parse(serialize(X).replace("field F5", "field Q"))
                  for X in (P, Q)]
        for P, Q in ((P, Q), over_q):
            prob = InterleavingProblem(P, Q, e)
            for mat in constraint_space(prob):
                assert mat.field == prob.field
                for w in P.relations:
                    img = apply(mat, w)
                    ok, _ = span_membership(
                        img, [el for el in Q.relations])
                    assert ok
                checked[str(prob.field)] += 1
    assert min(checked.values()) > 5


def test_check_closure_offset_intervals():
    prob = _pair(1)
    A = MorphismMatrix(prob.P_M.generators, prob.P_N.generators,
                       [[1]], Fraction(1), F5)
    B = MorphismMatrix(prob.P_N.generators, prob.P_M.generators,
                       [[1]], Fraction(1), F5)
    assert check_closure(A, B, prob)
    # zero maps fail: -identity is not in the empty span at grade 2
    Az = _zero(prob.P_M.generators, prob.P_N.generators, F5, Fraction(1))
    Bz = _zero(prob.P_N.generators, prob.P_M.generators, F5, Fraction(1))
    assert not check_closure(Az, Bz, prob)
    # the same residues over F2 are another witness, for another problem
    A2 = MorphismMatrix(prob.P_M.generators, prob.P_N.generators,
                        [[1]], Fraction(1), F2)
    B2 = MorphismMatrix(prob.P_N.generators, prob.P_M.generators,
                        [[1]], Fraction(1), F2)
    for pair in ((A2, B2), (A, B2), (A2, B)):
        with pytest.raises(FieldMismatch):
            check_closure(*pair, prob)


def test_check_closure_refuses_a_witness_of_another_type():
    prob = _pair(1)
    G_M, G_N = prob.P_M.generators, prob.P_N.generators
    A = MorphismMatrix(G_M, G_N, [[1]], 1, F5)
    B = MorphismMatrix(G_N, G_M, [[1]], 1, F5)
    # O is M with its generator named c
    G_O = parse("module O\nfield F5\nparams 1\ngen c @ 0\n"
                "rel r1 @ 3 = 1*c\n").generators
    for bad, msg in (((MorphismMatrix(G_O, G_N, [[1]], 1, F5), B), "A does"),
                     ((A, MorphismMatrix(G_N, G_O, [[1]], 1, F5)), "B does"),
                     ((B, A), "A does")):
        with pytest.raises(BasisMismatch, match=msg):
            check_closure(*bad, prob)
    # the same maps at shift 7 round-trip to the identity too, but they
    # are no witness for the problem at e = 1
    A7 = MorphismMatrix(G_M, G_N, [[1]], 7, F5)
    B7 = MorphismMatrix(G_N, G_M, [[1]], 7, F5)
    for bad in ((A7, B7), (A, B7), (A7, B)):
        with pytest.raises(ValueError, match=r"witness shift \(.*\) != 1"):
            check_closure(*bad, prob)


def test_check_closure_box_against_zero():
    box = box_interval(F2, [0, 0], [[2, 0], [0, 2]])
    Z = parse("module Z\nfield F2\nparams 2\n")
    for e, want in ((Fraction(1), True), (Fraction(1, 2), False)):
        prob = InterleavingProblem(box, Z, e)
        A = _zero(box.generators, Z.generators, F2, e)
        B = _zero(Z.generators, box.generators, F2, e)
        assert check_closure(A, B, prob) is want



def _closure_by_columns(A, B, prob):
    """Conditions 3 and 4 one column at a time: each column of BA - I
    (and AB - I) as an element at its generator's grade + 2e, built by
    make_element and tested by span_membership."""
    field, p = prob.field, prob.field.p
    for P, first, second in ((prob.P_M, A, B), (prob.P_N, B, A)):
        for j, g in enumerate(P.generators.grades):
            col = [row[j] for row in first.entries]
            coeffs = [sum(x * y for x, y in zip(row, col)) % p
                      for row in second.entries]
            coeffs[j] = (coeffs[j] - 1) % p
            v = make_element(P.generators, grade_shift(g, 2 * prob.e),
                             coeffs, field)
            if not span_membership(v, P.relations)[0]:
                return False
    return True


def _patterned(rng, domain, codomain, e, field, entry):
    """A MorphismMatrix <domain> -> <codomain(e)> whose free entries are
    entry(rng, i, j) and whose other entries are 0."""
    rows = [[entry(rng, i, j)
             if grade_leq(cg, grade_shift(dg, e)) else 0
             for j, dg in enumerate(domain.grades)]
            for i, cg in enumerate(codomain.grades)]
    return MorphismMatrix(domain, codomain, rows, e, field)


def _flips(rng, X, count):
    """Up to count copies of X with one free entry changed."""
    p, e = X.field.p, X.shift
    free = [(i, j) for i, cg in enumerate(X.codomain.grades)
            for j, dg in enumerate(X.domain.grades)
            if grade_leq(cg, grade_shift(dg, e))]
    out = []
    for i, j in rng.sample(free, min(count, len(free))):
        def entry(rng, a, b):
            x = X.entries[a][b]
            return (x + rng.randrange(1, p)) % p if (a, b) == (i, j) else x
        out.append(_patterned(rng, X.domain, X.codomain, e, X.field, entry))
    return out


def test_check_closure_matches_the_column_by_column_check():
    # search witnesses, copies with one entry flipped inside the pattern
    # and random patterned pairs, over F2, F3 and F5 on one and two
    # parameters; half the pairs have grades on the integers or halves
    # and e = 1/3 or 2/3, where 2e * P.L is no int and rounds down
    rng = rng_for(2525)
    seen = set()
    for trial in range(160):
        field = rng.choice([F2, F3, F5])
        n = rng.choice([1, 2])
        off = trial % 2 == 1
        denom = 1 if off else 4
        P = random_presentation(rng, field, n, 3, 4, 1, 1, denom=denom)
        Q = random_presentation(rng, field, n, 3, 4, 1, 1, name="N",
                                denom=denom)
        if off:
            e = Fraction(rng.choice([1, 2]), 3)
        else:
            e = rng.choice(pmod.candidate_set(P, Q).finite())
        prob = InterleavingProblem(P, Q, e)
        G_M, G_N = P.generators, Q.generators
        pairs = []
        try:
            w = is_interleaved(prob, 2000)
        except BudgetExceeded:
            w = None
        if w is not None:
            pairs.append(("witness", w.A, w.B))
            pairs += [("flip", A, w.B) for A in _flips(rng, w.A, 3)]
            pairs += [("flip", w.A, B) for B in _flips(rng, w.B, 3)]

        def random_entry(rng, i, j):
            return rng.randrange(field.p)
        for _ in range(2):
            pairs.append(("random",
                          _patterned(rng, G_M, G_N, e, field, random_entry),
                          _patterned(rng, G_N, G_M, e, field, random_entry)))
        for kind, A, B in pairs:
            got = check_closure(A, B, prob)
            assert got == _closure_by_columns(A, B, prob), (trial, kind)
            seen.add((off, kind, got))
    for off in (False, True):
        assert {(off, "witness", True), (off, "flip", False),
                (off, "random", False)} <= seen, seen
    assert (False, "flip", True) in seen


def test_check_closure_rounds_twice_e_down_on_the_lattice():
    # [0, 1) against itself at e = 1/3 on integer grades: 2e * P.L is
    # 2/3, so the relation at 1 is not admissible at 0 + 2e and the zero
    # maps fail; at e = 1/2 it is, and they pass
    M = parse("module M\nfield F3\nparams 1\ngen a @ 0\nrel r @ 1 = 1*a\n")
    N = parse("module N\nfield F3\nparams 1\ngen x @ 0\nrel s @ 1 = 1*x\n")
    assert (M.L, N.L) == (1, 1)
    for e, want in ((Fraction(1, 3), False), (Fraction(2, 3), True),
                    (Fraction(1, 2), True)):
        prob = InterleavingProblem(M, N, e)
        A = _zero(M.generators, N.generators, F3, e)
        B = _zero(N.generators, M.generators, F3, e)
        assert check_closure(A, B, prob) is want
        assert _closure_by_columns(A, B, prob) is want
        one = (MorphismMatrix(M.generators, N.generators, [[1]], e, F3),
               MorphismMatrix(N.generators, M.generators, [[1]], e, F3))
        assert check_closure(*one, prob)


def test_spanned_at_rounds_a_shifted_grade_as_the_exact_span_test():
    # _spanned_at(P, at, L, s) against span_membership at the exact
    # grade u / L + s, for u on a lattice L other than P.L and shifts s
    # with denominators 2, 3 and 4 off P's lattice, over F2, F3, F5 and
    # Q on one and two parameters. Each u sits next to a relation grade
    # minus s, so the floor onto P's lattice decides admissibility; each
    # v is a combination of the relations admissible at the exact grade,
    # half of them plus a random vector that obeys the pattern there
    rng = rng_for(2828)
    seen, dens = Counter(), set()
    for trial in range(320):
        field = (F2, F3, F5, RATIONALS)[trial % 4]
        n = 1 + trial // 4 % 2
        P = random_presentation(rng, field, n, 3, 4, 1, 1, denom=2)
        L = rng.choice([k for k in (1, 2, 3, 4, 6) if k != P.L])
        s = rng.choice([Fraction(k, d) for d in (2, 3, 4)
                        for k in range(1, 2 * d)
                        if (Fraction(k, d) * P.L).denominator != 1])
        dens.add(s.denominator)
        at, want = [], []
        for _ in range(3):
            r = rng.choice(P.relations).grade.coords
            u = tuple(math.floor((c - s) * L) + rng.choice((-1, 0, 0, 1))
                      for c in r)
            exact = Grade([Fraction(a, L) + s for a in u])
            v = [field.coerce(0)] * len(P.generators)
            for w in P.relations:
                if grade_leq(w.grade, exact):
                    c = rand_coeff(rng, field)
                    v = [field.coerce(x + c * y) for x, y in zip(v, w.coeffs)]
            if rng.random() < 0.5:
                v = [field.coerce(x + rand_coeff(rng, field))
                     if grade_leq(g, exact) else x
                     for x, g in zip(v, P.generators.grades)]
            el = make_element(P.generators, exact, v, field)
            ok = span_membership(el, list(P.relations))[0]
            assert _spanned_at(P, [(u, v)], L, s) is ok, (trial, u, s)
            off = any((x * P.L).denominator != 1 for x in exact.coords)
            seen[ok, off] += 1
            at.append((u, v))
            want.append(ok)
        assert _spanned_at(P, at, L, s) is all(want), trial
    assert dens == {2, 3, 4}
    assert min(seen[ok, True] for ok in (False, True)) >= 20, seen


def test_is_interleaved_offset_intervals():
    w = is_interleaved(_pair(1))
    assert w is not None
    assert _entries(w.A) == [[1]]
    assert _entries(w.B) == [[1]]
    assert is_interleaved(_pair(Fraction(1, 2))) is None
    assert is_interleaved(_pair(Fraction(3, 2))) is not None


def test_is_interleaved_self_at_zero():
    rng = rng_for(702)
    for field in (F2, F5):
        for _ in range(10):
            P = random_presentation(rng, field, rng.choice([1, 2]))
            w = is_interleaved(InterleavingProblem(P, P, Fraction(0)))
            assert w is not None
            assert check_closure(w.A, w.B,
                                 InterleavingProblem(P, P, Fraction(0)))


def test_is_interleaved_rejects_rationals():
    Q = FieldSpec()
    M = box_interval(Q, [0], [[3]])
    with pytest.raises(UnsupportedField):
        is_interleaved(InterleavingProblem(M, M, Fraction(0)))


def test_budget_and_exception_fields():
    with pytest.raises(BudgetExceeded) as err:
        is_interleaved(_pair(1), budget=1)
    assert err.value.required == 5
    assert err.value.budget == 1
    assert err.value.bracket is None
    assert "5 candidates" in str(err.value)
    # a budget of exactly the required count is enough
    assert is_interleaved(_pair(1), budget=5) is not None


def test_witness_satisfies_all_conditions():
    rng = rng_for(703)
    found = 0
    for _ in range(40):
        P = random_presentation(rng, F2, 1, min_gens=1, min_rels=1)
        Q = random_presentation(rng, F2, 1, min_gens=1, min_rels=1, name="N")
        e = Fraction(rng.randint(2, 5))
        prob = InterleavingProblem(P, Q, e)
        w = is_interleaved(prob)
        if w is None:
            continue
        found += 1
        assert w.A.shift == e and w.B.shift == e
        for rel in P.relations:
            ok, _ = span_membership(apply(w.A, rel), list(Q.relations))
            assert ok
        for rel in Q.relations:
            ok, _ = span_membership(apply(w.B, rel), list(P.relations))
            assert ok
        assert check_closure(w.A, w.B, prob)
    assert found >= 5


def test_is_interleaved_monotone_in_epsilon():
    rng = rng_for(704)
    for _ in range(15):
        P = random_presentation(rng, F2, 1)
        Q = random_presentation(rng, F2, 1, name="N")
        e = Fraction(rng.randint(0, 2))
        if is_interleaved(InterleavingProblem(P, Q, e)) is not None:
            assert is_interleaved(
                InterleavingProblem(P, Q, e + Fraction(1, 2))) is not None


def test_is_interleaved_symmetric_and_minimize_invariant():
    rng = rng_for(705)
    for _ in range(15):
        P = random_presentation(rng, F5, 1)
        Q = random_presentation(rng, F5, 1, name="N")
        e = Fraction(rng.randint(0, 2))
        yes = is_interleaved(InterleavingProblem(P, Q, e)) is not None
        assert (is_interleaved(InterleavingProblem(Q, P, e))
                is not None) == yes
        assert (is_interleaved(
            InterleavingProblem(minimize(P), minimize(Q), e))
            is not None) == yes


def test_export_offset_intervals_exact():
    text = export_quadratic_system(_pair(1))
    assert text == ("field F5\n"
                    "vars 5\n"
                    "eqs 4\n"
                    "1*A_1_1 + 4*C_1_1\n"
                    "1*B_1_1 + 4*D_1_1\n"
                    "1*B_1_1*A_1_1 + 4\n"
                    "1*A_1_1*B_1_1 + 4 + 4*F_1_1\n")


def test_export_empty_problem():
    Z = parse("module Z\nfield F2\nparams 1\n")
    text = export_quadratic_system(InterleavingProblem(Z, Z, Fraction(0)))
    assert text == "field F2\nvars 0\neqs 0\n"


def test_export_solvability_matches_search():
    rng = rng_for(707)
    checked = 0
    while checked < 12:
        P = random_presentation(rng, F2, 1, max_gens=2, max_rels=2)
        Q = random_presentation(rng, F2, 1, max_gens=2, max_rels=2,
                                name="N")
        e = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
        prob = InterleavingProblem(P, Q, e)
        text = export_quadratic_system(prob)
        nvars = int(text.splitlines()[1].split()[1])
        if nvars > 6:
            continue
        checked += 1
        want = is_interleaved(prob) is not None
        assert brute_system_solvable(text, 2) == want, text


def _partner_system(side, other, F):
    """The partner system [S; G(F)] y = [0; c] of candidate F, built
    whole: S is the opposite side's condition-1 rows, and each
    functional of K2 (conditions on Y.F) and of K3 (on F.Y) gives one
    row of G(F), with its own entry as right-hand side."""
    nsrc, ntgt = len(side.src.gens), len(side.tgt.gens)
    rows = _condition_rows(other.src, other.tgt, side.prob._k, other.free)
    rhs = [0] * len(rows)
    for j, ks in enumerate(side.K2):
        for kappa in ks:
            rows.append([kappa[i] * F[t][j] for (i, t) in other.free])
            rhs.append(kappa[j])
    for i, ks in enumerate(side.K3):
        for kappa in ks:
            kF = [sum(kappa[s] * F[s][t] for s in range(ntgt))
                  for t in range(nsrc)]
            rows.append([kF[t] if jj == i else 0 for (t, jj) in other.free])
            rhs.append(kappa[i])
    return rows, rhs


def test_each_row_list_reduced_once(monkeypatch):
    # a side's dim, from its one reduction and the annihilator counts,
    # is len(U) as the complement of two nullspaces gives it, Z here the
    # nullspace of the annihilator rows of each column; one search
    # builds U for its searched side only, makes 3 rref calls, 1
    # _echelon call and 2 _kernel calls (its own V and the partner
    # basis Y) from interleave, and hands no row list to rref twice.
    # A probe whose searched side has dim 0 builds no U and no Y: it
    # reduces the M -> N side's rows, and the N -> M side's only when
    # M -> N has dim > 0
    rng = rng_for(1818)
    searched = 0
    primes = set()
    trivial = Counter()  # dim-0 probes, by whether M -> N has dim 0
    while searched < 30:
        field = rng.choice([F2, F3, F5])
        p = field.p
        P = random_presentation(rng, field, 2, 4, 4, 1, 1)
        Q = random_presentation(rng, field, 2, 4, 4, 1, 1, name="N")
        finite = pmod.candidate_set(P, Q).finite()
        prob = InterleavingProblem(P, Q, rng.choice(finite))
        lat, k = prob._lat, prob._k
        dims = []
        for src, tgt in ((lat.M, lat.N), (lat.N, lat.M)):
            side = _Side(prob, src, tgt)
            free, width = side.free, len(side.free)
            zrows = [[kappa[i] if jj == j else 0 for (i, jj) in free]
                     for j, g in enumerate(src.gens)
                     for kappa in _annihilator(tgt, tuple(x + k for x in g))]
            V = nullspace(_condition_rows(src, tgt, k, free), width, p)
            U = _complement(V, nullspace(zrows, width, p), width, p)
            assert side.dim == len(U)
            dims.append(side.dim)
        with pytest.raises(BudgetExceeded) as exc:
            is_interleaved(prob, 0)
        assert exc.value.required == p ** min(dims)
        if p ** min(dims) > 500:
            continue
        reduced, complements, calls = [], [], Counter()

        def recording(rows, width, p, _rref=pmod.freemod.rref):
            reduced.append(rows)  # held, so no id is reused
            return _rref(rows, width, p)

        def counting(*args, _complement=pmod.interleave._complement):
            complements.append(args)
            return _complement(*args)

        def from_interleave(name, f):
            def call(*args):
                calls[name] += 1
                return f(*args)
            return call

        with monkeypatch.context() as mp:
            mp.setattr(pmod.freemod, "rref", recording)
            mp.setattr(pmod.interleave, "rref",
                       from_interleave("rref", recording))
            mp.setattr(pmod.interleave, "_echelon",
                       from_interleave("_echelon", pmod.freemod._echelon))
            mp.setattr(pmod.interleave, "_complement", counting)
            mp.setattr(pmod.interleave, "_kernel",
                       from_interleave("_kernel", pmod.freemod._kernel))
            is_interleaved(prob)
        assert len({id(rows) for rows in reduced}) == len(reduced)
        if not min(dims):
            assert complements == []
            assert calls == {"rref": 1 if dims[0] == 0 else 2}
            trivial[dims[0] == 0] += 1
            continue
        assert len(complements) == 1
        assert len(_complement(*complements[0])) == min(dims)
        assert calls == {"rref": 3, "_echelon": 1, "_kernel": 2}
        searched += 1
        primes.add(p)
    assert primes == {2, 3, 5}
    assert trivial[True] >= 10 and trivial[False] >= 10, trivial


def _box(rng, field, lower, name):
    """The interval module on a box at lower whose sides are 1/4 to 1
    long, so it dies within 2e for every e >= 1/2."""
    uppers = [[c + Fraction(rng.randint(1, 4), 4) if t == s else c
               for t, c in enumerate(lower)] for s in range(len(lower))]
    return box_interval(field, lower, uppers, name=name)


def test_dimension_zero_probes_match_the_scan():
    # random probes whose searched side has dim 0, from random pairs and
    # from pairs of short boxes 6 apart (2e-trivial for e >= 1/2): the
    # answer and the witness entries are those of the scan run by hand,
    # both sides, pair_with, the first hit and materialize, and the
    # probe still counts 1 against the budget
    rng = rng_for(2626)
    seen = Counter()  # (p, n, answered Yes) -> probes
    n_to_m = 0  # probes whose searched side is N -> M
    while sum(seen.values()) < 300:
        field = rng.choice([F2, F3, F5])
        n = rng.choice([1, 2])
        if rng.random() < 0.3:
            lower = rand_grade(rng, n).coords
            P = _box(rng, field, lower, "M")
            Q = _box(rng, field, [c + 6 for c in lower], "N")
        else:
            P = random_presentation(rng, field, n)
            Q = random_presentation(rng, field, n, name="N")
        e = rng.choice(pmod.candidate_set(P, Q).finite())
        prob = InterleavingProblem(P, Q, e)
        lat = prob._lat
        a, b = _Side(prob, lat.M, lat.N), _Side(prob, lat.N, lat.M)
        if min(a.dim, b.dim):
            continue
        side, other = (a, b) if a.dim <= b.dim else (b, a)
        side.pair_with(other)
        hit = next(side.hits(), None)
        w = is_interleaved(prob)
        if hit is None:
            assert w is None
        else:
            F_mat, Y_mat = side.materialize(*hit[1:])
            A, B = (F_mat, Y_mat) if side is a else (Y_mat, F_mat)
            assert (w.A.entries, w.B.entries) == (A.entries, B.entries)
        with pytest.raises(BudgetExceeded) as exc:
            is_interleaved(prob, 0)
        assert exc.value.required == 1
        seen[field.p, n, w is not None] += 1
        n_to_m += side is b
    assert all(seen[p, n, yes] >= 3 for p in (2, 3, 5) for n in (1, 2)
               for yes in (True, False)), seen
    assert n_to_m >= 10, n_to_m


def _with_extra_relation(rng, P):
    """P with one more relation that adds nothing to any span: a copy of
    one of its relations under a new name, or a zero relation at one of
    its generators' grades; and which of the two it got."""
    lines = serialize(P).splitlines()
    rels = [line for line in lines if line.startswith("rel ")]
    gens = [line for line in lines if line.startswith("gen ")]
    if rels and rng.random() < 0.5:
        kind, extra = "dup", "rel dup @ " + rng.choice(rels).split(" @ ")[1]
    else:
        kind = "zero"
        extra = f"rel z @ {rng.choice(gens).split(' @ ')[1]} = 0"
    return parse("\n".join(lines + [extra]) + "\n"), kind


def _answer(prob):
    w = is_interleaved(prob)
    return None if w is None else (w.A.entries, w.B.entries)


def test_dependent_and_zero_relations_change_no_answer():
    # Z is spanned by each column's admissible relations as written, so
    # a repeated relation repeats a row and a zero relation adds a zero
    # row; span(Z) is the same, and so are the candidate count and the
    # least-index witness, whichever side gets the extra relation
    rng = rng_for(1919)
    seen = Counter()
    for _ in range(90):
        field = rng.choice([F2, F3, F5])
        P = random_presentation(rng, field, 2, 4, 4, 1, 1)
        Q = random_presentation(rng, field, 2, 4, 4, 1, 1, name="N")
        finite = pmod.candidate_set(P, Q).finite()
        e = rng.choice(finite[len(finite) // 3:])  # Yes and No both
        prob = InterleavingProblem(P, Q, e)
        with pytest.raises(BudgetExceeded) as exc:
            is_interleaved(prob, 0)
        required = exc.value.required
        want = _answer(prob) if required <= 500 else None
        for which in (0, 1):
            pair = [P, Q]
            pair[which], kind = _with_extra_relation(rng, pair[which])
            prob2 = InterleavingProblem(*pair, e)
            with pytest.raises(BudgetExceeded) as exc:
                is_interleaved(prob2, 0)
            assert exc.value.required == required
            if required <= 500:
                assert _answer(prob2) == want
                seen[field.p, kind, want is not None] += 1
    assert all(seen[p, kind, True] and seen[p, kind, False]
               for p in (2, 3, 5) for kind in ("dup", "zero")), seen


def test_complement_takes_any_spanning_set():
    # repeated and zero rows of Z give the U of a basis of Z, and a Z
    # outside V is refused however it is spanned
    for V, Z, spanning, width, p in (
            ([[1, 0, 2], [0, 1, 1]], [[1, 1, 0]],
             [[1, 1, 0], [0, 0, 0], [2, 2, 0], [1, 1, 0]], 3, 3),
            ([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]],
             [[0, 1, 0, 1], [1, 1, 1, 0]],
             [[0, 0, 0, 0], [1, 1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1],
              [1, 1, 1, 0]], 4, 2),
            ([[1, 0, 3], [0, 1, 4]], [], [[0, 0, 0], [0, 0, 0]], 3, 5)):
        U = _complement(V, Z, width, p)
        assert _complement(V, spanning, width, p) == U
        assert len(U) == len(V) - len(Z)
    with pytest.raises(AssertionError):
        _complement([[1, 0]], [[1, 1], [0, 0], [1, 1]], 2, 2)


def _as_matrix(side, coords):
    """The tgt x src entry matrix with coords on side's free entries."""
    F = [[0] * len(side.src.gens) for _ in side.tgt.gens]
    for (i, j), c in zip(side.free, coords):
        F[i][j] = c
    return F


def test_partner_kernel_matches_full_solve():
    # every candidate index of random sides, both ways round: the
    # kernel's verdict, F and y against conftest's solve of the whole
    # system, with F decoded here from the index's big-endian digits;
    # some sides have an empty partner basis Y, and some a partner with
    # no free entry at all
    rng = rng_for(909)
    sides = hits = misses = wraps = empty_basis = no_partner = 0
    primes = set()
    while sides < 40:
        field = rng.choice([F2, F2, F3, F5])
        p = field.p
        P = random_presentation(rng, field, 2, 4, 4, 2, 2)
        Q = random_presentation(rng, field, 2, 4, 4, 2, 2, name="N")
        # the upper candidates, where more candidates hit
        finite = pmod.candidate_set(P, Q).finite()
        prob = InterleavingProblem(P, Q, rng.choice(finite[len(finite) // 2:]))
        lat = prob._lat
        pair = [_Side(prob, lat.M, lat.N), _Side(prob, lat.N, lat.M)]
        for side, other in (pair, pair[::-1]):
            m = side.dim
            if p ** m > 400:
                continue
            side.pair_with(other)
            found = {index: (F, y) for index, F, y in side.hits()}
            sides += 1
            primes.add(p)
            wraps += p ** m > p
            empty_basis += not side.Y
            no_partner += not other.free
            for index in range(p ** m):
                digits = [index // p ** (m - 1 - k) % p for k in range(m)]
                coords = [sum(d * u[t] for d, u in zip(digits, side.U)) % p
                          for t in range(len(side.free))]
                F = _as_matrix(side, coords)
                rows, rhs = _partner_system(side, other, F)
                y = local_solve(rows, len(other.free), rhs, p)
                if y is None:
                    misses += 1
                    assert index not in found, (index, digits)
                else:
                    hits += 1
                    assert found.get(index) == (F, y), (index, digits)
            assert len(found) <= p ** m
    assert hits >= 100 and misses >= 200 and wraps >= 10, (hits, misses,
                                                           wraps)
    assert primes == {2, 3, 5}
    assert empty_basis >= 2 and no_partner >= 1, (empty_basis, no_partner)


def test_blocks_match_the_dense_partner_rows():
    # every block H_k of random sides, both ways round, is G(U_k).Y^T:
    # the G rows of the whole partner system at F = U_k, each projected
    # onto the coordinates z of y = z.Y, with the right-hand side column
    # 0 over F_p, and only the rows that are not zero kept, in order
    rng = rng_for(2929)
    blocks = empty_basis = no_partner = 0
    multi = 0  # blocks with two or more entries of U_k that give rows
    seen = set()
    while blocks < 300:
        field = rng.choice([F2, F3, F5])
        p, n = field.p, rng.choice([1, 2])
        P = random_presentation(rng, field, n, 4, 4, 1, 1)
        Q = random_presentation(rng, field, n, 4, 4, 1, 1, name="N")
        finite = pmod.candidate_set(P, Q).finite()
        prob = InterleavingProblem(P, Q, rng.choice(finite))
        lat = prob._lat
        pair = [_Side(prob, lat.M, lat.N), _Side(prob, lat.N, lat.M)]
        for side, other in (pair, pair[::-1]):
            if not side.dim:
                continue
            side.pair_with(other)
            nS = len(_condition_rows(other.src, other.tgt, prob._k,
                                     other.free))
            empty_basis += not side.Y
            no_partner += not other.free
            for k, u in enumerate(side.U):
                rows = _partner_system(side, other, _as_matrix(side, u))[0]
                want = []
                for r, g in enumerate(rows[nS:]):
                    h = [sum(a * b for a, b in zip(g, y)) % p
                         for y in side.Y]
                    if any(h):
                        want.append((r, sum(a << q for q, a in enumerate(h))
                                     if p == 2 else h + [0]))
                assert side._block(k) == want, (k, u)
                givers = 0
                for t, c in enumerate(u):
                    single = [0] * len(u)
                    single[t] = c
                    rows = _partner_system(side, other,
                                           _as_matrix(side, single))[0]
                    givers += any(map(any, rows[nS:]))
                multi += givers >= 2
                blocks += 1
                seen.add((p, n))
    assert seen == {(p, n) for p in (2, 3, 5) for n in (1, 2)}, seen
    assert empty_basis >= 5 and no_partner >= 3, (empty_basis, no_partner)
    assert multi >= 30, multi


# Run under python -O, where assert statements are stripped: every
# certificate check must still refuse a bad answer.
OPTIMIZED_SCRIPT = """
import pmod.interleave
from pmod import (CandidateSet, FieldMismatch, FieldSpec,
                  InterleavingProblem, MorphismMatrix, PersistenceDiagram,
                  check_closure, Interval, is_interleaved, parse)

if __debug__:
    raise SystemExit("not running under python -O")
for bad in ("CandidateSet([1, 2])",
            "PersistenceDiagram([(Interval(0, 1), -1)])"):
    try:
        eval(bad)
    except ValueError:
        pass
    else:
        raise SystemExit(bad + " was accepted")

M = parse("module M\\nfield F5\\nparams 1\\ngen a @ 0\\nrel r1 @ 3 = 1*a\\n")
# the same residues over F2 are no witness for an F5 problem
I2 = MorphismMatrix(M.generators, M.generators, [[1]], 0, FieldSpec(2))
try:
    check_closure(I2, I2, InterleavingProblem(M, M, 0))
except FieldMismatch:
    pass
else:
    raise SystemExit("a witness over another field was checked")
# nor is a witness at another shift
I7 = MorphismMatrix(M.generators, M.generators, [[1]], 7, FieldSpec(5))
try:
    check_closure(I7, I7, InterleavingProblem(M, M, 0))
except ValueError:
    pass
else:
    raise SystemExit("a witness at another shift was checked")

pmod.interleave.check_closure = lambda A, B, prob: False
try:
    w = is_interleaved(InterleavingProblem(M, M, 0))
except AssertionError:
    pass
else:
    raise SystemExit("a witness failing the closure check was returned")

# over F2 both spans have pivot column 0, so only the rank catches that
# the translation space [1, 1] is outside the constraint space [1, 0]
try:
    pmod.interleave._complement([[1, 0]], [[1, 1]], 2, 2)
except AssertionError:
    pass
else:
    raise SystemExit("a translation space outside V was accepted")
print("ok")
"""


def test_certificate_checks_survive_python_O():
    src = str(Path(pmod.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "ok"

