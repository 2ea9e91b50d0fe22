import os
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction

import pmod

from pmod import (BudgetExceeded, DimensionMismatch, FieldMismatch,
                  FieldSpec, InterleavingProblem, MorphismMatrix,
                  UnsupportedField, apply, box_interval, check_closure,
                  constraint_space, export_quadratic_system, grade_shift,
                  is_interleaved, minimize, parse, serialize,
                  span_membership, zero_matrix)

from conftest import (F2, F5, brute_system_solvable, random_presentation,
                      rng_for)

M_TEXT = "module M\nfield F5\nparams 1\ngen a @ 0\nrel r1 @ 3 = 1*a\n"
N_TEXT = "module N\nfield F5\nparams 1\ngen b @ 1\nrel s1 @ 3 = 1*b\n"


def _pair(e):
    return InterleavingProblem(parse(M_TEXT), parse(N_TEXT), Fraction(e))


def _entries(mat):
    return [[c.value for c in row] for row in mat.entries]


def test_problem_validation():
    M, N = parse(M_TEXT), parse(N_TEXT)
    with pytest.raises(ValueError):
        InterleavingProblem(M, N, Fraction(-1))
    N2 = parse(N_TEXT.replace("field F5", "field F2").replace("1*b", "1*b"))
    with pytest.raises(FieldMismatch):
        InterleavingProblem(M, N2, Fraction(1))
    with pytest.raises(DimensionMismatch):
        InterleavingProblem(M, box_interval(F5, [0, 0], []), Fraction(1))
    with pytest.raises(ValueError):
        _pair(1).sides("sideways")


def test_patterns_shift_with_epsilon():
    # at e=1/2 the A pattern is empty (b@1 > a@0 + 1/2), at e=1 it opens
    assert _pair(Fraction(1, 2)).pat_A == [[False]]
    assert _pair(1).pat_A == [[True]]
    assert _pair(1).pat_B == [[True]]  # a@0 <= b@1 + 1
    # E carries the doubled shift: r1@3 <= a@0 + 2e needs e >= 3/2
    assert _pair(1).pat_E == [[False]]
    assert _pair(Fraction(3, 2)).pat_E == [[True]]


def test_constraint_space_known_dimensions():
    basis = constraint_space(_pair(1), "M->N")
    assert len(basis) == 1
    assert _entries(basis[0]) == [[1]]
    assert constraint_space(_pair(Fraction(1, 2)), "M->N") == []
    # against the zero module the space is zero-dimensional
    Z = parse("module Z\nfield F5\nparams 1\n")
    assert constraint_space(InterleavingProblem(parse(M_TEXT), Z,
                                                Fraction(0)), "M->N") == []


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
            for mat in constraint_space(prob, "M->N"):
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
                       [[F5.one()]], Fraction(1), F5)
    B = MorphismMatrix(prob.P_N.generators, prob.P_M.generators,
                       [[F5.one()]], Fraction(1), F5)
    assert check_closure(A, B, prob)
    # zero maps fail: -identity is not in the empty span at grade 2
    Az = zero_matrix(prob.P_M.generators, prob.P_N.generators, F5,
                     Fraction(1))
    Bz = zero_matrix(prob.P_N.generators, prob.P_M.generators, F5,
                     Fraction(1))
    assert not check_closure(Az, Bz, prob)


def test_check_closure_box_against_zero():
    box = box_interval(F2, [0, 0], [[2, 0], [0, 2]])
    Z = parse("module Z\nfield F2\nparams 2\n")
    for e, want in ((Fraction(1), True), (Fraction(1, 2), False)):
        prob = InterleavingProblem(box, Z, e)
        A = zero_matrix(box.generators, Z.generators, F2, e)
        B = zero_matrix(Z.generators, box.generators, F2, e)
        assert check_closure(A, B, prob) is want


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


# Run under python -O, where assert statements are stripped: every
# certificate check must still refuse a bad answer.
OPTIMIZED_SCRIPT = """
import pmod.interleave
from pmod import (CandidateSet, CriticalGrades, InterleavingProblem,
                  Multibijection, PersistenceDiagram, diagram_of, Interval,
                  is_interleaved, matching_feasible, parse)

if __debug__:
    raise SystemExit("not running under python -O")
for bad in ("CandidateSet([1, 2])",
            "PersistenceDiagram([(Interval(0, 1), -1)])",
            "CriticalGrades([[2, 1, 1]])"):
    try:
        eval(bad)
    except ValueError:
        pass
    else:
        raise SystemExit(bad + " was accepted")

M = parse("module M\\nfield F5\\nparams 1\\ngen a @ 0\\nrel r1 @ 3 = 1*a\\n")
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

Multibijection.check_against = lambda self, D1, D2: False
D = diagram_of([Interval(0, 1)])
try:
    matching_feasible(D, D, 0)
except AssertionError:
    pass
else:
    raise SystemExit("a matching failing its check was returned")
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


def test_witness_shares_one_scalar_per_residue():
    # callers keep witnesses (a distance matrix keeps hundreds), so the
    # matrices share Scalar objects rather than hold one per entry
    rng = rng_for(240)
    entries = 0
    while entries < 8:
        P = random_presentation(rng, F5, 2, min_gens=2, name="M")
        Q = random_presentation(rng, F5, 2, min_gens=2, name="N")
        w = is_interleaved(InterleavingProblem(P, Q, 2))
        if w is None:
            continue
        values = [x for mat in (w.A, w.B) for row in mat.entries for x in row]
        entries = len(values)
        assert len({id(x) for x in values}) == len({x.value for x in values})
