import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pmod import (DimensionMismatch, FieldMismatch, Grade,
                  GradeOrderViolation, GradedSet, Interval, ParseError,
                  PatternViolation, Presentation, barcode, box_interval,
                  critical_grades, diagram_of, make_element, minimize, parse,
                  relation_matrix, restrict_diagonal, serialize,
                  shift_presentation)

from conftest import (F2, F5, inject_redundancy, local_rank_mod_p,
                      rand_grade, random_presentation, rng_for)
from pmod.cli import INPUT_ERRORS

PAIR_M = """module M
field F5
params 1
gen a @ 0
rel r1 @ 3 = 1*a
"""

TWO_PARAM = """module X
field F2
params 2
gen a @ (0, 0)
gen b @ (1, 0)
rel r1 @ (2, 1) = 1*a + 1*b
rel r2 @ (3, 0) = 1*b
"""


def test_parse_basic():
    P = parse(PAIR_M)
    assert P.name == "M"
    assert P.field == F5
    assert P.n == 1
    assert P.generators.names == ("a",)
    assert P.generators.grades == (Grade([0]),)
    assert P.rel_names == ("r1",)
    assert P.relations[0].grade == Grade([3])
    assert P.relations[0].coeffs == (F5.one(),)


def test_parse_two_params_and_comments():
    text = TWO_PARAM.replace("gen a @ (0, 0)",
                             "gen a @ (0, 0)  # birth of a\n# a full-line comment")
    P = parse(text)
    assert P.n == 2
    assert P.generators.names == ("a", "b")
    assert len(P.relations) == 2
    # relations are stored sorted by grade
    assert P.relations[0].grade == Grade([2, 1])


def test_parse_zero_relation():
    P = parse("module Z\nfield F2\nparams 1\ngen a @ 0\nrel r1 @ 2 = 0\n")
    assert P.relations[0].is_zero()


def test_round_trip_examples():
    for text in (PAIR_M, TWO_PARAM):
        P = parse(text)
        assert serialize(P) == text
        assert parse(serialize(P)) == P


def test_rel_lines_may_precede_gen_lines():
    # collection is two-phase, so forward references are fine
    P = parse("module M\nfield F2\nparams 1\nrel r @ 1 = 1*a\ngen a @ 0\n")
    assert P.rel_names == ("r",)


def test_parse_shares_grades_and_names():
    # callers keep many parsed modules alive through their witnesses, so
    # equal grades and generator names are one object each
    P, Q = parse(TWO_PARAM), parse(TWO_PARAM.replace("module X", "module Y"))
    assert P.generators == Q.generators
    for a, b in zip(P.generators.grades, Q.generators.grades):
        assert a is b
    for a, b in zip(P.generators.names, Q.generators.names):
        assert a is b


def test_round_trip_random():
    rng = rng_for(501)
    for field in (F2, F5):
        for n in (1, 2):
            for _ in range(25):
                P = random_presentation(rng, field, n)
                assert parse(serialize(P)) == P


def test_parse_errors_carry_line_numbers():
    cases = [
        ("", 1, "module"),
        ("module M\nparams 1\n", 2, "field"),
        ("module M\nfield F4\nparams 1\n", 2, "prime"),
        ("module M\nfield F2\nparams 0\n", 3, "params"),
        ("module M\nfield F2\nparams 1\ngen a @ 0\ngen a @ 1\n", 5, "duplicate"),
        ("module M\nfield F2\nparams 1\ngen a @ (0, 0)\n", 4, None),
        ("module M\nfield F2\nparams 1\ngen a @ 0\nrel r @ 1 = 1*z\n", 5, "unknown"),
        ("module M\nfield F2\nparams 1\ngen a @ 0\nrel r @ 1 = a\n", 5, None),
        ("module M\nfield F2\nparams 1\ngen a @ 0\nrel r @ 1 = q*a\n", 5, None),
        ("module M\nfield F2\nparams 1\ngen a @ 0\nwat\n", 5, None),
        ("module M\nfield F2\nparams 1\ngen a @ 0\nrel r = 1*a @ 1\n", 5,
         "expected 'rel"),
        ("module M\nfield F2\nparams 1\ngen a @ x\n", 4, None),
        # integers are ASCII decimals: no digit-group underscores and no
        # other scripts' digits, which int() alone would accept
        ("module M\nfield F\u0661\u0661\nparams 1\n", 2, "integer"),
        ("module M\nfield F2\nparams 1_0\n", 3, "params"),
        ("module M\nfield F5\nparams 1\ngen a @ \u0663/4\n", 4,
         "bad rational"),
        ("module M\nfield F11\nparams 1\ngen a @ 0\nrel r @ 1 = 1_2*a\n",
         5, "bad scalar"),
        ("module M\nfield F2\nparams 1\ngen a @ 0\n"
         "rel r @ 1 = 1*a\nrel r @ 2 = 1*a\n", 6, "duplicate"),
    ]
    for text, line, frag in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        if line is not None:
            assert err.value.line == line, text
        if frag is not None:
            assert frag in str(err.value)


Q_TWO_PARAM = """module Y  # over Q
field Q
params 2
gen a @ (0, 1/2)
gen b @ (1, -1)
rel r1 @ (1, 1/2) = -1/2*a + 3*b
rel r2 @ (2, 2) = 0
"""

# pieces a mutation inserts or swaps in: the format's own keywords and
# punctuation, literals the grammar treats specially, and stray bytes
_PIECES = st.one_of(
    st.sampled_from(["module", "field", "params", "gen", "rel", "@", "=",
                     "*", "+", "/", "(", ")", ",", "#", "0", "1", "-1",
                     "1/0", "F2", "F4", "Q", "a", "r1", "\n", " "]),
    st.text("0123456789abrFQ@=*+/(),#-_ \t\n\x00\u00e9", min_size=1,
            max_size=3))
_EDITS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]),
              st.sampled_from(["char", "token"]),
              st.integers(0, 10 ** 4), st.integers(1, 3), _PIECES),
    min_size=1, max_size=3)


def _mutate(text, edits):
    """Apply (kind, unit, position, width, piece) edits to text.

    A char edit works on the characters of the text; a token edit on
    its whitespace-separated tokens (the whitespace runs kept as tokens
    of their own, so deleting one can join two lines).
    """
    for kind, unit, pos, width, piece in edits:
        seq = list(text) if unit == "char" else re.split(r"(\s+)", text)
        pos %= len(seq) + 1
        if kind == "insert":
            seq[pos:pos] = [piece]
        elif kind == "delete":
            del seq[pos:pos + width]
        else:
            seq[pos:pos + width] = [piece]
        text = "".join(seq)
    return text


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([PAIR_M, TWO_PARAM, Q_TWO_PARAM]), _EDITS)
def test_parse_fuzz_mutated_texts(text, edits):
    """Parsing a mutated module either fails with an input error, which
    the CLI reports with exit code 2, or gives a presentation that
    survives a serialize round trip."""
    try:
        P = parse(_mutate(text, edits))
    except INPUT_ERRORS:
        return
    assert parse(serialize(P)) == P


def test_parse_pattern_violation_escapes():
    # a relation below its generator's grade is a pattern error, not a
    # parse error
    text = "module M\nfield F2\nparams 1\ngen a @ 2\nrel r @ 1 = 1*a\n"
    with pytest.raises(PatternViolation):
        parse(text)


def test_relation_matrix_shape():
    P = parse(TWO_PARAM)
    T = relation_matrix(P)
    assert len(T) == 2 and len(T[0]) == 2
    # column j is relation j over the generators
    assert [T[i][0] for i in range(2)] == list(P.relations[0].coeffs)


def test_minimize_unit_pivot():
    # <a@0, b@0 | a - b @ 0, a @ 3> collapses to <a | a@3>
    text = ("module M\nfield F5\nparams 1\n"
            "gen a @ 0\ngen b @ 0\n"
            "rel r1 @ 0 = 1*a + 4*b\nrel r2 @ 3 = 1*a\n")
    Q = minimize(parse(text))
    assert len(Q.generators) == 1
    assert len(Q.relations) == 1
    assert Q.generators.grades == (Grade([0]),)
    assert Q.relations[0].grade == Grade([3])


def test_minimize_redundant_relation():
    text = ("module M\nfield F5\nparams 1\n"
            "gen a @ 0\n"
            "rel r1 @ 3 = 1*a\nrel r2 @ 3 = 2*a\nrel r3 @ 4 = 1*a\n")
    Q = minimize(parse(text))
    # r2 is a multiple of r1; r3 is r1 pushed up, in its span at grade 4
    assert len(Q.relations) == 1
    assert Q.relations[0].grade == Grade([3])


def test_minimize_keeps_minimal_fixed():
    for text in (PAIR_M, TWO_PARAM):
        P = parse(text)
        Q = minimize(P)
        assert minimize(Q) == Q


def test_minimize_idempotent_random():
    rng = rng_for(502)
    for field in (F2, F5):
        for _ in range(20):
            P = random_presentation(rng, field, rng.choice([1, 2]))
            Q = minimize(P)
            assert minimize(Q) == Q


def _grade_multisets(P):
    return (sorted(g.coords for g in P.generators.grades),
            sorted(el.grade.coords for el in P.relations))


def test_minimize_invariant_under_redundancy():
    rng = rng_for(503)
    for _ in range(15):
        P = random_presentation(rng, F5, rng.choice([1, 2]), min_gens=1)
        base = _grade_multisets(minimize(P))
        Q = P
        for t in range(rng.randint(1, 3)):
            Q = inject_redundancy(rng, Q, t + 1)
        assert _grade_multisets(minimize(Q)) == base


def test_critical_grades():
    assert critical_grades(parse(PAIR_M)).axes == ((Fraction(0), Fraction(3)),)
    P = parse(TWO_PARAM)
    cg = critical_grades(P)
    assert cg.axes == ((Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
                       (Fraction(0), Fraction(1)))
    zero = Presentation(F2, 1, GradedSet([]), [])
    assert critical_grades(zero).axes == ((),)


def test_shift_presentation():
    P = parse("module M\nfield F2\nparams 1\ngen a @ 0\n")
    up = shift_presentation(P, Fraction(1), -1)
    assert up.generators.grades == (Grade([1]),)
    down = shift_presentation(P, Fraction(1), 1)
    assert down.generators.grades == (Grade([-1]),)
    # round trip
    Q = parse(TWO_PARAM)
    assert shift_presentation(shift_presentation(Q, Fraction(1, 2), 1),
                              Fraction(1, 2), -1) == Q
    with pytest.raises(ValueError):
        shift_presentation(P, Fraction(1), 0)
    with pytest.raises(ValueError):
        shift_presentation(P, Fraction(-1), 1)


def test_restrict_diagonal_box():
    box = box_interval(F2, [0, 0], [[2, 0], [0, 2]])
    # through the corner: t in [0, 2) stays inside the box
    assert barcode(restrict_diagonal(box, [0, 0])) == \
        diagram_of([Interval(0, 2)])
    # the line through (0, 1) leaves the box through its top side at t = 1
    line = restrict_diagonal(box, [0, 1])
    assert line.n == 1 and line.field == F2
    assert barcode(line) == diagram_of([Interval(0, 1)])
    with pytest.raises(DimensionMismatch):
        restrict_diagonal(box, [0])


def _dim_at_point(P, point):
    """dim of the presented module at a point, counted directly."""
    def below(g):
        return all(a <= b for a, b in zip(g.coords, point))
    alive = [i for i, g in enumerate(P.generators.grades) if below(g)]
    rows = [[el.coeffs[i].value for i in alive]
            for el in P.relations if below(el.grade)]
    return len(alive) - local_rank_mod_p(rows, len(alive), P.field.p)


def test_restrict_diagonal_pointwise_dimension():
    """The restriction's bars count dim M at x + t(1, ..., 1), read off
    the n-parameter presentation itself."""
    rng = rng_for(231)
    for n in (2, 3):
        for _ in range(25):
            P = random_presentation(rng, rng.choice((F2, F5)), n)
            x = rand_grade(rng, n)
            D = barcode(restrict_diagonal(P, x))
            grades = [*P.generators.grades,
                      *(el.grade for el in P.relations)]
            ts = {max(a - b for a, b in zip(u.coords, x.coords))
                  for u in grades}
            samples = {t + dt for t in ts
                       for dt in (Fraction(-1, 8), 0, Fraction(1, 8))}
            for t in samples:
                point = [c + t for c in x.coords]
                bars = sum(m for iv, m in D.pairs()
                           if iv.birth <= t < iv.death)
                assert bars == _dim_at_point(P, point)


def test_box_interval():
    B = box_interval(F5, [Fraction(0)], [[Fraction(3)]])
    assert B == parse(PAIR_M)
    B2 = box_interval(F2, [0, 0], [[2, 0], [0, 2]])
    assert B2.n == 2
    assert len(B2.relations) == 2
    assert B2.relations[0].grade == Grade([0, 2])
    free = box_interval(F2, [1], [])
    assert len(free.relations) == 0
    with pytest.raises(GradeOrderViolation):
        box_interval(F2, [1, 1], [[0, 2]])


def test_presentation_field_checks():
    gens = GradedSet([("a", Grade([0]))])
    el = make_element(gens, Grade([1]), [F2.one()], F2)
    with pytest.raises(FieldMismatch):
        Presentation(F5, 1, gens, [("r", el)])
    with pytest.raises(ValueError):
        Presentation(F2, 1, gens, [("r", el), ("r", el)])
