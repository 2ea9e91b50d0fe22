import gc
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pmod import (INF, RATIONALS, BasisMismatch, FieldMismatch, FieldSpec,
                  Grade, GradeOrderViolation, GradedSet, HomogeneousElement,
                  Interval, InterleavingProblem, ParseError,
                  PatternViolation, Presentation, apply, barcode,
                  box_interval, compatible_presentations, diagram_of,
                  grade_leq, induced_presentations, is_interleaved,
                  make_element, minimize, parse, serialize, span_membership)
from pmod.presentation import _grade_of_text

from conftest import (F2, F3, F5, inject_redundancy, local_rank,
                      rand_coeff, rand_grade, random_presentation,
                      restrict_diagonal, rng_for)
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
    assert P.relations[0].coeffs == (1,)
    assert P.relations[0].field == F5


def test_parse_two_params_and_comments():
    text = TWO_PARAM.replace("gen a @ (0, 0)",
                             "gen a @ (0, 0)  # birth of a\n# a full-line comment")
    P = parse(text)
    assert P.n == 2
    assert P.generators.names == ("a", "b")
    assert len(P.relations) == 2
    # relations are stored sorted by grade
    assert P.relations[0].grade == Grade([2, 1])


def test_relations_sorted_stably_by_grade():
    # mixed denominators, negative coordinates, and equal grades written
    # differently (2/6 and 1/3), in the order of a stable sort on the
    # Fraction coordinates
    rng = rng_for(313)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        rels = []
        for k in range(rng.randint(0, 12)):
            coords = []
            for _ in range(n):
                num, den = rng.randint(-6, 6), rng.randint(1, 6)
                coords.append((Fraction(num, den), f"{2 * num}/{2 * den}"
                               if rng.random() < 0.3 else f"{num}/{den}"))
            rels.append((f"r{k}", tuple(c for c, _ in coords),
                         "(" + ", ".join(t for _, t in coords) + ")"))
        text = f"module M\nfield F2\nparams {n}\n" + "".join(
            f"rel {name} @ {grade} = 0\n" for name, _, grade in rels)
        want = [name for name, _, _ in sorted(rels, key=lambda r: r[1])]
        assert list(parse(text).rel_names) == want


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
    # a grade text gives one Grade object, and generator names are
    # interned
    P, Q = parse(TWO_PARAM), parse(TWO_PARAM.replace("module X", "module Y"))
    assert P.generators == Q.generators
    for a, b in zip(P.generators.grades, Q.generators.grades):
        assert a is b
    for a, b in zip(P.generators.names, Q.generators.names):
        assert a is b is sys.intern(a)
    # one grade written two ways is two texts and two equal Grades
    R, S = (parse(f"module R\nfield F2\nparams 2\ngen a @ {g}\n")
            for g in ("(1/2, 0)", "(2/4, 0/3)"))
    assert R.generators.grades[0] == S.generators.grades[0]
    assert R.generators == S.generators


def test_grade_texts_are_parsed_once_per_process():
    # grades lie on a grid, so their texts repeat across modules: one
    # table, kept between parse calls, maps each text to its Grade
    def first_grade(params, grade):
        return parse(f"module M\nfield F2\nparams {params}\n"
                     f"gen a @ {grade}\n").generators.grades[0]

    before = _grade_of_text.cache_info()
    g = first_grade(1, "98765/4321")
    # kept between calls even when no module holds it
    gc.collect()
    assert first_grade(1, "98765/4321") is g
    after = _grade_of_text.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    # keyed by text, so two texts of one grade give two equal Grades
    assert first_grade(1, "1/2") == first_grade(1, "2/4")
    assert first_grade(2, "(1, 2)") == Grade([1, 2])
    # the table is keyed by the number of parameters too
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse("module M\nfield F2\nparams 1\ngen b @ 0\n"
                  "gen a @ (1, 2)\n")
        assert err.value.line == 5
        assert "expected 1" in str(err.value)
    # a bad text is not remembered: it fails the same way each time
    bad = "module M\nfield F2\nparams 1\ngen a @ 0\nrel r @ 1/0 = 1*a\n"
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse(bad)
        errors.append((err.value.line, str(err.value)))
    assert errors[0] == errors[1] == (5, errors[0][1])
    assert "bad rational" in errors[0][1]
    # the table is bounded
    assert 0 < _grade_of_text.cache_info().maxsize < 10 ** 5


def _written_terms(rng, field, gens, rel):
    """rel's right-hand side as text, rewritten at random: its terms
    shuffled and some split in two, cancelling pairs added on any
    generator, and in one relation of four, nonzero terms added on up to
    two generators above rel's grade, which break the grade pattern.
    Returns the text and the dense coefficients it sums to."""
    names, p = gens.names, field.p

    def literal():
        if field.is_rationals:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randint(-p, 2 * p - 1)

    terms = []
    for j, c in enumerate(rel.coeffs):
        if c:
            if rng.random() < 0.3:
                x = literal()
                terms += [(x, j), (c - x, j)]
            else:
                terms.append((c, j))
    for _ in range(rng.randint(0, 2)):
        j, x = rng.randrange(len(names)), literal()
        terms += [(x, j), (-x, j)]
    above = [j for j, g in enumerate(gens.grades)
             if not grade_leq(g, rel.grade)]
    if above and rng.random() < 0.25:
        for j in rng.sample(above, min(2, len(above))):
            terms.append((rand_coeff(rng, field) or 1, j))
    rng.shuffle(terms)
    dense = [0] * len(names)
    for x, j in terms:
        dense[j] += x
    text = " + ".join(f"{x}*{names[j]}" for x, j in terms) or "0"
    return text, [field.coerce(x) for x in dense]


def _nonzero(coeffs):
    """The (position, value) pairs of the nonzero coefficients."""
    return tuple((j, c) for j, c in enumerate(coeffs) if c)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([RATIONALS, F3, F5]),
       st.integers(1, 3))
def test_parse_relations_match_make_element(seed, field, n):
    """parse tests each relation's pattern on its written terms, on the
    int lattice of the text's grades (denominators 1 to 8 here, mixed
    within a grade); it must build the element, or raise the
    PatternViolation with the message, that make_element gives on the
    same dense coefficients, and each element's terms must be its
    nonzero coefficients."""
    rng = rng_for(seed)
    P = random_presentation(rng, field, n, max_gens=4, max_rels=4,
                            min_gens=1, denom=8)
    lines = serialize(P).splitlines()[:3 + len(P.generators)]
    expected = []  # (name, element or PatternViolation message), text order
    for name, rel in P.rel_pairs():
        text, dense = _written_terms(rng, field, P.generators, rel)
        lines.append(f"rel {name} @ {rel.grade} = {text}")
        try:
            expected.append(
                (name, make_element(P.generators, rel.grade, dense, field)))
        except PatternViolation as exc:
            expected.append((name, str(exc)))
    text = "\n".join(lines) + "\n"
    failures = [e for _, e in expected if isinstance(e, str)]
    if failures:
        with pytest.raises(PatternViolation) as err:
            parse(text)
        assert str(err.value) == failures[0]
        return
    Q = parse(text)
    want = dict(expected)
    assert Q.generators == P.generators
    assert dict(Q.rel_pairs()) == want
    for name, el in Q.rel_pairs():
        assert [type(c) for c in el.coeffs] == \
            [type(c) for c in want[name].coeffs]
        assert el.terms == _nonzero(el.coeffs) == want[name].terms


# module texts whose relations repeat generators, with terms that
# cancel, and the dense coefficients each relation sums to
SUMMED_TERMS = [
    ("""module T
field F3
params 1
gen a @ 0
gen b @ 1/2
gen c @ 1
rel r1 @ 2 = 2*a + 1*a + 1*b
rel r2 @ 1 = 1*c + 2*a + 1*c + 2*c
rel r3 @ 3/2 = 1*b + 2*b
rel r4 @ 2 = 0
""", {"r1": [0, 1, 0], "r2": [2, 0, 1], "r3": [0, 0, 0], "r4": [0, 0, 0]}),
    ("""module T
field Q
params 1
gen a @ 1/3
gen b @ 7/3
gen c @ 1/2
rel r1 @ 3 = 1/2*b + 1*a + -1/2*b
rel r2 @ 11/8 = 2/3*c + -1*a + 1/3*c
rel r3 @ 4 = 1/2*a + -2/4*a
""", {"r1": [1, 0, 0], "r2": [-1, 0, 1], "r3": [0, 0, 0]}),
]


def test_element_terms_agree_with_coeffs():
    """Whichever operation builds an element (parse, make_element,
    apply, minimize, compatible_presentations), its terms are its
    nonzero coefficients in position order. A parsed element builds its
    coefficient tuple from its terms on first read, and keeps it; it is
    the tuple make_element keeps for the same dense vector."""
    def agree(elements):
        for el in elements:
            assert el.terms == _nonzero(el.coeffs)
            assert el.is_zero() == (not any(el.coeffs))

    for text, dense in SUMMED_TERMS:
        P = parse(text)
        barcode(P)
        # neither parse nor barcode reads the dense coefficients
        assert all(el._coeffs is None for el in P.relations)
        for name, el in P.rel_pairs():
            coeffs = [P.field.coerce(c) for c in dense[name]]
            ref = make_element(P.generators, el.grade, coeffs, P.field)
            first = el.coeffs
            assert type(first) is tuple and first == ref.coeffs
            assert [type(c) for c in first] == [type(c) for c in ref.coeffs]
            assert el.coeffs is first
            assert el == ref and hash(el) == hash(ref)
            agree([el])

    rng = rng_for(1903)
    B = GradedSet([("a", Grade([0])), ("b", Grade([1])), ("c", Grade([2]))])
    for field in (RATIONALS, F5):
        for _ in range(20):
            coeffs = [rand_coeff(rng, field) if rng.random() < 0.6
                      else field.coerce(0) for _ in range(len(B))]
            agree([make_element(B, Grade([2]), coeffs, field)])
        agree(minimize(random_presentation(rng, field, 2, max_gens=4,
                                           max_rels=4)).relations)
    done = 0
    for trial in range(40):
        field = (F2, F3)[trial % 2]
        P = random_presentation(rng, field, 1, min_gens=1, min_rels=1)
        Q = random_presentation(rng, field, 1, min_gens=1, min_rels=1,
                                name="N")
        agree(minimize(inject_redundancy(rng, P, 1)).relations)
        e = Fraction(rng.randint(1, 4))
        w = is_interleaved(InterleavingProblem(P, Q, e))
        if w is None:
            continue
        done += 1
        agree(apply(w.A, el) for el in P.relations)
        agree(apply(w.B, el) for el in Q.relations)
        pair, ind_M, ind_N = compatible_presentations(P, Q, w, e)
        agree(el for _, el in (*pair.Y1, *pair.Y2))
        agree((*ind_M.relations, *ind_N.relations))
    assert done >= 5


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
        ("module M\nfield F2\nparams 1\ngen @ 0\n", 4, "bad generator name"),
        ("module M\nfield F2\nparams 1\ngen a b @ 0\n", 4,
         "bad generator name"),
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


def test_parse_pattern_violation_names_the_first_generator():
    # c and b both sit above the relation grade; the message names b,
    # the first of them in generator order
    for text, message in (
            ("module M\nfield F2\nparams 1\ngen a @ 0\ngen b @ 2\n"
             "gen c @ 3\nrel r @ 1 = 1*c + 1*b + 1*a\n",
             "coefficient on b@2 in an element at grade 1"),
            ("module M\nfield Q\nparams 2\ngen a @ (0, 0)\n"
             "gen b @ (2, 0)\ngen c @ (0, 3/2)\n"
             "rel r @ (1, 1) = 1/2*c + -1*b + 1*a\n",
             "coefficient on b@(2, 0) in an element at grade (1, 1)")):
        with pytest.raises(PatternViolation) as info:
            parse(text)
        assert str(info.value) == message


def test_syntax_is_read_before_the_grade_patterns():
    # r breaks the pattern, but a syntax error on a later relation line
    # is the error reported, with its line
    head = "module M\nfield F5\nparams 1\ngen a @ 2\nrel r @ 1 = 1*a\n"
    with pytest.raises(PatternViolation):
        parse(head)
    for tail, message in (
            ("rel s @ 3 = 1*zz\n", "unknown generator 'zz' in relation 's'"),
            ("rel s @ 3 = q*a\n", "bad scalar literal for F5: 'q'"),
            ("rel r @ 3 = 1*a\n", "duplicate relation 'r'"),
            ("rel s @ 3 = a\n", "expected '<coeff>*<gen>' in term 'a'")):
        with pytest.raises(ParseError) as err:
            parse(head + tail)
        assert str(err.value) == f"line 6, column 1: {message}"


@pytest.mark.parametrize("field, terms", [
    ("Q", "1*a + 1*b + -1*b"),
    ("Q", "1/2*b + 1*a + -1/2*b"),
    ("Q", "1*b + -1*b"),
    ("F3", "1*b + 1*a + 2*b"),
    ("F3", "1*b + -1*b + 1*a + 0*b"),
    ("F3", "1*b + 2*b"),
    ("Q", "0*b + 1*a"),
    ("F3", "1*a + 3*b"),
])
def test_parse_cancelled_terms_above_the_grade(field, terms):
    # the terms on b sum to 0, so b's grade (above the relation's) puts
    # no constraint on the relation: parse builds what make_element
    # builds from the dense coefficients
    on_a = 1 if "*a" in terms else 0
    P = parse(f"module M\nfield {field}\nparams 1\ngen a @ 0\n"
              f"gen b @ 5\nrel r @ 1 = {terms}\n")
    (rel,) = P.relations
    assert rel.coeffs == (on_a, 0)
    assert [type(c) for c in rel.coeffs] == \
        [Fraction if field == "Q" else int] * 2
    dense = [P.field.coerce(on_a), P.field.coerce(0)]
    assert rel == make_element(P.generators, Grade([1]), dense, P.field)
    death_of_a = 1 if on_a else INF
    assert barcode(P) == diagram_of([Interval(0, death_of_a),
                                     Interval(5, INF)])


def test_relation_matrix_shape():
    # the presentation matrix is |G| x |R|: column j holds relation j's
    # raw coefficients, in generator order
    def matrix(P):
        return [[el.coeffs[i] for el in P.relations]
                for i in range(len(P.generators))]
    assert matrix(parse(TWO_PARAM)) == [[1, 0], [1, 1]]
    T = matrix(parse(Q_TWO_PARAM))
    assert T == [[Fraction(-1, 2), 0], [3, 0]]
    assert all(type(x) is Fraction for row in T for x in row)


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


def _unit_pivots_by_restart_scan(P):
    """P after minimize's step 1 as a scan that restarts from the first
    relation after each elimination: the first relation, in stored
    order, with a nonzero coefficient on a generator of its own grade
    (the first such generator) is solved for that generator, by direct
    row operations, and both are deleted."""
    field, p = P.field, P.field.p
    gen_items = list(P.generators)
    rels = [[nm, el.grade, list(el.coeffs)] for nm, el in P.rel_pairs()]
    while True:
        found = next(((ri, gi) for ri, (_, grade, row) in enumerate(rels)
                      for gi, (_, g) in enumerate(gen_items)
                      if row[gi] and g == grade), None)
        if found is None:
            break
        ri, gi = found
        pivot = rels.pop(ri)[2]
        del gen_items[gi]
        for entry in rels:
            row = entry[2]
            f = (row[gi] / pivot[gi] if p is None
                 else row[gi] * pow(pivot[gi], -1, p))
            row = [a - f * b if p is None else (a - f * b) % p
                   for a, b in zip(row, pivot)]
            entry[2] = row[:gi] + row[gi + 1:]
    gens = GradedSet(gen_items)
    return Presentation(field, P.n, gens,
                        [(nm, make_element(gens, grade, row, field))
                         for nm, grade, row in rels], P.name)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([F2, F3, F5, RATIONALS]),
       st.integers(1, 3))
def test_minimize_unit_pivots_in_one_forward_pass(seed, field, n):
    """minimize's step 1 scans the relations once, in stored order; it
    must eliminate what a scan restarted after every elimination does,
    so that minimize gives byte-identical output. The reference has no
    unit pivot left, so minimize runs only its step 2 on it. Grades are
    on a coarse grid, and over F_p a redundant generator is added with a
    unit-pivot relation, so that most cases eliminate."""
    rng = rng_for(seed)
    P = random_presentation(rng, field, n, max_gens=4, max_rels=4,
                            span=2, denom=2)
    if field.p:
        P = inject_redundancy(rng, P, 1)
    want = minimize(_unit_pivots_by_restart_scan(P))
    assert serialize(minimize(P)) == serialize(want)



def _redundant_by_span_membership(P):
    """minimize's step 2 on P, one relation at a time: in stored order,
    a relation in the graded span of the others still kept, as
    span_membership decides it, is dropped."""
    pairs = P.rel_pairs()
    kept = list(range(len(pairs)))
    i = 0
    while i < len(kept):
        idx = kept[i]
        others = [pairs[j][1] for j in kept if j != idx]
        if span_membership(pairs[idx][1], others)[0]:
            kept.pop(i)
        else:
            i += 1
    return Presentation(P.field, P.n, P.generators,
                        [pairs[j] for j in kept], P.name)


def _with_redundant_relations(rng, P):
    """P with redundant relations added: copies of a relation at its
    grade, placed before or after it so that either comes first in the
    stored order, multiples, copies raised to a higher grade, sums of
    two relations at the join of their grades, and zero relations."""
    field, gens = P.field, P.generators
    pairs = P.rel_pairs()
    if not pairs:
        return P
    for t in range(rng.randint(1, 4)):
        kind = rng.choice(["copy", "copy", "multiple", "raised", "sum",
                           "zero"])
        k = rng.randrange(len(pairs))
        el = pairs[k][1]
        grade, coeffs = el.grade, list(el.coeffs)
        if kind == "multiple":
            c = rand_coeff(rng, field) or field.coerce(1)
            coeffs = [field.coerce(c * x) for x in coeffs]
        elif kind == "raised":
            grade = Grade([x + rng.choice([Fraction(1, 2), 1])
                           for x in grade.coords])
        elif kind == "sum":
            other = rng.choice(pairs)[1]
            grade = Grade([max(x, y) for x, y in
                           zip(grade.coords, other.grade.coords)])
            coeffs = [field.coerce(x + y)
                      for x, y in zip(coeffs, other.coeffs)]
        elif kind == "zero":
            coeffs = [field.coerce(0)] * len(coeffs)
        new = (f"d{t}_{pairs[k][0]}", make_element(gens, grade, coeffs,
                                                   field))
        pairs.insert(k + rng.randint(0, 1), new)
    return Presentation(field, P.n, gens, pairs, P.name)


def test_minimize_matches_a_per_relation_step_two():
    # minimize against its unit pivots eliminated by the restart scan
    # above and its step 2 run one span_membership at a time, on random
    # presentations with redundant relations added; a relation and its
    # copy at one grade keep the later of the two in stored order
    rng = rng_for(2727)
    seen = set()
    for trial in range(200):
        field = rng.choice([F2, F3, F5, RATIONALS])
        P = random_presentation(rng, field, rng.choice([1, 2, 3]),
                                max_gens=4, max_rels=4, span=2, denom=2)
        if field.p and rng.random() < 0.5:
            P = inject_redundancy(rng, P, 1)
        P = _with_redundant_relations(rng, P)
        got = minimize(P)
        want = _redundant_by_span_membership(_unit_pivots_by_restart_scan(P))
        assert serialize(got) == serialize(want), trial
        assert got.rel_names == want.rel_names
        for nm in P.rel_names:
            twin = next((m for m in P.rel_names
                         if m.startswith("d") and m.endswith("_" + nm)), None)
            if twin is not None and (nm in got.rel_names) != (
                    twin in got.rel_names):
                seen.add("copy kept" if twin in got.rel_names
                         else "original kept")
        seen.add(field.p)
    assert seen == {2, 3, 5, None, "copy kept", "original kept"}, seen

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
    def critical_grades(P):
        """Per axis, the sorted coordinates of the minimal presentation."""
        P = minimize(P)
        grades = [*P.generators.grades, *(el.grade for el in P.relations)]
        return tuple(tuple(sorted({g.coords[i] for g in grades}))
                     for i in range(P.n))
    assert critical_grades(parse(PAIR_M)) == ((Fraction(0), Fraction(3)),)
    P = parse(TWO_PARAM)
    cg = critical_grades(P)
    assert cg == ((Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
                  (Fraction(0), Fraction(1)))
    zero = Presentation(F2, 1, GradedSet([]), [])
    assert critical_grades(zero) == ((),)


def test_restrict_diagonal_box():
    box = box_interval(F2, [0, 0], [[2, 0], [0, 2]])
    # through the corner: t in [0, 2) stays inside the box
    assert barcode(restrict_diagonal(box, [0, 0])) == \
        diagram_of([Interval(0, 2)])
    # the line through (0, 1) leaves the box through its top side at t = 1
    line = restrict_diagonal(box, [0, 1])
    assert line.n == 1 and line.field == F2
    assert barcode(line) == diagram_of([Interval(0, 1)])


def _dim_at_point(P, point):
    """dim of the presented module at a point, counted directly."""
    def below(g):
        return all(a <= b for a, b in zip(g.coords, point))
    alive = [i for i, g in enumerate(P.generators.grades) if below(g)]
    rows = [[el.coeffs[i] for i in alive]
            for el in P.relations if below(el.grade)]
    return len(alive) - local_rank(rows, len(alive), P.field.p)


def test_restrict_diagonal_pointwise_dimension():
    """The restriction's bars count dim M at x + t(1, ..., 1), read off
    the n-parameter presentation itself."""
    rng = rng_for(231)
    for n in (2, 3):
        for _ in range(25):
            P = random_presentation(rng, rng.choice((F2, F5)), n)
            x = rand_grade(rng, n)
            D = barcode(restrict_diagonal(P, x.coords))
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


def _lattice_of(P):
    """(L, generator ints, relation ints) of P's grades, read off their
    Fraction coordinates: L is the lcm of every denominator."""
    grades = [*P.generators.grades, *(el.grade for el in P.relations)]
    L = math.lcm(*(c.denominator for g in grades for c in g.coords))
    ints = [tuple(int(c * L) for c in g.coords) for g in grades]
    k = len(P.generators)
    return L, tuple(ints[:k]), tuple(ints[k:])


def test_every_builder_holds_its_grade_lattice():
    # minimize drops a and r1, and with them the thirds
    text_m = ("module M\nfield F5\nparams 1\ngen a @ 1/3\ngen b @ 0\n"
              "rel r1 @ 1/3 = 1*a + 2*b\nrel r2 @ 3 = 1*b\n")
    text_n = "module N\nfield F5\nparams 1\ngen c @ 1/2\nrel s1 @ 3 = 1*c\n"
    M, N = parse(text_m), parse(text_n)
    e = Fraction(3, 4)
    pair, _, _ = compatible_presentations(
        M, N, is_interleaved(InterleavingProblem(M, N, e)), e)
    rng = rng_for(608)
    built = [M, N, minimize(M), *induced_presentations(pair),
             box_interval(F2, [0, Fraction(1, 2)],
                          [[1, Fraction(2, 3)], [Fraction(5, 4), 1]]),
             parse("module Z\nfield F2\nparams 2\n"),
             *(random_presentation(rng, field, n, max_gens=4, max_rels=4,
                                   denom=8)
               for field in (F3, RATIONALS) for n in (1, 2, 3))]
    assert [P.L for P in built[:5]] == [3, 2, 1, 12, 12]
    assert len(built[2].generators) == 1
    for P in built:
        assert (P.L, P.gen_ints, P.rel_ints) == _lattice_of(P)
        assert all(type(x) is int for g in (*P.gen_ints, *P.rel_ints)
                   for x in g)
        assert list(P.rel_ints) == sorted(P.rel_ints)


def test_presentation_checks_the_pattern_of_its_relations():
    # an element built directly, without make_element, is checked too,
    # relations in the given order, not in their stored order
    gens = GradedSet([("a", Grade([0, 1])), ("b", Grade([Fraction(1, 2), 0]))])

    def element(grade, coeffs):
        return HomogeneousElement(gens, Grade(grade), coeffs, F2,
                                  tuple((j, c) for j, c in enumerate(coeffs)
                                        if c))

    r, s = element([2, 0], [1, 1]), element([1, 0], [1, 0])
    with pytest.raises(PatternViolation, match=r"^coefficient on a@\(0, 1\) "
                       r"in an element at grade \(2, 0\)$"):
        Presentation(F2, 2, gens, [("r", r), ("s", s)])
    good = element([1, 0], [0, 1])
    P = Presentation(F2, 2, gens, [("r", element([2, 1], [1, 1])),
                                   ("s", good)])
    assert P.rel_names == ("s", "r") and P.relations[0] is good


def test_presentation_field_checks():
    gens = GradedSet([("a", Grade([0]))])
    el = make_element(gens, Grade([1]), [1], F2)
    with pytest.raises(FieldMismatch):
        Presentation(F5, 1, gens, [("r", el)])
    with pytest.raises(ValueError):
        Presentation(F2, 1, gens, [("r", el), ("r", el)])
    # a relation over an equal but distinct graded set or field is
    # accepted as it is; an unequal one is refused
    same = make_element(GradedSet([("a", Grade([0]))]), Grade([1]), [1], F2)
    P = Presentation(FieldSpec(2), 1, gens, [("r", same)])
    assert P.relations[0] is same and P.field == F2
    other = make_element(GradedSet([("b", Grade([0]))]), Grade([1]), [1], F2)
    with pytest.raises(BasisMismatch,
                       match="^relation r is not over the generators$"):
        Presentation(F2, 1, gens, [("r", other)])
    with pytest.raises(FieldMismatch, match="^relation r over the wrong"):
        Presentation(FieldSpec(3), 1, gens, [("r", same)])
