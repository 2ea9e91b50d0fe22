import random
import pytest
from unittest import mock
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pmod import (INF, RATIONALS, Interval, NotOneParameter,
                  PersistenceDiagram, barcode, bottleneck_candidates,
                  box_interval, diagram_bottleneck, diagram_of,
                  format_extended, parse)
from pmod import onedim
from pmod.onedim import (_bars, _Costs, _covers, _max_bottleneck,
                         _scaled_bars, _within)

from conftest import (F2, F3, F5, brute_bottleneck, dim_at, pair_cost,
                      random_diagram, random_presentation, rng_for)


def test_interval_basics():
    iv = Interval(Fraction(1, 2), Fraction(3))
    assert iv.halfwidth() == Fraction(5, 4)
    assert repr(iv) == "[1/2, 3)"
    inf_iv = Interval(0, INF)
    assert inf_iv.halfwidth() == INF
    assert repr(inf_iv) == "[0, inf)"
    assert Interval(2, 2).halfwidth() == 0  # degenerate but legal
    with pytest.raises(ValueError):
        Interval(3, 2)
    with pytest.raises(ValueError):
        Interval(INF, INF)
    assert format_extended(INF) == "inf"
    assert format_extended(Fraction(1, 2)) == "1/2"


def test_diagram_multiset_semantics():
    a, b = Interval(0, 1), Interval(0, 2)
    D = PersistenceDiagram([(a, 2), (b, 1), (a, 1), (b, 0)])
    assert D.mult == {a: 3, b: 1}
    assert D.total() == 4
    assert D.support() == [a, b]
    assert D == diagram_of([a, a, a, b])
    assert PersistenceDiagram([]).total() == 0


def test_diagram_rejects_non_int_multiplicities():
    a = Interval(0, 1)
    for m in (1.5, Fraction(3, 2), 2.0, Fraction(2), "2", None):
        with pytest.raises(ValueError, match=r"for \[0, 1\) is not an int"):
            PersistenceDiagram([(a, m)])
    # ints (bool included, as operator.index takes it) are accepted
    assert PersistenceDiagram([(a, True), (a, 2)]).mult == {a: 3}
    with pytest.raises(ValueError,
                       match=r"negative multiplicity -1 for \[0, 1\)"):
        PersistenceDiagram([(a, -1)])


def test_interval_keeps_given_fractions():
    b, d = Fraction(1, 3), Fraction(7, 2)
    iv = Interval(b, d)
    assert iv.birth is b and iv.death is d
    assert Interval(1, 2.0) == Interval(Fraction(1), Fraction(2))
    assert Interval(0, float("inf")).death is INF


def test_barcode_single_generator():
    D = barcode(parse("module M\nfield F5\nparams 1\n"
                      "gen a @ 0\nrel r1 @ 3 = 1*a\n"))
    assert D == diagram_of([Interval(0, 3)])
    D = barcode(parse("module N\nfield F5\nparams 1\n"
                      "gen b @ 1\nrel s1 @ 3 = 1*b\n"))
    assert D == diagram_of([Interval(1, 3)])


def test_barcode_free_and_zero():
    assert barcode(parse("module F\nfield F2\nparams 1\ngen a @ 2\n")) == \
        diagram_of([Interval(2, INF)])
    assert barcode(parse("module Z\nfield F2\nparams 1\n"
                         "gen a @ 0\nrel r @ 0 = 1*a\n")) == \
        PersistenceDiagram([])


def test_barcode_pairing_respects_low_rows():
    # two bars where the later relation must pair with the younger gen
    text = ("module M\nfield F2\nparams 1\n"
            "gen a @ 0\ngen b @ 1\n"
            "rel r1 @ 2 = 1*a + 1*b\nrel r2 @ 3 = 1*a\n")
    D = barcode(parse(text))
    assert D == diagram_of([Interval(1, 2), Interval(0, 3)])


def test_barcode_drops_width_zero_and_redundant():
    # a unit pivot at equal grade shows up as a width-zero bar: dropped
    text = ("module M\nfield F5\nparams 1\n"
            "gen a @ 0\ngen b @ 0\n"
            "rel r1 @ 0 = 1*a + 4*b\nrel r2 @ 3 = 1*a\n")
    D = barcode(parse(text))
    assert D == diagram_of([Interval(0, 3)])
    # a redundant relation reduces to a zero column and is ignored
    text = ("module M\nfield F5\nparams 1\n"
            "gen a @ 0\nrel r1 @ 3 = 1*a\nrel r2 @ 3 = 2*a\n")
    assert barcode(parse(text)) == diagram_of([Interval(0, 3)])


def test_barcode_rejects_multiparameter():
    P = box_interval(F2, [0, 0], [[1, 1]])
    with pytest.raises(NotOneParameter):
        barcode(P)


def _check_pointwise_dimension(P, samples):
    D = barcode(P)
    samples = set(samples)
    for g in P.generators.grades:
        samples.add(g.coords[0])
    for el in P.relations:
        samples.add(el.grade.coords[0])
    for t in samples:
        counted = sum(m for iv, m in D.pairs()
                      if iv.birth <= t and t < iv.death)
        assert counted == dim_at(P, t), (serialize_for_debug(P), t)


def test_barcode_matches_pointwise_dimension():
    """The bars must reproduce dim M_t computed straight from the
    presentation at every sample parameter."""
    rng = rng_for(601)
    for field in (F2, F5, RATIONALS):
        for _ in range(40):
            P = random_presentation(rng, field, 1)
            _check_pointwise_dimension(
                P, (Fraction(k, 8) for k in range(-2, 40)))


def test_barcode_matches_pointwise_dimension_at_benchmark_size():
    """16-31 generators, as in the benchmark, where many columns cancel
    against several kept ones. Between grades the dimension is constant,
    so the grades and one point below them are the samples."""
    rng = rng_for(606)
    for field in (F3, RATIONALS):
        for _ in range(4):
            P = random_presentation(rng, field, 1, min_gens=16, max_gens=31,
                                    min_rels=8, max_rels=31)
            assert len(P.generators) >= 16
            _check_pointwise_dimension(P, [Fraction(-1)])


def _fraction_bars(births, rels):
    """The column reduction over Q on Fractions: each kept column is
    scaled to low entry 1, and a column's low entry f cancels against
    it as col - f * kept."""
    order = sorted(range(len(births)), key=births.__getitem__)
    row_of = {i: r for r, i in enumerate(order)}
    reduced, death_of = {}, {}
    for grade, coeffs in rels:
        col = {row_of[i]: Fraction(c) for i, c in enumerate(coeffs) if c}
        while col and max(col) in reduced:
            other = reduced[max(col)]
            f = col[max(col)]
            for r, b in other.items():
                col[r] = col.get(r, 0) - f * b
                if not col[r]:
                    del col[r]
        if col:
            low = max(col)
            reduced[low] = {r: v / col[low] for r, v in col.items()}
            death_of[low] = grade
    return [(births[i], death_of.get(r, INF)) for r, i in enumerate(order)
            if births[i] < death_of.get(r, INF)]


def test_bars_over_q_match_the_fraction_reduction():
    """Over Q, _bars reduces columns scaled to ints. Dense columns with
    large and negative coefficients make many cancellations, where the
    entries would grow; some columns are rational combinations of
    earlier ones, possibly plus one more entry, so that whether and
    where a column vanishes depends on exact arithmetic. _bars gets
    each column's sparse terms, as an element holds them; the bars must
    be those of the reduction of the dense columns on Fractions."""
    rng = rng_for(608)

    def rational(big):
        return Fraction(rng.randint(-big, big), rng.randint(1, big))

    for trial in range(150):
        k = rng.randint(1, 14)
        births = [Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 8)))
                  for _ in range(k)]
        rels = []
        for _ in range(rng.randint(0, 2 * k)):
            big = rng.choice((3, 10**3, 10**12))
            if rels and rng.random() < 0.4:
                (g1, c1), (g2, c2) = rng.choice(rels), rng.choice(rels)
                grade = max(g1, g2) + rng.randint(0, 2)
                a, b = rational(big), rational(big)
                coeffs = [a * x + b * y for x, y in zip(c1, c2)]
                if rng.random() < 0.5:
                    i = rng.randrange(k)
                    if births[i] <= grade:
                        coeffs[i] += rational(big)
            else:
                grade = Fraction(rng.randint(0, 30), rng.choice((1, 4, 6)))
                coeffs = [rational(big)
                          if b <= grade and rng.random() < 0.8
                          else Fraction(0) for b in births]
            rels.append((grade, coeffs))
        rels.sort(key=lambda rel: rel[0])
        sparse = [(grade, [(i, c) for i, c in enumerate(coeffs) if c])
                  for grade, coeffs in rels]
        assert _bars(births, sparse, None) == _fraction_bars(births, rels), \
            trial


def serialize_for_debug(P):
    from pmod import serialize
    return serialize(P)


def test_interval_bottleneck_values():
    """The pair costs of conftest's oracle, each one of the candidates
    of the two one-bar diagrams."""
    for I1, I2, cost in (
            (Interval(0, 3), Interval(1, 3), 1),
            (Interval(0, 2), Interval(1, 5), 3),
            (Interval(0, INF), Interval(2, INF), 2),
            (Interval(0, 3), Interval(0, INF), INF),
            (Interval(Fraction(1, 2), 1), Interval(0, Fraction(3, 2)),
             Fraction(1, 2))):
        assert pair_cost(I1, I2) == cost
        assert cost in bottleneck_candidates(diagram_of([I1]),
                                             diagram_of([I2]))


def test_matching_feasible_identity():
    """A diagram matches itself at tolerance 0."""
    D = diagram_of([Interval(0, 3), Interval(1, 2), Interval(0, 3)])
    assert diagram_bottleneck(D, D) == brute_bottleneck(D, D) == 0


def test_matching_feasible_diagonal_only():
    """A bar with no partner is feasible from its halfwidth on."""
    D1 = diagram_of([Interval(0, 2)])
    D2 = PersistenceDiagram([])
    # the halfwidth is exactly 1, so anything below is infeasible
    assert diagram_bottleneck(D1, D2) == brute_bottleneck(D1, D2) == 1


def test_matching_feasible_infinite_bars_must_pair():
    """Infinite bars match only each other."""
    D1 = diagram_of([Interval(0, INF)])
    D2 = diagram_of([Interval(3, INF)])
    assert diagram_bottleneck(D1, D2) == brute_bottleneck(D1, D2) == 3
    # an unmatched infinite bar is infeasible at every finite epsilon
    empty = PersistenceDiagram([])
    assert diagram_bottleneck(D1, empty) == brute_bottleneck(D1, empty) == INF


def test_diagram_bottleneck_examples():
    D1 = diagram_of([Interval(0, 3)])
    D2 = diagram_of([Interval(1, 3)])
    assert diagram_bottleneck(D1, D2) == 1
    assert diagram_bottleneck(D1, D1) == 0
    assert diagram_bottleneck(D1, PersistenceDiagram([])) == Fraction(3, 2)
    assert diagram_bottleneck(diagram_of([Interval(0, INF)]),
                              PersistenceDiagram([])) == INF
    # width-zero interval versus empty: feasible at zero
    assert diagram_bottleneck(diagram_of([Interval(2, 2)]),
                              PersistenceDiagram([])) == 0


def test_bottleneck_candidates_contain_answer():
    rng = rng_for(602)
    for _ in range(40):
        D1, D2 = random_diagram(rng), random_diagram(rng)
        d = diagram_bottleneck(D1, D2)
        cans = bottleneck_candidates(D1, D2)
        assert d in cans
        # a perfect matching at d, on the candidates' own cost table
        S, E1, E2 = _scaled_bars(D1, D2)
        costs = _Costs(E1, E2)
        v = d if d == INF else d * S
        assert v in costs.candidates()
        assert costs.feasible(v)


def _mixed_diagram(rng):
    """Endpoints on mixed grids (thirds, eighths, multiples of 5/6), so
    the candidate values have several denominators; some bars are
    infinite and some repeat."""
    steps = (Fraction(1, 3), Fraction(1, 8), Fraction(5, 6))
    ivals = []
    for _ in range(rng.randint(0, 6)):
        b = rng.randint(0, 12) * rng.choice(steps)
        if rng.random() < 0.25:
            d = INF
        else:
            d = b + rng.randint(0, 12) * rng.choice(steps)
        ivals.extend([Interval(b, d)] * rng.choice((1, 1, 2)))
    return diagram_of(ivals)


def test_bottleneck_candidates_match_fraction_reference():
    """The candidates are the sorted set of 0, inf, every halfwidth and
    every pairwise cost (conftest's pair_cost), on Fractions; each
    value is a Fraction or inf, and so is the distance."""
    rng = rng_for(607)
    for _ in range(200):
        D1, D2 = _mixed_diagram(rng), _mixed_diagram(rng)
        L1 = [i for i, m in D1.pairs() for _ in range(m)]
        L2 = [j for j, m in D2.pairs() for _ in range(m)]
        want = sorted({Fraction(0), INF,
                       *(i.halfwidth() for i in L1 + L2),
                       *(pair_cost(i, j) for i in L1 for j in L2)})
        got = bottleneck_candidates(D1, D2)
        assert got == want
        for v in got + [diagram_bottleneck(D1, D2)]:
            assert type(v) is Fraction or (type(v) is float and v == INF)


def test_diagram_bottleneck_against_brute_force():
    rng = rng_for(603)
    for trial in range(120):
        D1, D2 = random_diagram(rng), random_diagram(rng)
        got = diagram_bottleneck(D1, D2)
        want = brute_bottleneck(D1, D2)
        assert got == want, (trial, D1, D2, got, want)


def test_diagram_bottleneck_is_pseudometric_on_samples():
    rng = rng_for(604)
    for _ in range(60):
        A, B, C = (random_diagram(rng) for _ in range(3))
        dab = diagram_bottleneck(A, B)
        assert dab == diagram_bottleneck(B, A)
        dac = diagram_bottleneck(A, C)
        dcb = diagram_bottleneck(C, B)
        assert dab <= dac + dcb
        assert diagram_bottleneck(A, A) == 0


_quarters = st.integers(0, 16).map(lambda k: Fraction(k, 4))
_intervals = st.builds(
    lambda b, w, infinite: Interval(b, INF if infinite else b + w),
    _quarters, _quarters, st.booleans())


@settings(max_examples=150, deadline=None)
@given(st.lists(_intervals, max_size=4), st.lists(_intervals, max_size=4))
def test_diagram_bottleneck_is_brute_force_minimum(L1, L2):
    D1, D2 = diagram_of(L1), diagram_of(L2)
    assert diagram_bottleneck(D1, D2) == brute_bottleneck(D1, D2)


# eighths and thirds, birth == death allowed, infinite bars, and
# multiplicities 0-3 (a pair of multiplicity 0 adds no bar)
_mixed_intervals = st.builds(
    lambda b, w, unit, infinite: Interval(
        b * unit, INF if infinite else (b + w) * unit),
    st.integers(-4, 12), st.integers(0, 12),
    st.sampled_from((Fraction(1, 8), Fraction(1, 3))), st.booleans())
_diagrams = st.lists(st.tuples(_mixed_intervals, st.integers(0, 3)),
                     max_size=5).map(PersistenceDiagram)


@settings(max_examples=300, deadline=None)
@given(_diagrams, _diagrams)
def test_bottleneck_floor_and_search(D1, D2):
    """The floor is a lower bound (recomputed here on Fractions), and
    the search that starts at it finds what a plain binary search of
    the candidates from 0, one matching test per step, finds."""
    L1 = [i for i, m in D1.pairs() for _ in range(m)]
    L2 = [j for j, m in D2.pairs() for _ in range(m)]
    want = max([Fraction(0)]
               + [min([i.halfwidth()] + [pair_cost(i, j) for j in L2])
                  for i in L1]
               + [min([j.halfwidth()] + [pair_cost(i, j) for i in L1])
                  for j in L2])
    S, E1, E2 = _scaled_bars(D1, D2)
    costs = _Costs(E1, E2)
    floor = costs.floor()
    assert floor == (INF if want == INF else want * S)
    assert floor <= costs.least_feasible(0)

    cands = bottleneck_candidates(D1, D2)
    values = costs.candidates()
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if costs.feasible(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    assert diagram_bottleneck(D1, D2) == cands[lo]
    assert diagram_bottleneck(D2, D1) == cands[lo]


def test_diagrams_on_ints_match_diagrams_of_intervals():
    """A barcode is held on ints over its least denominator; the
    diagram of its own intervals, built from Fractions, must be the
    same diagram, with the same intervals, repr and size, and the same
    bottleneck values and types."""
    rng = rng_for(609)
    for field in (RATIONALS, F3, F5):
        for _ in range(30):
            built = [barcode(random_presentation(rng, field, 1))
                     for _ in range(2)]
            rebuilt = [diagram_of([i for i, m in D.pairs()
                                   for _ in range(m)]) for D in built]
            for D, R in zip(built, rebuilt):
                assert D == R and R == D
                assert (D.den, D.bars) == (R.den, R.bars)
                assert D.pairs() == R.pairs()
                assert repr(D) == repr(R)
                assert D.total() == R.total() == len(D.bars)
            for f in (diagram_bottleneck, bottleneck_candidates):
                got, want = f(*built), f(*rebuilt)
                # repr tells Fraction(1) from 1 and from 1.0
                assert got == want and repr(got) == repr(want)
    D = built[0]
    with pytest.raises(TypeError):
        D.mult[Interval(0, 1)] = 1
    with pytest.raises(AttributeError):
        D.mult = {}


# int bars as _max_bottleneck takes them: even widths, some essential
_int_bars = st.lists(
    st.builds(lambda b, w, infinite: (b, INF if infinite else b + 2 * w),
              st.integers(-6, 10), st.integers(0, 6),
              st.booleans()),
    max_size=4)


def test_bound_short_cut_against_brute_force():
    """max(bound, d_B) from the bars alone, when they show it, and
    from the matching search otherwise, against the brute-force d_B.
    Lists with different numbers of essential bars are at inf, found
    without _within and without a cost table. Otherwise the short-cut
    fires exactly when every finite bar is at most 2 * bound wide and
    the essential births, sorted and paired in order, are at most bound
    apart. Across the draws all three cases must occur."""
    seen = set()

    @settings(max_examples=600, deadline=None)
    @given(_int_bars, _int_bars, st.integers(0, 12))
    def check(E1, E2, bound):
        want = max(bound, brute_bottleneck(
            diagram_of(Interval(b, d) for b, d in E1),
            diagram_of(Interval(b, d) for b, d in E2)))
        ess1, ess2 = (sorted(b for b, d in E if d == INF) for E in (E1, E2))
        with mock.patch.object(onedim, "_within",
                               wraps=onedim._within) as within, \
                mock.patch.object(onedim, "_Costs",
                                  wraps=onedim._Costs) as costs:
            assert _max_bottleneck(E1, E2, bound) == want
        if len(ess1) != len(ess2):
            assert want == INF
            assert not within.called and not costs.called
            seen.add("inf")
            return
        shown = _within(E1, E2, bound)
        assert shown == (
            all(d - b <= 2 * bound for b, d in E1 + E2 if d != INF)
            and all(abs(x - y) <= bound for x, y in zip(ess1, ess2)))
        seen.add(shown)
        assert not shown or want == bound
        assert costs.called != shown

    check()
    assert seen == {True, False, "inf"}


def _random_int_bars(rng, essential):
    """Up to five int bars with even widths, some wide, and the given
    number of essential bars."""
    bars = []
    for _ in range(rng.randint(0, 5 - essential)):
        b = rng.randint(-4, 8)
        bars.append((b, b + 2 * rng.randint(0, 8)))
    return bars + [(rng.randint(-4, 8), INF) for _ in range(essential)]


def test_feasible_against_brute_force():
    """A matching test at tolerance t holds exactly from d_B on, at
    every candidate t, on bar lists with wide bars on both sides,
    unequal bar counts and essential bars, their counts sometimes
    unequal too."""
    rng = rng_for(610)
    for _ in range(400):
        k = rng.randint(0, 2)
        E1 = _random_int_bars(rng, k)
        E2 = _random_int_bars(rng, k if rng.random() < 0.8 else 2 - k)
        dB = brute_bottleneck(*(diagram_of(Interval(b, d) for b, d in E)
                                for E in (E1, E2)))
        costs = _Costs(E1, E2)
        for t in costs.candidates():
            assert costs.feasible(t) == (t >= dB), (E1, E2, t)


def test_feasible_needs_the_wide_bars_of_both_sides():
    """At t = 3 each side's bar [0, 8) covers the other's, but D2's
    wide bar [20, 40) has no partner within 3: D1's wide bars are
    covered and D2's are not."""
    E1, E2 = [(0, 8)], [(0, 8), (20, 40)]
    for A, B in ((E1, E2), (E2, E1)):
        costs = _Costs(A, B)
        assert [t for t in costs.candidates() if costs.feasible(t)][0] == 10
        assert not costs.feasible(3)
    assert diagram_bottleneck(
        *(diagram_of(Interval(b, d) for b, d in E) for E in (E1, E2))) == 10


def test_covers_long_augmenting_path():
    """Left vertex n - 1 is covered only by shifting every earlier one
    along, an augmenting path of length 3000; the last left vertex then
    needs the shifted matching itself, as it reaches right vertex n
    only through the owner of right vertex 0."""
    n = 3000
    adj = [[i, i + 1] for i in range(n - 1)] + [[0, n], [0]]
    assert _covers(adj, n + 1)
    assert not _covers([*adj, [n]], n + 1)
    # the same hand-size pattern: 1 takes 0 from 0, and 2 takes it from 1
    assert _covers([[0, 1], [0, 2], [0]], 3)
    assert not _covers([[0], [0]], 1)
    assert _covers([], 0)
