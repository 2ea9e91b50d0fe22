import itertools
import math
import pytest
from fractions import Fraction

import pmod.distance as distance_mod
from pmod import (INF, BudgetExceeded, CandidateSet, DimensionMismatch,
                  FieldMismatch, FieldSpec, InterleavingProblem,
                  UnsupportedField, barcode, box_interval, candidate_set,
                  check_closure, diagonal_lower_bound, diagram_bottleneck,
                  grade_leq, grade_shift, interleaving_distance,
                  is_interleaved, is_isomorphic, minimize, parse, serialize)

from conftest import F2, F3, F5, random_presentation, rng_for

M_TEXT = "module M\nfield F5\nparams 1\ngen a @ 0\nrel r1 @ 3 = 1*a\n"
N_TEXT = "module N\nfield F5\nparams 1\ngen b @ 1\nrel s1 @ 3 = 1*b\n"


def test_candidate_set_offset_intervals():
    M, N = parse(M_TEXT), parse(N_TEXT)
    cans = candidate_set(M, N)
    assert list(cans) == [0, 1, Fraction(3, 2), 2, 3, INF]
    assert cans.finite() == [0, 1, Fraction(3, 2), 2, 3]
    assert Fraction(3, 2) in cans
    assert Fraction(5, 4) not in cans
    assert INF in cans


def test_candidate_set_self_and_zero():
    M = parse(M_TEXT)
    cans = candidate_set(M, M)
    assert 0 in cans and INF in cans
    assert Fraction(3, 2) in cans  # half of the 0..3 gap
    Z = parse("module Z\nfield F5\nparams 1\n")
    assert list(candidate_set(Z, Z)) == [0, INF]
    with pytest.raises(DimensionMismatch):
        candidate_set(M, box_interval(F5, [0, 0], []))


def test_distance_offset_intervals():
    d, w = interleaving_distance(parse(M_TEXT), parse(N_TEXT))
    assert d == 1
    assert w is not None
    assert w.A.entries == ((1,),) and w.A.field == F5


def test_distance_self_is_zero():
    M = parse(M_TEXT)
    d, w = interleaving_distance(M, M)
    assert d == 0
    assert w is not None


def test_distance_box_against_zero():
    box2 = box_interval(F2, [0, 0], [[2, 0], [0, 2]])
    Z2 = parse("module Z\nfield F2\nparams 2\n")
    d, _ = interleaving_distance(box2, Z2)
    assert d == 1
    # in one parameter the distance to zero is the halfwidth
    rng = rng_for(801)
    for _ in range(12):
        b = Fraction(rng.randint(0, 8), rng.randint(1, 4))
        width = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        box1 = box_interval(F2, [b], [[b + width]])
        Z1 = parse("module Z\nfield F2\nparams 1\n")
        d, _ = interleaving_distance(box1, Z1)
        assert d == width / 2


def _rectangle_terms(aR, bR, aS, bS):
    """The two terms whose minimum is d_I of the rectangle modules
    [aR, bR) and [aS, bS), from their corners alone: the two matched,
    at the larger corner distance, and both interleaved with zero, at
    the larger of their halfwidths tau = min_i (b_i - a_i) / 2 (inf when
    no b_i is finite). An upper coordinate inf on both sides is 0
    apart, and inf on one side only is inf apart."""
    def tau(a, b):
        return min([(y - x) / 2 for x, y in zip(a, b) if y != INF],
                   default=INF)

    def apart(x, y):
        if INF in (x, y):
            return 0 if x == y else INF
        return abs(x - y)

    matched = max(*map(apart, aR, aS), *map(apart, bR, bS))
    return matched, max(tau(aR, bR), tau(aS, bS))


def test_rectangle_distance_matches_formula():
    # single rectangles [a, b) on a 1/4 grid, one relation per finite
    # b_i (a with coordinate i set to b_i), against the formula; each
    # finite distance comes with a witness that passes check_closure
    rng = rng_for(2323)
    quarter = Fraction(1, 4)
    seen, ends = set(), set()
    for _ in range(200):
        n = rng.choice([2, 3])
        field = rng.choice([F2, F3])
        corners, boxes = [], []
        for name in ("R", "S"):
            a = [rng.randint(0, 8) * quarter for _ in range(n)]
            b = [INF if rng.random() < 0.2 else x + rng.randint(1, 8) * quarter
                 for x in a]
            uppers = [a[:i] + [y] + a[i + 1:]
                      for i, y in enumerate(b) if y != INF]
            corners += [a, b]
            boxes.append(box_interval(field, a, uppers, name=name))
        d, w = interleaving_distance(*boxes)
        matched, zero = _rectangle_terms(*corners)
        assert d == min(matched, zero), (corners, d)
        seen.add((n, field.p))
        ends.add("inf" if d == INF else "matched" if matched < zero
                 else "zero" if zero < matched else "tie")
        if d != INF:
            prob = InterleavingProblem(*map(minimize, boxes), d)
            assert check_closure(w.A, w.B, prob)
    assert seen == {(n, p) for n in (2, 3) for p in (2, 3)}
    assert {"inf", "matched", "zero"} <= ends, ends



def _rectangle_text(name, field, boxes):
    """The text of the direct sum of the finite rectangles [a, b) in
    boxes on two parameters: one generator at a, killed at (b1, a2) and
    at (a1, b2)."""
    lines = [f"module {name}", f"field {field}", "params 2"]
    for k, (a, b) in enumerate(boxes):
        lines.append(f"gen g{k} @ ({a[0]}, {a[1]})")
        lines.append(f"rel r{k}x @ ({b[0]}, {a[1]}) = 1*g{k}")
        lines.append(f"rel r{k}y @ ({a[0]}, {b[1]}) = 1*g{k}")
    return "\n".join(lines) + "\n"


def _brute_bottleneck(boxes_R, boxes_S):
    """d_B of two lists of finite rectangles, by trying every partial
    matching: a matched pair costs the larger corner distance
    max(|a_R - a_S|, |b_R - b_S|) in the sup norm, and an unmatched
    rectangle its halfwidth tau = min_i (b_i - a_i) / 2."""
    def cost(R, S):
        return max(abs(x - y) for u, v in zip(R, S) for x, y in zip(u, v))

    def tau(R):
        return min(y - x for x, y in zip(*R)) / 2

    best = math.inf
    for k in range(min(len(boxes_R), len(boxes_S)) + 1):
        for left in itertools.combinations(range(len(boxes_R)), k):
            for right in itertools.permutations(range(len(boxes_S)), k):
                worst = max([cost(boxes_R[i], boxes_S[j])
                             for i, j in zip(left, right)]
                            + [tau(R) for i, R in enumerate(boxes_R)
                               if i not in left]
                            + [tau(S) for j, S in enumerate(boxes_S)
                               if j not in right], default=0)
                best = min(best, worst)
    return best


def test_rectangle_sums_against_the_bottleneck_distance():
    # sums of one or two finite rectangles on two parameters, over F2
    # and F3: a matching of cost d_B gives a d_B-interleaving, and
    # d_B <= (2n - 1) d_I for rectangle decomposable modules (Bjerkevik),
    # so d_I <= d_B <= 3 d_I; each witness passes check_closure, and
    # the generators of many of these sums see different sets of
    # admissible relations at their grades + 2 d_I
    rng = rng_for(2828)
    half = Fraction(1, 2)
    seen = set()
    for trial in range(120):
        field = rng.choice([F2, F3])
        boxes = []
        for _ in range(2):
            side = []
            for _ in range(rng.randint(1, 2)):
                a = [rng.randint(0, 6) * half for _ in range(2)]
                side.append((a, [x + rng.randint(1, 6) * half for x in a]))
            boxes.append(side)
        P = parse(_rectangle_text("R", field, boxes[0]))
        Q = parse(_rectangle_text("S", field, boxes[1]))
        d, w = interleaving_distance(P, Q)
        d_B = _brute_bottleneck(*boxes)
        assert d <= d_B <= 3 * d, (trial, boxes, d, d_B)
        Pm, Qm = minimize(P), minimize(Q)
        assert check_closure(w.A, w.B, InterleavingProblem(Pm, Qm, d))
        sets = {tuple(k for k, r in enumerate(Pm.relations)
                      if grade_leq(r.grade, grade_shift(g, 2 * d)))
                for g in Pm.generators.grades}
        seen.add((field.p, len(boxes[0]) + len(boxes[1]), len(sets) > 1))
    assert {(p, k, True) for p in (2, 3) for k in (3, 4)} <= seen, seen

def test_distance_infinite_when_no_candidate_works():
    free = parse("module M\nfield F2\nparams 1\ngen a @ 0\n")
    Z = parse("module Z\nfield F2\nparams 1\n")
    d, w = interleaving_distance(free, Z)
    assert d == INF
    assert w is None


def test_distance_is_a_candidate_and_closure_holds():
    rng = rng_for(802)
    for _ in range(12):
        P = random_presentation(rng, F2, 1)
        Q = random_presentation(rng, F2, 1, name="N")
        d, w = interleaving_distance(P, Q)
        assert d in candidate_set(P, Q)
        if d != INF:
            assert w is not None
            Pm, Qm = minimize(P), minimize(Q)
            assert check_closure(w.A, w.B, InterleavingProblem(Pm, Qm, d))
            if d > 0:
                below = [c for c in candidate_set(P, Q).finite() if c < d]
                if below:
                    probe = InterleavingProblem(Pm, Qm, below[-1])
                    assert is_interleaved(probe) is None


def test_distance_probe_count_is_logarithmic():
    calls = {"n": 0}
    real = distance_mod.is_interleaved

    def counting(prob, budget):
        calls["n"] += 1
        return real(prob, budget)

    rng = rng_for(803)
    try:
        distance_mod.is_interleaved = counting
        for _ in range(10):
            P = random_presentation(rng, F2, 1)
            Q = random_presentation(rng, F2, 1, name="N")
            cans = candidate_set(P, Q)
            calls["n"] = 0
            interleaving_distance(P, Q)
            bound = math.ceil(math.log2(max(1, len(cans.finite())))) + 1
            assert calls["n"] <= bound, (calls["n"], bound)
    finally:
        distance_mod.is_interleaved = real


def test_distance_budget_propagates_with_bracket():
    with pytest.raises(BudgetExceeded) as err:
        interleaving_distance(parse(M_TEXT), parse(N_TEXT), budget=1)
    assert err.value.budget == 1
    assert err.value.bracket is not None
    lo, hi = err.value.bracket
    assert 0 <= lo < hi
    assert "bracketed" in str(err.value)
    d, _ = interleaving_distance(parse(M_TEXT), parse(N_TEXT))
    assert lo <= d <= hi


def test_distance_agrees_with_bottleneck_on_barcodes():
    rng = rng_for(804)
    for _ in range(8):
        P = random_presentation(rng, F5, 1)
        Q = random_presentation(rng, F5, 1, name="N")
        d, _ = interleaving_distance(P, Q)
        assert d == diagram_bottleneck(barcode(P), barcode(Q))


def test_is_isomorphic():
    M = parse(M_TEXT)
    assert is_isomorphic(M, M)
    assert not is_isomorphic(M, parse(N_TEXT))
    # a presentation and its padded form present the same module
    padded = parse("module M\nfield F5\nparams 1\n"
                   "gen a @ 0\ngen b @ 1\n"
                   "rel r0 @ 1 = 1*b + 3*a\nrel r1 @ 3 = 1*a\n")
    assert is_isomorphic(M, padded)
    Z = parse("module Z\nfield F5\nparams 1\n")
    assert is_isomorphic(Z, Z)
    assert not is_isomorphic(M, Z)


def test_distance_symmetry_small():
    rng = rng_for(805)
    for _ in range(8):
        P = random_presentation(rng, F5, 1)
        Q = random_presentation(rng, F5, 1, name="N")
        d1, _ = interleaving_distance(P, Q)
        d2, _ = interleaving_distance(Q, P)
        assert d1 == d2


def _probe_log(monkeypatch, fail_after=None):
    """Route interleaving_distance's probes through a recorder.

    Returns the list of probed eps values. With fail_after = k, every
    probe after the k-th raises BudgetExceeded instead of searching.
    """
    log = []

    def recording(prob, budget):
        if fail_after is not None and len(log) >= fail_after:
            raise BudgetExceeded(2, 1)
        log.append(prob.e)
        return is_interleaved(prob, budget)

    monkeypatch.setattr(distance_mod, "is_interleaved", recording)
    return log


# a pair where the diagonal-line bound (2) is below d_I (3): the search
# probes 2, 10/3, 3, 11/4, in that order
LOOSE_M = ("module M\nfield F2\nparams 3\n"
           "gen g1 @ (2, 2, 4)\ngen g2 @ (3, 11/4, 2/3)\n"
           "gen g3 @ (10/3, 1, 2)\n"
           "rel r1 @ (10/3, 11/4, 4) = 1*g2 + 1*g3\n")
LOOSE_N = ("module N\nfield F2\nparams 3\n"
           "gen g1 @ (10/3, 4, 1/4)\ngen g2 @ (0, 0, 2)\n")


def test_loose_bound_search(monkeypatch):
    P, Q = parse(LOOSE_M), parse(LOOSE_N)
    assert diagonal_lower_bound(P, Q) == 2
    log = _probe_log(monkeypatch)
    d, w = interleaving_distance(P, Q)
    assert d == 3 and w is not None
    assert log == [2, Fraction(10, 3), 3, Fraction(11, 4)]
    bound = math.ceil(math.log2(len(candidate_set(P, Q).finite()))) + 1
    assert len(log) <= bound


def test_one_lattice_per_distance_call(monkeypatch):
    """The candidates, the bound and every probe share one lattice."""
    built = []

    class Counting(distance_mod._Lattice):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(distance_mod, "_Lattice", Counting)
    P, Q = parse(LOOSE_M), parse(LOOSE_N)
    assert interleaving_distance(P, Q)[0] == 3
    assert len(built) == 1
    for M, N in ((M_TEXT, N_TEXT), (N_TEXT, N_TEXT)):
        built.clear()
        interleaving_distance(parse(M), parse(N))
        assert len(built) == 1


def test_search_from_any_bound_within_probe_limit(monkeypatch):
    """With the bound anywhere at or below the distance, the search
    finds the least Yes candidate (or inf) and never probes below the
    bound or more than ceil(log2(#finite)) + 1 times."""
    P, Q = parse(LOOSE_M), parse(LOOSE_N)
    finite = candidate_set(P, Q).finite()
    limit = math.ceil(math.log2(len(finite))) + 1
    bounds = finite + [(a + b) / 2 for a, b in zip(finite, finite[1:])]
    for first_yes in range(len(finite) + 1):
        d = finite[first_yes] if first_yes < len(finite) else INF
        for lb in bounds:
            if lb > d:
                continue
            probed = []

            def threshold(prob, budget):
                probed.append(prob.e)
                return "yes" if prob.e >= d else None

            monkeypatch.setattr(distance_mod, "is_interleaved", threshold)
            monkeypatch.setattr(distance_mod, "_diagonal_bound",
                                lambda lat, lb=lb: lb)
            got = interleaving_distance(P, Q)
            assert got == ((d, "yes") if d != INF else (INF, None))
            assert len(probed) <= limit
            assert all(e >= lb for e in probed)
            assert probed[0] == min(e for e in finite if e >= lb)


def test_bracket_holds_the_distance_after_earlier_probes(monkeypatch):
    """A budget hit on any probe brackets d_I: the lower end is the
    least candidate >= the bound above every No, the upper end the
    least confirmed Yes, or inf."""
    P, Q = parse(LOOSE_M), parse(LOOSE_N)
    brackets = []
    for k in range(4):
        _probe_log(monkeypatch, fail_after=k)
        with pytest.raises(BudgetExceeded) as err:
            interleaving_distance(P, Q)
        brackets.append(err.value.bracket)
    # No at 2; Yes at 10/3; Yes at 3; the fourth probe would settle it
    q = Fraction(11, 4)
    assert brackets == [(2, INF), (q, INF), (q, Fraction(10, 3)), (q, 3)]


def test_lower_bound_below_distance_n2_and_n3():
    """LB <= d_I, checked without the seeded search: the modules are
    not interleaved at the largest candidate below LB (by monotonicity
    that is every eps < LB)."""
    rng = rng_for(807)
    for n, count in ((2, 50), (3, 20)):
        for _ in range(count):
            P = minimize(random_presentation(rng, F2, n, name="M"))
            Q = minimize(random_presentation(rng, F2, n, name="N"))
            lb = diagonal_lower_bound(P, Q)
            below = [c for c in candidate_set(P, Q).finite() if c < lb]
            if below:
                prob = InterleavingProblem(P, Q, below[-1])
                assert is_interleaved(prob) is None, (n, lb, below[-1])


def test_lower_bound_is_the_distance_for_n1(monkeypatch):
    rng = rng_for(808)
    for field in (F2, F3):
        for _ in range(15):
            P = random_presentation(rng, field, 1, name="M")
            Q = random_presentation(rng, field, 1, name="N")
            lb = diagonal_lower_bound(minimize(P), minimize(Q))
            dB = diagram_bottleneck(barcode(P), barcode(Q))
            log = _probe_log(monkeypatch)
            d, _ = interleaving_distance(P, Q)
            assert lb == dB == d
            # a tight bound settles the search with one Yes, or none at inf
            assert len(log) == (0 if d == INF else 1)


def test_infinite_distance_needs_no_probe(monkeypatch):
    free = parse("module M\nfield F2\nparams 2\ngen a @ (0, 0)\n")
    Z = parse("module Z\nfield F2\nparams 2\n")
    log = _probe_log(monkeypatch)
    # budget 0 refuses every search, so this answer comes from the bound
    assert interleaving_distance(free, Z, budget=0) == (INF, None)
    assert log == []


def test_input_checks_come_before_the_bound():
    M2 = box_interval(F2, [0, 0], [[1, 1]])
    with pytest.raises(DimensionMismatch):
        interleaving_distance(parse(M_TEXT), M2)
    F2_M = parse(M_TEXT.replace("F5", "F2"))
    with pytest.raises(FieldMismatch):
        interleaving_distance(F2_M, parse(N_TEXT))
    Q_free = parse("module M\nfield Q\nparams 1\ngen a @ 0\n")
    Q_zero = parse("module Z\nfield Q\nparams 1\n")
    with pytest.raises(UnsupportedField):
        interleaving_distance(Q_free, Q_zero)


def test_every_pair_entry_checks_n_then_the_field():
    F5_n1 = parse(M_TEXT)
    F3_n1 = parse(N_TEXT.replace("F5", "F3"))
    entries = (candidate_set, diagonal_lower_bound, interleaving_distance,
               is_isomorphic, lambda P, Q: InterleavingProblem(P, Q, 1))
    for call in entries:
        # n differs, and then the field may too: n is named either way
        for field in (F5, F2):
            with pytest.raises(DimensionMismatch, match=r"^n=1 vs n=2$"):
                call(F5_n1, box_interval(field, [0, 0], [[1, 1]]))
        with pytest.raises(FieldMismatch, match=r"^F5 vs F3$"):
            call(F5_n1, F3_n1)


def _free_module(rng, field, n, count, name):
    """A module with count generators and no relations, its grades on
    the 1/4 grid in [0, 2]^n."""
    lines = [f"module {name}", f"field {field}", f"params {n}"]
    for k in range(count):
        coords = ", ".join(str(Fraction(rng.randint(0, 8), 4))
                           for _ in range(n))
        lines.append(f"gen g{k + 1} @ ({coords})")
    return parse("\n".join(lines) + "\n")


def _matching_distance(P, Q):
    """The least, over bijections of the generators, of the largest
    l-infinity distance between matched grades; inf when the counts
    differ. Brute force over permutations."""
    G = [g.coords for g in P.generators.grades]
    H = [h.coords for h in Q.generators.grades]
    if len(G) != len(H):
        return INF
    return min(max(max(abs(a - b) for a, b in zip(g, H[k]))
                   for g, k in zip(G, perm))
               for perm in itertools.permutations(range(len(H))))


def test_free_modules_against_the_matching_oracle():
    """For modules with no relations d_I is the bottleneck cost of a
    perfect matching of the generator grades under the l-infinity
    distance (inf when the counts differ)."""
    rng = rng_for(811)
    finite = 0
    for field, most in ((F2, 4), (F3, 3)):
        for n in (2, 3):
            for _ in range(75):
                k = rng.randint(1, most)
                # equal counts half the time, so most distances are finite
                l = k if rng.random() < 0.5 else rng.randint(1, most)
                P = _free_module(rng, field, n, k, "M")
                Q = _free_module(rng, field, n, l, "N")
                d, w = interleaving_distance(P, Q)
                assert d == _matching_distance(P, Q), (
                    serialize(P), serialize(Q))
                assert (w is None) == (d == INF)
                finite += d != INF
    assert finite >= 150, finite


def test_witness_is_the_search_at_the_distance():
    rng = rng_for(809)
    for n in (1, 2):
        for _ in range(15):
            P = random_presentation(rng, F2, n, name="M")
            Q = random_presentation(rng, F2, n, name="N")
            d, w = interleaving_distance(P, Q)
            if d == INF:
                continue
            want = is_interleaved(
                InterleavingProblem(minimize(P), minimize(Q), d))
            assert w.A == want.A and w.B == want.B


def test_every_candidate_probed_is_monotone():
    """Probing every finite candidate gives No...No Yes...Yes, and the
    first Yes is the distance (inf when there is none)."""
    rng = rng_for(810)
    for n in (1, 2):
        for _ in range(12):
            P = minimize(random_presentation(rng, F2, n, max_gens=2,
                                             name="M"))
            Q = minimize(random_presentation(rng, F2, n, max_gens=2,
                                             name="N"))
            finite = candidate_set(P, Q).finite()
            yes = [is_interleaved(InterleavingProblem(P, Q, e)) is not None
                   for e in finite]
            assert yes == sorted(yes)
            d, _ = interleaving_distance(P, Q)
            assert d == (finite[yes.index(True)] if any(yes) else INF)


def test_candidate_set_invariant():
    with pytest.raises(ValueError):
        CandidateSet([1, 2])
    with pytest.raises(ValueError):
        CandidateSet([0, 1])
    assert list(CandidateSet([INF, 1, 0, 1])) == [0, 1, INF]
