"""End-to-end acceptance checks.

Each criterion prints a single "criterion N (<label>): PASS/FAIL" line.
Failures keep the first few counterexamples in the assertion message so
a red run says what broke without rerunning anything.

Criteria 1, 4 and 5 share one randomized instance suite (the isometry
suite) built once per module: 100 pairs of 1-parameter presentations
over F_2 plus 100 over F_5, each with its computed distance, witness,
candidate set and the number of solver probes the search spent.
"""

import math
import time
from fractions import Fraction

import pytest

import pmod.distance
from pmod import (
    INF,
    Interval,
    InterleavingProblem,
    barcode,
    box_interval,
    candidate_set,
    check_closure,
    compatible_presentations,
    diagram_bottleneck,
    diagram_of,
    export_quadratic_system,
    interleaving_distance,
    is_interleaved,
    minimize,
    parse,
    serialize,
    serialize_pair,
    verify_compatible,
)

from conftest import (
    F2,
    F5,
    brute_bottleneck,
    brute_system_solvable,
    inject_redundancy,
    random_diagram,
    random_presentation,
    rng_for,
)

WALL_SECONDS = 300.0


def _report(num, label, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    line = "criterion %d (%s): %s" % (num, label, status)
    if extra:
        line += "  [%s]" % extra
    print(line)
    assert not failures, "criterion %d: %d failure(s), first few: %r" % (
        num, len(failures), failures[:4])


class _ProbeCounter(object):
    """Swap-in wrapper for the solver entry point used by the search."""

    def __init__(self):
        self.real = pmod.distance.is_interleaved
        self.count = 0

    def __call__(self, prob, budget):
        self.count += 1
        return self.real(prob, budget)

    def __enter__(self):
        pmod.distance.is_interleaved = self
        return self

    def __exit__(self, *exc):
        pmod.distance.is_interleaved = self.real
        return False


@pytest.fixture(scope="module")
def isometry_suite():
    """200 random 1-parameter pairs with distances, probes, witnesses."""
    rng = rng_for(20260815)
    records = []
    t0 = time.time()
    with _ProbeCounter() as counter:
        for field in (F2, F5):
            for k in range(100):
                P = random_presentation(rng, field, 1, name="M")
                Q = random_presentation(rng, field, 1, name="N")
                counter.count = 0
                d, w = interleaving_distance(P, Q)
                records.append({
                    "P": P, "Q": Q, "d": d, "w": w,
                    "probes": counter.count,
                    "cans": candidate_set(P, Q),
                })
    elapsed = time.time() - t0
    return records, elapsed


def test_criterion_1_isometry(isometry_suite):
    records, elapsed = isometry_suite
    failures = []
    for rec in records:
        dB = diagram_bottleneck(barcode(rec["P"]), barcode(rec["Q"]))
        if dB != rec["d"]:
            failures.append((serialize(rec["P"]), serialize(rec["Q"]),
                             rec["d"], dB))
    if elapsed >= WALL_SECONDS:
        failures.append(("wall clock", elapsed))
    _report(1, "isometry d_I == d_B on 200 random pairs", failures,
            extra="%.1fs" % elapsed)


OFFSET_M = "module M\nfield %s\nparams 1\ngen a @ 0\nrel r1 @ 3 = 1*a\n"
OFFSET_N = "module N\nfield %s\nparams 1\ngen b @ 1\nrel s1 @ 3 = 1*b\n"

PAIR_TEXT = {
    "F2": ("field F2\nparams 1\neps 1\n"
           "gen W1 a @ 0\ngen W2 b @ 1\n"
           "rel Y1 m_b @ 2 = 1*a + 1*b\nrel Y1 r1 @ 3 = 1*a\n"
           "rel Y2 m_a @ 1 = 1*a + 1*b\nrel Y2 s1 @ 3 = 1*b\n"),
    "F5": ("field F5\nparams 1\neps 1\n"
           "gen W1 a @ 0\ngen W2 b @ 1\n"
           "rel Y1 m_b @ 2 = 4*a + 1*b\nrel Y1 r1 @ 3 = 1*a\n"
           "rel Y2 m_a @ 1 = 1*a + 4*b\nrel Y2 s1 @ 3 = 1*b\n"),
}


def test_criterion_2_offset_intervals():
    failures = []
    for name in ("F2", "F5"):
        M = parse(OFFSET_M % name)
        N = parse(OFFSET_N % name)
        cs = candidate_set(M, N)
        if cs.values != (0, 1, Fraction(3, 2), 2, 3, INF):
            failures.append((name, "candidates", cs.values))
        d, w = interleaving_distance(M, N)
        if d != 1:
            failures.append((name, "distance", d))
        one = ((1,),)
        if (w is None or w.A.entries != one or w.B.entries != one
                or w.A.field != M.field or w.B.field != M.field):
            failures.append((name, "witness", w))
        if is_interleaved(InterleavingProblem(M, N, Fraction(1, 2))) is not None:
            failures.append((name, "yes at 1/2"))
        wit = is_interleaved(InterleavingProblem(M, N, Fraction(1)))
        pair, PM, PN = compatible_presentations(M, N, wit, Fraction(1))
        if serialize_pair(pair) != PAIR_TEXT[name]:
            failures.append((name, "pair text", serialize_pair(pair)))
        if not verify_compatible(pair, M, N):
            failures.append((name, "pair rejected"))
        if PM.n != 1 or PN.n != 1:
            failures.append((name, "induced shape"))
        if diagram_bottleneck(barcode(M), barcode(N)) != 1:
            failures.append((name, "bottleneck"))
    _report(2, "offset interval pair pinned over F_2 and F_5", failures)


def test_criterion_3_box_distance():
    failures = []
    box = box_interval(F2, (0, 0), [(2, 0), (0, 2)], name="B")
    zero2 = parse("module Z\nfield F2\nparams 2\n")
    d, w = interleaving_distance(box, zero2)
    if d != 1 or w is None:
        failures.append(("2-parameter box", d))
    rng = rng_for(33)
    for k in range(12):
        b = Fraction(rng.randint(0, 8), rng.choice((1, 2, 4)))
        width = Fraction(rng.randint(1, 8), rng.choice((1, 2, 4)))
        box1 = box_interval(F2, (b,), [(b + width,)], name="B")
        zero1 = parse("module Z\nfield F2\nparams 1\n")
        d1, _ = interleaving_distance(box1, zero1)
        if d1 != width / 2:
            failures.append((b, b + width, d1))
    _report(3, "interval module vs zero gives half the width", failures)


def test_criterion_4_candidates_and_probe_count(isometry_suite):
    records, _ = isometry_suite
    failures = []

    def check(rec, tag):
        finite = rec["cans"].finite()
        bound = 1
        if len(finite) > 1:
            bound = int(math.ceil(math.log(len(finite), 2))) + 1
        if rec["d"] is not INF and rec["d"] not in finite:
            failures.append((tag, "membership", rec["d"]))
        if rec["probes"] > bound:
            failures.append((tag, "probes", rec["probes"], bound))

    for k, rec in enumerate(records):
        check(rec, "1-param %d" % k)
    rng = rng_for(77)
    with _ProbeCounter() as counter:
        for k in range(50):
            P = random_presentation(rng, F2, 2, name="M")
            Q = random_presentation(rng, F2, 2, name="N")
            counter.count = 0
            d, w = interleaving_distance(P, Q)
            check({"cans": candidate_set(P, Q), "d": d,
                   "probes": counter.count}, "2-param %d" % k)
    _report(4, "distance lands in candidate set within probe budget",
            failures)


def test_criterion_5_closure_at_computed_distance(isometry_suite):
    records, _ = isometry_suite
    failures = []
    checked = 0
    for k, rec in enumerate(records):
        if rec["d"] is INF:
            continue
        w = rec["w"]
        if w is None:
            failures.append((k, "no witness at finite distance", rec["d"]))
            continue
        prob = InterleavingProblem(minimize(rec["P"]), minimize(rec["Q"]),
                                   rec["d"])
        if not check_closure(w.A, w.B, prob):
            failures.append((k, "closure fails", rec["d"]))
        checked += 1
    # roughly a third of random pairs put an infinite bar on one side
    # only, so well over half the suite still lands here
    if checked < 60:
        failures.append(("too few finite distances", checked))
    _report(5, "returned witnesses satisfy the closure check", failures,
            extra="%d finite" % checked)


def test_criterion_6_quadratic_system_equivalence():
    rng = rng_for(4242)
    failures = []
    done = 0
    attempts = 0
    while done < 30 and attempts < 600:
        attempts += 1
        M = random_presentation(rng, F2, 1, max_gens=2, max_rels=2, name="M")
        N = random_presentation(rng, F2, 1, max_gens=2, max_rels=2, name="N")
        eps = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1),
                          Fraction(2)))
        prob = InterleavingProblem(M, N, eps)
        text = export_quadratic_system(prob)
        nvars = int(text.splitlines()[1].split()[1])
        if nvars > 6:
            continue
        done += 1
        found = is_interleaved(prob) is not None
        brute = brute_system_solvable(text, 2, all_var_count=nvars)
        if found != brute:
            failures.append((serialize(M), serialize(N), eps, found, brute))
    if done < 30:
        failures.append(("only generated", done))
    _report(6, "solver agrees with brute force on the exported system",
            failures)


def test_criterion_7_minimal_presentation_uniqueness():
    rng = rng_for(99)
    failures = []
    for k in range(50):
        P = random_presentation(rng, rng.choice((F2, F5)),
                                rng.choice((1, 2)), min_gens=1, name="M")
        base = minimize(P)
        Q = P
        for j in range(rng.randint(1, 3)):
            Q = inject_redundancy(rng, Q, "%d_%d" % (k, j))
        red = minimize(Q)
        gp = sorted(g.coords for g in base.generators.grades)
        gq = sorted(g.coords for g in red.generators.grades)
        rp = sorted(r.grade.coords for r in base.relations)
        rq = sorted(r.grade.coords for r in red.relations)
        if gp != gq or rp != rq:
            failures.append((k, serialize(P), gp, gq, rp, rq))
    _report(7, "minimal grade multisets survive redundancy injection",
            failures)


def test_criterion_8_bottleneck_matches_brute_force():
    rng = rng_for(1001)
    failures = []
    for k in range(100):
        D = random_diagram(rng)
        E = random_diagram(rng)
        got = diagram_bottleneck(D, E)
        want = brute_bottleneck(D, E)
        if got != want:
            failures.append((k, D.pairs(), E.pairs(), got, want))
    _report(8, "bottleneck agrees with exhaustive matching on 100 pairs",
            failures)


def test_criterion_9_pseudometric_laws():
    failures = []
    rng = rng_for(555)
    for k in range(30):
        mods = [random_presentation(rng, F2, 1, max_gens=2, max_rels=2,
                                    name="M%d" % i) for i in range(3)]
        d01, _ = interleaving_distance(mods[0], mods[1])
        d10, _ = interleaving_distance(mods[1], mods[0])
        if d01 != d10:
            failures.append(("sym", k, d01, d10))
        d12, _ = interleaving_distance(mods[1], mods[2])
        d02, _ = interleaving_distance(mods[0], mods[2])
        if not d02 <= d01 + d12:
            failures.append(("tri", k, d01, d12, d02))
        dself, _ = interleaving_distance(mods[0], mods[0])
        if dself != 0:
            failures.append(("self", k, dself))
    for k in range(100):
        D = random_diagram(rng)
        E = random_diagram(rng)
        G = random_diagram(rng)
        dDE = diagram_bottleneck(D, E)
        dED = diagram_bottleneck(E, D)
        dEG = diagram_bottleneck(E, G)
        dDG = diagram_bottleneck(D, G)
        if dDE != dED:
            failures.append(("bsym", k, dDE, dED))
        if not dDG <= dDE + dEG:
            failures.append(("btri", k, dDE, dEG, dDG))
        if diagram_bottleneck(D, D) != 0:
            failures.append(("bself", k))
    _report(9, "symmetry and triangle inequality hold", failures)


def test_criterion_10_degenerate_intervals():
    failures = []
    empty = diagram_of([])
    for t in (0, 1, Fraction(7, 2)):
        D = diagram_of([Interval(t, t)])
        got = diagram_bottleneck(D, empty)
        if got != 0:
            failures.append((t, got))
        if brute_bottleneck(D, empty) != 0:
            failures.append((t, "brute force"))
    if diagram_bottleneck(empty, empty) != 0:
        failures.append(("empty vs empty",))
    _report(10, "width-zero intervals cost nothing against the empty "
            "diagram", failures)
