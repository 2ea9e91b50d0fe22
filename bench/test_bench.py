"""Tests of the benchmark's own parts: tracer arithmetic, answer checks
and generator premises. Run with `python3 -m pytest bench`."""

import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pmod  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_calls():
    clock = FakeClock()
    ns = types.SimpleNamespace()

    def inner(dt):
        clock.t += dt

    def outer():
        clock.t += 1.0
        ns.inner(2.0)
        clock.t += 0.5
        ns.inner(3.0)
        clock.t += 0.25

    ns.inner, ns.outer = inner, outer
    tracer = Tracer(clock)
    tracer.install([ns], {"x.outer": outer, "x.inner": inner})
    tracer.qid = 7
    ns.outer()
    tracer.uninstall()
    assert ns.outer is outer and ns.inner is inner

    top, first, second = tracer.spans
    assert [s.name for s in tracer.spans] == ["x.outer", "x.inner",
                                              "x.inner"]
    assert {s.qid for s in tracer.spans} == {7}
    assert top.parent is None and first.parent is top
    assert second.parent is top
    assert top.duration == 6.75
    assert top.self_time == 1.75
    assert (first.self_time, second.self_time) == (2.0, 3.0)
    assert tracer.totals() == {"x.outer": (1, 1.75), "x.inner": (2, 5.0)}


def test_paused_work_is_outside_every_span():
    clock = FakeClock()
    ns = types.SimpleNamespace()
    tracer = Tracer(clock)

    def leaf():
        clock.t += 1.0

    def observe(args, kwargs, result):
        ns.leaf()          # records nothing while paused
        clock.t += 10.0
        return "seen"

    def outer():
        ns.leaf()
        clock.t += 2.0

    ns.leaf, ns.outer = leaf, outer
    tracer.install([ns], {"x.leaf": leaf, "x.outer": outer},
                   {"x.leaf": observe})
    start = tracer.now()
    ns.outer()
    assert tracer.now() - start == 3.0
    top, child = tracer.spans
    assert len(tracer.spans) == 2
    assert (top.duration, top.self_time, child.note) == (3.0, 2.0, "seen")


def test_slowness_factor():
    clock = FakeClock()

    def work():                        # a host twice as fast as UNIT_S
        clock.t += hostspeed.UNIT_S / 2

    meter = hostspeed.Meter(clock, work)
    meter.run(2 * hostspeed.UNIT_S)
    assert meter.units == 4 and meter.factor() == pytest.approx(0.5)
    meter.reset()
    meter.run(0)                       # at least one unit
    assert meter.units == 1 and meter.factor() == pytest.approx(0.5)


def _dist_record():
    """One within-cluster query of distmatrix-n2-f2 and its answer."""
    queries = workloads.Distmatrix.build(pmod, 0)
    q = next(q for q in queries if q.ci == q.cj and q.family == 0)
    return q, workloads.Distmatrix.run(pmod, q)


def test_distmatrix_checks_reject_corrupt_answers():
    check = workloads.Distmatrix.check
    q, (d, w) = _dist_record()
    assert d <= 2 * gen.T
    assert check(pmod, [(q, (d, w))]) == {}
    assert 0 in check(pmod, [(q, (Fraction(1, 7), w))])      # not a candidate
    assert 0 in check(pmod, [(q, (d, None))])                # lost witness
    assert 0 in check(pmod, [(q, (float("inf"), None))])     # > 2t in cluster
    assert 0 in check(pmod, [(q, ValueError("boom"))])
    assert 1 in check(pmod, [(q, (d, w)), (q, (d + 1, w))])  # not repeatable


def test_triangle_inequality_check():
    a, b, c = 0, 1, 2
    dist = {(0, a, b): Fraction(1), (0, b, c): Fraction(1),
            (0, a, c): Fraction(3)}
    assert set(workloads._triangle_violations(dist)) == set(dist)
    dist[(0, a, c)] = Fraction(2)
    assert workloads._triangle_violations(dist) == {}


def test_characterize_checks_reject_corrupt_answers():
    C = workloads.Characterize
    M = pmod.box_interval(pmod.FieldSpec(3), (0, 0), [(2, 2)], "M")
    N = pmod.box_interval(pmod.FieldSpec(3), (1, 1), [(3, 3)], "N")
    mt, nt = pmod.serialize(M), pmod.serialize(N)
    at_t = workloads.CharQuery(0, mt, nt, Fraction(gen.T))
    below = workloads.CharQuery(0, mt, nt, Fraction(1, 2))
    yes = C.run(pmod, at_t)
    assert yes[0] is not None
    assert C.check(pmod, [(at_t, yes)]) == {}
    assert 0 in C.check(pmod, [(at_t, (None, None))])   # No at eps >= t
    early = workloads.CharQuery(1, mt, nt, Fraction(1, 4))
    late = workloads.CharQuery(1, mt, nt, Fraction(1, 2))
    assert 1 in C.check(pmod, [(early, yes), (late, (None, None))])
    assert 0 in C.check(pmod, [(below, (yes[0], "no eps line"))])


def test_barcode_checks_reject_corrupt_answers():
    B = workloads.Barcode
    q = B.build(pmod, 0)[0]
    d = B.run(pmod, q)
    assert d <= gen.T
    assert B.check(pmod, [(q, d)]) == {}
    assert 0 in B.check(pmod, [(q, d + gen.T)])         # above t
    assert 0 in B.check(pmod, [(q, Fraction(1, 1000))])  # not a candidate


def test_generator_is_seeded():
    def texts(seed):
        return [M.text() + N.text()
                for M, N in gen.barcode_pairs(random.Random(seed))]
    assert texts(3) == texts(3)
    assert texts(3) != texts(4)
