"""Exact interleaving distance via the finite candidate set.

The distance between two finitely presented modules is always attained
on a finite set U built from the per-axis critical grades: absolute
differences across the two modules and half-differences within each.
Feasibility ("are they e-interleaved?") is monotone in e, so a binary
search over the sorted candidates finds the least feasible value, and
that value is d_I exactly (no infimum slack: feasibility at the
distance itself holds for finitely presented modules). The search
starts at a lower bound read off the modules' restrictions to diagonal
lines, where the distance is a one-parameter bottleneck distance.

Candidates, the bound and the probes all run on one integer grade
lattice per query (interleave._Lattice), in units of 1/L: every
candidate, every restricted grade and every bar endpoint there is an
int. Values are lifted back at the boundary, as Fraction(v, L): the
public candidate set, the bound, each probe's e and so d_I.
"""

import math
from bisect import bisect_left
from operator import itemgetter, sub

from .presentation import minimize
from .onedim import _bars, _max_bottleneck
from .interleave import (InterleavingProblem, is_interleaved, _Lattice,
                         _check_pair, _check_finite, BudgetExceeded,
                         DEFAULT_BUDGET)

INF = math.inf


class CandidateSet:
    """Sorted distinct extended rationals; always holds 0 and inf."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(sorted(set(values)))
        if not (self.values and self.values[0] == 0
                and self.values[-1] == INF):
            raise ValueError(f"a candidate set must hold 0 and inf, got "
                             f"{list(self.values)}")

    def finite(self):
        return [v for v in self.values if v != INF]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __contains__(self, v):
        return v in self.values

    def __repr__(self):
        return f"CandidateSet({list(self.values)})"


def candidate_set(P_M, P_N):
    """All values the interleaving distance could take.

    Per axis: |x - y| across the two critical-grade sets, plus
    half-differences within each set separately, plus 0 and inf.
    DimensionMismatch when n differs, else FieldMismatch when the
    fields do.
    """
    _check_pair(P_M, P_N)
    lat = _Lattice(minimize(P_M), minimize(P_N))
    return CandidateSet([*map(lat.lift, _candidates(lat)), INF])


def _candidates(lat):
    """The finite candidates of the lattice's two (minimal)
    presentations, as sorted ints in units of 1/L. Every grade there is
    an even int, so the half-differences are ints too."""
    M, N = lat.M, lat.N
    vals = {0}
    for i in range(M.P.n):
        UM = {g[i] for g in (*M.gens, *M.rels)}
        UN = {g[i] for g in (*N.gens, *N.rels)}
        vals.update(abs(x - y) for x in UM for y in UN)
        for one_side in (UM, UN):
            vals.update(abs(a - b) // 2 for a in one_side for b in one_side)
    return sorted(vals)


def _line_bars(S, x):
    """The bars of S's presentation restricted to the diagonal line
    {x + t(1, ..., 1)} through the int grade x. Restriction is exact,
    and the free module at u restricts to the one at the least t with
    u <= x + t(1, ..., 1), max_i(u_i - x_i); so S's matrix on those
    grades presents the restriction. The relations are re-sorted by
    their grade on the line, stably; the column reduction needs them
    in that order."""
    births = [max(map(sub, g, x)) for g in S.gens]
    rels = sorted(((max(map(sub, g, x)), c)
                   for g, c in zip(S.rels, S.terms)), key=itemgetter(0))
    return _bars(births, rels, S.P.field.p)


def diagonal_lower_bound(P_M, P_N):
    """A lower bound on d_I from the restrictions to diagonal lines.

    Restricting to a line of slope (1, ..., 1) commutes with diagonal
    shifts, so an e-interleaving of two modules restricts to one of
    their restrictions, and d_B(M|L, N|L) <= d_I(M, N) for every such
    line L. The bound is the max of d_B over the lines through every
    generator and relation grade of the two presentations (pass minimal
    ones, whose grades are the modules'), each line taken once, named
    by its point with first coordinate 0. A line whose restrictions
    already match within the bound found so far cannot raise it; it
    costs one matching test, or none when the bars alone show the
    match. The loop stops once the bound is inf.
    For n = 1 there is one line and the bound is d_I itself. The
    inputs are checked as for candidate_set.
    """
    _check_pair(P_M, P_N)
    return _diagonal_bound(_Lattice(P_M, P_N))


def _diagonal_bound(lat):
    """diagonal_lower_bound of the lattice's two presentations.

    Everything runs on the lattice, where every restricted grade is an
    even int, so the bars go to the bottleneck core as they are; only
    the bound is lifted back.
    """
    M, N = lat.M, lat.N
    lines = dict.fromkeys(tuple(c - u[0] for c in u)
                          for u in (*M.gens, *M.rels, *N.gens, *N.rels))
    bound = 0
    for x in lines:
        bound = _max_bottleneck(_line_bars(M, x), _line_bars(N, x), bound)
        if bound == INF:
            break
    return lat.lift(bound)


def interleaving_distance(P_M, P_N, budget=DEFAULT_BUDGET):
    """(d_I, witness at d_I) — witness is None when the distance is inf.

    Both presentations are minimized once up front; the answer depends
    only on the presented modules. The distance lies in the finite
    candidate set or is inf, and is at least LB = diagonal_lower_bound.
    The search first probes the least candidate >= LB, which settles
    the answer when the bound is tight (always for n = 1); after a No
    it binary-searches the candidates above for the least feasible one,
    and the distance is inf if none is. When LB is inf or above every
    finite candidate the answer is inf without any probe; when LB is
    inf the candidates are not even built. At most
    ceil(log2(#finite candidates)) + 1 probes are made, and the witness
    is the one is_interleaved finds at the distance. Every probe is on
    one lattice, and d_I is the e of the probe that found the witness
    (the witness's shift).

    The inputs are checked before any work, as for candidate_set, and
    then UnsupportedField over Q. BudgetExceeded from a probe carries
    bracket = (lo, hi) with lo <= d_I <= hi: lo is the least candidate
    >= LB above every No so far, hi the least candidate confirmed Yes,
    or inf.
    """
    _check_pair(P_M, P_N)
    _check_finite(P_M.field)
    Pm = minimize(P_M)
    Pn = minimize(P_N)
    lat = _Lattice(Pm, Pn)
    lb = _diagonal_bound(lat)
    if lb == INF:
        return INF, None
    finite = _candidates(lat)

    # d_I is in finite[lo:hi], or else it is finite[hi] (answered Yes),
    # or inf when hi == len(finite); every candidate below lo is below
    # the bound or answered No
    lo, hi = bisect_left(finite, lb * lat.L), len(finite)
    mid, d, witness = lo, INF, None
    while lo < hi:
        prob = InterleavingProblem._at(lat, finite[mid])
        try:
            w = is_interleaved(prob, budget)
        except BudgetExceeded as exc:
            upper = finite[hi] if hi < len(finite) else INF
            raise BudgetExceeded(exc.required, exc.budget,
                                 bracket=(lat.lift(finite[lo]),
                                          lat.lift(upper))) from exc
        if w is None:
            lo = mid + 1
        else:
            hi, d, witness = mid, prob.e, w
        mid = (lo + hi) // 2
    return d, witness


def is_isomorphic(P_M, P_N, budget=DEFAULT_BUDGET):
    """0-interleaved means mutually inverse degree-preserving maps."""
    prob = InterleavingProblem(minimize(P_M), minimize(P_N), 0)
    return is_interleaved(prob, budget) is not None
