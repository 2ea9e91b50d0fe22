"""One-parameter pipeline: barcodes and bottleneck distance.

Over a single parameter every finitely presented module splits as a
finite sum of interval modules C[b, d), so the whole isomorphism type
is a persistence diagram. The barcode comes out of the standard graded
column reduction of the presentation matrix; the bottleneck distance
comes from bipartite matching over a finite candidate list.

Extended values: deaths and distances may be +infinity, represented by
math.inf. The one convention that needs code is inf - inf = 0 when
comparing two deaths (two essential classes cost nothing to match).

Both loops run on ints, and ints stay ints up to the public boundary.
The reduction, _bars, takes each relation's sparse terms
(HomogeneousElement.terms, the nonzero coefficients that parse and
make_element already found) and holds them as sparse columns, so no
dense coefficient tuple is scanned: residues mod p, or over Q each
column's Fractions scaled to ints by the lcm of their denominators, so
that cancelling stays on ints (each column is a nonzero multiple of its
reduction over Q, with the same low rows, and so the same bars).
barcode hands it the grades as the presentation holds them, ints in
units of 1/L on its own grade lattice (Presentation.L, gen_ints and
rel_ints), and keeps the bars it returns: a PersistenceDiagram holds
ints over its least denominator, and makes Intervals of Fractions only
for a caller who reads them. The bottleneck core, _Costs, works on
ints too: every endpoint distance and every halfwidth must be an exact
int, so the public functions rescale both diagrams' bars to units of
1/S, S = 2 * lcm(den of each), and lift the answer back once, as
Fraction(v, S) or inf.

d_B is the least candidate tolerance t at which every bar can be
matched to a bar of the other diagram at cost <= t or sent to the
diagonal, searched as in Kerber, Morozov and Nigmetov, *Geometry helps
to compare persistence diagrams* (JEA 2017), as a binary search of the
candidates. A bar at most 2t wide can always go to the diagonal, so a
test at t asks only whether the wider bars can all be given partners.
By the Mendelsohn-Dulmage theorem (1958), one matching covers the wide
bars of both diagrams iff one matching covers D1's and another covers
D2's, so the test runs an augmenting-path search from D1's wide bars,
then from D2's (_covers). _Costs keeps the raw costs, so a test
compares them with the tolerance itself. The search starts at a floor:
every bar is matched to a partner or sent to the diagonal, so d_B is
at least the cheaper of the two for every bar of both diagrams. One
test at the floor usually settles d_B, and the sorted candidate list
is built only when it fails, for the binary search above the floor.
Every d_B goes through _max_bottleneck(E1, E2, bound), which is
max(bound, d_B): diagram_bottleneck calls it with bound 0 on the
rescaled bars, and the interleaving distance's lower bound
(distance._diagonal_bound) on the bars of each diagonal line of its
query's integer grade lattice (interleave._Lattice), whose grades are
already even ints, lifting only the bound. Two bar lists with
different numbers of essential bars are at d_B = inf, and lists whose
bars alone show d_B <= bound (_within) build no cost table; otherwise
the search starts at the larger of the bound and the floor.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, groupby
from operator import index
from types import MappingProxyType

INF = math.inf


class NotOneParameter(Exception):
    pass


def format_extended(x):
    return "inf" if x == INF else str(x)


class Interval:
    """Half-open [birth, death), death possibly infinite.

    birth == death (an empty interval) is allowed for degenerate
    diagrams fed to the bottleneck routines; barcode never emits one.
    """

    __slots__ = ("birth", "death")

    def __init__(self, birth, death):
        # Fractions are immutable, so one given as an endpoint is kept
        try:
            self.birth = birth if type(birth) is Fraction else Fraction(birth)
            self.death = (death if type(death) is Fraction
                          else INF if death == INF else Fraction(death))
        except OverflowError:  # Fraction of an infinite float
            raise ValueError(f"interval [{birth}, {death}) needs a finite "
                             f"birth and a finite or +inf death")
        if not self.birth <= self.death:
            raise ValueError(f"interval with birth {birth} > death {death}")

    def halfwidth(self):
        return (self.death - self.birth) / 2

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and self.birth == other.birth and self.death == other.death)

    def __hash__(self):
        return hash((self.birth, self.death))

    def __repr__(self):
        return f"[{self.birth}, {format_extended(self.death)})"


class PersistenceDiagram:
    """Finite multiset of intervals; each multiplicity is an int >= 0,
    and the intervals of multiplicity 0 are dropped.

    The diagram is held on ints, as a Grade holds its coordinates: den
    is the least common denominator of the finite endpoints, and bars
    the sorted tuple of every interval as (birth, death) in units of
    1/den, death possibly inf, repeated by its multiplicity. mult, the
    read-only Interval -> multiplicity view, is built from them on
    first read.
    """

    __slots__ = ("den", "bars", "_mult")

    def __init__(self, pairs=()):
        listed = []
        for interval, m in pairs:
            try:
                m = index(m)
            except TypeError:
                raise ValueError(f"multiplicity {m!r} for {interval} is "
                                 f"not an int") from None
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for {interval}")
            if m:
                listed.append((interval.birth, interval.death, m))
        den = math.lcm(*(x.denominator for b, d, _ in listed
                         for x in (b, d) if x != INF))
        bars = []
        for b, d, m in listed:
            bars += [(_in_units(b, den), _in_units(d, den))] * m
        self._hold(den, bars)

    @classmethod
    def _of_ints(cls, L, bars):
        """The diagram of the int bars (birth, death) in units of 1/L."""
        D = cls.__new__(cls)
        D._hold(L, bars)
        return D

    def _hold(self, L, bars):
        """Hold the bars, given in units of 1/L, over their least
        denominator L / g, g the gcd of L and every finite endpoint."""
        g = math.gcd(L, *(x for bar in bars for x in bar if x != INF))
        if g > 1:
            L //= g
            bars = [(b // g, d if d == INF else d // g) for b, d in bars]
        self.den = L
        self.bars = tuple(sorted(bars))
        self._mult = None

    @property
    def mult(self):
        if self._mult is None:
            L = self.den
            self._mult = MappingProxyType(
                {Interval(Fraction(b, L), _lift(d, L)): sum(1 for _ in run)
                 for (b, d), run in groupby(self.bars)})
        return self._mult

    def support(self):
        return list(self.mult)

    def pairs(self):
        return list(self.mult.items())

    def total(self):
        return len(self.bars)

    def __eq__(self, other):
        return (isinstance(other, PersistenceDiagram)
                and self.den == other.den and self.bars == other.bars)

    def __repr__(self):
        inside = ", ".join(f"{i} x {m}" for i, m in self.pairs())
        return f"Diagram{{{inside}}}"


def _in_units(x, L):
    """The Fraction x (or inf) in units of 1/L; L must be a multiple of
    its denominator."""
    return INF if x == INF else x.numerator * (L // x.denominator)


def diagram_of(intervals):
    return PersistenceDiagram((i, 1) for i in intervals)


# ----------------------------------------------------------------------
# barcode
# ----------------------------------------------------------------------

def barcode(P):
    """Persistence diagram of a one-parameter presentation.

    Standard graded column reduction (Zomorodian and Carlsson,
    *Computing persistent homology*, DCG 2005), run by _bars on P's
    grades and the terms of its relations in their stored (grade)
    order. The grades go to _bars as P holds them, ints in units of
    1/P.L, and the diagram keeps the bars it returns as ints.
    Zero-length intervals are dropped (they are how non-minimality of
    the input shows up, and present no bar).
    """
    if P.n != 1:
        raise NotOneParameter(f"barcode needs n=1, got n={P.n}")
    births = [b for b, in P.gen_ints]
    rels = zip([u for u, in P.rel_ints], (el.terms for el in P.relations))
    return PersistenceDiagram._of_ints(P.L, _bars(births, rels, P.field.p))


def _bars(births, rels, p):
    """The (birth, death) pairs, birth < death, of a one-parameter
    presentation given as its generators' births and its relations as
    (grade, terms) pairs in ascending grade order, the terms being the
    (position, raw value) pairs of the nonzero coefficients, as
    HomogeneousElement.terms holds them. No dense coefficients are read.

    Generators are ordered by (birth, index); each relation column, in
    the given order, is a sparse {row: value} dict made from its terms,
    reduced against the previously kept columns by cancelling its lowest
    nonzero row (see _reduce). Over F_p the values are residues, and a
    kept column is scaled so its low entry is 1. Over Q (p is None) the
    column's Fractions are scaled to ints by the lcm of their
    denominators, and the reduction stays on ints. Scaling a column by
    a nonzero constant changes neither its low row nor whether it
    reduces to 0, so the pairs are those of the reduction over Q. A
    column surviving with low row g pairs gr(g) with the relation's
    grade; generators never chosen as a low stay alive forever (death
    inf). Pairs come in generator order.
    """
    # a stable sort: equal grades keep index order
    order = sorted(range(len(births)), key=births.__getitem__)
    row_of = [0] * len(order)
    for r, i in enumerate(order):
        row_of[i] = r

    reduced = {}   # low row -> kept column
    death_of = {}  # low row -> death
    for grade, terms in rels:
        if p is None:
            m = math.lcm(*(c.denominator for _, c in terms))
            col = {row_of[i]: c.numerator * (m // c.denominator)
                   for i, c in terms}
        else:
            col = {row_of[i]: c for i, c in terms}
        low = _reduce(col, reduced, p)
        if low is not None:
            if p is not None:
                f = pow(col[low], -1, p)
                col = {r: v * f % p for r, v in col.items()}
            reduced[low] = col
            death_of[low] = grade

    bars = []
    for r, i in enumerate(order):
        b = births[i]
        d = death_of.get(r, INF)
        if b < d:
            bars.append((b, d))
    return bars


def _reduce(col, reduced, p):
    """Cancel col's low entry against the kept columns (in place) until
    its low row is free; returns that row, or None when col reaches 0.
    This is persistence's column reduction by lowest row, not a solve.

    With f the low entry of col and g that of the kept column, col
    becomes g * col - f * other. Over F_p, g is 1 and the values are
    taken mod p. Over the ints (p is None), f and g are first divided by
    their gcd, and col by the gcd of its entries after each step, which
    keeps the entries from growing with the number of steps.
    """
    while col:
        low = max(col)
        other = reduced.get(low)
        if other is None:
            return low
        f = col[low]
        if p is None:
            g = other[low]
            h = math.gcd(f, g)
            f //= h
            g //= h
            if g != 1:
                for r in col:
                    col[r] *= g
        for r, b in other.items():
            v = col.get(r, 0) - f * b
            if p is not None:
                v %= p
            if v:
                col[r] = v
            else:
                del col[r]
        if p is None:
            h = math.gcd(*col.values())
            if h > 1:
                for r in col:
                    col[r] //= h
    return None


# ----------------------------------------------------------------------
# bottleneck distance
# ----------------------------------------------------------------------

def _covers(adj, nright):
    """Whether the bipartite graph that joins each left vertex i to the
    right vertices adj[i], numbered below nright, has a matching that
    covers every left vertex.

    Kuhn's augmenting-path search from each left vertex in turn; the
    answer is False at the first one it cannot augment. The depth-first
    search keeps its own stack of (vertex, next edge) frames rather than
    recursing: an augmenting path can be longer than the interpreter's
    recursion limit.
    """
    match_r = [-1] * nright
    for root in range(len(adj)):
        seen = set()
        path, edge = [root], [0]
        while path:
            i = path[-1]
            k = edge[-1]
            if k == len(adj[i]):
                path.pop()
                edge.pop()
                continue
            edge[-1] = k + 1
            j = adj[i][k]
            if j in seen:
                continue
            seen.add(j)
            w = match_r[j]
            if w == -1:
                for i, k in zip(path, edge):
                    match_r[adj[i][k - 1]] = i
                break
            path.append(w)
            edge.append(0)
        else:
            return False
    return True


class _Costs:
    """Everything the matching test of two int diagrams reads, computed
    once per diagram pair.

    E1, E2 list each diagram's bars with multiplicity, as (birth, death)
    with int endpoints, death possibly inf, and every finite width
    even, so that every endpoint distance and every halfwidth is an
    exact int. cost holds every pairwise cost (the larger of the birth
    and the death distance) and half1, half2 every halfwidth, all ints
    or inf, so whether a pair is an edge of the partner graph at a
    tolerance, or a bar is wide there, is one comparison.
    The sorted candidate list is built only when asked for
    (candidates), as the search needs it only when its first test
    fails.
    """

    __slots__ = ("cost", "half1", "half2")

    def __init__(self, E1, E2):
        cost = []
        for b, d in E1:
            if d == INF:  # inf - inf = 0: only births count
                cost.append([abs(b - b2) if d2 == INF else INF
                             for b2, d2 in E2])
            else:
                cost.append([INF if d2 == INF
                             else max(abs(b - b2), abs(d - d2))
                             for b2, d2 in E2])
        self.cost = cost
        self.half1 = [INF if d == INF else (d - b) // 2 for b, d in E1]
        self.half2 = [INF if d == INF else (d - b) // 2 for b, d in E2]

    def candidates(self):
        """The sorted values d_B could take: 0, inf, every halfwidth and
        every pairwise cost."""
        return sorted({0, INF, *self.half1, *self.half2,
                       *chain.from_iterable(self.cost)})

    def feasible(self, t):
        """Whether the bars can be matched at tolerance t, each to a bar
        of the other diagram at cost <= t or to the diagonal.

        A bar whose halfwidth is <= t can always go to the diagonal, so
        only the wide bars, halfwidth > t, need partners. By the
        Mendelsohn-Dulmage theorem one matching of the partner graph
        covers the wide bars of both diagrams iff one matching covers
        D1's and another covers D2's, so each side is tested on its own.
        """
        cost = self.cost
        wide1 = [[j for j, c in enumerate(row) if c <= t]
                 for row, h in zip(cost, self.half1) if h > t]
        if not _covers(wide1, len(self.half2)):
            return False
        wide2 = [[i for i, row in enumerate(cost) if row[j] <= t]
                 for j, h in enumerate(self.half2) if h > t]
        return _covers(wide2, len(cost))

    def floor(self):
        """A lower bound on the bottleneck distance, itself a candidate.

        Every bar is either matched to a bar of the other diagram or
        sent to the diagonal, so d_B is at least the cheaper of its
        halfwidth and its cheapest partner, for every bar of both
        diagrams; the floor is the largest of these.
        """
        lo = 0
        least2 = self.half2
        for row, h in zip(self.cost, self.half1):
            lo = max(lo, min([h, *row]))
            least2 = list(map(min, least2, row))
        return max([lo, *least2])

    def least_feasible(self, lo):
        """lo when tolerance lo is feasible, else the least feasible
        candidate above lo; feasibility is monotone in the tolerance and
        holds at inf, the last candidate.

        One test at lo settles it when lo is feasible, as the
        floor usually is; otherwise the candidates above lo are binary
        searched.
        """
        if self.feasible(lo):
            return lo
        values = self.candidates()
        i, hi = bisect_right(values, lo), len(values) - 1
        while i < hi:
            mid = (i + hi) // 2
            if self.feasible(values[mid]):
                hi = mid
            else:
                i = mid + 1
        return values[i]


def _scaled_bars(D1, D2):
    """(S, E1, E2) for two diagrams.

    E1 and E2 are the diagrams' bars with multiplicity, in (birth,
    death) order, with their endpoints in units of 1/S,
    S = 2 * lcm(D1.den, D2.den), which is twice the lcm of all endpoint
    denominators; the factor 2 makes the halfwidths whole, as _Costs
    needs. Scaling keeps the order, and a value v computed from them is
    the rational v / S.
    """
    S = 2 * math.lcm(D1.den, D2.den)

    def listed(D):
        k = S // D.den
        return [(b * k, d if d == INF else d * k) for b, d in D.bars]

    return S, listed(D1), listed(D2)


def _lift(v, S):
    return INF if v == INF else Fraction(v, S)


def bottleneck_candidates(D1, D2):
    """Sorted values the bottleneck distance could take: 0, inf, every
    halfwidth and, for every pair of intervals, the larger of their
    birth and death distances (inf - inf = 0)."""
    S, E1, E2 = _scaled_bars(D1, D2)
    return [_lift(v, S) for v in _Costs(E1, E2).candidates()]


def diagram_bottleneck(D1, D2):
    """Least e at which a feasible multibijection exists.

    The optimum is always one of bottleneck_candidates: 0, an endpoint
    distance between two intervals, or a halfwidth. Feasibility is
    monotone in e and always holds at inf, so a search over that sorted
    list finds the exact minimum. The search is _max_bottleneck's at
    bound 0: it starts at the floor (_Costs.floor), a lower bound that
    one test usually shows feasible, and binary-searches the candidates
    above only when that test fails. The pairwise costs are computed
    once; each step of the search runs one feasibility test on them.
    """
    S, E1, E2 = _scaled_bars(D1, D2)
    return _lift(_max_bottleneck(E1, E2, 0), S)


def _within(E1, E2, bound):
    """Whether the bars alone show d_B(E1, E2) <= bound, for two int
    bar lists (as _Costs takes them) with the same number of essential
    bars and an int bound >= 0.

    They do when every finite bar has width <= 2 * bound and the
    essential births, paired in sorted order, differ by <= bound:
    sending every finite bar to the diagonal and matching the essential
    bars in that order is then a matching within bound.
    """
    width = 2 * bound
    births = ([], [])
    for E, ess in zip((E1, E2), births):
        for b, d in E:
            if d == INF:
                ess.append(b)
            elif d - b > width:
                return False
    ess1, ess2 = births
    ess1.sort()
    ess2.sort()
    return all(abs(b1 - b2) <= bound for b1, b2 in zip(ess1, ess2))


def _max_bottleneck(E1, E2, bound):
    """max(bound, d_B) of two int bar lists (as _Costs takes them) for
    an int bound >= 0.

    An essential bar can only be matched to an essential bar, so lists
    with different numbers of them are at d_B = inf. When the bars
    alone show d_B <= bound (_within), that is bound. Neither builds a
    cost table. Otherwise the search starts at the larger of bound and
    the floor: one feasibility test there settles the common case, and
    only when it fails are the candidates above it binary-searched.
    """
    if sum(d == INF for _, d in E1) != sum(d == INF for _, d in E2):
        return INF
    if _within(E1, E2, bound):
        return bound
    costs = _Costs(E1, E2)
    return costs.least_feasible(max(bound, costs.floor()))
