"""The three benchmark workloads: inputs, one query, answer checks.

A workload builds its query list from a seed (gen.py makes the module
texts; only characterize-n2-f3 asks pmod for candidate sets, to pick
its shifts). A query hands pmod nothing but module texts and shifts,
and calls pmod through the package attributes, so the tracer sees it.
check() runs outside the timed region and returns, for each failed
record, the reason; a record is (query, answer) and an answer that is
an exception means the query raised.
"""

import math
import random
from itertools import combinations

import gen

INF = math.inf


def _check_records(records, answer_of, check_one):
    """The checks every workload shares. A query that raised fails; a
    repeated query must give the same answer_of(answer) as its first
    run; check_one(query, answer) gives the reason a first answer is
    wrong, or None, and its verdict holds for the repeats. Returns
    (bad, first) with first mapping each key to its first answer_of.
    """
    bad, first, verdict = {}, {}, {}
    for k, (q, ans) in enumerate(records):
        if isinstance(ans, BaseException):
            bad[k] = f"raised {ans!r}"
            continue
        a = answer_of(ans)
        if q.key in first and first[q.key] != a:
            bad[k] = f"answer {a} differs from earlier {first[q.key]}"
            continue
        first.setdefault(q.key, a)
        if q.key not in verdict:
            verdict[q.key] = check_one(q, ans)
        if verdict[q.key] is not None:
            bad[k] = verdict[q.key]
    return bad, first


class DistQuery:
    __slots__ = ("family", "i", "j", "ci", "cj", "text_i", "text_j")

    def __init__(self, family, i, j, ci, cj, text_i, text_j):
        self.family, self.i, self.j = family, i, j
        self.ci, self.cj = ci, cj
        self.text_i, self.text_j = text_i, text_j

    @property
    def key(self):
        return (self.family, self.i, self.j)


class Distmatrix:
    """All-pairs d_I over clustered families of n=2 F2 modules."""

    name = "distmatrix-n2-f2"

    @staticmethod
    def build(pmod, seed):
        """Each family's pairs in shuffled order, the families taken
        in turn, so that a window that ends early has sampled every
        family rather than a few whole ones."""
        rng = random.Random(seed)
        per_family = []
        for f, members in enumerate(gen.distmatrix_families(rng)):
            pairs = list(combinations(range(len(members)), 2))
            rng.shuffle(pairs)
            texts = [M.text() for _, M in members]
            per_family.append([DistQuery(f, i, j, members[i][0],
                                         members[j][0], texts[i], texts[j])
                               for i, j in pairs])
        return [q for turn in zip(*per_family) for q in turn]

    @staticmethod
    def run(pmod, q):
        P = pmod.parse(q.text_i)
        Q = pmod.parse(q.text_j)
        return pmod.interleaving_distance(P, Q)

    @staticmethod
    def check(pmod, records):
        bad, dist = _check_records(
            records, lambda ans: ans[0],
            lambda q, ans: Distmatrix._check_one(pmod, q, *ans))
        for key, why in _triangle_violations(dist).items():
            for k, (q, _) in enumerate(records):
                if q.key == key:
                    bad.setdefault(k, why)
        return bad

    @staticmethod
    def _check_one(pmod, q, d, w):
        P = pmod.parse(q.text_i)
        Q = pmod.parse(q.text_j)
        if d not in pmod.candidate_set(P, Q):
            return f"d = {d} is not a candidate value"
        if q.ci == q.cj and d > 2 * gen.T:
            return f"d = {d} > 2t inside one cluster"
        if (w is None) != (d == INF):
            return "witness present iff d is finite fails"
        if w is not None:
            try:
                pmod.compatible_presentations(
                    pmod.minimize(P), pmod.minimize(Q), w, d)
            except pmod.InvalidWitness as exc:
                return f"witness rejected: {exc}"
        return None


def _triangle_violations(dist):
    """Keys of every distance in a triple of one family that breaks
    d(a, c) <= d(a, b) + d(b, c), among triples with all three known."""
    by_family = {}
    for (f, i, j), d in dist.items():
        by_family.setdefault(f, {})[(i, j)] = d
    bad = {}
    for f, known in by_family.items():
        nodes = sorted({x for pair in known for x in pair})
        for a, b, c in combinations(nodes, 3):
            sides = [(a, b), (b, c), (a, c)]
            if not all(s in known for s in sides):
                continue
            ab, bc, ac = (known[s] for s in sides)
            if ac > ab + bc or ab > ac + bc or bc > ab + ac:
                for s in sides:
                    bad[(f, *s)] = f"triangle inequality fails on {a, b, c}"
    return bad


class CharQuery:
    __slots__ = ("pair", "text_m", "text_n", "eps")

    def __init__(self, pair, text_m, text_n, eps):
        self.pair, self.text_m, self.text_n, self.eps = \
            pair, text_m, text_n, eps

    @property
    def key(self):
        return (self.pair, self.eps)


class Characterize:
    """The `pmod characterize` flow on t-perturbation pairs over F3."""

    name = "characterize-n2-f3"

    @staticmethod
    def build(pmod, seed):
        rng = random.Random(seed)
        queries = []
        for k, (M, N) in enumerate(gen.characterize_pairs(rng)):
            mt, nt = M.text(), N.text()
            cands = pmod.candidate_set(pmod.parse(mt), pmod.parse(nt))
            for eps in gen.choose_eps(rng, M, N, cands.finite()):
                queries.append(CharQuery(k, mt, nt, eps))
        rng.shuffle(queries)
        return queries

    @staticmethod
    def run(pmod, q):
        P = pmod.parse(q.text_m)
        Q = pmod.parse(q.text_n)
        w = pmod.is_interleaved(pmod.InterleavingProblem(P, Q, q.eps))
        if w is None:
            return None, None
        pair, _, _ = pmod.compatible_presentations(P, Q, w, q.eps)
        return w, pmod.serialize_pair(pair)

    @staticmethod
    def check(pmod, records):
        bad, yes = _check_records(
            records, lambda ans: ans[0] is not None,
            lambda q, ans: Characterize._check_one(pmod, q, *ans))
        least_yes = {}
        for (pair, eps), ok in yes.items():
            if ok:
                least_yes[pair] = min(eps, least_yes.get(pair, eps))
        for k, (q, _) in enumerate(records):
            if (k not in bad and not yes[q.key] and q.pair in least_yes
                    and q.eps > least_yes[q.pair]):
                bad[k] = (f"No at eps = {q.eps} after Yes at "
                          f"{least_yes[q.pair]}: not monotone")
        return bad

    @staticmethod
    def _check_one(pmod, q, w, text):
        if w is None:
            if q.eps >= gen.T:
                return f"No at eps = {q.eps} >= t"
            return None
        P = pmod.parse(q.text_m)
        Q = pmod.parse(q.text_n)
        try:
            pmod.compatible_presentations(P, Q, w, q.eps)
        except pmod.InvalidWitness as exc:
            return f"witness rejected: {exc}"
        if f"\neps {q.eps}\n" not in text:
            return "serialized pair does not carry eps"
        return None


class BarQuery:
    __slots__ = ("pair", "text_m", "text_n")

    def __init__(self, pair, text_m, text_n):
        self.pair, self.text_m, self.text_n = pair, text_m, text_n

    @property
    def key(self):
        return self.pair


class Barcode:
    """d_B of one-parameter t-perturbation pairs over Q and F3."""

    name = "barcode-n1"

    @staticmethod
    def build(pmod, seed):
        rng = random.Random(seed)
        return [BarQuery(k, M.text(), N.text())
                for k, (M, N) in enumerate(gen.barcode_pairs(rng))]

    @staticmethod
    def run(pmod, q):
        D1 = pmod.barcode(pmod.parse(q.text_m))
        D2 = pmod.barcode(pmod.parse(q.text_n))
        return pmod.diagram_bottleneck(D1, D2)

    @staticmethod
    def check(pmod, records):
        bad, _ = _check_records(records, lambda d: d,
                                lambda q, d: Barcode._check_one(pmod, q, d))
        return bad

    @staticmethod
    def _check_one(pmod, q, d):
        if d > gen.T:
            return f"d_B = {d} > t"
        D1 = pmod.barcode(pmod.parse(q.text_m))
        D2 = pmod.barcode(pmod.parse(q.text_n))
        if d not in pmod.bottleneck_candidates(D1, D2):
            return f"d_B = {d} is not a candidate value"
        return None


WORKLOADS = {w.name: w for w in (Distmatrix, Characterize, Barcode)}
