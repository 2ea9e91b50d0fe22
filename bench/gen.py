"""Seeded input generators for the benchmark workloads.

Everything here is plain Python over Fractions and never imports pmod:
the benchmark hands pmod only the module texts produced here, so a
change to pmod cannot change the inputs it is measured on.

A module is a presentation <gens | rels>. A t-perturbation keeps the
presentation matrix and moves every generator and relation grade by at
most t in each coordinate (relation grades are then raised, by less
than t, to stay above the generators they touch). Two presentations
with one matrix whose grades differ by at most t are t-interleaved,
which is what the answer checks rely on.
"""

import random
from fractions import Fraction

T = 1  # every perturbation in every workload moves grades by at most T


class Module:
    """A presentation as plain data; text() gives pmod's file format.

    gens: list of (name, grade); rels: list of (name, grade, coeffs)
    with coeffs a dict gen name -> nonzero coefficient (an int residue
    or a Fraction). Grades are tuples of Fractions. slot maps the name
    of each redundant relation to its generator's, which it moves with
    under perturb(); every other name moves on its own.
    """

    def __init__(self, name, field, n, gens, rels, slot):
        self.name = name
        self.field = field
        self.n = n
        self.gens = gens
        self.rels = rels
        self.slot = slot

    def text(self):
        out = [f"module {self.name}", f"field {self.field}",
               f"params {self.n}"]
        for nm, g in self.gens:
            out.append(f"gen {nm} @ {_fmt_grade(g)}")
        for nm, g, coeffs in self.rels:
            terms = " + ".join(f"{c}*{gn}" for gn, c in coeffs.items())
            out.append(f"rel {nm} @ {_fmt_grade(g)} = {terms or '0'}")
        return "\n".join(out) + "\n"


def _fmt_grade(g):
    if len(g) == 1:
        return str(g[0])
    return "(" + ", ".join(str(c) for c in g) + ")"


def _join(grades, n):
    return tuple(max(g[i] for g in grades) for i in range(n))


def _leq(a, b):
    return all(x <= y for x, y in zip(a, b))


def _coeff(rng, field):
    if field == "Q":
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                        rng.choice((1, 1, 2, 3)))
    return rng.randrange(1, int(field[1:]))


def random_module(rng, name, field, n, ngens, nrels, nredundant,
                  span=4, step=Fraction(1, 2), extra=0.3):
    """A random presentation with nredundant injected redundant pairs.

    Real generators sit on a grid of spacing step in [0, span]^n; each
    relation sits at the join of 1-3 generators plus a small bump and
    touches each other generator alive there with probability extra.
    A redundant pair is a generator x and a relation at exactly gr(x)
    with coefficient 1 on x, the way presentations read off a
    filtration carry them; minimize removes both. The relation only
    touches generators at least 2T below gr(x), so the pair stays
    redundant under T-perturbation.
    """
    cells = int(span / step)

    def point():
        return tuple(step * rng.randint(0, cells) for _ in range(n))

    gens = [(f"g{i + 1}", point()) for i in range(ngens)]
    rels = []
    slot = {}
    for k in range(nredundant):
        x, u = f"x{k + 1}", point()
        coeffs = {x: 1}
        for gn, g in gens:
            if _leq(tuple(c + 2 * T for c in g), u) and rng.random() < 0.5:
                coeffs[gn] = _coeff(rng, field)
        rels.append((f"rx{k + 1}", u, coeffs))
        slot[f"rx{k + 1}"] = x
        gens.append((x, u))
    grade_of = dict(gens)
    real = [gn for gn, _ in gens[:ngens]]
    for k in range(nrels):
        picks = rng.sample(real, rng.randint(1, min(3, ngens)))
        base = _join([grade_of[p] for p in picks], n)
        u = tuple(c + step * rng.choice((0, 1, 2)) for c in base)
        coeffs = {p: _coeff(rng, field) for p in picks}
        for gn, g in gens:
            if rng.random() < extra and gn not in coeffs and _leq(g, u):
                coeffs[gn] = _coeff(rng, field)
        rels.append((f"r{k + 1}", u, coeffs))
    return Module(name, field, n, gens, rels, slot)


def perturb(rng, M, name, step=Fraction(1, 2)):
    """A T-perturbation of M: same matrix, grades moved by at most T.

    Each slot (a generator together with its redundant relation, or a
    relation alone) moves by one offset drawn per coordinate from the
    multiples of step in [-T, T].
    """
    offsets = [step * k for k in range(-int(T / step), int(T / step) + 1)]
    delta = {}

    def moved(nm, g):
        s = M.slot.get(nm, nm)
        if s not in delta:
            delta[s] = tuple(rng.choice(offsets) for _ in range(M.n))
        return tuple(a + b for a, b in zip(g, delta[s]))

    gens = [(nm, moved(nm, g)) for nm, g in M.gens]
    grade_of = dict(gens)
    rels = []
    for nm, g, coeffs in M.rels:
        u = moved(nm, g)
        u = _join([u] + [grade_of[gn] for gn in coeffs], M.n)
        rels.append((nm, u, dict(coeffs)))
    return Module(name, M.field, M.n, gens, rels, M.slot)


def pattern_entries(M, N, e):
    """Free entries of the smaller of the two grade-patterned matrix
    spaces at shift e: min over directions of #{(i, j) : gr(target_i)
    <= gr(source_j) + e}. The searched space has at most p to this
    power elements, whatever pruning the search does.
    """
    def count(src, tgt):
        return sum(1 for _, gt in tgt.gens for _, gs in src.gens
                   if _leq(gt, tuple(c + e for c in gs)))
    return min(count(M, N), count(N, M))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

# distmatrix-n2-f2: per family, one base module per entry of
# CLUSTER_FREE (generator count minus relation count, its free rank
# when the relations are independent; modules of different free rank
# are at distance inf) and DIST_MEMBERS
# t-perturbations of each base: 15 modules, 105 pairs, about half of
# them at d = inf. Many small families rather than a few large ones,
# so that one run covers many independent base modules: a 30 s window
# completes about a third of the 45 * 105 pairs, and the query order
# takes the families in turn.
DIST_GENS = 4
DIST_REDUNDANT = 1
CLUSTER_FREE = (1, 1, 1, 2, 2)
DIST_MEMBERS = 3
DIST_FAMILIES = 45


def distmatrix_families(rng):
    """DIST_FAMILIES families; each is a list of (cluster, Module)."""
    families = []
    for f in range(DIST_FAMILIES):
        members = []
        for c, free in enumerate(CLUSTER_FREE):
            base = random_module(rng, f"f{f}c{c}", "F2", 2, DIST_GENS,
                                 DIST_GENS - free, DIST_REDUNDANT)
            for m in range(DIST_MEMBERS):
                members.append((c, perturb(rng, base, f"f{f}c{c}m{m}")))
        families.append(members)
    return families


# characterize-n2-f3: perturbation pairs over F3, generator counts
# cycling through CHAR_GENS; relation count g-1 or g; at most one
# redundant pair. The eps values are chosen per pair from pmod's
# candidate set (by the caller) among those with at most
# CHAR_MAX_ENTRIES pattern entries, which caps a No probe at
# 3^CHAR_MAX_ENTRIES candidates.
CHAR_GENS = (3, 4, 5)
CHAR_SPAN = 8
CHAR_PAIRS = 600
CHAR_MAX_ENTRIES = 6
CHAR_MAX_EPS = Fraction(3, 2) * T


def characterize_pairs(rng):
    pairs = []
    for k in range(CHAR_PAIRS):
        g = CHAR_GENS[k % len(CHAR_GENS)]
        M = random_module(rng, f"M{k}", "F3", 2, g, rng.randint(g - 1, g),
                          rng.randint(0, 1), span=CHAR_SPAN)
        pairs.append((M, perturb(rng, M, f"N{k}")))
    return pairs


def choose_eps(rng, M, N, finite_candidates):
    """Up to two shifts from the candidates: one below T, one at or
    above it when both exist (a pair is T-interleaved, so the second
    is a Yes), among those with a bounded pattern space."""
    ok = [c for c in finite_candidates
          if 0 < c <= CHAR_MAX_EPS
          and pattern_entries(M, N, c) <= CHAR_MAX_ENTRIES]
    lo = [c for c in ok if c < T]
    hi = [c for c in ok if c >= T]
    if lo and hi:
        return [rng.choice(lo), rng.choice(hi)]
    return rng.sample(ok, min(2, len(ok)))


# barcode-n1: one-parameter pairs, generator counts stratified over
# BAR_GENS (plus 0-3), fields alternating Q and F3, so every block of
# len(BAR_GENS) * 2 pairs covers every size and field once. Grades lie
# on a grid of spacing BAR_STEP, so many bottleneck candidates fall
# below d_B <= t and the candidate scan does real work.
BAR_GENS = (16, 20, 24, 28)
BAR_STEP = Fraction(1, 8)
BAR_FIELDS = ("Q", "F3")
BAR_BLOCKS = 80


def barcode_pairs(rng):
    pairs = []
    for _ in range(BAR_BLOCKS):
        block = [(g, f) for g in BAR_GENS for f in BAR_FIELDS]
        rng.shuffle(block)
        for g0, field in block:
            g = g0 + rng.randint(0, 3)
            M = random_module(rng, "M", field, 1, g, rng.randint(g - 5, g),
                              0, span=g // 2, step=BAR_STEP, extra=0.1)
            pairs.append((M, perturb(rng, M, "N", BAR_STEP)))
    return pairs
