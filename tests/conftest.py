"""Shared generators and brute-force oracles for the test suite.

The oracles here are deliberately independent of the library internals:
dimension counts and rank are recomputed with a local Gaussian
elimination over int residues or Fractions, bottleneck costs with inline
interval arithmetic, and exported polynomial systems are re-parsed from
text and solved by exhaustive assignment. Tests compare library answers
against these, never against the library's own helpers.
"""

import math
import random
from fractions import Fraction
from itertools import product

from pmod import (FieldSpec, Grade, GradedSet, Interval, Presentation,
                  diagram_of, grade_leq, make_element)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


# ----------------------------------------------------------------------
# random instances
# ----------------------------------------------------------------------

def rand_coord(rng, span=4, denom=4):
    d = rng.randint(1, denom)
    return Fraction(rng.randint(0, span * d), d)


def rand_grade(rng, n, span=4, denom=4):
    return Grade([rand_coord(rng, span, denom) for _ in range(n)])


def rand_coeff(rng, field):
    """A random residue over F_p; a small signed rational over Q."""
    if field.is_rationals:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randrange(field.p)


def random_presentation(rng, field, n, max_gens=3, max_rels=3,
                        min_gens=0, min_rels=0, name="M", span=4, denom=4):
    """A random presentation with small rational grades, over F_p or Q.

    Relation grades sit at the join of a random subset of generator
    grades, optionally bumped, so the admissibility pattern is usually
    nontrivial. Zero relations can occur and are legitimate input.
    """
    ngens = rng.randint(min_gens, max_gens)
    items = [(f"g{i + 1}", rand_grade(rng, n, span, denom))
             for i in range(ngens)]
    gens = GradedSet(items)
    rels = []
    nrels = rng.randint(min_rels, max_rels) if ngens else 0
    for k in range(nrels):
        picks = rng.sample(range(ngens), rng.randint(1, ngens))
        coords = [max(gens.grades[i].coords[t] for i in picks)
                  for t in range(n)]
        bump = rng.choice([0, 0, Fraction(1, 2), 1])
        u = Grade([c + bump for c in coords])
        coeffs = [rand_coeff(rng, field) if grade_leq(g, u)
                  else field.coerce(0)
                  for g in gens.grades]
        rels.append((f"r{k + 1}", make_element(gens, u, coeffs, field)))
    return Presentation(field, n, gens, rels, name=name)


def random_diagram(rng, max_intervals=3, span=4, denom=4, inf_prob=0.2):
    ivals = []
    for _ in range(rng.randint(0, max_intervals)):
        b = rand_coord(rng, span, denom)
        if rng.random() < inf_prob:
            d = math.inf
        else:
            d = b + Fraction(rng.randint(1, span * denom), denom)
        ivals.append(Interval(b, d))
        if rng.random() < 0.3:
            ivals.append(Interval(b, d))
    return diagram_of(ivals)


# ----------------------------------------------------------------------
# dimension oracle (local Gauss over F_p or Q, independent of pmod.freemod)
# ----------------------------------------------------------------------

def _local_reduce(rows, width, p):
    """Reduced row echelon form of the first width columns, over F_p
    for int residues or over Q for rationals when p is None; longer rows
    carry their extra columns along. Returns (rows, pivot columns)."""
    def red(x):
        return Fraction(x) if p is None else x % p

    rows = [[red(x) for x in r] for r in rows]
    rank = 0
    pivots = []
    for c in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        fac = 1 / rows[rank][c] if p is None else pow(rows[rank][c], -1, p)
        rows[rank] = [red(x * fac) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [red(a - f * b)
                           for a, b in zip(rows[i], rows[rank])]
        pivots.append(c)
        rank += 1
    return rows, pivots


def local_rank(rows, width, p):
    """Rank over F_p of rows of int residues, or over Q of rows of
    rationals when p is None."""
    return len(_local_reduce(rows, width, p)[1])


def local_solve(rows, width, rhs, p):
    """The solution of rows . x = rhs with every free variable zero, or
    None when there is none; values as in local_rank."""
    red, pivots = _local_reduce([[*r, b] for r, b in zip(rows, rhs)],
                                width, p)
    if any(r[width] for r in red[len(pivots):]):
        return None
    x = [0 if p else Fraction(0)] * width
    for r, c in zip(red, pivots):
        x[c] = r[width]
    return x


def restrict_diagonal(P, x):
    """P's module restricted to the line {x + t(1, ..., 1) : t real},
    as a one-parameter presentation on Fraction grades.

    The free module generated at u restricts to the free module
    generated at the least t with u <= x + t(1, ..., 1), which is
    max_i(u_i - x_i); restriction is exact, so P's matrix on those
    grades presents the restriction.
    """
    x = [Fraction(c) for c in x]

    def on_line(u):
        return Grade([max(a - b for a, b in zip(u.coords, x))])

    gens = GradedSet([(nm, on_line(g)) for nm, g in P.generators])
    pairs = [(nm, make_element(gens, on_line(el.grade), el.coeffs, P.field))
             for nm, el in P.rel_pairs()]
    return Presentation(P.field, 1, gens, pairs, P.name)


def dim_at(P, t):
    """dim of the presented 1-parameter module at t, by direct count."""
    assert P.n == 1
    alive = [i for i, g in enumerate(P.generators.grades)
             if g.coords[0] <= t]
    rows = [[el.coeffs[i] for i in alive]
            for el in P.relations if el.grade.coords[0] <= t]
    return len(alive) - local_rank(rows, len(alive), P.field.p)


# ----------------------------------------------------------------------
# bottleneck oracle (exhaustive over partial injections)
# ----------------------------------------------------------------------

def pair_cost(i1, i2):
    """The cost of matching two intervals: the larger of the birth and
    the death distance, with inf - inf = 0."""
    db = abs(i1.birth - i2.birth)
    if i1.death == math.inf and i2.death == math.inf:
        dd = 0
    elif i1.death == math.inf or i2.death == math.inf:
        return math.inf
    else:
        dd = abs(i1.death - i2.death)
    return max(db, dd)


def _solo_cost(iv):
    if iv.death == math.inf:
        return math.inf
    return (iv.death - iv.birth) / 2


def brute_bottleneck(D1, D2):
    L1 = [iv for iv, m in D1.pairs() for _ in range(m)]
    L2 = [iv for iv, m in D2.pairs() for _ in range(m)]
    k = len(L2)
    best = [math.inf]

    def rec(i, used, cur):
        if cur > best[0]:
            return
        if i == len(L1):
            rest = max((_solo_cost(L2[t]) for t in range(k)
                        if not (used >> t) & 1), default=0)
            best[0] = min(best[0], max(cur, rest))
            return
        for t in range(k):
            if not (used >> t) & 1:
                rec(i + 1, used | (1 << t),
                    max(cur, pair_cost(L1[i], L2[t])))
        rec(i + 1, used, max(cur, _solo_cost(L1[i])))

    rec(0, 0, 0)
    return best[0]


# ----------------------------------------------------------------------
# exported-system oracle (re-parse the text, try every assignment)
# ----------------------------------------------------------------------

def parse_system(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("field ")
    assert lines[1].startswith("vars ")
    assert lines[2].startswith("eqs ")
    nvars = int(lines[1].split()[1])
    neqs = int(lines[2].split()[1])
    eqs = []
    names = []
    seen = set()
    for line in lines[3:]:
        terms = []
        for piece in line.split(" + "):
            parts = piece.split("*")
            coeff = int(parts[0])
            vs = parts[1:]
            for v in vs:
                if v not in seen:
                    seen.add(v)
                    names.append(v)
            terms.append((coeff, vs))
        eqs.append(terms)
    assert len(eqs) == neqs
    assert len(names) <= nvars
    return names, nvars, eqs


def brute_system_solvable(text, p, all_var_count=None):
    """Exhaustive satisfiability of an exported system over F_p.

    Variables that never appear in an equation are unconstrained, so
    only the appearing ones are enumerated.
    """
    names, nvars, eqs = parse_system(text)
    if all_var_count is not None:
        assert nvars == all_var_count
    for vals in product(range(p), repeat=len(names)):
        env = dict(zip(names, vals))
        ok = True
        for terms in eqs:
            acc = 0
            for coeff, vs in terms:
                m = coeff
                for v in vs:
                    m *= env[v]
                acc += m
            if acc % p:
                ok = False
                break
        if ok:
            return True
    return False


# ----------------------------------------------------------------------
# redundancy injection (for minimal-grade uniqueness checks)
# ----------------------------------------------------------------------

def inject_redundancy(rng, P, tag):
    """Add a generator equal to the image of a random admissible element.

    The new generator g' sits at a grade u above some existing ones and
    comes with the defining relation g' - v at u, so the presented
    module is unchanged while the presentation grows.
    """
    gens = list(zip(P.generators.names, P.generators.grades))
    if not gens:
        return P
    field = P.field
    picks = rng.sample(range(len(gens)), rng.randint(1, len(gens)))
    coords = [max(gens[i][1].coords[t] for i in picks)
              for t in range(P.n)]
    bump = rng.choice([0, Fraction(1, 2), 1])
    u = Grade([c + bump for c in coords])
    new_name = f"h{tag}"
    items = gens + [(new_name, u)]
    big = GradedSet(items)
    coeffs = []
    for name, g in gens:
        if grade_leq(g, u):
            coeffs.append(rng.randrange(field.p))
        else:
            coeffs.append(0)
    coeffs.append(field.p - 1)
    old_rels = [(nm, make_element(big, el.grade,
                                  list(el.coeffs) + [0], field))
                for nm, el in P.rel_pairs()]
    new_rel = (f"q{tag}", make_element(big, u, coeffs, field))
    return Presentation(field, P.n, big, old_rels + [new_rel], name=P.name)


def rng_for(seed):
    return random.Random(seed)
