"""Decide epsilon-interleaving between finitely presented modules.

Two modules M, N are e-interleaved iff there are patterned matrices
A: <G_M> -> <G_N(e)> and B: <G_N> -> <G_M(e)> with

  1. A.w  in span[R_N at gr(w)+e]        for every relation w of M,
  2. B.w  in span[R_M at gr(w)+e]        for every relation w of N,
  3. (BA - I) e_j in span[R_M at gr(G_M,j)+2e]   for every j,
  4. (AB - I) e_i in span[R_N at gr(G_N,i)+2e]   for every i.

Conditions 1 and 2 are linear in A and B separately, so candidates live
in small solution spaces rather than the full patterned-matrix spaces.
Two further reductions make the search practical:

  * translation pruning: let Z_A be the patterned matrices whose j-th
    column lies in span[R_N at gr(G_M,j)+e]. If (A, B) is a witness and
    D is in Z_A then (A+D, B) is again a witness (column translations
    stay inside the relevant spans after multiplying by B or A, using
    condition 2 and monotonicity of span in the grade). So only coset
    representatives of V_A / Z_A need enumerating;

  * one-sided enumeration: with A fixed, conditions 2-4 are linear in
    B, so B is found by solving one linear system instead of being
    enumerated.

The search enumerates the side whose quotient V/Z is smaller. The
number of candidates actually enumerated, p^dim(V/Z), is what the
budget bounds.

A side with dim V/Z = 0 needs no search. Its one candidate is F = 0,
so conditions 3 and 4 ask BA - I = -I and AB - I = -I to lie in the
spans, whatever the partner is: the probe is Yes iff every generator
of M and of N lies in the span of its own module's relations at its
grade + 2e (the modules are 2e-trivial), and then A = B = 0 is the
least-index witness. is_interleaved answers such probes from the
modules' annihilators at those grades, and builds the second side only
when the first has dim > 0.

The partner solve for a candidate F: the partner's condition 2 is the
other side's condition 1, linear in the partner alone, so the partner
lies in the other side's V, and its reduction gives a basis Y of that
V (freemod._kernel, one vector per column that is not a pivot). The
partner is y = z.Y, and conditions 3 and 4 are the linear system
G(F) Y^T z = c: G(F) holds their rows over the partner's free entries
and is linear in F, and c (entries of the annihilating functionals)
does not depend on F. Each side reduces one row list, its condition-1
rows, and reads its free entries and dim Z straight off the grades:
dim Z is the sum, over src generators j, of the rank of tgt's
relations at gr(G_src, j) + e. Only the searched side builds Z, from
its definition (the relations admissible at each column's shifted
grade, placed in that column), reads V off its reduction and takes U
as the complement. Each basis vector U_k of V/Z gets one block
H_k = G(U_k) Y^T, built on first use from U_k's nonzero entries and
straight over z: an entry at (t, j) reaches the round-trip rows on
src at column j through the partner's entries in its column t, and
those on tgt through the partner's entries in its row j. The
candidates are scanned by an odometer that adds one block per digit
it moves. A candidate then costs one elimination of the small block
[H(F) | c]; over F_2 its rows are ints, added and eliminated by XOR.
A hit's solution z gives y = z.Y, the one a solve of the whole system
gives, so the least-index witness is the same.

Everything here works with a presentation as given; the answer only
depends on the presented module, which is checked as a property test
elsewhere (a presentation and its minimization give equal answers).

The zero patterns and spans are grade comparisons, and they all run on
one integer grade lattice per problem (_Lattice): every grade of both
presentations, and e, times L = 2 * lcm(all their denominators), so
grades are int tuples and e and 2e are ints. Each presentation already
holds its grades on its own lattice, in units of 1/P.L, and L is a
multiple of P.L, so _Scaled only multiplies those ints by L // P.L.
interleaving_distance builds one lattice per call and puts every probe
on it, so the annihilators, memoized per presentation by the bitmask
of relations present at a grade, carry over from probe to probe.
Values are lifted back only at the boundary: the problem's public e is
Fraction(k, L), and the witness is two MorphismMatrix objects on the
caller's presentations. check_closure and MorphismMatrix's own
pattern check stay independent re-checks, and never read the problem's
lattice or the search's rows: MorphismMatrix compares the Grades
(grading.Grade), and check_closure asks _spanned_at, for each column
of BA - I and of AB - I, whether it lies in span[R_P at u + 2e], with
u the column's generator grade (P.gen_ints). Conditions 1 and 2 of
characterize.compatible_presentations ask it the same question of
each relation's image, at its grade (the source's P.rel_ints) + e.
_spanned_at holds the one rounding of such a shifted grade down onto
P's own lattice, groups the vectors by the relations admissible there
(P.rel_ints) and tests each group with one elimination
(freemod._spanned).
"""

import math
from fractions import Fraction
from itertools import accumulate
from operator import le

from .scalars import FieldMismatch
from .grading import check_epsilon, DimensionMismatch
from .freemod import (MorphismMatrix, BasisMismatch, nullspace, rref, _dot,
                      _echelon, _kernel, _solve, _spanned, _xor_solve)

DEFAULT_BUDGET = 10 ** 7


class UnsupportedField(Exception):
    pass


def _check_pair(P_M, P_N):
    """DimensionMismatch when n differs, else FieldMismatch."""
    if P_M.n != P_N.n:
        raise DimensionMismatch(f"n={P_M.n} vs n={P_N.n}")
    if P_M.field != P_N.field:
        raise FieldMismatch(f"{P_M.field} vs {P_N.field}")


def _check_finite(field):
    """The search's refusal of Q, which it cannot enumerate."""
    if field.is_rationals:
        raise UnsupportedField(
            "enumeration needs a finite field; over Q only witness "
            "verification and system export are available")


class BudgetExceeded(Exception):
    def __init__(self, required, budget, bracket=None):
        self.required = required
        self.budget = budget
        self.bracket = bracket
        msg = f"search needs {required} candidates, budget is {budget}"
        if bracket is not None:
            msg += f"; distance bracketed in [{bracket[0]}, {bracket[1]}]"
        super().__init__(msg)


def _leq(a, b):
    """Componentwise a <= b of two int grade tuples."""
    return all(map(le, a, b))


def _up(a, k):
    """The int grade a + k on every coordinate."""
    return tuple(x + k for x in a)


class _Scaled:
    """One presentation on a lattice: its generator and relation grades
    as int tuples in units of 1/L, L a multiple of P.L, the relations'
    raw coefficients and their sparse terms, and the memo of
    _annihilator, keyed by the bitmask of the relations present at a
    grade."""

    __slots__ = ("P", "gens", "rels", "coeffs", "terms", "ann")

    def __init__(self, P, L):
        k = L // P.L
        self.P = P
        self.gens = [tuple([x * k for x in g]) for g in P.gen_ints]
        self.rels = [tuple([x * k for x in u]) for u in P.rel_ints]
        self.coeffs = [el.coeffs for el in P.relations]
        self.terms = [el.terms for el in P.relations]
        self.ann = {}


class _Lattice:
    """The integer grade lattice of two presentations (and maybe e).

    L = 2 * lcm of the denominators of every grade coordinate of P_M
    and P_N and of the given extra values. Each such value times L is
    an even int, so every difference and every half-difference of two
    of them is an int in units of 1/L. M and N are the two presentations
    on the lattice.
    """

    __slots__ = ("L", "M", "N")

    def __init__(self, P_M, P_N, extra=()):
        self.L = L = 2 * math.lcm(P_M.L, P_N.L,
                                  *(x.denominator for x in extra))
        self.M = _Scaled(P_M, L)
        self.N = _Scaled(P_N, L)

    def scale(self, x):
        """The rational x as an int in units of 1/L; ValueError when x
        is not on the lattice."""
        v = Fraction(x) * self.L
        if v.denominator != 1:
            raise ValueError(f"{x} is not a multiple of 1/{self.L}")
        return v.numerator

    def lift(self, v):
        """An int (or inf) in units of 1/L as the Fraction (or inf)."""
        return v if v == math.inf else Fraction(v, self.L)


def _mask(row_grades, col_grades, shift):
    shifted = [_up(cg, shift) for cg in col_grades]
    return [[_leq(rg, cg) for cg in shifted] for rg in row_grades]


class InterleavingProblem:
    """Two same-field, same-n presentations and a shift e >= 0.

    Carries the problem's integer lattice and e on it (k = e * L).
    A variable entry of A or B exists at (i, j) iff the row grade is
    <= the column grade + e; every other entry is forced to zero. Note
    the comparison runs row <= col + e; the other direction would
    forbid genuine interleavings (maps lower grades by at most the
    shift, never raise). The search reads these free entries off the
    lattice ints (_Side); _patterns builds the six zero patterns of the
    exported system.
    """

    __slots__ = ("P_M", "P_N", "e", "field", "n", "_lat", "_k")

    def __init__(self, P_M, P_N, e):
        _check_pair(P_M, P_N)
        e = check_epsilon(e)
        lat = _Lattice(P_M, P_N, (e,))
        self._on(lat, lat.scale(e), e)

    @classmethod
    def _at(cls, lat, k):
        """The problem at e = k / L on an existing lattice, sharing its
        annihilator memos; the caller has checked the presentations."""
        prob = cls.__new__(cls)
        prob._on(lat, k, lat.lift(k))
        return prob

    def _on(self, lat, k, e):
        M, N = lat.M, lat.N
        self.P_M = M.P
        self.P_N = N.P
        self.e = e
        self.field = M.P.field
        self.n = M.P.n
        self._lat = lat
        self._k = k


def _patterns(prob):
    """The zero patterns of the six matrices A..F of the quadratic
    system, in that order: shift e for A, B, C, D and 2e for E, F."""
    M, N, k = prob._lat.M, prob._lat.N, prob._k
    return (_mask(N.gens, M.gens, k), _mask(M.gens, N.gens, k),
            _mask(N.rels, M.rels, k), _mask(M.rels, N.rels, k),
            _mask(M.rels, M.gens, 2 * k), _mask(N.rels, N.gens, 2 * k))


class InterleavingWitness:
    """A witness pair: A maps M's cover into N's shifted cover, B back."""

    __slots__ = ("A", "B")

    def __init__(self, A, B):
        self.A = A
        self.B = B

    def __repr__(self):
        return f"InterleavingWitness(A={self.A!r}, B={self.B!r})"


def _annihilator(S, u):
    """Raw functionals on <G_P> vanishing on span[R_P at u], for P on a
    lattice as S and u an int grade.

    The admissible relations (grade <= u) are exactly the ones present
    at grade u; a vector lies in their span iff every functional here
    kills it. The functionals depend only on which relations are
    admissible, so they are memoized by that bitmask; callers share the
    returned lists and must not modify them.
    """
    mask = 0
    for k, g in enumerate(S.rels):
        if _leq(g, u):
            mask |= 1 << k
    ann = S.ann.get(mask)
    if ann is None:
        rows = [c for k, c in enumerate(S.coeffs) if mask >> k & 1]
        ann = S.ann[mask] = nullspace(rows, len(S.gens), S.P.field.p)
    return ann


def _condition_rows(src, tgt, k, free):
    """Condition 1 as raw rows over the free entries of X: <G_src> ->
    <G_tgt(e)>, for src and tgt on a lattice and e = k / L. X satisfies
    it (each relation of src lands in the span of tgt's relations at
    the shifted grade) iff every row kills X's free entries; the rows'
    nullspace is V."""
    rows = []
    for g, w in zip(src.rels, src.coeffs):
        for kappa in _annihilator(tgt, _up(g, k)):
            rows.append([kappa[i] * w[j] for (i, j) in free])
    return rows


def _spanned_at(P, at, L, s):
    """Does each vector v lie in span[R_P at u / L + s], for the (u, v)
    in at?

    u is an int grade on a lattice of step 1/L (P.gen_ints or
    P.rel_ints, with L their presentation's L), s a Fraction shift and
    v a raw vector over P's generators. The shifted grade is rounded
    down onto P's own lattice, which is exact: P's relation grades are
    multiples of 1/P.L, so r <= x iff r * P.L <= floor(x * P.L). The
    zero vectors are skipped, the others grouped by the relations
    admissible at the grade (grade <= it), and each group is one
    _spanned elimination.
    """
    scale, den = P.L * s.denominator, L * s.denominator
    off = s.numerator * L * P.L
    groups = {}  # admissible relations -> the vectors needing them
    for u, v in at:
        if any(v):
            x = [(a * scale + off) // den for a in u]
            ks = tuple([k for k, r in enumerate(P.rel_ints) if _leq(r, x)])
            groups.setdefault(ks, []).append(v)
    return all(_spanned([P.relations[k].coeffs for k in ks], vs, P.field.p)
               for ks, vs in groups.items())


def check_closure(A, B, prob):
    """Conditions 3 and 4: BA and AB are identities up to relations.

    First the witness's type: A maps M's generators to N's and B back
    (else BasisMismatch), at shift e (ValueError), over the problem's
    field (FieldMismatch). Then each column j of BA - I, read from the
    entries, must lie in the span of M's relations at gr(G_M, j) + 2e
    (the round trip shifts twice), and likewise AB - I over N.

    The grades are compared on each presentation's own lattice (P.L,
    P.gen_ints, P.rel_ints), never on the search's: column j goes to
    _spanned_at at P.gen_ints[j] shifted by 2e, which rounds it down
    onto that lattice. A and B are patterned, so a column of BA - I obeys
    the grade pattern at its shifted grade, and none needs checking as
    an element.
    """
    G_M, G_N = prob.P_M.generators, prob.P_N.generators
    e, e2, field = prob.e, 2 * prob.e, prob.field
    if A.domain != G_M or A.codomain != G_N:
        raise BasisMismatch("A does not map M's generators to N's")
    if B.domain != G_N or B.codomain != G_M:
        raise BasisMismatch("B does not map N's generators to M's")
    if A.shift != e or B.shift != e:
        raise ValueError(f"witness shift ({A.shift}, {B.shift}) != {e}")
    if A.field != field or B.field != field:
        raise FieldMismatch(f"witness over the wrong field: {A.field} and "
                            f"{B.field}, problem over {field}")
    for P, first, second in ((prob.P_M, A, B), (prob.P_N, B, A)):
        at = []
        # first has no rows when the other module has no generators
        cols = list(zip(*first.entries)) or [()] * len(P.gen_ints)
        for j, (g, col) in enumerate(zip(P.gen_ints, cols)):
            v = [_dot(row, col, field) for row in second.entries]
            v[j] = field.coerce(v[j] - 1)
            at.append((g, v))
        if not _spanned_at(P, at, P.L, e2):
            return False
    return True


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def _complement(V, Z, width, p):
    """RREF basis of a complement of span(Z) inside span(V).

    V is a basis and Z any spanning set of a subspace of span(V), with
    repeated or zero rows allowed: raises when Z leaves span(V). The
    rows of rref(V + Z) whose pivot is not a pivot of Z (read off its
    echelon form) span exactly the vectors of span(V) that vanish at
    every Z pivot, and that space meets span(Z) only in 0. Both
    reductions depend on span(Z) alone, so any spanning set gives the
    same rows.
    """
    red, pivots = rref(V + Z, width, p)
    if len(pivots) != len(V):
        raise AssertionError(
            "translation space not inside the constraint space")
    zpiv = set(_echelon(Z, width, p)[1])
    return [row for row, c in zip(red, pivots) if c not in zpiv]


def _entries(free, coords, nrows, ncols):
    """The nrows x ncols int entry matrix with coords on its free
    entries (i, j), in order, and 0 elsewhere."""
    entries = [[0] * ncols for _ in range(nrows)]
    for (i, j), c in zip(free, coords):
        entries[i][j] = c
    return entries


def _combine(weights, basis, width, p):
    """sum_k weights[k] * basis[k] over F_p, a vector of the given
    width (all zero when the basis is empty)."""
    v = [0] * width
    for d, u in zip(weights, basis):
        if d:
            v = [(a + d * b) % p for a, b in zip(v, u)]
    return v


class _Side:
    """Everything the search needs to enumerate one direction.

    src, tgt: the two presentations on the problem's lattice; the fixed
    matrix F maps <G_src> -> <G_tgt(e)> on its free entries, the (i, j)
    with gr(G_tgt, i) <= gr(G_src, j) + e in row-major order, and the
    partner y solved per candidate maps back. One row list is reduced:
    the condition-1 rows over F's free entries, whose nullspace is V.
    dim Z is the sum over j of the rank of tgt's relations at
    gr(G_src, j) + e, read off the memoized annihilators, so dim =
    dim V - dim Z, the dimension of V/Z, the translation-pruned
    candidate space, needs no second reduction. Everything is int
    residues, as in the witness matrices materialize builds; grades are
    int tuples.

    pair_with, run only on the enumerated side and only when its dim
    is > 0, builds the basis U of V/Z, the basis Y of the other side's
    V, in which the partner is solved as y = z.Y, and the index of the
    partner's entries and of the rows that _block reads; hits scans
    the candidates.
    """

    __slots__ = ("prob", "src", "tgt", "free", "dim", "U", "Y",
                 "yfree", "K2", "K3", "_cond", "_ycol", "_yrow", "_off2",
                 "_off3", "_rhs", "_blocks")

    def __init__(self, prob, src, tgt):
        self.prob = prob
        self.src = src
        self.tgt = tgt
        k, p = prob._k, prob.field.p
        shifted = [_up(g, k) for g in src.gens]
        self.free = free = [(i, j) for i, t in enumerate(tgt.gens)
                            for j, s in enumerate(shifted) if _leq(t, s)]
        width = len(free)
        self._cond = rref(_condition_rows(src, tgt, k, free), width, p)
        # column j of Z ranges over span[R_tgt at g_j + e], whose rank is
        # len(G_tgt) less the number of functionals that annihilate it
        self.dim = width - len(self._cond[1]) - sum(
            len(tgt.gens) - len(_annihilator(tgt, s)) for s in shifted)

    def pair_with(self, other):
        """U and the static data for the partner solve; other is the
        opposite side.

        U complements Z in V. V is read off this side's reduction, and
        Z is given by its defining spanning set: for each src generator
        j and each tgt relation w admissible at gr(G_src, j) + e, the
        row holding w's coefficients on the entries (i, j); each such
        entry is free, as w's generators lie below w's grade. The
        partner's condition 2 is the opposite side's condition 1, so
        the partner lies in that side's V, and Y is the basis of it read
        off that side's reduction: y = z.Y for a coordinate vector z.
        The rows of conditions 3 and 4 are G(F) with right-hand side c:
        one row per functional in K2 and in K3, the K2 rows first, and
        c holds the functionals' own entries, so it does not depend on
        F. For _block, which builds the rows of G(U_k) straight over z,
        this keeps row (s, t) of Y^T (over F_2 an int, bit q is
        coordinate q) under column t of the partner (_ycol[t]) and
        under its row s (_yrow[s]), and the index of the first row of
        each K2[j] (_off2[j]) and each K3[i] (_off3[i]).
        """
        p, k = self.prob.field.p, self.prob._k
        width = len(self.free)
        Z = [[w[i] if jj == j else 0 for (i, jj) in self.free]
             for j, g in enumerate(self.src.gens)
             for r, w in zip(self.tgt.rels, self.tgt.coeffs)
             if _leq(r, _up(g, k))]
        self.U = _complement(_kernel(*self._cond, width, p), Z, width, p)
        self.yfree = other.free
        self.Y = Y = _kernel(*other._cond, len(other.free), p)
        k2 = 2 * k
        self.K2 = [_annihilator(self.src, _up(g, k2)) for g in self.src.gens]
        self.K3 = [_annihilator(self.tgt, _up(g, k2)) for g in self.tgt.gens]
        img = list(zip(*Y)) or [()] * len(other.free)
        if p == 2:
            img = [sum(a << q for q, a in enumerate(im)) for im in img]
        self._ycol = [[] for _ in self.tgt.gens]
        self._yrow = [[] for _ in self.src.gens]
        for (s, t), im in zip(other.free, img):
            self._ycol[t].append((s, im))
            self._yrow[s].append((t, im))
        starts = list(accumulate(map(len, self.K2 + self.K3), initial=0))
        self._off2 = starts[:len(self.K2)]
        self._off3 = starts[len(self.K2):-1]
        self._rhs = ([kappa[j] for j, ks in enumerate(self.K2)
                      for kappa in ks]
                     + [kappa[i] for i, ks in enumerate(self.K3)
                        for kappa in ks])
        self._blocks = [None] * len(self.U)

    def _block(self, k):
        """H_k: the rows of G(U_k) over the coordinates z of y = z.Y,
        with a zero right-hand side, as (row index, row) for the rows
        that are not zero, in row order; packed into ints over F_2 (bit
        q is coordinate q).

        Built from U_k's nonzero entries alone, with img(s, t) the row
        of Y^T at the partner's entry (s, t). An entry f at (t, j) adds
        f kappa[s] img(s, t) to the row of each kappa in K2[j], for each
        partner entry (s, t) in column t, and f kappa[t] img(j, i) to
        the row of each kappa in K3[i] with kappa[t] != 0, for each
        partner entry (j, i) in row j. A row is the sum of its terms:
        one XOR each over F_2, where every weight is 1, else one
        _combine.
        """
        p = self.prob.field.p
        K2, K3, ycol, yrow = self.K2, self.K3, self._ycol, self._yrow
        terms = {}  # row index -> [(weight, img)]
        for (t, j), f in zip(self.free, self.U[k]):
            if not f:
                continue
            for r, kappa in enumerate(K2[j], self._off2[j]):
                for s, im in ycol[t]:
                    if kappa[s]:
                        terms.setdefault(r, []).append((f * kappa[s], im))
            for i, im in yrow[j]:
                for r, kappa in enumerate(K3[i], self._off3[i]):
                    if kappa[t]:
                        terms.setdefault(r, []).append((f * kappa[t], im))
        zero = 0 if p == 2 else [0] * (len(self.Y) + 1)
        block = []
        for r, ts in sorted(terms.items()):
            if p == 2:
                h = 0
                for _, im in ts:
                    h ^= im
            else:
                h = _combine(*zip(*ts), len(self.Y), p) + [0]
            if h != zero:
                block.append((r, h))
        self._blocks[k] = block
        return block

    def hits(self):
        """Yield (index, F, y) for every candidate F whose partner
        system is solvable, in index order; y = z.Y for the solution z
        with the free variables zero, over the partner's free entries.

        Candidates run lexicographically over U coordinates, big-endian,
        so index 0 is the zero matrix. G is linear in F, so the block
        H(F) of a candidate is the sum of its digits times H_k; the
        odometer adds H_k for each digit it advances, and also for one
        that wraps from p - 1 to 0, since -(p - 1) H_k = H_k. Block k is
        built when digit k first moves, at index p^(m-1-k). Y_q is 1 at
        the q-th column that is not a pivot of the other side's
        reduction and 0 at the others, so z is y on those columns: the
        solution of H(F) z = c with the free variables zero gives the y
        that a solve of the whole system, condition 2 together with
        G(F) y = c, gives with its free variables zero.
        """
        p = self.prob.field.p
        m = len(self.U)
        width = len(self.Y)
        blocks = self._blocks
        digits = [0] * m
        # the right-hand side rides in column (bit) width, blocks hold 0
        if p == 2:
            cur = [c << width for c in self._rhs]
        else:
            cur = [[0] * width + [c] for c in self._rhs]
        for index in range(p ** m):
            if index:
                k = m - 1
                while True:
                    H = blocks[k]
                    if H is None:
                        H = self._block(k)
                    if p == 2:
                        for i, h in H:
                            cur[i] ^= h
                    else:
                        for i, h in H:
                            cur[i] = [(a + b) % p for a, b in zip(cur[i], h)]
                    digits[k] = (digits[k] + 1) % p
                    if digits[k]:
                        break
                    k -= 1
            if p == 2:
                z = _xor_solve(cur, width)
            else:  # a row that is zero, right-hand side too, holds anything
                z = _solve([r for r in cur if any(r)], width, p)
            if z is not None:
                yield (index, *self._hit(digits, z))

    def _hit(self, digits, z):
        """F = sum_k d_k U_k at the given digits, as its entry matrix,
        and the partner y = z.Y over the partner's free entries."""
        p = self.prob.field.p
        coords = _combine(digits, self.U, len(self.free), p)
        F = _entries(self.free, coords, len(self.tgt.gens), len(self.src.gens))
        return F, _combine(z, self.Y, len(self.yfree), p)

    def materialize(self, F, y):
        """The (F, y) hit as the two morphism matrices."""
        field = self.prob.field
        gsrc, gtgt = self.src.P.generators, self.tgt.P.generators
        F_mat = MorphismMatrix(gsrc, gtgt, F, self.prob.e, field)
        y_entries = _entries(self.yfree, y, len(gsrc), len(gtgt))
        Y_mat = MorphismMatrix(gtgt, gsrc, y_entries, self.prob.e, field)
        return F_mat, Y_mat


def _dies_within(S, k2):
    """Does every generator of S lie in the span of S's relations at
    its grade + 2e, for S on a lattice and k2 = 2e on it? Generator j
    does iff each _annihilator functional there kills e_j, that is has
    a zero j-th entry: these are the functionals pair_with reads as K2
    and K3, and their j-th entries are its right-hand side c."""
    return not any(kappa[j] for j, g in enumerate(S.gens)
                   for kappa in _annihilator(S, _up(g, k2)))


def is_interleaved(prob, budget=DEFAULT_BUDGET):
    """Search for an e-interleaving witness.

    Returns an InterleavingWitness, or None after exhausting the
    candidate space. Raises BudgetExceeded before enumerating when the
    pruned candidate count p^dim(V/Z) exceeds the budget, and
    UnsupportedField over the rationals (no finite enumeration; use
    check_closure to verify a supplied witness instead).

    Deterministic: candidates are scanned in lexicographic coordinate
    order and the least-index witness wins. The M -> N side is built
    first, and N -> M only when M -> N has dim > 0; ties go to M -> N.
    A searched side of dim 0 has the one candidate F = 0, whose partner
    system 0 z = c is solvable iff c = 0, that is iff every generator
    of M and of N dies within 2e (_dies_within), and then its solution
    is z = 0, so y = 0. So such a probe is answered from the modules,
    without the partner search, and its witness is A = B = 0, the one
    the scan finds; it still counts p^0 = 1 against the budget.
    """
    _check_finite(prob.field)
    lat = prob._lat
    side = _Side(prob, lat.M, lat.N)
    other = None
    if side.dim:
        other = _Side(prob, lat.N, lat.M)
        if other.dim < side.dim:
            side, other = other, side
    total = prob.field.p ** side.dim
    if total > budget:
        raise BudgetExceeded(total, budget)
    if not side.dim:
        k2 = 2 * prob._k
        if not (_dies_within(lat.M, k2) and _dies_within(lat.N, k2)):
            return None
        G_M, G_N = prob.P_M.generators, prob.P_N.generators
        w = InterleavingWitness(
            MorphismMatrix(G_M, G_N, [[0] * len(G_M) for _ in G_N],
                           prob.e, prob.field),
            MorphismMatrix(G_N, G_M, [[0] * len(G_N) for _ in G_M],
                           prob.e, prob.field))
    else:
        side.pair_with(other)
        hit = next(side.hits(), None)
        if hit is None:
            return None
        _, F, y = hit
        F_mat, Y_mat = side.materialize(F, y)
        if side.src is lat.M:
            w = InterleavingWitness(F_mat, Y_mat)
        else:
            w = InterleavingWitness(Y_mat, F_mat)
    if not check_closure(w.A, w.B, prob):
        raise AssertionError("found witness fails the closure check")
    return w


# ----------------------------------------------------------------------
# export of the full quadratic system
# ----------------------------------------------------------------------

def export_quadratic_system(prob):
    """The four matrix equations as scalar polynomials, one per line.

    A.T_M = T_N.C, B.T_N = T_M.D, B.A - I = T_M.E, A.B - I = T_N.F,
    where T_M, T_N are the presentation matrices. Only entries allowed
    by the grade patterns become variables (named A_i_j etc., 1-based);
    forced-zero entries are omitted from the terms. Identically-zero
    equations are skipped; constant nonzero lines (unsatisfiable) are
    kept. Header lines report the field and the variable and equation
    counts.
    """
    field = prob.field
    one = field.coerce(1)

    def var(name, i, j):
        return f"{name}_{i + 1}_{j + 1}"

    pats = _patterns(prob)
    nvars = sum(sum(1 for ok in row if ok) for pat in pats for row in pat)

    lines = []

    def emit(terms):
        # terms: list of (coeff, [varnames]); zero coeffs already skipped
        if terms:
            lines.append(" + ".join(
                "*".join([str(c)] + vs) for c, vs in terms))

    # one direction per presentation P: its map X: <G_P> -> <G_Q(e)>,
    # the relation matrix C of X.T_P = T_Q.C and the matrix E of the
    # round trip on P; entry (i, t) of T_P is relation t's coefficient i
    M_to_N = (prob.P_M, prob.P_N, "A", pats[0], "C", pats[2], "E", pats[4])
    N_to_M = (prob.P_N, prob.P_M, "B", pats[1], "D", pats[3], "F", pats[5])
    # X.T_P = T_Q.C   (rows: G_Q, cols: R_P)
    for P, Q, X, pat_X, C, pat_C, _, _ in (M_to_N, N_to_M):
        for i in range(len(Q.generators)):
            for j, w in enumerate(P.relations):
                terms = [(c, [var(X, i, k)])
                         for k, c in enumerate(w.coeffs)
                         if pat_X[i][k] and c]
                for t, r in enumerate(Q.relations):
                    if pat_C[t][j] and r.coeffs[i]:
                        terms.append((field.coerce(-r.coeffs[i]),
                                      [var(C, t, j)]))
                emit(terms)
    # Y.X - I = T_P.E   (rows and cols: G_P; Y is the other direction's X)
    for (P, Q, X, pat_X, _, _, E, pat_E), (_, _, Y, pat_Y, *_) in (
            (M_to_N, N_to_M), (N_to_M, M_to_N)):
        for i in range(len(P.generators)):
            for j in range(len(P.generators)):
                terms = [(one, [var(Y, i, k), var(X, k, j)])
                         for k in range(len(Q.generators))
                         if pat_Y[i][k] and pat_X[k][j]]
                if i == j:
                    terms.append((field.coerce(-1), []))
                for t, r in enumerate(P.relations):
                    if pat_E[t][j] and r.coeffs[i]:
                        terms.append((field.coerce(-r.coeffs[i]),
                                      [var(E, t, j)]))
                emit(terms)

    header = [f"field {field}", f"vars {nvars}", f"eqs {len(lines)}"]
    return "\n".join(header + lines) + "\n"
