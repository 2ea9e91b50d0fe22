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

Everything here works with a presentation as given; the answer only
depends on the presented module, which is checked as a property test
elsewhere (a presentation and its minimization give equal answers).
"""

from .scalars import FieldMismatch, Scalar
from .grading import grade_leq, grade_shift, check_epsilon, DimensionMismatch
from .freemod import (MorphismMatrix, compose, make_element,
                      span_membership, nullspace, rref, _solve)

DEFAULT_BUDGET = 10 ** 7


class UnsupportedField(Exception):
    pass


class BudgetExceeded(Exception):
    def __init__(self, required, budget, bracket=None):
        self.required = required
        self.budget = budget
        self.bracket = bracket
        msg = f"search needs {required} candidates, budget is {budget}"
        if bracket is not None:
            msg += f"; distance bracketed in [{bracket[0]}, {bracket[1]}]"
        super().__init__(msg)


def _mask(row_grades, col_grades, shift):
    return [[grade_leq(rg, grade_shift(cg, shift)) for cg in col_grades]
            for rg in row_grades]


class InterleavingProblem:
    """Two same-field, same-n presentations and a shift e >= 0.

    Carries the zero patterns of the six matrices of the quadratic
    system: a variable entry exists at (i, j) iff the row grade is <=
    the column grade + shift (shift e for A, B, C, D and 2e for E, F);
    every other entry is forced to zero. Note the comparison runs
    row <= col + shift; the other direction would forbid genuine
    interleavings (maps lower grades by at most the shift, never raise).
    """

    __slots__ = ("P_M", "P_N", "e", "field", "n",
                 "pat_A", "pat_B", "pat_C", "pat_D", "pat_E", "pat_F")

    def __init__(self, P_M, P_N, e):
        if P_M.field != P_N.field:
            raise FieldMismatch(f"{P_M.field} vs {P_N.field}")
        if P_M.n != P_N.n:
            raise DimensionMismatch(f"n={P_M.n} vs n={P_N.n}")
        self.P_M = P_M
        self.P_N = P_N
        self.e = check_epsilon(e)
        self.field = P_M.field
        self.n = P_M.n
        gm = P_M.generators.grades
        gn = P_N.generators.grades
        rm = tuple(el.grade for el in P_M.relations)
        rn = tuple(el.grade for el in P_N.relations)
        e2 = 2 * self.e
        self.pat_A = _mask(gn, gm, self.e)
        self.pat_B = _mask(gm, gn, self.e)
        self.pat_C = _mask(rn, rm, self.e)
        self.pat_D = _mask(rm, rn, self.e)
        self.pat_E = _mask(rm, gm, e2)
        self.pat_F = _mask(rn, gn, e2)

    def sides(self, direction):
        if direction == "M->N":
            return self.P_M, self.P_N, self.pat_A
        if direction == "N->M":
            return self.P_N, self.P_M, self.pat_B
        raise ValueError(f"direction must be 'M->N' or 'N->M', "
                         f"got {direction!r}")


class InterleavingWitness:
    """A witness pair: A maps M's cover into N's shifted cover, B back."""

    __slots__ = ("A", "B")

    def __init__(self, A, B):
        self.A = A
        self.B = B

    def __repr__(self):
        return f"InterleavingWitness(A={self.A!r}, B={self.B!r})"


def _annihilator(P, u):
    """Raw functionals on <G_P> vanishing on span[R_P at u].

    The admissible relations (grade <= u) are exactly the ones present
    at grade u; a vector lies in their span iff every functional here
    kills it.
    """
    rows = [[c.value for c in el.coeffs] for el in P.relations
            if grade_leq(el.grade, u)]
    return nullspace(rows, len(P.generators), P.field.p)


def _free_positions(mask):
    return [(i, j) for i, row in enumerate(mask)
            for j, ok in enumerate(row) if ok]


def _condition_rows(src, tgt, e, free):
    """Condition 1 as raw rows over the free entries of X: <G_src> ->
    <G_tgt(e)>. X satisfies it (each relation of src lands in the span
    of tgt's relations at the shifted grade) iff every row kills X's
    free entries; the rows' nullspace is V."""
    rows = []
    for w in src.relations:
        coeffs = [c.value for c in w.coeffs]
        for kappa in _annihilator(tgt, grade_shift(w.grade, e)):
            rows.append([kappa[i] * coeffs[j] for (i, j) in free])
    return rows


def constraint_space(prob, direction):
    """Basis of the space of candidate matrices for one direction.

    The space combines the zero pattern with condition 1 (each relation
    of the source must land in the span of the target's relations at
    the shifted grade). Returned as a list of patterned matrices.
    """
    src, tgt, mask = prob.sides(direction)
    free = _free_positions(mask)
    field = prob.field
    basis = nullspace(_condition_rows(src, tgt, prob.e, free), len(free),
                      field.p)
    matrices = []
    for coords in basis:
        entries = [[field.zero()] * len(src.generators)
                   for _ in range(len(tgt.generators))]
        for (i, j), c in zip(free, coords):
            entries[i][j] = Scalar(field, c)
        matrices.append(MorphismMatrix(src.generators, tgt.generators,
                                       entries, prob.e, field))
    return matrices


def check_closure(A, B, prob):
    """Conditions 3 and 4: BA and AB are identities up to relations.

    Column j of BA - I must lie in the span of M's relations at grade
    gr(G_M, j) + 2e, and symmetrically for AB - I over N. The 2e is
    forced: the round trip shifts twice.
    """
    e2 = 2 * prob.e
    field = prob.field
    one = field.one()
    for P, first, second in ((prob.P_M, A, B), (prob.P_N, B, A)):
        round_trip = compose(second, first)
        gens = P.generators
        for j, g in enumerate(gens.grades):
            coeffs = [round_trip.entries[i][j] - one if i == j
                      else round_trip.entries[i][j]
                      for i in range(len(gens))]
            v = make_element(gens, grade_shift(g, e2), coeffs, field)
            inside, _ = span_membership(v, P.relations)
            if not inside:
                return False
    return True


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def _complement(V, Z, width, p):
    """RREF basis of a complement of span(Z) inside span(V).

    V is a basis and Z must lie in span(V): raises otherwise. The rows
    of rref(V + Z) whose pivot is not a pivot of rref(Z) span exactly
    the vectors of span(V) that vanish at every Z pivot, and that space
    meets span(Z) only in 0.
    """
    red, pivots = rref(V + Z, width, p)
    if len(pivots) != len(V):
        raise AssertionError(
            "translation space not inside the constraint space")
    zpiv = set(rref(Z, width, p)[1])
    return [row for row, c in zip(red, pivots) if c not in zpiv]


class _Side:
    """Everything the search needs to enumerate one direction.

    src, tgt: the fixed matrix F maps <G_src> -> <G_tgt(e)>; the partner
    Y solved per candidate maps back. rows are the condition-1 rows over
    the free entries of F, and U is a basis (in free-entry coordinates)
    of V/Z, the translation-pruned candidate space. Everything is raw
    residues; Scalars appear only when materialize lifts a hit.

    The data for the partner solve is built by pair_with, only for the
    side that is enumerated.
    """

    __slots__ = ("prob", "src", "tgt", "free", "rows", "U",
                 "yfree", "rows2", "K2", "K3", "_nsrc", "_ntgt")

    def __init__(self, prob, direction):
        src, tgt, mask = prob.sides(direction)
        self.prob = prob
        self.src = src
        self.tgt = tgt
        self.free = free = _free_positions(mask)
        self._nsrc = len(src.generators)
        self._ntgt = len(tgt.generators)
        e = prob.e
        p = prob.field.p

        self.rows = _condition_rows(src, tgt, e, free)
        V = nullspace(self.rows, len(free), p)
        zrows = []
        for j, g in enumerate(src.generators.grades):
            for kappa in _annihilator(tgt, grade_shift(g, e)):
                zrows.append([kappa[i] if jj == j else 0
                              for (i, jj) in free])
        Z = nullspace(zrows, len(free), p)
        self.U = _complement(V, Z, len(free), p)

    def pair_with(self, other):
        """Static data for the partner solve; other is the opposite side.

        The partner's condition 2 is the opposite side's condition 1,
        so its rows are reused as they are.
        """
        self.yfree = other.free
        self.rows2 = other.rows
        e2 = 2 * self.prob.e
        self.K2 = [_annihilator(self.src, grade_shift(g, e2))
                   for g in self.src.generators.grades]
        self.K3 = [_annihilator(self.tgt, grade_shift(g, e2))
                   for g in self.tgt.generators.grades]

    def count(self):
        p = self.prob.field.p
        return p ** len(self.U)

    def candidate(self, index):
        """The index-th candidate, lexicographic over U coordinates.

        Returned as an int entry matrix (rows over tgt generators).
        """
        p = self.prob.field.p
        digits = []
        for _ in range(len(self.U)):
            index, d = divmod(index, p)
            digits.append(d)
        digits.reverse()  # big-endian: index 0 is the zero matrix
        coords = [0] * len(self.free)
        for d, u in zip(digits, self.U):
            if d:
                coords = [(a + d * b) % p for a, b in zip(coords, u)]
        entries = [[0] * self._nsrc for _ in range(self._ntgt)]
        for (i, j), c in zip(self.free, coords):
            entries[i][j] = c
        return entries

    def solve_partner(self, F):
        """Solve conditions 2-4 for Y given F (int matrix), or None.

        Condition 2 rows are static; 3 and 4 depend on F through its
        columns (Y.F e_j = Y applied to column j of F) and through the
        row functionals kappa.F.
        """
        p = self.prob.field.p
        yfree = self.yfree
        rows = list(self.rows2)
        rhs = [0] * len(rows)

        for j in range(self._nsrc):
            col = [F[t][j] for t in range(self._ntgt)]
            for kappa in self.K2[j]:
                rows.append([(kappa[i] * col[t]) % p for (i, t) in yfree])
                rhs.append(kappa[j])
        for i in range(self._ntgt):
            for kappa in self.K3[i]:
                kF = [sum(kappa[s] * F[s][t]
                          for s in range(self._ntgt)) % p
                      for t in range(self._nsrc)]
                rows.append([kF[t] if jj == i else 0
                             for (t, jj) in yfree])
                rhs.append(kappa[i])

        return _solve(rows, len(yfree), rhs, p)

    def materialize(self, F, y):
        """Lift an (int F, int y) hit into Scalar morphism matrices.

        Scalars are immutable, so the matrices share one per distinct
        residue; a witness a caller keeps holds a handful, not one per
        entry.
        """
        field = self.prob.field
        lifted = {}

        def lift(x):
            if x not in lifted:
                lifted[x] = field.scalar(x)
            return lifted[x]

        f_entries = [[lift(x) for x in row] for row in F]
        F_mat = MorphismMatrix(self.src.generators, self.tgt.generators,
                               f_entries, self.prob.e, field)
        y_entries = [[lift(0)] * self._ntgt for _ in range(self._nsrc)]
        for (i, j), c in zip(self.yfree, y):
            y_entries[i][j] = lift(c)
        Y_mat = MorphismMatrix(self.tgt.generators, self.src.generators,
                               y_entries, self.prob.e, field)
        return F_mat, Y_mat


def is_interleaved(prob, budget=DEFAULT_BUDGET):
    """Search for an e-interleaving witness.

    Returns an InterleavingWitness, or None after exhausting the
    candidate space. Raises BudgetExceeded before enumerating when the
    pruned candidate count p^dim(V/Z) exceeds the budget, and
    UnsupportedField over the rationals (no finite enumeration; use
    check_closure to verify a supplied witness instead).

    Deterministic: candidates are scanned in lexicographic coordinate
    order and the least-index witness wins.
    """
    if prob.field.is_rationals:
        raise UnsupportedField(
            "enumeration needs a finite field; over Q only witness "
            "verification and system export are available")
    side_a = _Side(prob, "M->N")
    side_b = _Side(prob, "N->M")
    side, other = ((side_a, side_b) if side_a.count() <= side_b.count()
                   else (side_b, side_a))
    total = side.count()
    if total > budget:
        raise BudgetExceeded(total, budget)
    side.pair_with(other)
    for index in range(total):
        F = side.candidate(index)
        y = side.solve_partner(F)
        if y is not None:
            break
    else:
        return None
    F_mat, Y_mat = side.materialize(F, y)
    if side is side_a:
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
    one = field.one()

    def var(name, i, j):
        return f"{name}_{i + 1}_{j + 1}"

    nvars = sum(sum(1 for ok in row if ok) for pat in
                (prob.pat_A, prob.pat_B, prob.pat_C,
                 prob.pat_D, prob.pat_E, prob.pat_F) for row in pat)

    lines = []

    def emit(terms):
        # terms: list of (coeff, [varnames]); zero coeffs already skipped
        if terms:
            lines.append(" + ".join(
                "*".join([str(c)] + vs) for c, vs in terms))

    # one direction per presentation P: its map X: <G_P> -> <G_Q(e)>,
    # the relation matrix C of X.T_P = T_Q.C and the matrix E of the
    # round trip on P; entry (i, t) of T_P is relation t's coefficient i
    M_to_N = (prob.P_M, prob.P_N, "A", prob.pat_A, "C", prob.pat_C,
              "E", prob.pat_E)
    N_to_M = (prob.P_N, prob.P_M, "B", prob.pat_B, "D", prob.pat_D,
              "F", prob.pat_F)
    # X.T_P = T_Q.C   (rows: G_Q, cols: R_P)
    for P, Q, X, pat_X, C, pat_C, _, _ in (M_to_N, N_to_M):
        for i in range(len(Q.generators)):
            for j, w in enumerate(P.relations):
                terms = [(c, [var(X, i, k)])
                         for k, c in enumerate(w.coeffs)
                         if pat_X[i][k] and not c.is_zero()]
                for t, r in enumerate(Q.relations):
                    if pat_C[t][j] and not r.coeffs[i].is_zero():
                        terms.append((-r.coeffs[i], [var(C, t, j)]))
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
                    terms.append((-one, []))
                for t, r in enumerate(P.relations):
                    if pat_E[t][j] and not r.coeffs[i].is_zero():
                        terms.append((-r.coeffs[i], [var(E, t, j)]))
                emit(terms)

    header = [f"field {field}", f"vars {nvars}", f"eqs {len(lines)}"]
    return "\n".join(header + lines) + "\n"
