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

from .scalars import FieldMismatch
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
    """Functionals on <G_P> vanishing on span[R_P at u].

    The admissible relations (grade <= u) are exactly the ones present
    at grade u; a vector lies in their span iff every functional here
    kills it.
    """
    rows = [list(el.coeffs) for el in P.relations
            if grade_leq(el.grade, u)]
    return nullspace(rows, len(P.generators), P.field)


def _free_positions(mask):
    return [(i, j) for i, row in enumerate(mask)
            for j, ok in enumerate(row) if ok]


def _constraint_basis(src, tgt, e, free, field):
    """Basis of V, in free-entry coordinates: the patterned matrices
    satisfying condition 1 (each relation of src lands in the span of
    tgt's relations at the shifted grade)."""
    rows = []
    for w in src.relations:
        K = _annihilator(tgt, grade_shift(w.grade, e))
        for kappa in K:
            rows.append([kappa[i] * w.coeffs[j] for (i, j) in free])
    return nullspace(rows, len(free), field)


def constraint_space(prob, direction):
    """Basis of the space of candidate matrices for one direction.

    The space combines the zero pattern with condition 1 (each relation
    of the source must land in the span of the target's relations at
    the shifted grade). Returned as a list of patterned matrices.
    """
    src, tgt, mask = prob.sides(direction)
    free = _free_positions(mask)
    basis = _constraint_basis(src, tgt, prob.e, free, prob.field)
    return [_coords_to_matrix(prob, src, tgt, free, coords)
            for coords in basis]


def _coords_to_matrix(prob, src, tgt, free, coords):
    entries = [[prob.field.zero()] * len(src.generators)
               for _ in range(len(tgt.generators))]
    for (i, j), c in zip(free, coords):
        entries[i][j] = c
    return MorphismMatrix(src.generators, tgt.generators, entries,
                          prob.e, prob.field)


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

def _complement(V, Z, width, field):
    """Basis of a complement of span(Z) inside span(V), Z <= span(V).

    Reducing each V vector against the rref of Z zeroes it at every Z
    pivot, so the span of the reduced vectors meets span(Z) only in 0;
    a final rref makes the result a basis.
    """
    zred, zpiv = rref(Z, width, field)
    reduced = []
    for v in V:
        v = list(v)
        for row, c in zip(zred, zpiv):
            if not v[c].is_zero():
                f = v[c]
                v = [a - (f * b) for a, b in zip(v, row)]
        reduced.append(v)
    cred, _ = rref(reduced, width, field)
    return cred


class _Side:
    """Everything the search needs to enumerate one direction.

    src, tgt: the fixed matrix F maps <G_src> -> <G_tgt(e)>; the partner
    Y solved per candidate maps back. U is a basis (in free-entry
    coordinates) of V/Z, the translation-pruned candidate space.

    The spaces are computed once with exact Scalars, then everything
    entering the per-candidate loop is lowered to plain int residues;
    the arithmetic is identical mod p, so candidates, their order, and
    the found witness do not change.
    """

    __slots__ = ("prob", "src", "tgt", "free", "yfree", "U",
                 "rows2", "K2", "K3", "_nsrc", "_ntgt")

    def __init__(self, prob, direction):
        src, tgt, mask = prob.sides(direction)
        self.prob = prob
        self.src = src
        self.tgt = tgt
        self.free = _free_positions(mask)
        e = prob.e
        field = prob.field

        V = _constraint_basis(src, tgt, e, self.free, field)
        zrows = []
        for j, g in enumerate(src.generators.grades):
            K = _annihilator(tgt, grade_shift(g, e))
            for kappa in K:
                zrows.append([kappa[i] if jj == j else field.zero()
                              for (i, jj) in self.free])
        Z = nullspace(zrows, len(self.free), field)
        U = _complement(V, Z, len(self.free), field)
        if len(U) + len(Z) != len(V):
            raise AssertionError(
                "translation space not inside the constraint space")
        self.U = [[c.value for c in u] for u in U]

        # static data for the per-candidate linear solve of the partner
        other = "N->M" if direction == "M->N" else "M->N"
        _, _, ymask = prob.sides(other)
        self.yfree = _free_positions(ymask)
        self._nsrc = len(src.generators)
        self._ntgt = len(tgt.generators)
        e2 = 2 * e
        self.rows2 = []
        for w in tgt.relations:
            K = _annihilator(src, grade_shift(w.grade, e))
            for kappa in K:
                self.rows2.append([(kappa[i] * w.coeffs[j]).value
                                   for (i, j) in self.yfree])
        self.K2 = [[[c.value for c in kappa]
                    for kappa in _annihilator(src, grade_shift(g, e2))]
                   for g in src.generators.grades]
        self.K3 = [[[c.value for c in kappa]
                    for kappa in _annihilator(tgt, grade_shift(g, e2))]
                   for g in tgt.generators.grades]

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
    side = side_a if side_a.count() <= side_b.count() else side_b
    total = side.count()
    if total > budget:
        raise BudgetExceeded(total, budget)
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
    P_M, P_N = prob.P_M, prob.P_N
    gm, gn = len(P_M.generators), len(P_N.generators)
    rm, rn = len(P_M.relations), len(P_N.relations)
    T_M = [[el.coeffs[i] for el in P_M.relations] for i in range(gm)]
    T_N = [[el.coeffs[i] for el in P_N.relations] for i in range(gn)]

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

    one = field.one()
    # A.T_M = T_N.C   (rows: G_N, cols: R_M)
    for i in range(gn):
        for j in range(rm):
            terms = []
            for k in range(gm):
                if prob.pat_A[i][k] and not T_M[k][j].is_zero():
                    terms.append((T_M[k][j], [var("A", i, k)]))
            for t in range(rn):
                if prob.pat_C[t][j] and not T_N[i][t].is_zero():
                    terms.append((-T_N[i][t], [var("C", t, j)]))
            emit(terms)
    # B.T_N = T_M.D   (rows: G_M, cols: R_N)
    for i in range(gm):
        for j in range(rn):
            terms = []
            for k in range(gn):
                if prob.pat_B[i][k] and not T_N[k][j].is_zero():
                    terms.append((T_N[k][j], [var("B", i, k)]))
            for t in range(rm):
                if prob.pat_D[t][j] and not T_M[i][t].is_zero():
                    terms.append((-T_M[i][t], [var("D", t, j)]))
            emit(terms)
    # B.A - I = T_M.E   (rows and cols: G_M)
    for i in range(gm):
        for j in range(gm):
            terms = []
            for k in range(gn):
                if prob.pat_B[i][k] and prob.pat_A[k][j]:
                    terms.append((one, [var("B", i, k), var("A", k, j)]))
            if i == j:
                terms.append((-one, []))
            for t in range(rm):
                if prob.pat_E[t][j] and not T_M[i][t].is_zero():
                    terms.append((-T_M[i][t], [var("E", t, j)]))
            emit(terms)
    # A.B - I = T_N.F   (rows and cols: G_N)
    for i in range(gn):
        for j in range(gn):
            terms = []
            for k in range(gm):
                if prob.pat_A[i][k] and prob.pat_B[k][j]:
                    terms.append((one, [var("A", i, k), var("B", k, j)]))
            if i == j:
                terms.append((-one, []))
            for t in range(rn):
                if prob.pat_F[t][j] and not T_N[i][t].is_zero():
                    terms.append((-T_N[i][t], [var("F", t, j)]))
            emit(terms)

    header = [f"field {field}", f"vars {nvars}", f"eqs {len(lines)}"]
    return "\n".join(header + lines) + "\n"
