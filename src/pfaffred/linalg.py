"""Matrices over the scalar field and over truncated series.

Both kinds derive from Matrix, which holds what they share: the ragged
check, + and - of equal shapes, equality, is_zero, is_identity,
submatrix, block_diag and printing.  ConstMatrix holds field scalars and
supports exact elimination (rref, rank, solve, kernel, inverse) plus
characteristic polynomials and generalized eigenspace decomposition.
Every elimination is one Gauss-Jordan loop, Elimination, which records
its row operations: rref reads its reduced form, and solve_vec and
inverse replay them on a right-hand side or on unit vectors.
SylvesterSolver solves the stacked equations (L_k X - X R_k - s_k X)_k
= b of the graded solver (reduction.solve_graded) one part X[I, J] at a
time, each from its first invertible block, eliminated once per shift
and checked against the others.  SeriesMatrix holds Series entries and
has no inverse: every series gauge is built with its inverse (see
system.GaugeTransformation).  A product of SeriesMatrix operands, and
a sum of them (sum_of_products, or support_of_sum for its exponents
alone), is one series.sum_of_products call, and so is each row that
SeriesMatrix.pivot_rows eliminates; any other product is _product,
each entry a _dot that skips a product with an absent factor (a zero
scalar, or a series zero on an infinite window).  A ConstMatrix
multiplies a SeriesMatrix, either side, as its to_series would, its
entries folding Series.__mul__ by a scalar, which scales terms where
the kernel would form term pairs.  One rule holds on every path: a
product with an absent factor is an exact zero, Series.zero or the zero
scalar in the join of the fields.
Every characteristic polynomial and determinant comes from Berkowitz's
division-free algorithm (_charpoly): O(d^4) ring operations over the
field or over series.

Sums, products (by a matrix or a scalar) and block builders
return their result in the join of the operands' fields
(scalars.common_tower); entries from a smaller field are kept as they
are, so no matrix is ever lifted into a larger field by hand.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import series
from .errors import DimensionError, NotInvertibleError
from .scalars import FieldTower, Scalar, common_tower, join_scalar
from .series import INF, Series


class Matrix:
    """A grid of entries over a field.  A subclass supplies _zero(tower),
    its zero entry, and _like(rows, tower) when it needs more than that."""

    __slots__ = ("rows", "nrows", "ncols", "tower")

    def __init__(self, rows, tower: FieldTower):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise DimensionError("ragged matrix")
        self.tower = tower

    def _like(self, rows, tower):
        return type(self)(rows, tower)

    def _entrywise(self, other, op):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("shape mismatch in sum")
        return self._like(
            [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            common_tower(self.tower, other.tower))

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self.nrows == other.nrows and self.ncols == other.ncols
                and all(a == b for r1, r2 in zip(self.rows, other.rows)
                        for a, b in zip(r1, r2)))

    __hash__ = None

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def is_identity(self):
        """Square, with 1 on the diagonal and 0 elsewhere; a series entry
        is compared on its own window, so a truncated one agrees."""
        return self.nrows == self.ncols and all(
            a == 1 if i == j else a.is_zero()
            for i, r in enumerate(self.rows) for j, a in enumerate(r))

    def map(self, fn, tower=None):
        """fn of each entry, in tower when given, else in this field."""
        return self._like([[fn(a) for a in r] for r in self.rows],
                          tower or self.tower)

    def submatrix(self, rows, cols):
        return self._like([[self.rows[i][j] for j in cols] for i in rows],
                          self.tower)

    @staticmethod
    def block_diag(blocks):
        """Block-diagonal matrix of the given square blocks, like the first."""
        tower = common_tower(*(B.tower for B in blocks))
        d = sum(B.nrows for B in blocks)
        zero = blocks[0]._zero(tower)
        rows = [[zero] * d for _ in range(d)]
        lo = 0
        for B in blocks:
            for r, row in enumerate(B.rows):
                rows[lo + r][lo:lo + B.ncols] = row
            lo += B.nrows
        return blocks[0]._like(rows, tower)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"{type(self).__name__}[{body}]"


class ConstMatrix(Matrix):
    __slots__ = ()

    def _zero(self, tower):
        return tower.zero()

    @classmethod
    def zeros(cls, nrows, ncols, tower):
        z = tower.zero()
        return cls([[z] * ncols for _ in range(nrows)], tower)

    @classmethod
    def identity(cls, d, tower):
        m = cls.zeros(d, d, tower)
        for i in range(d):
            m.rows[i][i] = tower.one()
        return m

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return _product(self, other)
        c, tower = join_scalar(other, self.tower)
        return self.map(lambda a: a * c, tower)

    def rref(self):
        """(reduced row echelon form, pivot column list)."""
        m, pivots, _ = _gauss_jordan(self)
        return ConstMatrix(m, self.tower), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self):
        """Columns spanning the right kernel."""
        R, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for f in free:
            v = [self.tower.zero()] * self.ncols
            v[f] = self.tower.one()
            for i, p in enumerate(pivots):
                v[p] = -R.rows[i][f]
            basis.append(v)
        return basis

    def solve_vec(self, b):
        """Any x with A x = b (free unknowns 0), or None when inconsistent."""
        return Elimination(self).solve(b)

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionError("inverse of a non-square matrix")
        el = Elimination(self)
        if el.pivots != list(range(self.nrows)):
            raise NotInvertibleError("singular matrix")
        zero, one = self.tower.zero(), self.tower.one()
        cols = [el.solve([one if i == j else zero for i in range(self.nrows)])
                for j in range(self.nrows)]
        return ConstMatrix(list(zip(*cols)), self.tower)

    def charpoly(self):
        """det(tI - A), monic, coefficients low to high."""
        return _charpoly(self.rows, self.tower.one(), self.tower.zero())

    def power(self, k: int):
        """A^k by repeated squaring: no product for k = 1, one for k = 2."""
        if k < 2:
            return self if k else ConstMatrix.identity(self.nrows, self.tower)
        half = (self * self).power(k >> 1)
        return half * self if k & 1 else half

    def to_series(self, nvars):
        return SeriesMatrix([[Series.constant(nvars, a, self.tower) for a in r]
                             for r in self.rows], nvars, self.tower)


def _gauss_jordan(A: ConstMatrix):
    """(reduced rows, pivot columns, row operations) of A; per pivot the
    operations hold the pivot row, the row swapped into it, the pivot's
    inverse and each (row, factor) elimination."""
    m = [list(r) for r in A.rows]
    pivots, ops = [], []
    pr = 0
    for pc in range(A.ncols):
        if pr == A.nrows:
            break
        piv = next((i for i in range(pr, A.nrows)
                    if not m[i][pc].is_zero()), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        inv = m[pr][pc].inverse()
        m[pr] = [a * inv for a in m[pr]]
        elim = []
        for i in range(A.nrows):
            if i != pr and not m[i][pc].is_zero():
                f = m[i][pc]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
                elim.append((i, f))
        ops.append((pr, piv, inv, elim))
        pivots.append(pc)
        pr += 1
    return m, pivots, ops


class Elimination:
    """Gauss-Jordan elimination of A, with its row operations recorded.

    It keeps the pivot columns and the row operations, not the reduced
    form, which only rref reads.  solve(b) replays the operations on b,
    which is exactly what rref([A | b]) does to its last column, so one
    elimination serves any number of right-hand sides.
    """

    __slots__ = ("pivots", "ops", "ncols", "tower")

    def __init__(self, A: ConstMatrix):
        _, self.pivots, self.ops = _gauss_jordan(A)
        self.ncols, self.tower = A.ncols, A.tower

    def solve(self, b):
        """Any x with A x = b (free unknowns 0), or None when inconsistent."""
        y = list(b)
        for pr, piv, inv, elim in self.ops:
            y[pr], y[piv] = y[piv], y[pr]
            v = y[pr] = y[pr] * inv
            if not v.is_zero():
                for i, f in elim:
                    y[i] = y[i] - f * v
        if any(not v.is_zero() for v in y[len(self.pivots):]):
            return None
        x = [self.tower.zero()] * self.ncols
        for i, p in enumerate(self.pivots):
            x[p] = y[i]
        return x


def _absent(a):
    """Whether every product with the entry a is an exact zero: a zero
    scalar, or a series that is zero on an infinite window."""
    return a.is_zero() and (isinstance(a, Scalar) or a.exact)


def _dot(u, v, acc):
    """acc + u_1 v_1 + u_2 v_2 + ..., as folding them in order gives it;
    a product with an _absent factor is skipped.  Series vectors make the
    kernel's 1 x k case; a scalar factor folds."""
    if u and isinstance(u[0], Series) and isinstance(v[0], Series):
        return series.sum_of_products([[acc]], [(1, [u], list(zip(v)))],
                                      acc.tower)[0][0]
    for a, b in zip(u, v):
        if not (_absent(a) or _absent(b)):
            acc = acc + a * b
    return acc


def _product(M, N):
    """M N from the zero matrix, in the join of the fields: a SeriesMatrix
    when a factor is one, else a ConstMatrix."""
    if M.ncols != N.nrows:
        raise DimensionError("shape mismatch in product")
    tower = common_tower(M.tower, N.tower)
    like = N if isinstance(N, SeriesMatrix) else M
    zero = like._zero(tower)
    if isinstance(M, SeriesMatrix) and isinstance(N, SeriesMatrix):
        return sum_of_products(
            like._like([[zero] * N.ncols] * M.nrows, tower), [(1, M, N)])
    cols = list(zip(*N.rows))
    return like._like([[_dot(r, c, zero) for c in cols] for r in M.rows],
                      tower)


def sum_of_products(start, pairs, fold=None):
    """start + s_1 M_1 N_1 + ... for the nonempty pairs (s_k, M_k, N_k) of
    SeriesMatrix operands and signs +-1, in one series.sum_of_products
    call: the chain of +, - and * but for the floor 0 that each of its
    products takes from the zero matrix it starts at; with fold, what
    series.sum_of_products makes of it."""
    n, grids, towers = start.nvars, [], []
    for s, M, N in pairs:
        if (M.nrows, M.ncols, N.ncols, M.nvars, N.nvars) != (
                start.nrows, N.nrows, start.ncols, n, n):
            raise DimensionError("shape mismatch in a sum of products")
        grids.append((s, M.rows, N.rows))
        towers += M.tower, N.tower
    tower = common_tower(*towers)
    out = series.sum_of_products(start.rows, grids, tower, fold)
    return out if fold else SeriesMatrix(out, n,
                                         common_tower(start.tower, tower))


def support_of_sum(start, pairs):
    """Per entry of sum_of_products(start, pairs), its terms summed in
    integers, keyed by exponent (series.fold_buckets): no Scalar or
    Fraction is made."""
    return sum_of_products(start, pairs, series.fold_buckets)


def _charpoly(rows, one, zero):
    """[c_0, ..., c_d], low to high, of det(tI - A) for the square grid
    rows over any commutative ring, by Berkowitz's division-free
    algorithm (Inform. Process. Lett. 18, 1984).

    With A_r the leading r x r block, bordered in A_{r+1} by the row R,
    the column C and the corner a, the coefficients of det(tI - A_{r+1})
    are those of det(tI - A_r) convolved with 1, -a, -R C, -R A_r C, ...,
    -R A_r^{r-1} C: O(d^4) ring operations in all, each sum a _dot.
    """
    d = len(rows)
    if any(len(r) != d for r in rows):
        raise DimensionError("characteristic polynomial of a non-square "
                             "matrix")
    p = [one]                   # det(tI - A_r), high to low
    for r, row in enumerate(rows):
        col = [rows[i][r] for i in range(r)]
        block = list(zip(*(rows[i][:r] for i in range(r))))  # its columns
        s, w = [row[r]], row[:r]        # a, then R A_r^k C for k < r
        for k in range(r):
            s.append(_dot(w, col, zero))
            if k < r - 1:
                w = [_dot(w, c, zero) for c in block]
        t = [_dot(s[:i], p[i:0:-1], s[i]) for i in range(r + 1)]
        p = [one] + [a - b for a, b in zip(p[1:], t)] + [-t[r]]
    return p[::-1]


def generalized_eigenspaces(A: ConstMatrix, roots):
    """Basis change splitting A by eigenvalue.

    roots: [(lambda, multiplicity)] covering the full characteristic
    polynomial.  Returns (V, block_sizes); columns of V are kernel bases
    of (A - lambda I)^mult in the given root order.
    """
    d = A.nrows
    cols = []
    sizes = []
    tower = common_tower(A.tower, *(lam.tower for lam, _ in roots))
    for lam, mult in roots:
        B = ConstMatrix(A.rows, tower)      # its own copy of the rows
        for i, r in enumerate(B.rows):
            r[i] -= lam
        B = B.power(mult)
        kb = B.kernel_basis()
        sizes.append(len(kb))
        cols.extend(kb)
    if sum(sizes) != d:
        raise NotInvertibleError("eigenspaces do not fill the space")
    V = ConstMatrix(list(zip(*cols)), tower)
    return V, sizes


class SylvesterSolver:
    """The equations L_k X - X R_k - s_k X = b_k of one grade of the
    graded solver (reduction.solve_graded), stacked over the components
    k on row-major vec(X), with (L_k, R_k) = pairs[k] and the grade's
    shifts s_k.  The stack splits into parts X[I, J], with I a class of
    the finest row partition along which every L_k is block diagonal and
    J one of the R_k's column partition (_linked): in a joint eigenbasis
    of the residues each part is one entry, and the whole matrix is the
    one-part case.  Each block (part, k, s_k) is built and eliminated at
    most once, and kept as long as the solver."""

    __slots__ = ("pairs", "tower", "parts", "blocks")

    def __init__(self, pairs, tower):
        self.pairs, self.tower, self.blocks = pairs, tower, {}
        nc = pairs[0][1].nrows
        # per part, its cells i * nc + j on vec(X), in row-major order
        self.parts = [[i * nc + j for i in I for j in J]
                      for I in _linked([L for L, _ in pairs])
                      for J in _linked([R for _, R in pairs])]

    def solve(self, shifts, b):
        """x solving the stack, or None when it is inconsistent.

        A part whose right-hand side is zero is 0.  Otherwise the first
        block of full rank, in component order, gives the part's unique
        solution, which every other block must map to its own b_k; only
        when no block has full rank is the part's whole stack
        eliminated, with its free unknowns 0.  The whole stack is block
        diagonal up to a permutation, one diagonal block per part, so
        its Gauss-Jordan pivot columns are the union of the parts' and
        this is the whole stack's solution with its free unknowns 0.
        """
        size, zero = len(b) // len(shifts), self.tower.zero()
        x = [zero] * size
        for part, cells in enumerate(self.parts):
            m = len(cells)
            bp = [b[k * size + c] for k in range(len(shifts)) for c in cells]
            if all(v.is_zero() for v in bp):
                continue
            blocks = [self._block(part, k, s) for k, s in enumerate(shifts)]
            for k, blk in enumerate(blocks):
                if blk[1] is None:
                    blk[1] = Elimination(blk[0])
                if len(blk[1].pivots) == m:
                    xp = blk[1].solve(bp[k * m:(k + 1) * m])
                    for j, other in enumerate(blocks):
                        if j != k and any(
                                not (_dot(r, xp, zero) - y).is_zero()
                                for r, y in zip(other[0].rows, bp[j * m:])):
                            return None
                    break
            else:
                xp = ConstMatrix([r for blk in blocks for r in blk[0].rows],
                                 self.tower).solve_vec(bp)
                if xp is None:
                    return None
            for c, v in zip(cells, xp):
                x[c] = v
        return x

    def _block(self, part, k, s):
        """[matrix of X[I, J] -> (L_k X - X R_k - s X)[I, J] on the
        part's cells, its Elimination or None]."""
        blk = self.blocks.get((part, k, s))
        if blk is None:
            cells, (L, R) = self.parts[part], self.pairs[k]
            nc, at = R.nrows, {c: t for t, c in enumerate(cells)}
            M = ConstMatrix.zeros(len(cells), len(cells), self.tower)
            for t, (row, ij) in enumerate(zip(M.rows, cells)):
                i, j = divmod(ij, nc)
                for r, a in enumerate(L.rows[i]):
                    if not a.is_zero():
                        row[at[r * nc + j]] += a
                for c in range(nc):
                    if not R.rows[c][j].is_zero():
                        row[at[i * nc + c]] -= R.rows[c][j]
                row[t] -= s
            blk = self.blocks[part, k, s] = [M, None]
        return blk


def _linked(Ms):
    """The finest partition of range(d), as sorted classes, along which
    every d x d matrix of Ms is block diagonal: i and j share a class
    when some M has a nonzero entry at (i, j)."""
    classes = [{i} for i in range(Ms[0].nrows)]
    for M in Ms:
        for i, row in enumerate(M.rows):
            for j, a in enumerate(row):
                if j not in classes[i] and not a.is_zero():
                    merged = classes[i] | classes[j]
                    for t in merged:
                        classes[t] = merged
    return sorted({min(c): sorted(c) for c in classes}.values())


class SeriesMatrix(Matrix):
    __slots__ = ("nvars",)

    def __init__(self, rows, nvars: int, tower: FieldTower):
        super().__init__(rows, tower)
        self.nvars = nvars

    def _like(self, rows, tower):
        return SeriesMatrix(rows, self.nvars, tower)

    def _zero(self, tower):
        return Series.zero(self.nvars, tower)

    @classmethod
    def zeros(cls, nrows, ncols, nvars, tower):
        z = Series.zero(nvars, tower)
        return cls([[z] * ncols for _ in range(nrows)], nvars, tower)

    @classmethod
    def identity(cls, d, nvars, tower):
        m = cls.zeros(d, d, nvars, tower)
        one = Series.constant(nvars, 1, tower)
        for i in range(d):
            m.rows[i][i] = one
        return m

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return _product(self, other)
        if not isinstance(other, (int, Fraction, Scalar)):
            return NotImplemented
        return self.map(lambda a: a * other, join_scalar(other, self.tower)[1])

    @property
    def exact(self):
        return all(a.exact for r in self.rows for a in r)

    def window_hi(self):
        return tuple(min(e.hi[i] for r in self.rows for e in r)
                     for i in range(self.nvars))

    def clipped(self, hi):
        return self.map(lambda s: s.clipped(hi))

    def mul_monomial(self, exp):
        return self.map(lambda s: s.mul_monomial(exp))

    def euler(self, i, p):
        """x_i^{p+1} d/dx_i entrywise (Series.euler)."""
        return self.map(lambda s: s.euler(i, p))

    def coeff_in_xi(self, i, k):
        return self.map(lambda s: s.coeff_in_xi(i, k))

    def project_to_var(self, i):
        out = [[s.project_to_var(i) for s in r] for r in self.rows]
        return SeriesMatrix(out, 1, self.tower)

    def ramify(self, i, m):
        return self.map(lambda s: s.ramify(i, m))

    def constant_term(self) -> ConstMatrix:
        return ConstMatrix([[s.constant_term() for s in r] for r in self.rows],
                           self.tower)

    def valuation(self, i):
        """(min valuation in x_i across entries, truncation_limited)."""
        best, limited = INF, False
        for r in self.rows:
            for s in r:
                v, lim = s.valuation(i)
                limited = limited or lim
                if v < best:
                    best = v
        return best, limited

    def with_col(self, j, col):
        m = self._like(self.rows, self.tower)
        for i, v in enumerate(col):
            m.rows[i][j] = v
        return m

    def charpoly(self):
        """det(tI - A) as a list of series, coefficients low to high."""
        n = self.nvars
        return _charpoly(self.rows, Series.constant(n, 1, self.tower),
                         Series.zero(n, self.tower))

    def determinant(self) -> Series:
        """det(A) = (-1)^d det(-A), the constant coefficient of charpoly."""
        c0 = self.charpoly()[0]
        return -c0 if self.nrows % 2 else c0

    def pivot_rows(self):
        """Rows, in increasing order, that fraction-free elimination over
        the series ring picks as pivots, one per independent column.

        Entries that vanish within their window are treated as zero, so
        on truncated data this sees only what is visible.  The pivot rows
        cut the columns down to a square block of full rank.  A row m_i
        is eliminated as e m_i - f m_piv, with e the pivot and f the
        row's entry in its column, by one kernel call from nothing: as
        in every product, one with an exact-zero factor is Series.zero.
        """
        m = [list(r) for r in self.rows]
        rows_left = list(range(self.nrows))
        start = [[None] * self.ncols]
        for col in range(self.ncols):
            piv = next((i for i in rows_left if not m[i][col].is_zero()), None)
            if piv is None:
                continue
            rows_left.remove(piv)
            pe, prow = [[m[piv][col]]], [m[piv]]
            for i in rows_left:
                if not m[i][col].is_zero():
                    m[i], = series.sum_of_products(
                        start, [(1, pe, [m[i]]), (-1, [[m[i][col]]], prow)],
                        self.tower)
        return [i for i in range(self.nrows) if i not in rows_left]

    def rank_generic(self) -> int:
        """Rank over the fraction field of the series ring."""
        return len(self.pivot_rows())
