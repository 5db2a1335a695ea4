"""Matrices over the scalar field and over truncated series.

ConstMatrix holds field scalars and supports exact elimination (rref,
rank, solve, kernel, inverse; Elimination replays one elimination on
many right-hand sides) plus characteristic polynomials and generalized
eigenspace decomposition; sylvester_stack builds the stacked operator
X -> (L_k X - X R_k - s_k X)_k that the splitting and the regular
endgame solve grade by grade.  SeriesMatrix holds Series entries; its
inverse, which only the splitting's coupling needs, refuses a
determinant that is not a unit times a monomial and reuses it for the
exact adjugate route, falling back to a windowed Neumann series.  Both
the characteristic polynomial and the series determinant come from one
memoized minor expansion.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import (
    DimensionError,
    NotInvertibleError,
    NotUnitError,
    TruncationInsufficient,
)
from .scalars import FieldTower, Scalar, poly_mul, poly_add, poly_trim
from .series import INF, Series, divide_exact


class ConstMatrix:
    __slots__ = ("rows", "nrows", "ncols", "tower")

    def __init__(self, rows, tower: FieldTower):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise DimensionError("ragged matrix")
        self.tower = tower

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

    def copy(self):
        return ConstMatrix(self.rows, self.tower)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __add__(self, other):
        return ConstMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.tower)

    def __sub__(self, other):
        return ConstMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.tower)

    def __neg__(self):
        return ConstMatrix([[-a for a in r] for r in self.rows], self.tower)

    def __mul__(self, other):
        if isinstance(other, ConstMatrix):
            if self.ncols != other.nrows:
                raise DimensionError("shape mismatch in product")
            cols = list(zip(*other.rows))
            return ConstMatrix(
                [[_dot(r, c, self.tower) for c in cols] for r in self.rows],
                self.tower)
        c = self.tower.scalar(other)
        return ConstMatrix([[a * c for a in r] for r in self.rows], self.tower)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, ConstMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and all(a == b for r1, r2 in zip(self.rows, other.rows)
                        for a, b in zip(r1, r2)))

    __hash__ = None

    def transpose(self):
        return ConstMatrix(list(zip(*self.rows)), self.tower)

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def rref(self, ncols=None):
        """(reduced row echelon form, pivot column list).

        With ncols given, pivots are sought only in the first ncols
        columns; the rest are carried along by the same row operations.
        """
        m = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for pc in range(self.ncols if ncols is None else ncols):
            piv = next((i for i in range(pr, self.nrows) if not m[i][pc].is_zero()), None)
            if piv is None:
                continue
            m[pr], m[piv] = m[piv], m[pr]
            inv = m[pr][pc].inverse()
            m[pr] = [a * inv for a in m[pr]]
            for i in range(self.nrows):
                if i != pr and not m[i][pc].is_zero():
                    f = m[i][pc]
                    m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.nrows:
                break
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
        """Any x with A x = b, or None when inconsistent."""
        aug = ConstMatrix([r + [bb] for r, bb in zip(self.rows, b)], self.tower)
        R, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [self.tower.zero()] * self.ncols
        for i, p in enumerate(pivots):
            x[p] = R.rows[i][self.ncols]
        return x

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionError("inverse of a non-square matrix")
        el = Elimination(self)
        if el.pivots != list(range(self.nrows)):
            raise NotInvertibleError("singular matrix")
        return ConstMatrix(el.E, self.tower)

    def charpoly(self):
        """det(tI - A), monic, coefficients low to high."""
        o = self.tower.one()
        entries = [[([-a, o] if i == j else [-a]) for j, a in enumerate(r)]
                   for i, r in enumerate(self.rows)]
        return poly_trim(_minor_expansion(
            entries, [o], [], lambda p: any(not c.is_zero() for c in p),
            poly_mul, poly_add, lambda p: [-c for c in p]))

    def power(self, k: int):
        out = ConstMatrix.identity(self.nrows, self.tower)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def lift_tower(self, tower):
        return ConstMatrix([[tower.embed(a) for a in r] for r in self.rows], tower)

    def to_series(self, nvars):
        return SeriesMatrix(
            [[Series(nvars, {(0,) * nvars: a}, self.tower) if not a.is_zero()
              else Series.zero(nvars, self.tower) for a in r] for r in self.rows],
            nvars, self.tower)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"ConstMatrix[{body}]"


class Elimination:
    """The row operations that bring A to reduced echelon form.

    E is the product of those operations (E A = rref(A)), kept with the
    pivot columns so that A x = b is solved for many right-hand sides
    with one elimination: E b is what rref([A | b]) leaves in its last
    column, so solve(b) returns exactly the x of A.solve_vec(b).
    """

    __slots__ = ("E", "pivots", "ncols", "tower")

    def __init__(self, A: ConstMatrix):
        one, zero = A.tower.one(), A.tower.zero()
        aug = ConstMatrix([r + [one if j == i else zero for j in range(A.nrows)]
                           for i, r in enumerate(A.rows)], A.tower)
        R, self.pivots = aug.rref(A.ncols)
        self.E = [r[A.ncols:] for r in R.rows]
        self.ncols = A.ncols
        self.tower = A.tower

    def solve(self, b):
        """Any x with A x = b (free variables 0), or None when inconsistent."""
        zero = self.tower.zero()
        nz = [(j, bj) for j, bj in enumerate(b) if not bj.is_zero()]
        y = []
        for row in self.E:
            acc = zero
            for j, bj in nz:
                if not row[j].is_zero():
                    acc = acc + row[j] * bj
            y.append(acc)
        if any(not v.is_zero() for v in y[len(self.pivots):]):
            return None
        x = [zero] * self.ncols
        for i, p in enumerate(self.pivots):
            x[p] = y[i]
        return x


def _dot(row, col, tower):
    acc = tower.zero()
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc


def _minor_expansion(entries, one, zero, nonzero, mul, add, neg):
    """Determinant of a square grid over any commutative ring.

    Laplace expansion along the rows, memoized on the set of columns
    used so far; an entry failing nonzero is skipped.  Fine for the
    small dimensions these systems have.
    """
    d = len(entries)
    memo = {}

    def minor(row, mask):
        if row == d:
            return one
        got = memo.get(mask)
        if got is not None:
            return got
        acc = zero
        sign = 1
        for j in range(d):
            bit = 1 << j
            if mask & bit:
                continue
            e = entries[row][j]
            if nonzero(e):
                term = mul(e, minor(row + 1, mask | bit))
                acc = add(acc, term if sign > 0 else neg(term))
            sign = -sign
        memo[mask] = acc
        return acc

    return minor(0, 0)


def generalized_eigenspaces(A: ConstMatrix, roots):
    """Basis change splitting A by eigenvalue.

    roots: [(lambda, multiplicity)] covering the full characteristic
    polynomial.  Returns (V, block_sizes); columns of V are kernel bases
    of (A - lambda I)^mult in the given root order.
    """
    d = A.nrows
    cols = []
    sizes = []
    I = ConstMatrix.identity(d, A.tower)
    for lam, mult in roots:
        B = (A - I * lam).power(mult)
        kb = B.kernel_basis()
        sizes.append(len(kb))
        cols.extend(kb)
    if sum(sizes) != d:
        raise NotInvertibleError("eigenspaces do not fill the space")
    V = ConstMatrix(list(zip(*cols)), A.tower)
    return V, sizes


def sylvester_stack(blocks, tower):
    """Matrix of X -> (L_k X - X R_k - s_k X)_k on row-major vec(X).

    blocks lists (L_k, R_k, s_k): square constant L_k and R_k of the
    row and column sizes of X, and a rational shift s_k.  Row block k
    of the result holds equation k.
    """
    rows, cols = blocks[0][0].nrows, blocks[0][1].nrows
    size = rows * cols
    out = []
    for L, R, shift in blocks:
        M = ConstMatrix.zeros(size, size, tower)
        s = tower.scalar(shift)
        for rr in range(rows):
            for cc in range(cols):
                ci = rr * cols + cc
                for r2 in range(rows):
                    M.rows[r2 * cols + cc][ci] = \
                        M.rows[r2 * cols + cc][ci] + L.rows[r2][rr]
                for c2 in range(cols):
                    M.rows[rr * cols + c2][ci] = \
                        M.rows[rr * cols + c2][ci] - R.rows[cc][c2]
                M.rows[ci][ci] = M.rows[ci][ci] - s
        out.extend(M.rows)
    return ConstMatrix(out, tower)


class SeriesMatrix:
    __slots__ = ("rows", "nrows", "ncols", "nvars", "tower")

    def __init__(self, rows, nvars: int, tower: FieldTower):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise DimensionError("ragged matrix")
        self.nvars = nvars
        self.tower = tower

    @classmethod
    def zeros(cls, nrows, ncols, nvars, tower):
        return cls([[Series.zero(nvars, tower) for _ in range(ncols)]
                    for _ in range(nrows)], nvars, tower)

    @classmethod
    def identity(cls, d, nvars, tower):
        m = cls.zeros(d, d, nvars, tower)
        one = Series.constant(nvars, 1, tower)
        for i in range(d):
            m.rows[i][i] = one
        return m

    def copy(self):
        return SeriesMatrix(self.rows, self.nvars, self.tower)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __add__(self, other):
        return SeriesMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.nvars, self.tower)

    def __sub__(self, other):
        return SeriesMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.nvars, self.tower)

    def __neg__(self):
        return SeriesMatrix([[-a for a in r] for r in self.rows],
                            self.nvars, self.tower)

    def __mul__(self, other):
        if isinstance(other, SeriesMatrix):
            if self.ncols != other.nrows:
                raise DimensionError("shape mismatch in product")
            cols = list(zip(*other.rows))
            out = []
            for r in self.rows:
                out_row = []
                for c in cols:
                    acc = Series.zero(self.nvars, self.tower)
                    for a, b in zip(r, c):
                        if a.is_zero() and a.exact:
                            continue
                        if b.is_zero() and b.exact:
                            continue
                        acc = acc + a * b
                    out_row.append(acc)
                out.append(out_row)
            return SeriesMatrix(out, self.nvars, self.tower)
        if isinstance(other, (int, Fraction, Scalar, Series)):
            return SeriesMatrix([[a * other for a in r] for r in self.rows],
                                self.nvars, self.tower)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar, Series)):
            return self.__mul__(other)
        return NotImplemented

    def agrees(self, other) -> bool:
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and all(a.agrees(b) for r1, r2 in zip(self.rows, other.rows)
                        for a, b in zip(r1, r2)))

    __eq__ = agrees
    __hash__ = None

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    @property
    def exact(self):
        return all(a.exact for r in self.rows for a in r)

    def window_hi(self):
        return tuple(min(e.hi[i] for r in self.rows for e in r)
                     for i in range(self.nvars))

    def transpose(self):
        return SeriesMatrix(list(zip(*self.rows)), self.nvars, self.tower)

    def map(self, fn):
        return SeriesMatrix([[fn(a) for a in r] for r in self.rows],
                            self.nvars, self.tower)

    def clipped(self, hi):
        return self.map(lambda s: s.clipped(hi))

    def mul_monomial(self, exp):
        return self.map(lambda s: s.mul_monomial(exp))

    def partial_derivative(self, i):
        return self.map(lambda s: s.partial_derivative(i))

    def restrict(self, zero_vars):
        return self.map(lambda s: s.restrict(zero_vars))

    def coeff_in_xi(self, i, k):
        return self.map(lambda s: s.coeff_in_xi(i, k))

    def project_to_var(self, i):
        out = [[s.project_to_var(i) for s in r] for r in self.rows]
        return SeriesMatrix(out, 1, self.tower)

    def ramify(self, i, m):
        return self.map(lambda s: s.ramify(i, m))

    def lift_tower(self, tower):
        return SeriesMatrix([[s.lift_tower(tower) for s in r] for r in self.rows],
                            self.nvars, tower)

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

    def submatrix(self, rows, cols):
        return SeriesMatrix([[self.rows[i][j] for j in cols] for i in rows],
                            self.nvars, self.tower)

    def with_col(self, j, col):
        m = self.copy()
        for i, v in enumerate(col):
            m.rows[i][j] = v
        return m

    @classmethod
    def block(cls, grid):
        """Assemble from a 2D grid of SeriesMatrix blocks."""
        rows = []
        for band in grid:
            for i in range(band[0].nrows):
                row = []
                for blk in band:
                    row.extend(blk.rows[i])
                rows.append(row)
        b0 = grid[0][0]
        return cls(rows, b0.nvars, b0.tower)

    @classmethod
    def block_diag(cls, blocks):
        """Block-diagonal matrix with the given square blocks."""
        b0 = blocks[0]
        return cls.block([[M if a == b else cls.zeros(M.nrows, N.ncols,
                                                      b0.nvars, b0.tower)
                           for b, N in enumerate(blocks)]
                          for a, M in enumerate(blocks)])

    def determinant(self) -> Series:
        if self.nrows != self.ncols:
            raise DimensionError("determinant of a non-square matrix")
        return _minor_expansion(
            self.rows, Series.constant(self.nvars, 1, self.tower),
            Series.zero(self.nvars, self.tower),
            lambda e: not (e.is_zero() and e.exact),
            operator.mul, operator.add, operator.neg)

    def pivot_rows(self):
        """Rows, in increasing order, that fraction-free elimination over
        the series ring picks as pivots, one per independent column.

        Entries that vanish within their window are treated as zero, so
        on truncated data this sees only what is visible.  The pivot rows
        cut the columns down to a square block of full rank.
        """
        m = [list(r) for r in self.rows]
        chosen = []
        rows_left = list(range(self.nrows))
        for col in range(self.ncols):
            piv = next((i for i in rows_left if not m[i][col].is_zero()), None)
            if piv is None:
                continue
            chosen.append(piv)
            rows_left.remove(piv)
            pe = m[piv][col]
            for i in rows_left:
                if m[i][col].is_zero():
                    continue
                f = m[i][col]
                m[i] = [pe * a - f * b for a, b in zip(m[i], m[piv])]
        return sorted(chosen)

    def rank_generic(self) -> int:
        """Rank over the fraction field of the series ring."""
        return len(self.pivot_rows())

    def _adjugate_over(self, det):
        """adj(self) / det, or None when det does not divide a cofactor."""
        d = self.nrows
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                rows = [r for r in range(d) if r != j]
                cols = [c for c in range(d) if c != i]
                sub = self.submatrix(rows, cols)
                cof = sub.determinant()
                if (i + j) % 2:
                    cof = -cof
                q = divide_exact(cof, det)
                if q is None:
                    return None
                row.append(q)
            out.append(row)
        return SeriesMatrix(out, self.nvars, self.tower)

    def adjugate_inverse(self):
        """Exact inverse via adjugate; None when entries are inexact or
        the determinant does not divide every cofactor."""
        if not self.exact:
            return None
        det = self.determinant()
        return None if det.is_zero() else self._adjugate_over(det)

    def inverse(self, hi=None):
        """Inverse matrix; NotUnitError unless the determinant is a unit
        times a monomial (membership in GL_d of the localization).

        Exact entries: adjugate over that determinant, exact result.
        Otherwise a Neumann series around the constant term, valid on
        the window.
        """
        if self.nrows != self.ncols:
            raise DimensionError("inverse of a non-square matrix")
        det = self.determinant()
        beta = det.support_min()
        if beta is None:
            raise NotUnitError("gauge determinant vanishes within window")
        unit = det.mul_monomial(tuple(-b for b in beta))
        if unit.constant_term().is_zero():
            raise NotUnitError("gauge determinant is not monomial x unit")
        inv = self._adjugate_over(det) if self.exact else None
        if inv is not None:
            if hi is not None:
                inv = inv.clipped(hi)
            return inv
        if hi is None:
            hi = self.window_hi()
        if any(h == INF for h in hi):
            raise TruncationInsufficient(
                "inverse needs a finite window for inexact entries")
        try:
            c0 = self.constant_term()
        except TruncationInsufficient:
            raise NotUnitError("inverse of a matrix with polar entries "
                               "requires exact data")
        c0inv = c0.inverse().to_series(self.nvars)
        N = (c0inv * self).clipped(hi) - SeriesMatrix.identity(
            self.nrows, self.nvars, self.tower)
        acc = SeriesMatrix.identity(self.nrows, self.nvars, self.tower).clipped(hi)
        term = acc
        steps = sum(h - 1 for h in hi) + 1
        for _ in range(steps):
            term = (term * N).clipped(hi) * (-1)   # accumulates (-N)^k
            if term.is_zero():
                break
            acc = acc + term
        return (acc * c0inv).clipped(hi)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"SeriesMatrix[{body}]"
