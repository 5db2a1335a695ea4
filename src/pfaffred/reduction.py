"""Transformation constructors for the reduction pipeline.

Rank reduction is Levelt's loop (Levelt, Ark. Mat. 13, 1975), run on
one component at a time: a unimodular column reduction of the leading
coefficient over the power-series ring in the remaining variables, then
a diagonal monomial shearing of its rank block.  The column reduction
keeps the first basis candidate whose Cramer identities det(B) c =
det(B_i) give integral cofactors for every other column, each found by
dividing by the lowest form of det(B) one grade at a time.  Each move is
applied to the full system through apply_gauge, which refuses a move
that breaks normal crossings, so that is verified rather than assumed.
The loop stops where the rank is plainly minimal (a leading coefficient
of full rank, or one not nilpotent at the origin); otherwise Levelt's
bound ends it: d - 1 shears in a row that leave the rank as it was prove
it minimal, and are rolled back.  The growth order of a one-variable
system (katz_order_univariate) is read off the characteristic
polynomial of its rank-reduced form.

One graded solver, solve_graded, serves both splitting and the regular
endgame: each needs an X without constant term solving the Riccati
equations b11 X + b12 - X b22 - X b21 X - x_k^{p_k+1} dX/dx_k = 0
(riccati) of all components jointly, inside a box of monomials.  Each
monomial's unknowns solve one stacked linear system, one Sylvester block
per component (linalg.SylvesterSolver), split into parts X[I, J] along
the block patterns of the constant terms, one entry per part in the
endgame's joint eigenbasis: in each part the first invertible block
solves it and the others only check that solution, and each block is
eliminated once per shift.  The right-hand sides wait at their monomial
until every lower total degree is solved, so only the monomials the
support of X reaches are visited.  A solved total degree goes forward
once: one integer grid product per component (series.grid_product)
adds its linear, derivative and quadratic terms alike.

Splitting decouples a component whose constant term has at least two
distinct eigenvalues into two diagonal blocks: the couplings P and Q
solve the equations of the two block orientations.  Whether they are
exact is decided by certify, the test the regular endgame uses too, from
the full equations on the final couplings, each evaluated once: a
coupling that reaches the edge of its box is first evaluated one grade
past it, where a cut-off series shows a term of the full residual, and
the in-box residue check is read off the same evaluation.  The
decoupled blocks are read off the splitting identity
A T - x^{p+1} dT = T Diag(a11 + a12 Q, a22 + a21 P), so the coupling is
never inverted.  A split's box in x_k is max(N + 1, N - 1 + p_k - f_k)
at working order N, capped by the input windows: the blocks' eigenvalue
shifts take p_k degrees of window on the way to rank 0, and a11 + a12 Q
takes |f_k| when the couplings' floor f_k in x_k lies below 0.  fmfs's
retry is left with the losses a split cannot see: a box that an earlier
split's clipped window caps, and a window the input limits.  Eigenvalue
shifting and ramification are the remaining primitive moves of the full
reduction.  A constant change of basis (a split's eigenbasis V, the
column reduction's permutation) is no gauge but a ConstMatrix product.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from fractions import Fraction

from .errors import (
    ColumnModuleNotFree,
    InputError,
    ReductionError,
    ResonanceError,
    TruncationInsufficient,
)
from .linalg import (
    ConstMatrix,
    SeriesMatrix,
    SylvesterSolver,
    generalized_eigenspaces,
    sum_of_products,
)
from .scalars import Scalar, common_tower
from .series import (INF, Series, coordinate_grid, divide_form,
                     fold_coordinates, fold_scalars, grid_product,
                     term_coordinates)
from .system import (
    GaugeTransformation,
    PfaffianSystem,
    apply_gauge,
    normalize_poincare,
)


MAX_ORDER = 256
MAX_RETRIES = 8


def check_order(order, max_retries=0):
    """Reject truncation orders below 1, where no series work is
    possible, and above MAX_ORDER, which bounds every working order;
    and retry budgets outside 0..MAX_RETRIES."""
    if order < 1:
        raise InputError(f"truncation order must be at least 1, got {order}")
    if order > MAX_ORDER:
        raise InputError(f"truncation order {order} exceeds the bound "
                         f"{MAX_ORDER}")
    if not 0 <= max_retries <= MAX_RETRIES:
        raise InputError(f"retry budget {max_retries} is outside the bound "
                         f"0..{MAX_RETRIES}")


# ---------------------------------------------------------------------------
# column reduction of the leading coefficient
# ---------------------------------------------------------------------------

def integral_cofactors(cols: SeriesMatrix, others, ell: int, slots,
                       pivots=None):
    """Cofactors c with cols c = v for each column v of others, over the
    series ring in the slot variables.

    cols is d x r of generic rank r; its pivot rows cut it to a square B
    with D = det(B) != 0, and pivots, when given, holds (pivot rows, D)
    as already computed for cols.  The Cramer identities D c_i =
    det(B_i), B_i being B with column i replaced by v on those rows, pin
    c; each c_i is found grade by grade, dividing the residual's form of
    degree k + g by D_k, the lowest form of D.  Grades run far enough
    that a window of ell+1 in each slot variable is honest; then
    cols c = v is checked on all d rows.  Returns the cofactors, r
    series per column of others, each exact when the data pins it
    exactly and clipped to the window otherwise; or None when a grade
    leaves a remainder or a row fails, which certifies that some v is
    not an integral combination at this truncation.
    """
    if not others:
        return []
    tower, nvars, r = cols.tower, cols.nvars, cols.ncols
    rows, D = pivots or (cols.pivot_rows(), None)
    B = cols.submatrix(rows, range(r))
    if D is None:
        # fewer than r pivot rows: every r x r minor vanishes on the data
        D = (B.determinant() if len(rows) == r
             else Series.zero(nvars, tower, hi=cols.window_hi()))
    if D.is_zero():
        if D.exact:
            raise InputError("basis determinant vanishes")
        raise TruncationInsufficient(
            "basis determinant vanishes within the window")
    k = D.total_valuation()
    rate = max(1, len(slots))
    depth = rate * ell
    win = min(B.window_hi(), default=INF)
    if win != INF and win <= depth + k:
        # windows are clipped at ell + 1, times any later ramification
        # index, so the window grows by about win / (ell + 1) per unit
        # of ell; a demand growing at least as fast never fits
        raise TruncationInsufficient(
            f"cofactor solve needs data beyond total degree {depth + k}",
            final=rate >= -(-win // (ell + 1)))
    Dk = D.form(k)
    hi = tuple(ell + 1 if j in slots else INF for j in range(nvars))
    out = []
    for v in others:
        cof = []
        for i in range(r):
            Ri = B.with_col(i, [v[t] for t in rows]).determinant()
            residual, c_terms = Ri, {}
            for g in range(depth + 1):
                if residual.is_zero():
                    break
                c = divide_form(residual.form(k + g), Dk, slots)
                if c is None:
                    return None
                if c:
                    c_terms.update(c)
                    residual = residual - D * Series(nvars, c, tower)
            ci = Series(nvars, c_terms, tower)
            if not (D.exact and Ri.exact and residual.is_zero()):
                ci = ci.clipped(hi)
            cof.append(ci)
        # the Cramer identities pin c over the fraction field; confirm
        # the column relation on every row as far as the data allows
        E = sum_of_products(SeriesMatrix([[-x] for x in v], nvars, tower),
                            [(1, cols, SeriesMatrix([[c] for c in cof],
                                                    nvars, tower))])
        if not E.is_zero():
            return None
        out.append(cof)
    return out


def _basis_candidates(A0: SeriesMatrix, r: int):
    """(column subset, pivots) pairs, residue-rank-r first, then by
    determinant valuation; pivots is the (pivot rows, determinant) that
    ranked the subset, or None for one of residue rank r."""
    d = A0.ncols
    scored = []
    for sub in itertools.combinations(range(d), r):
        cols = A0.submatrix(range(A0.nrows), sub)
        try:
            at_origin = cols.constant_term().rank()
        except TruncationInsufficient:
            at_origin = -1
        if at_origin == r:
            scored.append((0, 0, sub, None))
            continue
        rows = cols.pivot_rows()
        if len(rows) < r:
            continue
        D = cols.submatrix(rows, range(r)).determinant()
        # subsets differ, so the sort never compares pivots
        scored.append((1, D.total_valuation(), sub, (rows, D)))
    scored.sort()
    return [s[2:] for s in scored]


class ColumnReduction:
    __slots__ = ("gauge", "r")

    def __init__(self, gauge, r):
        self.gauge = gauge
        self.r = r


def column_reduce(A0: SeriesMatrix, i: int, ell: int) -> ColumnReduction:
    """Unimodular U with columns r..d of U^{-1} A0 U zero, r the generic
    rank of A0.

    A0 must be free of x_i; U has entries in the series ring of the
    remaining variables and determinant +-1.  It moves a basis of the
    column module first and subtracts from every other column its
    integral combination of the basis, so that the shear
    Diag(x_i I_r, I_{d-r}) that follows cannot raise p_i.  The basis is
    the first of _basis_candidates with integral cofactors for every
    other nonzero column.  If none has them: ColumnModuleNotFree on exact
    data, else TruncationInsufficient, as the window may be at fault.
    """
    d = A0.ncols
    nvars, tower = A0.nvars, A0.tower
    r = A0.rank_generic()
    if r == 0 or r == d:
        return ColumnReduction(GaugeTransformation.identity(d, nvars, tower),
                               r)
    slots = [j for j in range(nvars) if j != i]
    nonzero = [j for j in range(d)
               if any(not A0.rows[t][j].is_zero() for t in range(d))]
    for sub, pivots in _basis_candidates(A0, r):
        others = [j for j in nonzero if j not in sub]
        cof = integral_cofactors(
            A0.submatrix(range(d), sub),
            [[A0.rows[t][j] for t in range(d)] for j in others], ell, slots,
            pivots)
        if cof is not None:
            break
    else:
        if A0.exact:
            raise ColumnModuleNotFree("column module not free")
        raise TruncationInsufficient(
            "no column basis certified at this truncation")
    # basis columns first, then each column j minus c_kj basis column k
    order = list(sub) + [j for j in range(d) if j not in sub]
    N = SeriesMatrix.zeros(d, d, nvars, tower)
    for j, cj in zip(others, cof):
        for k, c in enumerate(cj):
            if not c.is_zero():
                N.rows[k][order.index(j)] = -c
    # the constant permutation takes the columns in that order
    I, U = ConstMatrix.identity(d, tower), GaugeTransformation.unipotent(N)
    g = GaugeTransformation(I.submatrix(range(d), order) * U.T,
                            U.T_inv * I.submatrix(order, range(d)))
    A0r = g.T_inv * A0 * g.T
    for t in range(d):
        for j in range(r, d):
            if not A0r.rows[t][j].is_zero():
                raise ReductionError("column elimination left a nonzero tail")
    return ColumnReduction(g, r)


def build_shearing(i: int, r: int, d: int, nvars, tower):
    """Diag(x_i I_r, I_{d-r})."""
    e_i = tuple(1 if k == i else 0 for k in range(nvars))
    exps = [e_i] * r + [(0,) * nvars] * (d - r)
    return GaugeTransformation.diagonal_monomial(exps, nvars, tower)


# ---------------------------------------------------------------------------
# rank reduction
# ---------------------------------------------------------------------------

def _apply_logged(S, g, steps, kind, i):
    out = apply_gauge(S, g)
    steps.append({"kind": kind, "component": i, "gauge": g,
                  "p_before": list(S.p), "p_after": list(out.p)})
    return out


def rank_reduce(S: PfaffianSystem, order: int = 10):
    """Lower every Poincare rank to its minimal integer value.

    Levelt's loop, one component i at a time: column-reduce the leading
    coefficient A_{i,0} to its generic rank r, then shear by
    Diag(x_i I_r, I_{d-r}), which never raises p_i.  S is normalized on
    entry and after every gauge, so p_i > 0 leaves A_{i,0} nonzero and
    r >= 1.  p_i is minimal once r = d or A_{i,0}(0) is not nilpotent,
    and the loop stops there.  Otherwise Levelt's bound decides: if p_i
    can be lowered at all, d - 1 shears in a row lower it.  So after
    d - 1 sterile shears (each leaving p_i as it was) p_i is minimal,
    and the system and the steps roll back to where the first of them
    began.  Returns (T, system, steps), T the product of the steps'
    transformations.
    """
    check_order(order)
    S, _ = normalize_poincare(S)
    steps = []
    for i in range(S.n):
        guard = (S.p[i] + 1) * S.d + S.d
        it = 0
        sterile, saved = 0, None
        while S.p[i] > 0:
            it += 1
            if it > guard:
                raise ReductionError(
                    f"rank reduction did not stabilize on component {i}")
            try:
                colred = column_reduce(S.coeff(i, 0), i, order)
            except (ColumnModuleNotFree, TruncationInsufficient) as exc:
                exc.args = (f"component {i}: {exc.args[0]}",)
                raise
            if not colred.gauge.T.is_identity():
                S = _apply_logged(S, colred.gauge, steps, "column_reduce", i)
            if (colred.r == S.d
                    or not S.A[i].constant_term().power(S.d).is_zero()):
                break
            if not sterile:
                saved = (S, len(steps))
            p_before = S.p[i]
            shear = build_shearing(i, colred.r, S.d, S.n, S.tower)
            S = _apply_logged(S, shear, steps, "shear", i)
            sterile = 0 if S.p[i] < p_before else sterile + 1
            if sterile == S.d - 1:
                S, kept = saved
                del steps[kept:]
                break
    T = SeriesMatrix.identity(S.d, S.n, S.tower)
    for st in steps:
        T = T * st["gauge"].T
    return T, S, steps


# ---------------------------------------------------------------------------
# growth order of a one-variable system
# ---------------------------------------------------------------------------

def katz_order_univariate(ods: PfaffianSystem, order: int = 10) -> Fraction:
    """Exponential growth order of a one-variable system.

    The system is first brought to minimal Poincare rank p, so that
    x^{p+1} F' = A F.  Writing det(lam I - A) = sum_j c_j(x) lam^j
    (A.charpoly()), the order is max(0, max_{j<d} p - val(c_j)/(d-j)),
    i.e. the steepest slope of the Newton polygon of
    det(lam I - x^{-p-1} A) measured against the regular-singular
    baseline.  Valuations are certified against the truncation window:
    a coefficient c_j with no visible term may hide anywhere at or beyond
    its own window, and if that could change the maximum we refuse.  At
    minimal rank p the order lies in (p - 1, p]; an order outside it
    means the rank reduction did not finish, a ReductionError.
    """
    if ods.n != 1:
        raise InputError("katz order expects a one-variable system")
    if ods.A[0].is_zero():
        if ods.A[0].exact:
            return Fraction(0)
        raise TruncationInsufficient(
            "component vanishes within the truncation window")
    _, R, _ = rank_reduce(ods, order=order)
    p = R.p[0]
    if p == 0:
        return Fraction(0)
    d = R.d
    chi = R.A[0].charpoly()[:d]
    best = max([Fraction(0)] + [p - Fraction(c.valuation(0)[0], d - j)
                                for j, c in enumerate(chi) if c.terms])
    for j, c in enumerate(chi):
        # a vanishing coefficient is only safe if even a term sitting
        # right at its window could not beat the current max
        w = c.hi[0]
        if not c.terms and w != INF and p - Fraction(w, d - j) > best:
            raise TruncationInsufficient(
                f"lambda^{j} coefficient of the characteristic polynomial "
                f"vanishes to order {w}; growth order not certified")
    if not p - 1 < best <= p:
        raise ReductionError(
            f"growth order {best} is not within (p - 1, p] for the "
            f"reduced rank p = {p}")
    return best


# ---------------------------------------------------------------------------
# the graded Riccati solver shared by splitting and the regular endgame
# ---------------------------------------------------------------------------

def riccati(blocks, X, p, k):
    """b11 X + b12 - X b22 - X b21 X - x_k^{p+1} dX/dx_k on the blocks
    (b11, b12, b21, b22) of component k: X b21, then one sum_of_products."""
    b11, b12, b21, b22 = blocks
    return sum_of_products(b12 - X.euler(k, p),
                           [(1, b11, X), (-1, X, b22), (-1, X * b21, X)])


def _clipped(M, hi):
    # zero entries become exact zeros, which products skip; only
    # coefficients below hi are ever read
    return M.map(lambda s: s.clipped(hi) if s.terms
                 else Series.zero(M.nvars, M.tower))


def _residual(blocks, X, p, k, hi):
    """riccati(blocks, X, p, k) on operands clipped to hi."""
    return riccati(tuple(_clipped(M, hi) for M in blocks), _clipped(X, hi),
                   p, k)


def certify(equations, box, check=True):
    """Whether the solutions X of equations are exact: True only when
    every full riccati residual, nothing clipped, is zero on an infinite
    window.

    equations lists (blocks, X, p, k), each X exact and solved inside
    box; an inexact b12 or b21 rules certification out.  Each residual
    is evaluated once.  While certification stands, an X with a term at
    exponent box_j - 1 is evaluated on operands clipped to box + 1: X is
    exact, so any term of that layer is one of the full residual and
    refuses certification, and only a zero layer leads on to the full
    residual.  After a refusal, the rest is evaluated clipped to the
    box.  With check, a residual nonzero inside the box raises
    ResonanceError; without it, the first refusal ends the work.
    """
    certified = all(b[1].exact and b[2].exact for b, _, _, _ in equations)
    for blocks, X, p, k in equations:
        if not certified:
            if not check:
                break
            R = _residual(blocks, X, p, k, box)
        else:
            if any(e[j] == h - 1 for row in X.rows for s in row
                   for e in s.terms for j, h in enumerate(box)):
                R = _residual(blocks, X, p, k, tuple(h + 1 for h in box))
                certified = R.is_zero()
            if certified:
                R = riccati(blocks, X, p, k)
                certified = R.is_zero() and R.exact
        if check and not R.clipped(box).is_zero():
            raise ResonanceError("off-diagonal residue after splitting")
    return certified


def solve_graded(blocks, p, box, tower):
    """X with no constant term making every riccati(blocks[k], X, p[k], k)
    vanish on the monomials below box; X is exact.

    blocks lists (b11, b12, b21, b22) per component k; p[k] is its
    Poincare rank.  Precondition: every block term has nonnegative
    exponents and every block's window reaches box, as in split and the
    endgame.  Each monomial beta of X solves one stacked system
    X_beta -> b11(0) X_beta - X_beta b22(0) - s_k X_beta, with s_k = beta_k
    when p_k = 0 and 0 otherwise, through linalg.SylvesterSolver, part
    by part: the first component whose block is invertible solves it and
    every other component checks the result; only when no block is
    invertible is the part's stack eliminated, free unknowns 0.  Every
    other term reaches beta from a strictly lower total degree, so it
    waits in a right-hand side pending at beta, seeded by b12 (its
    constant term unread), and the betas pop from a heap in (|beta|,
    beta) order.  Once a total degree is done, its increment D goes
    forward once, by one series.grid_product per component k:
    [b11' | D | -D b21 | X + D] [D; -b22'; X; -b21 D], started when
    p_k >= 1 from -x_k^{p_k+1} dD/dx_k, with b11', b22' the nonconstant
    terms in the box.  Its term pairs below box go into integer buckets
    and fold to one Scalar per exponent, which is what SeriesMatrix
    products clipped to box give under the precondition.  A zero b21
    adds no columns, and X's coordinates are kept only for a nonzero
    one.  An inconsistent beta raises ResonanceError carrying the grade.
    """
    n = len(box)
    nr, nc = blocks[0][1].nrows, blocks[0][1].ncols
    size = nr * nc
    solver = SylvesterSolver(
        [(b[0].constant_term(), b[3].constant_term()) for b in blocks], tower)
    field = common_tower(tower, *(M.tower for b in blocks for M in b))

    # per beta, the beta coefficients of the equations that lower grades
    # contribute, flat in (component, row, col) order
    pending: dict = {}
    heap: list = []

    def rhs(beta):
        r = pending.get(beta)
        if r is None:
            r = pending[beta] = [tower.zero()] * (n * size)
            heapq.heappush(heap, (sum(beta), beta))
        return r

    # b12 seeds the right-hand sides; per component, grids keeps the
    # coordinates of b11', -b22' and a nonzero b21
    grids = []
    for k, b in enumerate(blocks):
        b11, b12, b22 = ([[{e: c for e, c in s.terms.items()
                            if any(e) and all(map(operator.lt, e, box))}
                           for s in row] for row in M.rows]
                         for M in (b[0], b[1], b[3]))
        for i, row in enumerate(b12):
            for j, t in enumerate(row):
                for gamma, a in t.items():
                    rhs(gamma)[k * size + i * nc + j] += a
        grids.append(([[term_coordinates(t, 1) for t in row] for row in b11],
                      [[term_coordinates(t, -1) for t in row] for row in b22],
                      None if b[2].is_zero() else coordinate_grid(b[2], 1)))

    # X as terms {beta: value} per entry (i, j) and, for a nonzero b21,
    # as a grid of coordinate lists that no step changes in place
    xt = {}
    xc = [[[]] * nc] * nr
    while heap:
        g = heap[0][0]
        terms: dict = {}
        while heap and heap[0][0] == g:
            _, beta = heapq.heappop(heap)
            r = pending.pop(beta)
            if all(v.is_zero() for v in r):
                continue            # zero is the canonical kernel choice
            x = solver.solve([b if pk == 0 else 0 for b, pk in zip(beta, p)],
                             [-v for v in r])
            if x is None:
                raise ResonanceError(
                    f"no polynomial correction at grade {beta}", grade=beta)
            for i, v in enumerate(x):
                if not v.is_zero():
                    terms.setdefault(divmod(i, nc), {})[beta] = v
        if not terms:
            continue
        dc = [[term_coordinates(terms.get((i, j), {}), 1) for j in range(nc)]
              for i in range(nr)]
        if any(b21 for _, _, b21 in grids):
            nd = [[[(e, h, -v, q) for e, h, v, q in c] for c in row]
                  for row in dc]
            xo, xc = xc, [list(map(list.__add__, r, d))
                          for r, d in zip(xc, dc)]
        for k, (b11, b22, b21) in enumerate(grids):
            left = list(map(list.__add__, b11, dc))
            right = dc + b22
            if b21:
                Y = grid_product(None, nd, b21, box, fold_coordinates, field)
                left = [r + y + x for r, y, x in zip(left, Y, xc)]
                right += xo + grid_product(None, b21, nd, box,
                                          fold_coordinates, field)
            start = None
            if p[k]:        # -x_k^{p_k+1} dD/dx_k
                start = [[[(e[:k] + (e[k] + p[k],) + e[k + 1:], h, -e[k] * v,
                            q) for e, h, v, q in c if e[k]] for c in row]
                         for row in dc]
            for i, row in enumerate(grid_product(start, left, right, box,
                                                 fold_scalars, field)):
                for j, t in enumerate(row):
                    for e, v in t.items():
                        rhs(e)[k * size + i * nc + j] += v
        for ij, t in terms.items():
            xt.setdefault(ij, {}).update(t)
    X = SeriesMatrix.zeros(nr, nc, n, tower)
    for (i, j), t in xt.items():
        X.rows[i][j] = Series(n, t, tower)
    return X


# ---------------------------------------------------------------------------
# splitting along an eigenvalue decomposition
# ---------------------------------------------------------------------------

def split(S: PfaffianSystem, i: int, roots, order: int = 10):
    """Decouple component i by the eigenvalues of its constant term.

    roots are that constant term's eigenvalues with their
    multiplicities, as roots_of_charpoly gives them; there must be at
    least two distinct ones, and the first drives the top block.  In the
    eigenbasis V, with blocks (a11, a12, a21, a22) of each V^-1 A_k V, the
    couplings P (top right) and Q (bottom left) solve the Riccati equations
    riccati((a11, a12, a21, a22), P) = 0 and riccati((a22, a21, a12, a11),
    Q) = 0 jointly over all components; solve_graded solves each inside
    a box W of monomials.

    W covers what the blocks lose on their way to rank 0, so their
    leaves keep a window of at least order - 1: in x_k it is
    max(order + 1, order - 1 + p_k - f_k), capped by the input windows.
    The eigenvalue shifts shed p_k = S.p[k] one degree at a time, and
    f_k <= 0, the lowest effective floor in x_k of every component's
    a12 and a21, costs |f_k| in a11 + a12 Q and a22 + a21 P.  What the
    box cannot see is left to fmfs's retry: a box that an earlier
    split's clipped window caps, and windows the input limits.

    Once P and Q solve their equations, the coupling T = [[I, P], [Q, I]]
    satisfies A_k T - x_k^{p_k+1} dT/dx_k = T Diag(a11 + a12 Q,
    a22 + a21 P) in the eigenbasis, so the decoupled blocks are read off
    that identity and T is never inverted.  certify decides whether the
    couplings are exact: only when the full, unclipped equations
    evaluated on the final P and Q vanish on an infinite window.
    Otherwise P, Q and both blocks are clipped to W.  The residue check
    is read off the same evaluations: a Riccati residual nonzero inside
    W raises ResonanceError.  So does an inconsistent coupling, naming
    its grade.

    Returns (T, top, bottom): T is the eigenbasis change times the
    coupling, and top and bottom are standalone systems on the diagonal
    blocks, with the Poincare ranks of S, over the join of the fields of
    S and the eigenvalues.
    """
    check_order(order)
    n, d = S.n, S.d
    if len(roots) < 2:
        raise InputError("constant term has a single eigenvalue; "
                         "splitting needs at least two")
    V, sizes = generalized_eigenspaces(S.A[i].constant_term(), roots)
    Vinv, d1 = V.inverse(), sizes[0]
    tower = common_tower(S.tower, V.tower)

    rs1, rs2 = list(range(d1)), list(range(d1, d))
    a = []
    for M in S.A:
        Ak = Vinv * M * V
        a.append((Ak.submatrix(rs1, rs1), Ak.submatrix(rs1, rs2),
                  Ak.submatrix(rs2, rs1), Ak.submatrix(rs2, rs2)))

    # the box covers the loss to rank 0: p_k, and |f_k| in a11 + a12 Q
    f = [0] * n
    for blocks in a:
        for M in blocks[1:3]:
            for row in M.rows:
                for s in row:
                    f = list(map(min, f, s.effective_floor()))
    W = [order + 1] * n
    for k in range(n):
        W[k] = max(W[k], order - 1 + S.p[k] - f[k])
    # solve only inside the box the input windows can serve: every
    # monomial read stays strictly under W in each variable, so the
    # couplings are correct on the whole box and may be clipped to it
    for blocks in a:
        for M in blocks:
            W = list(map(min, W, M.window_hi()))
    box = tuple(W)

    boxed = [tuple(_clipped(M, box) for M in blocks) for blocks in a]
    P = solve_graded(boxed, S.p, box, tower)
    Q = solve_graded([b[::-1] for b in boxed], S.p, box, tower)
    certified = certify(
        [eq for k in range(n)
         for eq in ((a[k], P, S.p[k], k), (a[k][::-1], Q, S.p[k], k))], box)
    if not certified:
        P = P.clipped(box)
        Q = Q.clipped(box)
    tops, bottoms = [], []
    for a11, a12, a21, a22 in a:
        t = sum_of_products(a11, [(1, a12, Q)])
        b = sum_of_products(a22, [(1, a21, P)])
        if not certified:
            t, b = t.clipped(box), b.clipped(box)
        tops.append(t)
        bottoms.append(b)
    T = SeriesMatrix.identity(d, n, tower)
    for r in range(d1):
        T.rows[r][d1:] = P.rows[r]
    for r in range(d - d1):
        T.rows[d1 + r][:d1] = Q.rows[r]
    return (V * T, PfaffianSystem(S.vars, S.p, tops, tower),
            PfaffianSystem(S.vars, S.p, bottoms, tower))


# ---------------------------------------------------------------------------
# eigenvalue shifting and ramification
# ---------------------------------------------------------------------------

def eigen_shift(S: PfaffianSystem, i: int, gamma: Scalar):
    """Strip the scalar exponential growth gamma/x_i^{p_i}.

    A_i loses gamma I; the exponential part of component i gains the
    term -(gamma/p_i) x_i^{-p_i}, returned as (power, coefficient).
    """
    if gamma.is_zero():
        raise InputError("eigenvalue shift with gamma = 0")
    p = S.p[i]
    if p == 0:
        raise InputError("eigenvalue shift on a regular component")
    A = list(S.A)
    A[i] = SeriesMatrix(A[i].rows, S.n,           # its own copy of the rows
                        common_tower(A[i].tower, S.tower, gamma.tower))
    for k, r in enumerate(A[i].rows):
        r[k] -= gamma
    out = PfaffianSystem(S.vars, S.p, A, S.tower)
    out, _ = normalize_poincare(out)
    return (p, -gamma * Fraction(1, p)), out


def ramify_system(S: PfaffianSystem, i: int, m: int) -> PfaffianSystem:
    """Substitute x_i = t^m; component i picks up the chain-rule factor m."""
    if m < 1:
        raise InputError("ramification index must be >= 1")
    if m == 1:
        return S
    A = [M.ramify(i, m) for M in S.A]
    A[i] = A[i] * m
    p = list(S.p)
    p[i] = m * p[i]
    return PfaffianSystem(S.vars, p, A, S.tower)
